"""Weighted hyperplane-arrangement calculators and the engine oracle battery.

For a weight tuple (w0, w1, ..., wn) the arrangement polynomial is

    lam = x1^w1 * ... * xn^wn * (1 - x1 - ... - xn)^w0,

whose exponent classes at the origin are exactly the fractions j/wi
(1 <= j <= wi, 0 <= i <= n).  This module computes that candidate set,
the convolution candidate set and its gcd characterization, the scalar
determinant controlling per-degree solvability, the alternating-binomial
identity underlying its root pattern, and an oracle table comparing the
closed-form answers with engine verdicts.

It also hosts the per-degree exact solver: for lam-shaped f with g = 1
and wi*alpha never an integer, surjectivity decouples by total x-degree
and t-degree into finite systems whose solvability reduces to scaling-
operator invertibility plus the nonvanishing of the determinant, giving
a NotExponent verdict without any large elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import upoly
from .engine import (
    ExponentReport,
    ProblemInstance,
    Verdict,
    default_schedule,
    exponent_test,
)
from .rational import Q, class_rep, is_integer
from .ring import Monomial, RingElement


@dataclass(frozen=True)
class Arrangement:
    """weights = (w0, ..., wn), integers or integral rationals; d = sum, n = len - 1."""

    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.weights) < 2:
            raise ValueError("need at least (w0, w1)")
        if not all(is_integer(w) and w >= 0 for w in self.weights):
            raise ValueError("weights must be nonnegative integers")
        object.__setattr__(self, "weights", tuple(map(int, self.weights)))
        if sum(self.weights) < 1:
            raise ValueError("at least one weight must be positive")

    @property
    def d(self) -> int:
        return sum(self.weights)

    @property
    def n(self) -> int:
        return len(self.weights) - 1


def lambda_poly(a: Arrangement) -> RingElement:
    """x1^w1 ... xn^wn (1 - x1 - ... - xn)^w0, expanded exactly."""
    w0, ws = a.weights[0], a.weights[1:]
    if any(w < 1 for w in ws):
        raise ValueError("x-weights w1..wn must be positive")
    n = a.n
    out = RingElement.monomial(n, Monomial(0, tuple(ws), 0))
    sigma = RingElement.one(n)
    for i in range(1, n + 1):
        sigma = sigma - RingElement.var(n, i)
    return out * sigma**w0


def candidate_exponents(a: Arrangement) -> set:
    """{ j/wi : 0 <= i <= n, 1 <= j <= wi } as canonical classes in (0,1]."""
    if any(w < 1 for w in a.weights):
        raise ValueError("all weights must be positive")
    out = set()
    for w in a.weights:
        for j in range(1, w + 1):
            out.add(class_rep(Q(j, w)))
    return out


def convolution_candidate_set(weights: Sequence[int], r: int) -> set:
    """Intersection over j > r of { i/wj : 1 <= i <= wj }, classes in (0,1]."""
    tail = list(weights[r + 1 :])
    if not tail:
        raise ValueError("no weights beyond position r")
    if any(w < 1 for w in tail):
        raise ValueError("weights beyond position r must be positive")
    sets = [{class_rep(Q(i, w)) for i in range(1, w + 1)} for w in tail]
    out = sets[0]
    for s in sets[1:]:
        out &= s
    return out


def gcd_criterion(weights: Sequence[int]) -> bool:
    """True iff gcd(weights) = 1, equivalently the convolution candidate
    set collapses to {1}."""
    ws = list(weights)
    if len(ws) < 2 or any(w < 1 for w in ws):
        raise ValueError("need at least two positive weights")
    return math.gcd(*ws) == 1


# ---------------------------------------------------------------------------
# The scalar determinant and the alternating-binomial identity
# ---------------------------------------------------------------------------


def determinant_polynomial(a: Arrangement, l: int, m: int) -> list:
    """The polynomial part of the determinant, dense in alpha:

        sum_{r=1}^{w0} binom(w0-1, w0-r) (-1)^(w0-r)
            * prod_{k=1}^{r-1}   (d(alpha+l) + m + d + n - k)
            * prod_{k=r}^{w0-1}  ((d-w0)(alpha+l) + m + d + n - k - 1)

    Its roots are exactly alpha = -l - a/w0 for a = 1..w0-1.
    """
    w0 = a.weights[0]
    if w0 < 2:
        raise ValueError("the determinant needs w0 >= 2")
    d, n = a.d, a.n
    total = [Q(0)] * w0  # degree w0 - 1 in alpha
    for r in range(1, w0 + 1):
        term = [Q(math.comb(w0 - 1, w0 - r) * (-1) ** (w0 - r))]
        for k in range(1, r):
            term = upoly.mul(term, [Q(d * l + m + d + n - k), Q(d)])
        for k in range(r, w0):
            term = upoly.mul(term, [Q((d - w0) * l + m + d + n - k - 1), Q(d - w0)])
        for i, c in enumerate(term):
            total[i] += c
    return total


def determinant_d(a: Arrangement, alpha, l: int, m: int):
    """(alpha/(l+alpha))^(w0-1) times the polynomial part, evaluated exactly."""
    alpha = Q(alpha)
    w0 = a.weights[0]
    if w0 < 2:
        raise ValueError("the determinant needs w0 >= 2")
    if alpha + l == 0:
        raise ValueError("alpha + l = 0: prefactor pole")
    val = upoly.at(determinant_polynomial(a, l, m), alpha)
    return (alpha / (l + alpha)) ** (w0 - 1) * val


def alternating_sum(n: int, m: int) -> int:
    """sum_{k=1}^{n} binom(n-1, n-k) (-1)^(n-k) k^m; zero for 0 <= m < n-1."""
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    return sum(math.comb(n - 1, n - k) * (-1) ** (n - k) * k**m for k in range(1, n + 1))


# ---------------------------------------------------------------------------
# Per-degree exact solver
# ---------------------------------------------------------------------------


def recognize_arrangement(f: RingElement, n: int) -> Optional[Arrangement]:
    """Recover weights from an expanded arrangement polynomial, or None."""
    if f.is_zero() or f.max_gpow() or not f.is_t_free():
        return None
    low = min(f.terms, key=lambda m: (m.total_xdeg, m.xdeg))
    ws = low.xdeg
    if any(w < 1 for w in ws) or f.terms[low] != 1:
        return None
    w0 = f.max_xdeg() - sum(ws)
    if w0 < 1:
        return None
    a = Arrangement((w0,) + tuple(ws))
    try:
        if lambda_poly(a) != f:
            return None
    except ValueError:
        return None
    return a


def per_degree_exponent_test(p: ProblemInstance) -> Optional[ExponentReport]:
    """Exact per-degree route, or None when it does not apply.

    Applies when g = 1, f is an arrangement polynomial, and wi*alpha is
    never an integer.  That guard is the whole operator criterion: the
    scaling operator AbetaD(alpha, 1/wi, i, j, 0) kills t^k x_i^u only if
    1 + alpha + (j+u)/wi is an integer, so only if wi*alpha is one.  Every
    per-(x-degree, t-degree) block is then solvable once (for w0 >= 2) the
    block determinant is nonzero; its prefactor's pole alpha + l = 0 needs
    alpha in Z, which the guard excludes too.  The verdict is NotExponent
    with cokernel 0.  The blocks checked are the (x-degree, t-degree) grid
    of the second default window, which contains the first; any failure
    falls back to the generic path.
    """
    if not p.g.is_one():
        return None
    a = recognize_arrangement(p.f, p.n)
    if a is None:
        return None
    if any(is_integer(w * p.alpha) for w in a.weights):
        return None
    windows = default_schedule(p, rounds=2)
    if a.weights[0] >= 2:
        win = windows[-1]
        for m in range(win.xmax + 1):
            for l in range(win.tmin, win.tmax + 1):
                if determinant_d(a, p.alpha, l, m) == 0:
                    return None
    return ExponentReport(
        verdict=Verdict.NOT_EXPONENT,
        cokernel_dim=0,
        windows_used=windows,
        stabilized=True,
        estimates=[0, 0],
        method="per-degree",
    )


# ---------------------------------------------------------------------------
# Oracle battery
# ---------------------------------------------------------------------------


def oracle_suite(a: Arrangement, extra_alphas=()) -> list[dict]:
    """Engine verdicts on lam for every candidate class and every extra
    alpha, compared against the closed-form candidate set.

    Each row: alpha, expected (candidate membership), verdict,
    cokernel_dim, agree (None when the engine is undetermined)."""
    f = lambda_poly(a)
    cands = candidate_exponents(a)
    alphas = sorted(cands | {class_rep(Q(x)) for x in extra_alphas})
    rows = []
    for alpha in alphas:
        inst = ProblemInstance(n=a.n, f=f, g=RingElement.one(a.n), alpha=alpha)
        rep = exponent_test(inst)
        expected = alpha in cands
        if rep.verdict is Verdict.UNDETERMINED:
            agree = None
        else:
            agree = (rep.verdict is Verdict.EXPONENT) == expected
        rows.append(
            {
                "alpha": str(alpha),
                "expected_exponent": expected,
                "verdict": rep.verdict.value,
                "cokernel_dim": rep.cokernel_dim,
                "agree": agree,
            }
        )
    return rows
