"""Front-end reductions and the univariate indicial-polynomial oracle.

A family cut out by p(x) - lam^d q(x) = 0, with a localizing factor r,
reduces to a single surjectivity problem: after the degree-d base change
its exponents are d times those of the instance with f = pbar/qbar and
g = r*qbar, where pbar, qbar are p, q with their r-denominators cleared.

Separately, a univariate operator L = sum_i t^i A_i(D) written by its
coefficient polynomials A_i has a regular part of rank deg A_0, with
exponent classes the roots of A_0 (counted with multiplicity).  Only the
rational roots are extracted exactly, by gmexp.upoly, and an A_0 past
MAX_A0_SIZE is refused before any gcd; the rest stays in an unfactored
residual.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import upoly
from .engine import ProblemInstance
from .parser import ParseError, Tokens, parse_expr
from .rational import Q, ResourceLimitError, class_rep
from .ring import Monomial, RingElement, clear_g


@dataclass(frozen=True)
class FamilySpec:
    """p, q may carry powers of 1/r (as their formal denominator layer)."""

    p: RingElement
    q: RingElement
    r: RingElement
    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be a positive integer")
        if self.r.is_zero() or not self.r.is_polynomial():
            raise ValueError("r must be a nonzero polynomial")
        if self.q.is_zero():
            raise ValueError("q must be nonzero")
        for e in (self.p, self.q):
            if not e.is_t_free():
                raise ValueError("p and q must not depend on t")


def reduce_family(fam: FamilySpec) -> tuple[ProblemInstance, int]:
    """(instance template, scale).  Exponents of the family are scale times
    the exponents of the instance; the template's alpha is 0, and each query
    builds its own instance from its f and g."""
    n = fam.p.n
    big_n = max(fam.p.max_gpow(), fam.q.max_gpow())
    r_pow = fam.r ** big_n
    pbar = clear_g(fam.p * r_pow, fam.r)
    qbar = clear_g(fam.q * r_pow, fam.r)
    for name, e in (("p", pbar), ("q", qbar)):
        if not e.is_polynomial():
            raise ValueError(f"{name} does not clear its r-denominator")
    if qbar.is_zero():
        raise ValueError("q vanishes after clearing denominators")
    g = fam.r * qbar
    f = (pbar * fam.r).shift_gpow(1)  # pbar/qbar rewritten over g = r*qbar
    return ProblemInstance(n=n, f=f, g=g, alpha=0), fam.d


def scale_exponents(exps, d: int):
    """Each class alpha -> d*alpha mod Z, canonical representative in (0,1];
    multiplicities preserved.  Input and output are sorted lists."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    return sorted(class_rep(Q(a) * d) for a in exps)


# ---------------------------------------------------------------------------
# Univariate indicial oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnivariateOperator:
    """L = sum_i t^i A_i(D), stored as {i: dense coefficient list of A_i}."""

    coefficients: tuple[tuple[int, tuple], ...]

    @classmethod
    def from_polys(cls, polys: dict[int, list]) -> "UnivariateOperator":
        if any(i < 0 for i in polys):
            raise ValueError("t-powers must be nonnegative")
        items = ((i, tuple(upoly.trim([Q(c) for c in coefs]))) for i, coefs in sorted(polys.items()))
        return cls(tuple((i, coefs) for i, coefs in items if coefs))

    @classmethod
    def parse(cls, src: str) -> "UnivariateOperator":
        """Textual form 'A0=(D-1/2)*(D-1/3); A1=D^5': equations Ai = <polynomial
        in D> separated by ';', each Ai at most once, on the polynomial
        tokenizer.  Errors are ParseErrors at offsets into src."""
        tokens = Tokens(src)
        polys: dict[int, list] = {}
        while True:
            if tok := tokens.accept("name"):
                if tok[1][:1] != "A" or not tok[1][1:].isdigit():
                    raise ParseError(f"unknown coefficient {tok[1]!r}", tok[2], expected="A<index>")
                i = int(tok[1][1:])
                if i in polys:
                    raise ParseError(f"A{i} given twice", tok[2])
                tokens.expect("op", "=")
                e = parse_expr(tokens, 1, var_names={"D": 0})
                polys[i] = [e.terms.get(Monomial(0, (j,), 0), 0) for j in range(e.max_xdeg() + 1)]
            if not tokens.accept("op", ";"):
                break
        tokens.end()
        return cls.from_polys(polys)

    def a0(self) -> tuple:
        return dict(self.coefficients).get(0, ())


# cap on deg(A0)^2 * (largest coefficient bits + degree bits), A0 primitive:
# its integer gcd takes 0.6 s at the cap (degree 163, coefficients in [-99, 99])
MAX_A0_SIZE = 400_000


def univariate_regular_exponents(op: UnivariateOperator):
    """(rank, rational roots with multiplicities, residual factor).

    rank = deg A_0; the exponent classes of the regular part are the roots
    of A_0 counted with multiplicity.  The rational roots are those of the
    square-free part A_0 / gcd(A_0, A_0') (upoly.rational_roots), and each
    one's multiplicity is the number of times X - root divides A_0 exactly;
    the residual is the unfactored rational-root-free cofactor (dense
    coefficient list).
    """
    a0 = list(op.a0())
    if not a0:
        raise ValueError("A0 = 0: the regular-part query is undefined")
    rank = len(a0) - 1
    a = upoly.primitive(a0)
    if rank * rank * (max(map(abs, a)).bit_length() + rank.bit_length()) > MAX_A0_SIZE:
        raise ResourceLimitError(f"A0 of degree {rank} is past the size cap MAX_A0_SIZE")
    roots, cur = [], a0
    for root in upoly.rational_roots(a):
        mult = 0
        while not (quo_rem := upoly.divide(cur, [-root, 1]))[1]:
            cur, mult = quo_rem[0], mult + 1
        roots.append((root, mult))
    return rank, roots, tuple(cur)
