"""Front-end reductions and the univariate indicial-polynomial oracle.

A family cut out by p(x) - lam^d q(x) = 0, with a localizing factor r,
reduces to a single surjectivity problem: after the degree-d base change
its exponents are d times those of the instance with f = pbar/qbar and
g = r*qbar, where pbar, qbar are p, q with their r-denominators cleared.

Separately, a univariate operator L = sum_i t^i A_i(D) written by its
coefficient polynomials A_i has a regular part of rank deg A_0, with
exponent classes the roots of A_0 (counted with multiplicity).  Only the
rational roots are extracted exactly; the rest stays in an unfactored
residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import ProblemInstance, ResourceLimitError
from .parser import ParseError, Tokens, parse_expr
from .rational import Q, class_rep
from .ring import RingElement, clear_g


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
        items = []
        for i, coefs in sorted(polys.items()):
            if i < 0:
                raise ValueError("t-powers must be nonnegative")
            coefs = _strip([Q(c) for c in coefs])
            if coefs:
                items.append((i, tuple(coefs)))
        return cls(tuple(items))

    @classmethod
    def parse(cls, src: str) -> "UnivariateOperator":
        """Textual form 'A0=(D-1/2)*(D-1/3); A1=D^5': equations Ai = <polynomial
        in D> separated by ';', each Ai at most once, on the polynomial
        tokenizer.  Errors are ParseErrors at offsets into src."""
        tokens = Tokens(src)
        polys: dict[int, list] = {}
        while True:
            tok = tokens.accept("name")
            if tok:
                if tok[1][:1] != "A" or not tok[1][1:].isdigit():
                    raise ParseError(f"unknown coefficient {tok[1]!r}", tok[2], expected="A<index>")
                i = int(tok[1][1:])
                if i in polys:
                    raise ParseError(f"A{i} given twice", tok[2])
                tokens.expect("op", "=")
                e = parse_expr(tokens, 1, var_names={"D": 0})
                coefs = [Q(0)] * (e.max_xdeg() + 1)
                for m, c in e.terms.items():
                    coefs[m.xdeg[0]] = c
                polys[i] = coefs
            if not tokens.accept("op", ";"):
                break
        tokens.end()
        return cls.from_polys(polys)

    def a0(self) -> tuple:
        for i, coefs in self.coefficients:
            if i == 0:
                return coefs
        return ()


def _strip(coefs):
    while coefs and coefs[-1] == 0:
        coefs.pop()
    return coefs


def univariate_regular_exponents(op: UnivariateOperator):
    """(rank, rational roots with multiplicities, residual factor).

    rank = deg A_0; the exponent classes of the regular part are the roots
    of A_0 counted with multiplicity.  Rational roots are extracted by the
    rational root theorem with deflation; the residual is the unfactored
    rational-root-free cofactor (dense coefficient list).
    """
    a0 = list(op.a0())
    if not a0:
        raise ValueError("A0 = 0: the regular-part query is undefined")
    rank = len(a0) - 1
    roots: list[tuple] = []
    cur = a0
    while len(cur) > 1:
        root = _find_rational_root(cur)
        if root is None:
            break
        mult = 0
        while len(cur) > 1:
            quo = _deflate(cur, root)
            if quo is None:
                break
            cur = quo
            mult += 1
        roots.append((root, mult))
    roots.sort(key=lambda rm: (rm[0], rm[1]))
    return rank, roots, tuple(cur)


# largest |constant| and |leading| coefficient, denominators and content
# cleared, whose divisors _find_rational_root tries: at most 10^6 trial
# divisions each
MAX_ROOT_SEARCH = 10**12


def _find_rational_root(coefs):
    """Smallest rational root of a dense Q-polynomial, or None.

    The coefficients are made coprime integers a_0..a_d.  A root p/q in
    lowest terms then has p | a_0 and q | a_d (the rational root theorem),
    and p = q r mod l for a root r of the polynomial mod a prime l that does
    not divide a_d.  Only the coprime candidates that pass this sieve are
    tested, in integers, by Horner's rule on sum a_i p^i q^(d-i) == 0, so
    the work grows with the divisor counts, not with their product.
    """
    den = math.lcm(*(int(c.denominator) for c in coefs))
    ints = [int(c * den) for c in coefs]
    if ints[0] == 0:
        return Q(0)
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    a0, an = abs(ints[0]), abs(ints[-1])
    if max(a0, an) > MAX_ROOT_SEARCH:
        raise ResourceLimitError(f"A0's end coefficients exceed {MAX_ROOT_SEARCH} as integers")
    ell = _sieve_prime(an)
    roots_mod = [x for x in range(ell) if _vanishes(ints, x, 1, ell)]
    by_residue: dict[int, list[int]] = {}
    for p in _divisors(a0):
        for s in (p, -p):
            by_residue.setdefault(s % ell, []).append(s)
    hits = [
        Q(s, q)
        for q in _divisors(an)
        for r in roots_mod
        for s in by_residue.get(q * r % ell, ())
        if math.gcd(s, q) == 1 and _vanishes(ints, s, q)
    ]
    return min(hits, default=None)


def _sieve_prime(an: int) -> int:
    """The least prime above 10^4 that does not divide an (an != 0)."""
    ell = 10007
    while an % ell == 0 or any(ell % d == 0 for d in range(2, math.isqrt(ell) + 1)):
        ell += 2
    return ell


def _divisors(m: int) -> list[int]:
    out = []
    d = 1
    while d * d <= m:
        if m % d == 0:
            out += [d, m // d] if d * d != m else [d]
        d += 1
    return out


def _vanishes(ints: list[int], p: int, q: int, mod: int = 0) -> bool:
    """Whether p/q (q > 0) is a root of sum ints[i] X^i, by Horner's rule on
    the homogenized sum ints[i] p^i q^(d-i) in integers; with mod, whether
    that sum is 0 modulo mod."""
    acc, qpow = ints[-1], 1
    for c in reversed(ints[:-1]):
        qpow *= q
        acc = acc * p + c * qpow
        if mod:
            acc %= mod
    return acc % mod == 0 if mod else acc == 0


def _deflate(coefs, root):
    """coefs / (X - root) when exact, else None."""
    out = [Q(0)] * (len(coefs) - 1)
    carry = Q(0)
    for k in range(len(coefs) - 1, 0, -1):
        carry = coefs[k] + carry * root
        out[k - 1] = carry
    rem = coefs[0] + carry * root
    return out if rem == 0 else None
