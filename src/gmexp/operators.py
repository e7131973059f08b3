"""The k((t))-linear operator calculus.

Symbolic operator trees with exact per-monomial actions:

    PartialT        d/dt
    PartialX(i)     d/dx_i (with the quotient rule on g-layers)
    MulByT          multiplication by t
    MulByTInv       multiplication by t^-1
    MulByElem(e)    multiplication by a ring element
    PhiC(c)         d/dt + c*t^-1
    Dtr(r)          t*d/dt + r
    ArS(a, r, s)    t + r * PhiC(a+s)^-1
    AbetaD(a, b, i, r, s)
                    t + b*(x_i d_i + r) * PhiC(a+s)^-1

plus Sum, Compose (right-to-left) and Scale nodes.  The last four leaves act
diagonally on monomials; _diagonal states each of those actions once, and
apply and invertible_on both read it.  Applications are exact: terms
falling outside any window are retained; truncation is the caller's
business.  parse_operator reads the textual form on parser.Tokens, the
polynomial tokenizer, so a syntax error there is a parser.ParseError at an
offset into the text, like one in a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .parser import ParseError, Tokens
from .rational import Q, is_integer
from .ring import DegreeWindow, Monomial, RingElement, _collect, partial_t, partial_x


class OperatorError(ValueError):
    pass


class UndefinedInverseError(OperatorError):
    """A PhiC(c) with integer c is being inverted inside ArS/AbetaD."""


class NotDiagonalError(OperatorError):
    """The operator has no diagonal action, so no invertibility criterion."""


class Operator:
    __slots__ = ()


@dataclass(frozen=True)
class Identity(Operator):
    pass


@dataclass(frozen=True)
class PartialT(Operator):
    pass


@dataclass(frozen=True)
class PartialX(Operator):
    i: int


@dataclass(frozen=True)
class MulByT(Operator):
    pass


@dataclass(frozen=True)
class MulByTInv(Operator):
    pass


@dataclass(frozen=True)
class MulByElem(Operator):
    elem: RingElement


@dataclass(frozen=True)
class PhiC(Operator):
    c: object

    def __post_init__(self):
        object.__setattr__(self, "c", Q(self.c))


@dataclass(frozen=True)
class Dtr(Operator):
    r: object

    def __post_init__(self):
        object.__setattr__(self, "r", Q(self.r))


@dataclass(frozen=True)
class ArS(Operator):
    alpha: object
    r: object
    s: object

    def __post_init__(self):
        object.__setattr__(self, "alpha", Q(self.alpha))
        object.__setattr__(self, "r", Q(self.r))
        object.__setattr__(self, "s", Q(self.s))
        if is_integer(self.alpha + self.s):
            raise UndefinedInverseError(
                f"ArS requires alpha + s not an integer, got {self.alpha + self.s}"
            )


@dataclass(frozen=True)
class AbetaD(Operator):
    alpha: object
    beta: object
    i: int
    r: object
    s: object

    def __post_init__(self):
        object.__setattr__(self, "alpha", Q(self.alpha))
        object.__setattr__(self, "beta", Q(self.beta))
        object.__setattr__(self, "r", Q(self.r))
        object.__setattr__(self, "s", Q(self.s))
        if self.i < 1:
            raise OperatorError(f"AbetaD needs a variable index i >= 1, got {self.i}")
        if is_integer(self.alpha + self.s):
            raise UndefinedInverseError(
                f"AbetaD requires alpha + s not an integer, got {self.alpha + self.s}"
            )


@dataclass(frozen=True)
class Sum(Operator):
    ops: tuple[Operator, ...]

    def __init__(self, *ops: Operator):
        object.__setattr__(self, "ops", tuple(ops))


@dataclass(frozen=True)
class Compose(Operator):
    """Compose(a, b) applies b first, then a."""

    ops: tuple[Operator, ...]

    def __init__(self, *ops: Operator):
        object.__setattr__(self, "ops", tuple(ops))


@dataclass(frozen=True)
class Scale(Operator):
    c: object
    op: Operator

    def __post_init__(self):
        object.__setattr__(self, "c", Q(self.c))


# ---------------------------------------------------------------------------
# Application
# ---------------------------------------------------------------------------


def apply(op: Operator, e: RingElement, g: RingElement | None = None) -> RingElement:
    """Exact action of op on e.  g is needed only for PartialX on g-layers."""
    if isinstance(op, Identity):
        return e
    if isinstance(op, PartialT):
        return partial_t(e)
    if isinstance(op, PartialX):
        if g is None:
            g = RingElement.one(e.n)
        return partial_x(op.i, e, g)
    if isinstance(op, MulByT):
        return e.mul_t(1)
    if isinstance(op, MulByTInv):
        return e.mul_t(-1)
    if isinstance(op, MulByElem):
        return op.elem * e
    if isinstance(op, Sum):
        out = RingElement.zero(e.n)
        for sub in op.ops:
            out = out + apply(sub, e, g)
        return out
    if isinstance(op, Compose):
        for sub in reversed(op.ops):
            e = apply(sub, e, g)
        return e
    if isinstance(op, Scale):
        return apply(op.op, e, g).scale(op.c)
    # diagonal leaves: valid monomials go to valid monomials, and every
    # coefficient is a product of Q values, so no re-validation is needed
    leaf = _diagonal(op)
    image = []
    for m, c in e.terms.items():
        lam = _eigenvalue(leaf, m.tdeg, m.xdeg)
        if lam:
            image.append((Monomial(m.tdeg + leaf[0], m.xdeg, m.gpow), c * lam))
    return RingElement._trusted(e.n, _collect(image))


def _diagonal(op: Operator) -> tuple:
    """(dt, a, beta, i, b): op sends t^k x^u to lambda * t^(k+dt) x^u, with

        lambda = (k + a + beta*u_i) / (k + b),

    no denominator where b is None, and i = 0 where lambda reads no x-degree.
    """
    if isinstance(op, Dtr):
        return 0, op.r, 0, 0, None
    if isinstance(op, PhiC):
        return -1, op.c, 0, 0, None
    if isinstance(op, ArS):
        return 1, 1 + op.alpha + op.r + op.s, 0, 0, 1 + op.alpha + op.s
    if isinstance(op, AbetaD):
        return 1, 1 + op.alpha + op.s + op.beta * op.r, op.beta, op.i, 1 + op.alpha + op.s
    raise NotDiagonalError(f"not a diagonal operator: {op!r}")


def _eigenvalue(leaf: tuple, k: int, u: tuple[int, ...]):
    """lambda of the _diagonal table entry leaf at t^k x^u."""
    _dt, a, beta, i, b = leaf
    num = k + a + beta * u[i - 1] if i else k + a
    return num if b is None else num / (k + b)


# ---------------------------------------------------------------------------
# Invertibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvertibilityVerdict:
    invertible: bool
    witness: Optional[Monomial] = None

    def __post_init__(self):
        if self.invertible and self.witness is not None:
            raise ValueError("witness only accompanies a non-invertible verdict")


def _phi_mult(op: Operator):
    """Unwrap Compose/Scale chains of monomial-wise operators into a flat list."""
    if isinstance(op, Compose):
        out = []
        for sub in op.ops:
            out.extend(_phi_mult(sub))
        return out
    if isinstance(op, Scale):
        return [op] + _phi_mult(op.op)
    return [op]


def invertible_on(op: Operator, n: int = 1) -> InvertibilityVerdict:
    """Global closed-form invertibility criterion over k((t))[x_1..x_n].

    Supported: Dtr, PhiC, ArS, AbetaD, MulByT/MulByTInv, Identity, and
    Scale/Compose combinations thereof; any other leaf raises NotDiagonalError.
    When non-invertible, the witness is a monomial the first failing leaf
    kills: t^-(a + beta*u) x_i^u at the smallest such u for a diagonal leaf
    (see _diagonal), and t^0 x^0 for a zero Scale.
    """
    for leaf in _phi_mult(op):
        v = _leaf_invertible(leaf, n)
        if not v.invertible:
            return v
    return InvertibilityVerdict(True)


def _leaf_invertible(op: Operator, n: int) -> InvertibilityVerdict:
    if isinstance(op, (Identity, MulByT, MulByTInv)):
        return InvertibilityVerdict(True)
    if isinstance(op, Scale):
        if op.c == 0:
            return InvertibilityVerdict(False, Monomial(0, (0,) * n, 0))
        return InvertibilityVerdict(True)
    _dt, a, beta, i, _b = _diagonal(op)
    if i > n:
        raise OperatorError(f"{op!r} reads x_{i}, beyond n = {n}")
    # lambda vanishes at t^k x_i^u iff k = -(a + beta*u), and a + beta*u is an
    # integer for some u >= 0 iff it is one for some u below beta's denominator
    for u in range(beta.denominator):
        if is_integer(v := a + beta * u):
            xdeg = tuple(u if j == i - 1 else 0 for j in range(n))
            return InvertibilityVerdict(False, Monomial(-int(v), xdeg, 0))
    return InvertibilityVerdict(True)


# ---------------------------------------------------------------------------
# Commutation identities
# ---------------------------------------------------------------------------


def commutation_identities(alpha, beta, r, rp, s, sp, i: int = 1, n: int = 1):
    """The displayed commutation relations, as (name, lhs, rhs) triples.

    Requires alpha+s and alpha+s' not integers.
    """
    alpha, beta, r, rp, s, sp = map(Q, (alpha, beta, r, rp, s, sp))
    for v in (alpha + s, alpha + sp):
        if is_integer(v):
            raise OperatorError(f"alpha + s must not be an integer, got {v}")
    A = lambda rr, ss: ArS(alpha, rr, ss)
    phi = PhiC
    D = Dtr
    t, tinv = MulByT(), MulByTInv()
    return [
        ("ArS.phi = Dtr", Compose(A(r, s), phi(alpha + s)), D(alpha + r + s)),
        ("phi.ArS = Dtr+1", Compose(phi(alpha + s), A(r, s)), D(alpha + r + s + 1)),
        ("phi = tinv.Dtr", phi(alpha), Compose(tinv, D(alpha))),
        ("phi = Dtr+1.tinv", phi(alpha), Compose(D(alpha + 1), tinv)),
        ("t.phi = phi-1.t", Compose(t, phi(alpha)), Compose(phi(alpha - 1), t)),
        ("Dtr.phi = phi-1.Dtr", Compose(D(alpha), phi(beta)), Compose(phi(alpha - 1), D(beta))),
        ("Dtr.Dtr commute", Compose(D(alpha), D(beta)), Compose(D(beta), D(alpha))),
        ("phi.phi shift", Compose(phi(alpha), phi(beta)), Compose(phi(beta + 1), phi(alpha - 1))),
        ("ArS.ArS shift", Compose(A(r, s), A(rp, sp)), Compose(A(rp, sp - 1), A(r, s + 1))),
        ("ArS.t = t.ArS+1", Compose(A(r, s), t), Compose(t, A(r, s + 1))),
        (
            "AbetaD.x = x.AbetaD+1",
            Compose(AbetaD(alpha, beta, i, r, s), _mul_x(i, n)),
            Compose(_mul_x(i, n), AbetaD(alpha, beta, i, r + 1, s)),
        ),
    ]


def _mul_x(i: int, n: int) -> MulByElem:
    return MulByElem(RingElement.var(n, i))


def check_commutation(w: DegreeWindow, alpha, beta, r, rp, s, sp, n: int = 1):
    """Evaluate both sides of every identity on all window monomials.

    Applications are untruncated, so the comparison is exact equality.
    Returns [(name, holds)].
    """
    n_for_x = max(n, 1)
    monos = list(w.monomials(n_for_x))
    results = []
    for name, lhs, rhs in commutation_identities(alpha, beta, r, rp, s, sp, i=1, n=n_for_x):
        holds = True
        for m in monos:
            e = RingElement.monomial(n_for_x, m)
            if apply(lhs, e) != apply(rhs, e):
                holds = False
                break
        results.append((name, holds))
    return results


# ---------------------------------------------------------------------------
# Textual operator expressions (CLI debugging grammar)
# ---------------------------------------------------------------------------


def parse_operator(src: str) -> Operator:
    """Parse expressions like 'Dtr(1/2)', 'Phi(-1/3)', 'ArS(1/3,1,0)',
    'AbetaD(1/2,1/3,1,0,0)', 'compose(...)', 'sum(...)', 'scale(1/2, op)',
    'id', 't', 'tinv', 'dt', 'dx1' (names case-insensitive) on the
    polynomial tokenizer.  Syntax errors raise ParseError with their
    offset in src, a zero denominator among them; well-formed leaves with
    bad arguments raise ValueError."""
    tokens = Tokens(src)
    op = _operator(tokens)
    tokens.end()
    return op


_NULLARY = {"id": Identity, "t": MulByT, "tinv": MulByTInv, "dt": PartialT}
# name -> (node, argument count or None for any) of the name(...) forms
_CALLS = {"dtr": (Dtr, 1), "phi": (PhiC, 1), "ars": (ArS, 3), "abetad": (AbetaD, 5),
          "compose": (Compose, None), "sum": (Sum, None), "scale": (Scale, None)}


def _operator(tokens: Tokens) -> Operator:
    tok = tokens.expect("name")
    name = tok[1].lower()
    if name in _NULLARY:
        return _NULLARY[name]()
    if name.startswith("dx"):
        if not name[2:].isdigit():
            raise ParseError(f"{tok[1]!r} has no variable index", tok[2], expected="dx<index>")
        return PartialX(int(name[2:]))
    if name not in _CALLS:
        raise ParseError(f"unknown operator {tok[1]!r}", tok[2])
    node, arity = _CALLS[name]
    tokens.open()
    if node is Scale:
        c = tokens.rational()
        tokens.expect("op", ",")
        args = [c, _operator(tokens)]
    else:
        read = _operator if arity is None else Tokens.rational
        args = [read(tokens)]
        while tokens.accept("op", ","):
            args.append(read(tokens))
    tokens.close()
    if arity is not None and len(args) != arity:
        raise ValueError(f"{tok[1]} takes {arity} argument(s), got {len(args)}")
    if node is AbetaD:
        if not is_integer(args[2]):
            raise ValueError(f"AbetaD needs an integer variable index, got {args[2]}")
        args[2] = int(args[2])
    return node(*args)
