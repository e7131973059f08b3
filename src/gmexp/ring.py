"""Arithmetic for truncated elements of k((t))[x1..xn, 1/g] over Q.

Elements are finite Q-linear combinations of monomials t^k * x^u * g^-m.
The denominator layer g^-m is purely formal here: multiplication adds the
layers and never cancels against numerator factors of g.  A separate
normalization pass (clear_g) produces the canonical minimal-layer form.

A product of two elements whose work passes MAX_PRODUCT_WORK raises
ResourceLimitError before it is formed.  Powers, parsing, clear_g and
operator application multiply through __mul__, so this one cap bounds them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple

from .linalg import SparseMatrixQ, nullspace
from .rational import Q, QZERO, ResourceLimitError

# cap on the work of one product a * b (_product_work): len(a) * len(b) *
# (bits_a + 1024) * (bits_b + 1024), bits the largest numerator + denominator
# bit length of a coefficient, about its digit products, and times
# max(60, n + 50) / 60 for the n-tuple each term product builds: 0.1 s at
# the cap in 1-10 variables.  (x1+1)^217, whose last product is
# (x1+1)^89 * (x1+1)^128, is the last power of x1+1 within it
MAX_PRODUCT_WORK = 15 * 10**9


class Monomial(NamedTuple):
    """t^tdeg * x^xdeg * g^-gpow.  tdeg may be negative, xdeg and gpow not."""

    tdeg: int
    xdeg: tuple[int, ...]
    gpow: int = 0

    @property
    def total_xdeg(self) -> int:
        return sum(self.xdeg)


def unit_monomial(n: int) -> Monomial:
    return Monomial(0, (0,) * n, 0)


class RingElement:
    """Immutable finite sum of monomials with nonzero rational coefficients."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms: dict[Monomial, object] | None = None):
        self.n = n
        clean = {}
        if terms:
            for m, c in terms.items():
                if len(m.xdeg) != n:
                    raise ValueError(f"monomial {m} has wrong variable count, expected {n}")
                if m.gpow < 0 or any(u < 0 for u in m.xdeg):
                    raise ValueError(f"invalid monomial {m}")
                if c != 0:
                    clean[m] = Q(c)
        self.terms = clean
        self._hash = None

    @classmethod
    def _trusted(cls, n: int, terms: dict[Monomial, object]) -> "RingElement":
        """Wrap terms without validation.  Callers guarantee what __init__
        checks: valid monomials over n variables, non-zero coefficients of
        type Q.  Arithmetic on valid elements preserves this."""
        e = object.__new__(cls)
        e.n = n
        e.terms = terms
        e._hash = None
        return e

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "RingElement":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c) -> "RingElement":
        return cls(n, {unit_monomial(n): Q(c)})

    @classmethod
    def one(cls, n: int) -> "RingElement":
        return cls.constant(n, 1)

    @classmethod
    def monomial(cls, n: int, m: Monomial, c=1) -> "RingElement":
        return cls(n, {m: Q(c)})

    @classmethod
    def var(cls, n: int, i: int) -> "RingElement":
        """x_i, with 1 <= i <= n."""
        if not 1 <= i <= n:
            raise IndexError(f"variable index {i} out of range 1..{n}")
        xdeg = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, {Monomial(0, xdeg, 0): Q(1)})

    @classmethod
    def t(cls, n: int, power: int = 1) -> "RingElement":
        return cls(n, {Monomial(power, (0,) * n, 0): Q(1)})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {unit_monomial(self.n): Q(1)}

    def is_polynomial(self) -> bool:
        """Pure polynomial in x: no t-dependence, no g-layer."""
        return all(m.tdeg == 0 and m.gpow == 0 for m in self.terms)

    def is_t_free(self) -> bool:
        return all(m.tdeg == 0 for m in self.terms)

    def max_xdeg(self) -> int:
        return max((m.total_xdeg for m in self.terms), default=0)

    def max_gpow(self) -> int:
        return max((m.gpow for m in self.terms), default=0)

    # -- arithmetic ----------------------------------------------------

    def _check_compatible(self, other: "RingElement") -> None:
        if self.n != other.n:
            raise ValueError(f"mismatched variable count: {self.n} vs {other.n}")

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check_compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, QZERO) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return RingElement._trusted(self.n, out)

    def __neg__(self) -> "RingElement":
        return RingElement._trusted(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __mul__(self, other: "RingElement") -> "RingElement":
        self._check_compatible(other)
        if _product_work(self, other) > MAX_PRODUCT_WORK:
            raise ResourceLimitError(f"a product of {len(self.terms)} by {len(other.terms)} "
                                     f"terms in {self.n} variables is past MAX_PRODUCT_WORK")
        products = (
            (Monomial(a.tdeg + b.tdeg, tuple(map(sum, zip(a.xdeg, b.xdeg))), a.gpow + b.gpow),
             c * d)
            for a, c in self.terms.items()
            for b, d in other.terms.items()
        )
        return RingElement._trusted(self.n, _collect(products))

    def scale(self, c) -> "RingElement":
        c = Q(c)
        if c == 0:
            return RingElement.zero(self.n)
        return RingElement._trusted(self.n, {m: c * v for m, v in self.terms.items()})

    def mul_t(self, power: int = 1) -> "RingElement":
        return RingElement._trusted(
            self.n, {Monomial(m.tdeg + power, m.xdeg, m.gpow): c for m, c in self.terms.items()}
        )

    def shift_gpow(self, delta: int) -> "RingElement":
        shifted = {Monomial(m.tdeg, m.xdeg, m.gpow + delta): c for m, c in self.terms.items()}
        if delta < 0:  # may produce a negative g-layer: validate
            return RingElement(self.n, shifted)
        return RingElement._trusted(self.n, shifted)

    def __pow__(self, k: int) -> "RingElement":
        if k < 0:
            raise ValueError("negative powers of ring elements are not defined")
        out = RingElement.one(self.n)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElement) and self.n == other.n and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"RingElement({serialize(self)!r})"


def _product_work(a: RingElement, b: RingElement) -> int:
    """The work of a * b that MAX_PRODUCT_WORK caps, rounded down to an int.
    Its factor for n is 1 up to n = 10: a product at the cap took about
    0.1 s there, 0.19 s at n = 50 and 0.48 s at n = 200."""
    work = len(a.terms) * len(b.terms) * (_bits(a) + 1024) * (_bits(b) + 1024)
    return work * max(60, a.n + 50) // 60


def _bits(e: RingElement) -> int:
    return max((c.numerator.bit_length() + c.denominator.bit_length()
                for c in e.terms.values()), default=0)


def _collect(items) -> dict:
    """Sum (key, value) pairs by key, dropping keys whose sum is 0."""
    out: dict = {}
    for key, c in items:
        s = out[key] + c if key in out else c
        if s == 0:
            out.pop(key, None)
        else:
            out[key] = s
    return out


# ---------------------------------------------------------------------------
# Derivations and truncation
# ---------------------------------------------------------------------------


def partial_x(i: int, e: RingElement, g: RingElement) -> RingElement:
    """d/dx_i with the quotient rule on g^-m layers.

    g must be a pure polynomial; on a*g^-m the result is
    (d_i a) g^-m - m * a * (d_i g) * g^-(m+1).
    """
    if not 1 <= i <= e.n:
        raise IndexError(f"variable index {i} out of range 1..{e.n}")
    if not g.is_polynomial():
        raise ValueError("g must be a pure polynomial (no t, no g-layer)")
    dg = _poly_partial(i, g)
    # every term goes into one dict: a sum of RingElements would copy it per term
    acc: dict[Monomial, object] = {}
    for m, c in e.terms.items():
        u = m.xdeg[i - 1]
        terms = [(Monomial(m.tdeg, _dec(m.xdeg, i - 1), m.gpow), c * u)] if u else []
        if m.gpow:
            piece = RingElement.monomial(e.n, Monomial(m.tdeg, m.xdeg, m.gpow + 1), -c * m.gpow)
            terms += (piece * dg).terms.items()  # through __mul__: the product cap applies
        for m2, v in terms:
            s = acc.get(m2, QZERO) + v
            if s == 0:
                acc.pop(m2, None)
            else:
                acc[m2] = s
    return RingElement(e.n, acc)


def partial_t(e: RingElement) -> RingElement:
    out: dict[Monomial, object] = {}
    for m, c in e.terms.items():
        if m.tdeg:
            out[Monomial(m.tdeg - 1, m.xdeg, m.gpow)] = c * m.tdeg
    return RingElement(e.n, out)


def _poly_partial(i: int, g: RingElement) -> RingElement:
    out: dict[Monomial, object] = {}
    for m, c in g.terms.items():
        u = m.xdeg[i - 1]
        if u:
            out[Monomial(m.tdeg, _dec(m.xdeg, i - 1), m.gpow)] = c * u
    return RingElement(g.n, out)


def _dec(xdeg: tuple[int, ...], j: int) -> tuple[int, ...]:
    return tuple(u - 1 if k == j else u for k, u in enumerate(xdeg))


def quasi_weights(f: RingElement, g: RingElement) -> tuple[tuple, object] | None:
    """The unique rational weights (w, delta) under which every term x^u g^-m
    of the t-free f has weight sum(w_i u_i) - m * delta = 1 and every term
    x^u of the polynomial g has weight sum(w_i u_i) = delta; None when there
    is no such solution or more than one.

    The system is solved as the kernel of its augmented matrix over
    (w_1, ..., w_n, delta, c), one row per term, with c in the place of the
    right-hand side: the solution is unique exactly when that kernel is one
    line on which c is not 0.
    """
    n = f.n
    rows = [(*m.xdeg, -m.gpow, -1) for m in f.terms] + [(*m.xdeg, -1, 0) for m in g.terms]
    cols: list[dict[int, tuple[int, int]]] = [{} for _ in range(n + 2)]
    for r, row in enumerate(rows):
        for j, v in enumerate(row):
            if v:
                cols[j][r] = (v, 1)
    kernel = nullspace(SparseMatrixQ(len(rows), cols))
    if len(kernel) != 1 or n + 1 not in kernel[0]:
        return None
    vec = {j: Q(*v) for j, v in kernel[0].items()}  # the pairs of linalg, as Q
    c = vec[n + 1]
    return tuple(vec.get(j, QZERO) / c for j in range(n)), vec.get(n, QZERO) / c


@dataclass(frozen=True)
class DegreeWindow:
    """Finite monomial window: tmin <= tdeg <= tmax, total xdeg <= xmax, gpow <= gmax."""

    tmin: int
    tmax: int
    xmax: int
    gmax: int = 0

    def __post_init__(self):
        if self.tmin > self.tmax:
            raise ValueError("tmin must not exceed tmax")
        if self.xmax < 0 or self.gmax < 0:
            raise ValueError("xmax and gmax must be nonnegative")

    def monomials(self, n: int) -> Iterator[Monomial]:
        """All window monomials in canonical order: t-major, then the x-degrees
        in _xdegs_upto order (the keys of layout's xrow), then gpow; layout
        gives their positions, and layer is one t-layer of them."""
        for tdeg in range(self.tmin, self.tmax + 1):
            for xdeg, gpow in self.layer(n):
                yield Monomial(tdeg, xdeg, gpow)

    def layout(self, n: int) -> tuple[dict[tuple[int, ...], int], int]:
        """(xrow, tsize): t^k x^u g^-m is cell (k - tmin) * tsize + xrow[u] + m
        of the canonical order, the place it has in monomials(n).  The pair
        is shared by every window of the same (n, xmax, gmax): read xrow,
        never change it."""
        return _layout(n, self.xmax, self.gmax)

    def layer(self, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The inverse of layout: the (u, m) at each position of a t-layer, so
        cell q is t^(tmin + q // tsize) x^u g^-m for (u, m) = layer[q % tsize].
        Shared like layout's pair by every window of the same (n, xmax, gmax)."""
        return _layer(n, self.xmax, self.gmax)

    def size(self, n: int) -> int:
        nx = math.comb(self.xmax + n, n)
        return (self.tmax - self.tmin + 1) * nx * (self.gmax + 1)

    def expand(self, dt: int = 0, dx: int = 0, dg: int = 0) -> "DegreeWindow":
        return DegreeWindow(self.tmin - dt, self.tmax + dt, self.xmax + dx, self.gmax + dg)

    def shrink(self, dt: int = 0, dx: int = 0, dg: int = 0) -> "DegreeWindow":
        """The window dt inside in t (ValueError if nothing is left), with xmax
        and gmax lowered by dx and dg but kept nonnegative."""
        return DegreeWindow(
            self.tmin + dt,
            self.tmax - dt,
            max(0, self.xmax - dx),
            max(0, self.gmax - dg),
        )


@lru_cache(maxsize=64)
def _layout(n: int, xmax: int, gmax: int) -> tuple[dict[tuple[int, ...], int], int]:
    gsize = gmax + 1
    xrow = {u: i * gsize for i, u in enumerate(_xdegs_upto(n, xmax))}
    return xrow, len(xrow) * gsize


@lru_cache(maxsize=64)
def _layer(n: int, xmax: int, gmax: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    return tuple((u, m) for u in _layout(n, xmax, gmax)[0] for m in range(gmax + 1))


def _xdegs_upto(n: int, xmax: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for total in range(xmax + 1):
        yield from _xdegs_exact(n, total)


def _xdegs_exact(n: int, total: int) -> Iterator[tuple[int, ...]]:
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _xdegs_exact(n - 1, total - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# g-layer normalization
# ---------------------------------------------------------------------------


def clear_g(e: RingElement, g: RingElement) -> RingElement:
    """Canonical minimal g-layer form of e.

    Brings all terms over the common denominator g^M and then divides the
    numerator by g as long as the division is exact, decrementing the layer.
    """
    if not g.is_polynomial() or g.is_zero():
        raise ValueError("g must be a nonzero pure polynomial")
    if e.is_zero():
        return e
    big_m = e.max_gpow()
    if big_m == 0:
        return e
    if g.is_one():
        flat: dict[Monomial, object] = {}
        for m, c in e.terms.items():
            k = Monomial(m.tdeg, m.xdeg, 0)
            flat[k] = flat.get(k, QZERO) + c
        return RingElement(e.n, flat)
    layers: list[dict[Monomial, object]] = [{} for _ in range(big_m + 1)]
    for m, c in e.terms.items():
        layers[m.gpow][Monomial(m.tdeg, m.xdeg, 0)] = c
    # numerator = sum over layers m of (layer m) * g^(M-m), by Horner's rule
    num = RingElement.zero(e.n)
    for layer in layers:
        num = num * g + RingElement._trusted(e.n, layer)
    while big_m > 0:
        quo = exact_divide(num, g)
        if quo is None:
            break
        num = quo
        big_m -= 1
    return num.shift_gpow(big_m) if big_m else num


def exact_divide(p: RingElement, g: RingElement) -> RingElement | None:
    """p / g when the division of polynomials in x is exact, else None.

    p may carry t-degrees (they ride along); g must be a pure polynomial.
    """
    if not g.is_polynomial() or g.is_zero():
        raise ValueError("divisor must be a nonzero pure polynomial")
    slices: dict[int, dict[tuple[int, ...], object]] = {}
    for m, c in p.terms.items():
        if m.gpow != 0:
            raise ValueError("dividend must have no g-layer")
        slices.setdefault(m.tdeg, {})[m.xdeg] = c
    g_terms = {m.xdeg: c for m, c in g.terms.items()}
    g_lead = max(g_terms)
    out: dict[Monomial, object] = {}
    for tdeg, sl in slices.items():
        quo = _divide_xpoly(sl, g_terms, g_lead)
        if quo is None:
            return None
        for xdeg, c in quo.items():
            out[Monomial(tdeg, xdeg, 0)] = c
    return RingElement(p.n, out)


def _divide_xpoly(p, g, g_lead):
    """p / g for dicts {xdeg: coefficient}, g_lead = max(g), by reduction at
    the largest remaining xdeg of p; None when one is not divisible by g_lead.
    The remainder's xdegs are kept in a heap, negated so that its top is the
    largest; an xdeg that has cancelled is dropped when it reaches the top."""
    p = dict(p)
    heap = [tuple([-a for a in m]) for m in p]
    heapq.heapify(heap)
    quo: dict[tuple[int, ...], object] = {}
    while heap:
        lead = tuple([-a for a in heapq.heappop(heap)])
        if lead not in p:
            continue  # cancelled
        diff = tuple(a - b for a, b in zip(lead, g_lead))
        if any(d < 0 for d in diff):
            return None
        coef = p[lead] / g[g_lead]
        quo[diff] = coef  # each lead is below the last, so diff is new
        for gm, gc in g.items():
            m = tuple(a + b for a, b in zip(diff, gm))
            c = p.get(m)
            s = -coef * gc if c is None else c - coef * gc
            if s == 0:
                p.pop(m, None)
            else:
                if c is None:
                    heapq.heappush(heap, tuple([-a for a in m]))
                p[m] = s
    return quo


# ---------------------------------------------------------------------------
# Canonical text serialization
# ---------------------------------------------------------------------------


def serialize(e: RingElement) -> str:
    """Canonical text form, e.g. '3/2*t^-1*x1^2*x2*ginv^1'."""
    if e.is_zero():
        return "0"
    parts = []
    for m in sorted(e.terms):
        c = e.terms[m]
        factors = []
        if m.tdeg != 0:
            factors.append("t" if m.tdeg == 1 else f"t^{m.tdeg}")
        for j, u in enumerate(m.xdeg):
            if u == 1:
                factors.append(f"x{j + 1}")
            elif u:
                factors.append(f"x{j + 1}^{u}")
        if m.gpow:
            factors.append(f"ginv^{m.gpow}")
        if not factors:
            term = str(c)
        elif c == 1:
            term = "*".join(factors)
        elif c == -1:
            term = "-" + "*".join(factors)
        else:
            term = str(c) + "*" + "*".join(factors)
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out
