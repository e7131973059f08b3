"""Row stencils: the row components of gmexp.engine and the localization
relation as shifted terms with coefficients affine in the exponents, written
once per instance from (f, g, alpha) (_row_stencils); their int form
(_int_stencil), which assembly and the certificates read with no Q product;
the bracket of two stencils (_commutator), on which the commutation
certificate of gmexp.engine decides; the Euler grading certified on them
(_certify_grading); and their evaluation at window cells into columns
(_stencil_columns).  gmexp.engine's docstring states what each is for.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence

from .rational import Q
from .ring import DegreeWindow, Monomial, RingElement, _collect, partial_x, quasi_weights

if TYPE_CHECKING:
    from .engine import ProblemInstance


def _times(e: RingElement, dt: int = 0, dg: int = 0, var: int = -1, r=0) -> list[tuple]:
    """Stencil terms of multiplication by e, moved by t^dt g^-dg, with each
    coefficient c of e read as c * (e[var] + r)."""
    return [((dt, m.gpow + dg, *m.xdeg), c, var, r) for m, c in e.terms.items()]


def _row_stencils(p: ProblemInstance) -> tuple[tuple, tuple]:
    """The n+1 row components and the relation g * g^-(m+1) - g^-m as stencils.

    A stencil is a tuple of terms (shift, c, var, r).  With e = (k, m, u_1,
    ..., u_n, 1) the exponents of t^k x^u g^-m, a term sends it to
    c * (e[var] + r) times the monomial with exponents e + shift, shift =
    (dt, dg, dx_1, ..., dx_n); var = -1 reads the constant slot.  The
    components are f - t and d_i + f'_i (d/dt - alpha/t), where d_i acts on
    x^u g^-m as u_i x^(u - e_i) g^-m - m (d_i g) x^u g^-(m+1).  No two terms
    of one stencil share a shift.
    """
    n, g = p.n, p.g
    comps = [tuple(_times(p.f) + [((1,) + (0,) * (n + 1), Q(-1), -1, 0)])]  # f - t
    for i, df in enumerate(p.derivatives, start=1):
        lower = ((0, 0, *(-1 if j == i else 0 for j in range(1, n + 1))), Q(1), i + 1, 0)
        quotient_rule = _times(-partial_x(i, g, g), dg=1, var=1)
        comps.append(tuple([lower] + quotient_rule + _times(df, dt=-1, var=0, r=-p.alpha)))
    return tuple(comps), tuple(_times(g, dg=1) + [((0,) * (n + 2), Q(-1), -1, 0)])


def _commutator(left: tuple, right: tuple) -> dict[tuple, dict[int, int]]:
    """The bracket of two stencils, as its surviving forms {shift: {var: coeff}}
    (ints, none of them 0); {} exactly when the stencils commute formally.

    Composing stencils gives coefficients of degree <= 2 in e = (k, m, u),
    and for any pair the quadratic parts cancel in the commutator:
    right(left(e)) - left(right(e)) is the stencil whose term at shift s0 +
    s1 collects c0 * c1 * (s0[v1] * (e[v0] + r0) - s1[v0] * (e[v1] + r1))
    over the terms (s0, c0, v0, r0) of left and (s1, c1, v1, r1) of right,
    a shift read as 0 in the constant slot -1: an affine form, var -1 its
    constant.  The arithmetic is on the ints of _int_stencil, with no Q product:
    every form is scaled by the same non-zero constant, which keeps its zero
    test exact."""
    diff: dict[tuple, dict[int, int]] = {}
    right = _int_stencil(right)[1]
    for s0, c0, v0, cr0 in _int_stencil(left)[1]:
        for s1, c1, v1, cr1 in right:
            a = s0[v1] if v1 >= 0 else 0
            b = s1[v0] if v0 >= 0 else 0
            if not (a or b):
                continue
            form = diff.setdefault(tuple(map(sum, zip(s0, s1))), {})
            if a:  # + c0 * c1 * a * (e[v0] + r0)
                form[v0] = form.get(v0, 0) + c0 * c1 * a
                form[-1] = form.get(-1, 0) + cr0 * c1 * a
            if b:  # - c0 * c1 * b * (e[v1] + r1)
                form[v1] = form.get(v1, 0) - c0 * c1 * b
                form[-1] = form.get(-1, 0) - c0 * cr1 * b
    if not any(v for form in diff.values() for v in form.values()):
        return {}
    survivors = ((s, {var: v for var, v in form.items() if v}) for s, form in diff.items())
    return {s: form for s, form in survivors if form}


def _int_stencil(stencil: tuple) -> tuple[int, list[tuple]]:
    """(L, [(shift, a, var, b)]) for a stencil's terms (shift, c, var, r):
    c * (x + r) = (a x + b) / L, for L the lcm of the denominators of every c
    and c * r, in ints read from the numerators and denominators of c and r
    alone (so mpq works too), c * r reduced by one gcd, with no Q product."""
    parts = []
    for s, c, var, r in stencil:
        cn, cd = int(c.numerator), int(c.denominator)
        pn, pd = cn * int(r.numerator), cd * int(r.denominator)  # c * r
        d = math.gcd(pn, pd)
        parts.append((s, cn, cd, var, pn // d, pd // d))
    scale = math.lcm(*(x for part in parts for x in part[2::3]))  # every cd and pd
    return scale, [(s, cn * (scale // cd), var, pn * (scale // pd))
                   for s, cn, cd, var, pn, pd in parts]


class _Grading(NamedTuple):
    """A certified Euler grading in integers: t^k x^u g^-m has the weight
    (scale * k + sum(wx_i u_i) - wg * m) / scale, component ci moves every
    weight by shifts[ci] / scale, and top / scale = alpha - sum(w_i), which
    no cell has when alpha is off the weight lattice."""

    scale: int
    wx: tuple[int, ...]
    wg: int
    shifts: tuple[int, ...]
    top: int


def _certify_grading(p: ProblemInstance) -> Optional[_Grading]:
    """The grading of the theorem in gmexp.engine's docstring, when all
    three of its hypotheses hold exactly (the weights are unique, the Euler
    identity sum(w_i x_i f'_i) == f holds as formal elements, and every
    stencil term moves the weight by its component's shift, the relation's
    by 0), scaled by the lcm of the denominators of w, delta and alpha.
    None otherwise."""
    found = quasi_weights(p.f, p.g)
    if found is None:
        return None
    w, delta = found
    euler = _collect(  # sum(w_i x_i f'_i), term by term in one dict
        (Monomial(m.tdeg, tuple(u + 1 if j == i else u for j, u in enumerate(m.xdeg)), m.gpow),
         wi * c)
        for i, (wi, df) in enumerate(zip(w, p.derivatives)) for m, c in df.terms.items())
    if euler != p.f.terms:
        return None
    scale = math.lcm(*(int(q.denominator) for q in (*w, delta, p.alpha)))
    top = (p.alpha - sum(w)) * scale
    wx = tuple(int(wi * scale) for wi in w)
    wg = int(delta * scale)
    shifts = (scale, *(-a for a in wx))
    comps, relation = p.stencils
    for stencil, shift in zip((*comps, relation), (*shifts, 0)):
        for (dt, dg, *dx), *_ in stencil:
            if scale * dt - wg * dg + sum(a * b for a, b in zip(wx, dx)) != shift:
                return None
    return _Grading(scale, wx, wg, shifts, int(top))


def _stencil_columns(
    stencil: tuple, cells: Sequence[int], win_in: DegreeWindow, win: DegreeWindow, n: int,
    stop: Optional[int] = None,
) -> list[Optional[dict[int, tuple[int, int]]]]:
    """The image under a stencil (see _row_stencils) of each cell, given by
    its position in win_in, as a column {row: (num, den)} over win's
    canonical order (rows placed by win.layout), or None if a non-zero term
    falls outside win; with stop, the entries on rows >= stop are left out
    (but must still lie in win).  Each term's coefficient is made once per
    value x of the exponent it reads, (a x + b, L) of _int_stencil reduced
    by one gcd, and that one pair object is shared by its entries."""
    xrow, tsize = win.layout(n)
    if stop is None:
        stop = (win.tmax - win.tmin + 1) * tsize
    tmin, tmax, gmax = win.tmin, win.tmax, win.gmax
    layer, kmin, lsize = win_in.layer(n), win_in.tmin, win_in.layout(n)[1]
    den, ints = _int_stencil(stencil)
    terms = [(s[0], s[1], s[0] * tsize + s[1], a, var, b, {}) for s, a, var, b in ints]
    by_u: dict[tuple, list] = {}  # u -> row offset of u + dx for each term, None outside
    cols: list[Optional[dict[int, tuple[int, int]]]] = []
    for q in cells:
        k, (u, m) = kmin + q // lsize, layer[q % lsize]
        xs = by_u.get(u)
        if xs is None:
            xs = by_u[u] = [xrow.get(tuple(map(sum, zip(u, s[2:])))) for s, *_ in stencil]
        e = (k, m, *u, 1)
        base = (k - tmin) * tsize + m
        col: Optional[dict[int, tuple[int, int]]] = {}
        for (dt, dg, off, a, var, b, memo), x in zip(terms, xs):
            v = memo.get(e[var], memo)  # memo itself marks a miss, None a zero
            if v is memo:
                v = a * e[var] + b
                d = math.gcd(v, den)
                v = memo[e[var]] = (v // d, den // d) if v else None
            if v is None:
                continue
            if x is None or not tmin <= k + dt <= tmax or m + dg > gmax:
                col = None
                break
            if base + x + off < stop:
                col[base + x + off] = v
        cols.append(col)
    return cols
