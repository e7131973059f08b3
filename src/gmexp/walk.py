"""The one walk over a window's (u, m) layer that chooses the cells of a
top image (gmexp.engine._select), and the boxes it reads.

_block_cells takes one lane per list of cells (a component's, the
targets', and for a g of two or more terms the relation generators'), each
a box of the window, with a certified grading only its cells of one
weight, less the cells that the pruning hypothesis (_prune_groups, read
once per u by _hypothesis_at and once per (u, m) by _span) or the rule of
standard cells (read once per u by _standard_at) leaves out.  Every box is
one of _fit_box: the exponents e with e + s in the window for a list of
shifts s.  The theorems that make these cuts exact are stated in
gmexp.engine's docstring.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Optional

from .ring import DegreeWindow

if TYPE_CHECKING:
    from .engine import ProblemInstance
    from .stencil import _Grading


def _block_cells(
    win: DegreeWindow, n: int, grading: Optional[_Grading], lanes: list[tuple]
) -> list[list[int]]:
    """One pass over the (u, m) layer of win for every lane (shift, box, at,
    cuts): the cells t^k x^u g^-m of win inside box = (tlo, thi, xhi, ghi)
    (tlo <= k <= thi, sum(u) <= xhi, m <= ghi), with a grading only those
    that a column moving weight by shift sends into the top block, of weight
    (top - shift) / scale, as ascending positions of the window at, which
    holds them; with cuts = (groups, standard), less the cells where the
    pruning hypothesis of the groups (_prune_groups) holds and those of the
    standard box (_standard_boxes), each read once per u (_hypothesis_at,
    _standard_at) and decided per (u, m): a graded lane tests both at its
    one k, an ungraded one keeps their union as one span (_cut_span).

    Without a grading a lane takes every (k, m) of its box, kept as spans of
    k and written t-major after the pass.  With one, sum(w_i u_i) is taken
    once per u.  For c = top - shift - sum(wx_i u_i) a cell has the weight
    exactly when scale k = c + wg m, so its m are the progression wg m = -c
    (mod scale), of step scale / gcd(wg, scale), cut to the m whose k lies
    in [tlo, thi], and k moves by wg / gcd(wg, scale) per step; each lane
    collects them per t-layer in layout order, so the t-major concatenation
    is ascending."""
    if grading:
        scale, wg = grading.scale, grading.wg
        d = math.gcd(wg, scale)
        step, kstep = scale // d, wg // d
        inv = pow(kstep, -1, step) if step > 1 else 0
    runs = []
    for shift, (tlo, thi, xhi, ghi), at, cuts in lanes:
        xrow_at, tsize = at.layout(n)
        # the cells per t-layer, or without a grading the (offset, lo, hi, z) spans
        found: list = [[] for _ in range(thi - tlo + 1)] if grading else []
        runs.append((shift, tlo, thi, xhi, ghi, xrow_at, tsize, at.tmin, cuts or (None, None),
                     found))
    for u in win.layout(n)[0]:
        su = sum(u)
        if grading:
            top_u = grading.top - sum(a * b for a, b in zip(grading.wx, u))
        for shift, tlo, thi, xhi, ghi, xrow_at, tsize, atmin, (groups, std), found in runs:
            if su > xhi:
                continue
            base = xrow_at[u] - atmin * tsize
            if grading is None:
                hyp = groups and _hypothesis_at(groups, u, su)
                std_u = std and _standard_at(std, u, su)
                for m in range(ghi + 1):
                    found.append((base + m, *_cut_span(hyp, std_u, m)) if hyp or std_u
                                 else (base + m, 1, 0, None))
                continue
            c = top_u - shift
            if c % d:
                continue
            lo, hi = tlo * scale - c, thi * scale - c  # the bounds of wg m
            if wg:
                mlo, mhi = (-(-lo // wg), hi // wg) if wg > 0 else (-(-hi // wg), lo // wg)
            elif lo <= 0 <= hi:
                mlo, mhi = 0, ghi
            else:
                continue
            mlo = max(mlo, 0)
            ms = range(mlo + ((-c // d) * inv - mlo) % step, min(mhi, ghi) + 1, step)
            k = (c + wg * ms.start) // scale
            ks = range(k, k + kstep * len(ms), kstep) if kstep else itertools.repeat(k)
            hyp = groups and _hypothesis_at(groups, u, su)
            kl, kh, ml, mh = std and _standard_at(std, u, su) or (1, 0, 1, 0)
            if not hyp and ml > mh:
                for k, m in zip(ks, ms):
                    found[k - tlo].append(k * tsize + base + m)
                continue
            for k, m in zip(ks, ms):
                if ml <= m <= mh and kl <= k <= kh:
                    continue  # standard
                if hyp:
                    lo, hi, z = _span(hyp, m)
                    if lo <= k <= hi or k == z:
                        continue  # pruned
                found[k - tlo].append(k * tsize + base + m)
    if grading:
        return [[q for layer in run[-1] for q in layer] for run in runs]
    return [[k * tsize + x for k in range(tlo, thi + 1) for x, lo, hi, z in found
             if not (lo <= k <= hi or k == z)]
            for _s, tlo, thi, _x, _g, _xr, tsize, _t, _c, found in runs]


def _standard_at(std: tuple, u: tuple, su: int) -> Optional[tuple]:
    """The span (klo, khi, mlo, mhi) of a box of _standard_boxes at u (su =
    sum(u)): t^k x^u g^-m is in the box exactly when klo <= k <= khi and
    mlo <= m <= mhi; None when no cell at u is."""
    xhi, ulo, span = std
    if su > xhi or ulo is not None and not all(map(int.__ge__, u, ulo)):
        return None
    return span


def _cut_span(hyp: Optional[tuple], std: Optional[tuple], m: int) -> tuple:
    """(lo, hi, z): the cell t^k x^u g^-m of an ungraded lane is left out
    exactly when lo <= k <= hi or k == z, for the pruning hypothesis at u
    (_hypothesis_at) and the span of the standard box at u (_standard_at),
    either None.  Where both spans are non-empty they meet at the top
    t-layer (no term of a component i >= 1 raises t, so neither box bounds
    k below win.tmax), and their union is one span; were they apart, only
    the pruning span would be left out, which keeps every estimate too."""
    lo, hi, z = _span(hyp, m) if hyp else (1, 0, None)
    if std and std[2] <= m <= std[3]:
        if lo > hi:
            lo, hi = std[0], std[1]
        elif std[0] <= hi + 1 and lo <= std[1] + 1:
            lo, hi = min(lo, std[0]), max(hi, std[1])
    return lo, hi, z


def _prune_groups(p: ProblemInstance, win: DegreeWindow, i: int) -> list[tuple]:
    """The pruning hypothesis (gmexp.engine's docstring) for component i >=
    1 on win, as groups (var, z, box).  Component i at the cell t a is
    redundant when a + s lies in win for the shift s of every term of
    component 0 other than -t, and of component i, whose coefficient is not
    0 at a.  A coefficient c * (e[var] + r) vanishes only where e[var] =
    -r, so the terms are grouped by (var, r), and a group holds at a when
    e[var] = z = -r or a lies in its box (_fit_box).  Only the groups with
    var >= 0 and an integer r can vanish; the others are one group, var
    -1."""
    comps = p.stencils[0]
    by_key: dict[tuple, list[tuple]] = {}
    for s, _c, var, r in [t for t in comps[0] if t[0][0] <= 0] + list(comps[i]):
        by_key.setdefault((var, r), []).append(s)
    live = [s for (var, r), ss in by_key.items() if var < 0 or r.denominator != 1 for s in ss]
    return [(-1, None, _fit_box(win, live))] * bool(live) + [
        (var, int(-r), _fit_box(win, ss))
        for (var, r), ss in by_key.items() if var >= 0 and r.denominator == 1]


def _hypothesis_at(groups: list[tuple], u: tuple, su: int) -> Optional[tuple]:
    """The groups of _prune_groups read at the cells t a, a = t^k x^u g^-m
    (su = sum(u)), as (kl, kh, ml, mh, rest): the hypothesis holds at (k, m)
    exactly when kl <= k <= kh, ml <= m <= mh and, for each (var, z, k0, k1,
    m0, m1) of rest, (k, m)[var] == z or k0 <= k <= k1 and m0 <= m <= m1.
    The groups that read u are decided here, once per u; None when one of
    them fails at every such cell."""
    kl, kh, ml, mh, rest = -math.inf, math.inf, -math.inf, math.inf, []
    for var, z, (klo, khi, mlo, mhi, xhi, ulo) in groups:
        if var >= 2 and u[var - 2] == z:
            continue  # every coefficient of the group vanishes at u
        fits = su <= xhi and (ulo is None or all(map(int.__ge__, u, ulo)))
        if var in (0, 1):
            rest.append((var, z, klo, khi, mlo, mhi) if fits else (var, z, 1, 0, 1, 0))
        elif not fits:
            return None
        else:
            kl, kh, ml, mh = max(kl, klo), min(kh, khi), max(ml, mlo), min(mh, mhi)
    rest.sort(reverse=True)  # the group of var 0, which reads k, last
    return kl, kh, ml, mh, rest


def _span(hyp: tuple, m: int) -> tuple:
    """(lo, hi, z): the hypothesis _hypothesis_at gives holds at (a, m), for
    the cell t a of t-degree k, exactly when lo <= k <= hi or k == z.  The
    group of var 0 (r = -alpha, the one group that reads a) comes last in
    rest and alone tests a itself: it holds at a == z or in its box."""
    kl, kh, ml, mh, rest = hyp
    if not ml <= m <= mh:
        return 1, 0, None
    lo, hi, z0 = kl, kh, None
    for var, z, k0, k1, m0, m1 in rest:
        if var == 0:
            z0 = z + 1 if lo <= z <= hi else None
        elif m == z:
            continue
        if not m0 <= m <= m1:
            k0, k1 = 1, 0
        lo, hi = k0 if k0 > lo else lo, k1 if k1 < hi else hi
    return lo + 1, hi + 1, z0


def _fit_box(win: DegreeWindow, shifts: list[tuple]) -> tuple:
    """The box (klo, khi, mlo, mhi, xhi, ulo) of the exponents e = (k, m, u)
    with e + s in win for every shift s of a non-empty list: klo <= k <=
    khi, mlo <= m <= mhi, sum(u) <= xhi and u >= ulo componentwise (ulo is
    None when that holds for every u >= 0)."""
    dts, dgs, dxs = [s[0] for s in shifts], [s[1] for s in shifts], [s[2:] for s in shifts]
    ulo = tuple(max(0, -min(col)) for col in zip(*dxs))
    return (win.tmin - min(dts), win.tmax - max(dts), -min(dgs), win.gmax - max(dgs),
            win.xmax - max(map(sum, dxs)), ulo if any(ulo) else None)
