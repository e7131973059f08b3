"""Exponent verdicts via the surjectivity/cokernel criterion.

Given f in k[x1..xn, 1/g] and a rational class alpha, the row map

    (f - t, d_1 + f'_1 phi, ..., d_n + f'_n phi),   phi = d/dt - alpha/t,

from R^(n+1) to R = k((t))[x, 1/g] is surjective exactly when alpha mod Z
is not an exponent at the origin of the direct image of the structure
sheaf under f; the cokernel dimension counts the Jordan blocks of the
zeroth cohomology for that class.  This module assembles finite window
restrictions of that map (and of the full Koszul complex built from its
pairwise-commuting components), measures cokernels on window interiors,
and reports verdicts once the estimates stabilize across a growth
schedule of nested windows.

The localization by g is handled formally: window bases use monomials
t^k x^u g^-m and the assembled image is augmented with the relation
columns g * g^-(m+1) - g^-m, so cokernels are computed in the quotient.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .linalg import SparseMatrixQ, nullspace, rank_with_extension
from .operators import (
    Compose,
    MulByElem,
    MulByT,
    Operator,
    PartialX,
    PhiC,
    Scale,
    Sum,
    apply,
)
from .rational import Q, rat
from .ring import DegreeWindow, Monomial, RingElement, clear_g, partial_x, serialize


class WindowError(ValueError):
    """Output window too small to hold the image of the input window."""


class ResourceLimitError(RuntimeError):
    """Window exceeds the configured matrix-size cap."""


MAX_WINDOW_CELLS_ENV = "GM_MAX_WINDOW_CELLS"


@dataclass(frozen=True)
class ProblemInstance:
    """f in k[x, 1/g] (t-free), g a nonzero pure polynomial, alpha rational."""

    n: int
    f: RingElement
    g: RingElement
    alpha: object

    def __post_init__(self):
        object.__setattr__(self, "alpha", rat(self.alpha))
        if self.g.is_zero():
            raise ValueError("g must be nonzero")
        if not self.g.is_polynomial():
            raise ValueError("g must be a pure polynomial")
        if not self.f.is_t_free():
            raise ValueError("f must not depend on t")
        if self.f.n != self.n or self.g.n != self.n:
            raise ValueError("variable count mismatch")
        object.__setattr__(self, "f", clear_g(self.f, self.g))

    def derivatives(self) -> list[RingElement]:
        return [clear_g(partial_x(i, self.f, self.g), self.g) for i in range(1, self.n + 1)]


class Verdict(str, Enum):
    EXPONENT = "exponent"
    NOT_EXPONENT = "not-exponent"
    UNDETERMINED = "undetermined"


@dataclass
class ExponentReport:
    verdict: Verdict
    cokernel_dim: Optional[int]
    windows_used: list[DegreeWindow]
    stabilized: bool
    estimates: list[int] = field(default_factory=list)
    koszul_dims: Optional[dict[int, int]] = None
    method: str = "generic"

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "cokernel_dim": self.cokernel_dim,
            "stabilized": self.stabilized,
            "estimates": self.estimates,
            "windows": [
                {"tmin": w.tmin, "tmax": w.tmax, "xmax": w.xmax, "gmax": w.gmax}
                for w in self.windows_used
            ],
            "koszul_dims": (
                {str(k): v for k, v in self.koszul_dims.items()} if self.koszul_dims else None
            ),
            "method": self.method,
        }


# ---------------------------------------------------------------------------
# Row construction and commutation
# ---------------------------------------------------------------------------


def phi_row(p: ProblemInstance) -> list[Operator]:
    """The n+1 pairwise-commuting components of the row map."""
    phi = PhiC(-p.alpha)
    comps: list[Operator] = [Sum(MulByElem(p.f), Scale(-1, MulByT()))]
    for i, df in enumerate(p.derivatives(), start=1):
        comps.append(Sum(PartialX(i), Compose(MulByElem(df), phi)))
    return comps


def check_row_commutation(p: ProblemInstance, w: DegreeWindow) -> bool:
    """Exact pairwise commutation of the row components on window monomials."""
    comps = phi_row(p)
    monos = list(w.monomials(p.n))
    for a, b in itertools.combinations(comps, 2):
        for m in monos:
            e = RingElement.monomial(p.n, m)
            ab = apply(a, apply(b, e, p.g), p.g)
            ba = apply(b, apply(a, e, p.g), p.g)
            if ab != ba:
                return False
    return True


# ---------------------------------------------------------------------------
# Shift analysis and windows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Shifts:
    dx: int  # max raise of total x-degree by any component (or relation)
    dg: int  # max raise of gpow
    x_margin: int  # interior margin in x
    g_margin: int  # interior margin in gpow
    t_margin: int = 2  # max |t|-shift (1) times safety factor 2


def _shift_analysis(p: ProblemInstance) -> _Shifts:
    g_trivial = p.g.is_one()
    dgx = p.g.max_xdeg()
    dx = max(p.f.max_xdeg(), 1)
    dg = p.f.max_gpow()
    for df in p.derivatives():
        dx = max(dx, df.max_xdeg())
        dg = max(dg, df.max_gpow() + 1 if not g_trivial else 0)
    if not g_trivial:
        dx = max(dx, dgx)  # relation columns multiply by g
        dg = max(dg, 1)
    x_margin = max(p.f.max_xdeg() + dgx, 1)
    g_margin = 2 * dg if not g_trivial else 0
    return _Shifts(dx=dx, dg=dg, x_margin=x_margin, g_margin=g_margin)


def default_schedule(
    p: ProblemInstance,
    rounds: int = 5,
    t_start: int | None = None,
    x_start: int | None = None,
    t_step: int = 2,
    x_step: int = 3,
) -> list[DegreeWindow]:
    """Nested growth schedule; tmax and xmax grow by fixed steps."""
    sh = _shift_analysis(p)
    t0 = t_start if t_start is not None else sh.t_margin + 1
    x0 = x_start if x_start is not None else sh.x_margin + 2
    g_trivial = p.g.is_one()
    out = []
    for r in range(rounds):
        tmax = t0 + t_step * r
        xmax = x0 + x_step * r
        gmax = 0 if g_trivial else xmax
        out.append(DegreeWindow(-tmax, tmax, xmax, gmax))
    return out


def _interior(win: DegreeWindow, sh: _Shifts) -> DegreeWindow:
    return win.shrink(dt=sh.t_margin, dx=sh.x_margin, dg=sh.g_margin)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _basis(n: int, win: DegreeWindow) -> tuple[list[Monomial], dict[Monomial, int]]:
    monos = list(win.monomials(n))
    return monos, {m: i for i, m in enumerate(monos)}


def _check_cells(cells: int) -> None:
    cap = os.environ.get(MAX_WINDOW_CELLS_ENV)
    if cap is not None and cells > int(cap):
        raise ResourceLimitError(f"window needs {cells} cells, cap is {cap}")


def assemble_phi(
    p: ProblemInstance, win_in: DegreeWindow, win_out: DegreeWindow
) -> SparseMatrixQ:
    """Matrix of the row map from the (n+1)-fold basis of win_in to win_out.

    Raises WindowError when win_out cannot hold the image.
    """
    comps = phi_row(p)
    in_monos, _ = _basis(p.n, win_in)
    out_monos, out_index = _basis(p.n, win_out)
    _check_cells((p.n + 1) * len(in_monos))
    col_labels = []
    mat = SparseMatrixQ(len(out_monos), (p.n + 1) * len(in_monos), row_labels=out_monos)
    col = 0
    for ci, comp in enumerate(comps):
        for m in in_monos:
            image = apply(comp, RingElement.monomial(p.n, m), p.g)
            for im, c in image.terms.items():
                idx = out_index.get(im)
                if idx is None:
                    raise WindowError(
                        f"image term {serialize(RingElement.monomial(p.n, im))} of "
                        f"component {ci} falls outside the output window"
                    )
                mat.add(idx, col, c)
            col_labels.append((ci, m))
            col += 1
    mat.col_labels = col_labels
    return mat


def _relation_columns(
    p: ProblemInstance, win_in: DegreeWindow, out_index: dict[Monomial, int]
) -> list[dict[int, object]]:
    """Columns spanning mono * (g * g^-(m+1) - g^-m) for window monomials."""
    if p.g.is_one():
        return []
    cols = []
    for m in win_in.monomials(p.n):
        rel = (RingElement.monomial(p.n, m) * p.g).shift_gpow(1) - RingElement.monomial(p.n, m)
        col: dict[int, object] = {}
        ok = True
        for im, c in rel.terms.items():
            idx = out_index.get(im)
            if idx is None:
                ok = False
                break
            col[idx] = col.get(idx, Q(0)) + c
        if ok:
            cols.append({k: v for k, v in col.items() if v != 0})
    return cols


def _slack_columns(monos, threshold: int) -> list[dict[int, object]]:
    """Unit columns for rows at t-degree >= threshold.

    Solutions in k((t))[x, 1/g] carry infinite ascending t-tails; a window
    truncation of a true preimage leaves its residual in the top t-layers,
    so those rows are not required to be matched exactly.
    """
    return [{i: Q(1)} for i, m in enumerate(monos) if m.tdeg >= threshold]


def _window_cokernel(p: ProblemInstance, win: DegreeWindow, sh: _Shifts) -> int:
    win_out = win.expand(dt=1, dx=sh.dx, dg=sh.dg)
    mat = assemble_phi(p, win, win_out)
    out_monos = mat.row_labels
    out_index = {m: i for i, m in enumerate(out_monos)}
    rel = _relation_columns(p, win, out_index)
    slack = _slack_columns(out_monos, win.tmax)
    interior = _interior(win, sh)
    targets = [out_index[m] for m in interior.monomials(p.n)]
    target_cols = [{r: Q(1)} for r in sorted(set(targets))]
    # image columns (matrix + relations + tail slack) are pivoted first,
    # then the surviving target directions are counted
    extra_image = rel + slack
    combined = mat
    if extra_image:
        extra = SparseMatrixQ(mat.nrows, mat.ncols + len(extra_image))
        for c, coldict in enumerate(mat.cols):
            for r, v in coldict.items():
                extra.set(r, c, v)
        for j, coldict in enumerate(extra_image):
            for r, v in coldict.items():
                extra.set(r, mat.ncols + j, v)
        combined = extra
    _, coker = rank_with_extension(combined, target_cols)
    return coker


# ---------------------------------------------------------------------------
# Exponent test (generic truncation path)
# ---------------------------------------------------------------------------


def exponent_test(
    p: ProblemInstance,
    schedule: Sequence[DegreeWindow] | None = None,
    *,
    method: str = "generic",
) -> ExponentReport:
    """Cokernel estimates across a window schedule; verdict on agreement
    of the last two windows.

    method 'generic' always uses the truncation path; 'per-degree' uses
    the exact per-degree reduction when it applies (arrangement-shaped f,
    g = 1, and every scaling-operator inversion legal) and falls back to
    the generic path otherwise.

    For localized instances (g != 1) a zero estimate is accepted only
    after three consecutive agreeing windows: localization denominators
    delay the appearance of genuine cokernel classes by a window or two
    (e.g. f = x^2, g = x, class 1 shows estimates 0, 0, 1, 1, ...), so
    two agreeing zeros are not yet evidence of surjectivity there.
    """
    if method == "per-degree":
        from .arrangements import per_degree_exponent_test

        rep = per_degree_exponent_test(p, schedule)
        if rep is not None:
            return rep
        # fall through: reduction not applicable
    if schedule is None:
        schedule = default_schedule(p)
    schedule = list(schedule)
    if len(schedule) < 2:
        raise ValueError("schedule must contain at least two windows")
    _check_schedule_increasing(schedule)
    sh = _shift_analysis(p)
    estimates: list[int] = []
    used: list[DegreeWindow] = []
    for win in schedule:
        estimates.append(_window_cokernel(p, win, sh))
        used.append(win)
        if len(estimates) >= 2 and estimates[-1] == estimates[-2]:
            v = estimates[-1]
            if v == 0 and not p.g.is_one():
                if len(estimates) < 3 or estimates[-3] != 0:
                    continue
            verdict = Verdict.NOT_EXPONENT if v == 0 else Verdict.EXPONENT
            return ExponentReport(
                verdict=verdict,
                cokernel_dim=v,
                windows_used=used,
                stabilized=True,
                estimates=estimates,
            )
    return ExponentReport(
        verdict=Verdict.UNDETERMINED,
        cokernel_dim=None,
        windows_used=used,
        stabilized=False,
        estimates=estimates,
    )


def _check_schedule_increasing(schedule: Sequence[DegreeWindow]) -> None:
    """Each window must contain the previous one and grow in tmax or xmax."""
    for a, b in zip(schedule, schedule[1:]):
        nested = b.tmin <= a.tmin and b.tmax >= a.tmax and b.xmax >= a.xmax and b.gmax >= a.gmax
        if not (nested and (b.tmax > a.tmax or b.xmax > a.xmax)):
            raise ValueError("schedule windows must be nested and strictly increasing")


# ---------------------------------------------------------------------------
# Koszul cohomology
# ---------------------------------------------------------------------------


def _koszul_bases(n: int):
    """Subsets of {0..n} by cardinality, each sorted, in a fixed order."""
    items = list(range(n + 1))
    by_deg = []
    for j in range(n + 2):
        by_deg.append([tuple(s) for s in itertools.combinations(items, j)])
    return by_deg


def _koszul_matrix(
    p: ProblemInstance,
    comps: list[Operator],
    j: int,
    win_dom: DegreeWindow,
    win_cod: DegreeWindow,
):
    """Matrix of d^j from K^j(win_dom) to K^(j+1)(win_cod), exact."""
    by_deg = _koszul_bases(p.n)
    dom_monos, _ = _basis(p.n, win_dom)
    cod_monos, cod_index = _basis(p.n, win_cod)
    dom_sets = by_deg[j]
    cod_sets = by_deg[j + 1]
    cod_set_index = {s: k for k, s in enumerate(cod_sets)}
    nrows = len(cod_sets) * len(cod_monos)
    ncols = len(dom_sets) * len(dom_monos)
    _check_cells(ncols)
    mat = SparseMatrixQ(nrows, ncols)
    col = 0
    col_labels = []
    for s in dom_sets:
        for m in dom_monos:
            e = RingElement.monomial(p.n, m)
            for i in range(p.n + 1):
                if i in s:
                    continue
                sign = (-1) ** sum(1 for x in s if x < i)
                s2 = tuple(sorted(s + (i,)))
                base = cod_set_index[s2] * len(cod_monos)
                image = apply(comps[i], e, p.g)
                for im, c in image.terms.items():
                    idx = cod_index.get(im)
                    if idx is None:
                        raise WindowError("Koszul codomain window too small")
                    mat.add(base + idx, col, sign * c)
            col_labels.append((s, m))
            col += 1
    mat.col_labels = col_labels
    return mat, dom_monos, cod_monos


def koszul_cohomology(p: ProblemInstance, win: DegreeWindow) -> dict[int, int]:
    """Interior cohomology dimensions of the Koszul complex of the row
    components, degrees 0..n+1.

    Every differential is assembled exactly with domain win and codomain
    win expanded once by the shift bounds, so chaining two differentials
    on the overlap composes to zero.  Cycles are taken with interior
    support (closing up to the localization relations); boundaries come
    from the full domain window, with slack for the top t-layers where a
    truncated ascending tail leaves its residual.

    Raises WindowError on assembly problems and ValueError when the
    components fail their pairwise commutation check (an assembly bug).
    """
    probe = DegreeWindow(-2, 2, 2, min(2, 2 if not p.g.is_one() else 0))
    if not check_row_commutation(p, probe):
        raise ValueError("row components do not commute; assembly is inconsistent")
    comps = phi_row(p)
    sh = _shift_analysis(p)
    by_deg = _koszul_bases(p.n)
    big = win.expand(1, sh.dx, sh.dg)

    interior = _interior(win, sh)
    dims: dict[int, int] = {}
    mats: dict[int, tuple] = {}
    for j in range(p.n + 1):
        mats[j] = _koszul_matrix(p, comps, j, win, big)

    for j in range(p.n + 2):
        dims[j] = _koszul_h(p, j, mats, win, big, interior, by_deg)
    return dims


def _component_relations(p, sets, monos, index_of_mono, win):
    """Relation columns in each direct-sum component of a Koszul term."""
    if p.g.is_one():
        return []
    cols = []
    nm = len(monos)
    gen_win = DegreeWindow(win.tmin, win.tmax, max(0, win.xmax - p.g.max_xdeg()),
                          max(0, win.gmax - 1))
    for k, _s in enumerate(sets):
        base = k * nm
        for m in gen_win.monomials(p.n):
            rel = (RingElement.monomial(p.n, m) * p.g).shift_gpow(1) - RingElement.monomial(
                p.n, m
            )
            col: dict[int, object] = {}
            ok = True
            for im, c in rel.terms.items():
                idx = index_of_mono.get(im)
                if idx is None:
                    ok = False
                    break
                col[base + idx] = col.get(base + idx, Q(0)) + c
            if ok:
                cols.append({kk: v for kk, v in col.items() if v != 0})
    return cols


def _component_slack(sets, monos, threshold: int) -> list[dict[int, object]]:
    cols = []
    nm = len(monos)
    for k in range(len(sets)):
        for i, m in enumerate(monos):
            if m.tdeg >= threshold:
                cols.append({k * nm + i: Q(1)})
    return cols


def _koszul_h(p, j, mats, win, big, interior, by_deg):
    n = p.n
    # cycles and boundaries are compared inside K^j(big)
    big_monos = list(big.monomials(n))
    big_index = {m: i for i, m in enumerate(big_monos)}
    sets_j = by_deg[j]
    set_pos = {s: k for k, s in enumerate(sets_j)}
    nm = len(big_monos)

    # kernel vectors of d^j supported on the interior; only finitely
    # supported cycles are detected (closing up to the localization
    # relations), so lower-degree dimensions are lower bounds
    if j <= n:
        mat_j = mats[j][0]
        interior_cols = [
            col for col, (s, m) in enumerate(mat_j.col_labels) if interior.contains(m)
        ]
        rel_cod = _component_relations(p, by_deg[j + 1], big_monos, big_index, big)
        aug = SparseMatrixQ(mat_j.nrows, len(interior_cols) + len(rel_cod))
        for k, col in enumerate(interior_cols):
            for r, v in mat_j.cols[col].items():
                aug.set(r, k, v)
        for k, coldict in enumerate(rel_cod):
            for r, v in coldict.items():
                aug.set(r, len(interior_cols) + k, v)
        zvecs = []
        for vec in nullspace(aug):
            z: dict[int, object] = {}
            for c, v in vec.items():
                if c < len(interior_cols):
                    s, m = mat_j.col_labels[interior_cols[c]]
                    z[set_pos[s] * nm + big_index[m]] = v
            if z:
                zvecs.append(z)
    else:
        # top degree: everything interior is a cycle
        zvecs = [
            {s_pos * nm + big_index[m]: Q(1)}
            for s_pos in range(len(sets_j))
            for m in interior.monomials(n)
        ]

    # boundaries: image of d^(j-1) plus relations, plus slack for the top
    # t-layers where a truncated ascending tail leaves its residual
    bcols: list[dict[int, object]] = []
    if j >= 1:
        mat_b = mats[j - 1][0]
        for col in mat_b.cols:
            if col:
                bcols.append(dict(col))
    bcols.extend(_component_relations(p, sets_j, big_monos, big_index, big))
    bcols.extend(_component_slack(sets_j, big_monos, win.tmax))

    bmat = SparseMatrixQ(len(sets_j) * nm, len(bcols))
    for c, coldict in enumerate(bcols):
        for r, v in coldict.items():
            bmat.set(r, c, v)
    _, extra = rank_with_extension(bmat, zvecs)
    return extra


def check_corollary_dominance(p: ProblemInstance, win: DegreeWindow) -> bool:
    """True iff vanishing of the top cohomology forces full interior
    acyclicity on the window (a false return flags an implementation bug,
    not a counterexample to the theory)."""
    dims = koszul_cohomology(p, win)
    top = dims[p.n + 1]
    if top != 0:
        return True
    return all(v == 0 for v in dims.values())
