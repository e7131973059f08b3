"""Exponent verdicts via the surjectivity/cokernel criterion.

Given f in k[x1..xn, 1/g] and a rational class alpha, the row map

    (f - t, d_1 + f'_1 phi, ..., d_n + f'_n phi),   phi = d/dt - alpha/t,

from R^(n+1) to R = k((t))[x, 1/g] is surjective exactly when alpha mod Z
is not an exponent at the origin of the direct image of the structure
sheaf under f; the cokernel dimension counts the Jordan blocks of the
zeroth cohomology for that class.  On each window this module builds the
Koszul complex of the pairwise-commuting components once, with one set of
relation columns; its top degree n+1, the cokernel on the window interior,
is both exponent_test's estimate and koszul_cohomology's degree n+1.
Verdicts come once the estimates stabilize over a schedule of nested windows.

The localization by g is handled formally: window bases use monomials
t^k x^u g^-m and the assembled image is augmented with the relation
columns g * g^-(m+1) - g^-m, so cokernels are computed in the quotient.

Assembly walks no operator tree per monomial: each component of phi_row,
and the relation generator, is compiled once into a stencil of shifted
terms with coefficients affine in (k, m, u) (operators.compile_stencil),
and a column is that stencil at one monomial, its rows found by index
arithmetic over the output window's canonical order
(DegreeWindow.layout).  A window matrix is its row count and a list of
{row: value} columns from the stencil to the pivot: window cells are
named by their positions, never by Monomial labels.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .linalg import SparseMatrixQ, nullspace, rank_with_extension
from .operators import Compose, Identity, MulByElem, MulByT, Operator, PartialX, PhiC, Scale, Sum
from .operators import apply_stencil, compile_stencil
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
    """Exact pairwise commutation on window monomials of the compiled row
    components, the stencils that assembly evaluates.  The g-layers are formal
    (g * g^-1 stays), so sides that differ are compared in k[x, 1/g] by clear_g."""
    stencils = [compile_stencil(c, p.g) for c in phi_row(p)]
    for m in w.monomials(p.n):
        images = [apply_stencil(st, {m: Q(1)}) for st in stencils]
        for a, b in itertools.combinations(range(len(stencils)), 2):
            lhs = apply_stencil(stencils[a], images[b])
            rhs = apply_stencil(stencils[b], images[a])
            if lhs != rhs:
                diff = RingElement(p.n, lhs) - RingElement(p.n, rhs)
                if not clear_g(diff, p.g).is_zero():
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

    def output_window(self, win: DegreeWindow) -> DegreeWindow:
        """The window holding the image of win under the row components and relations."""
        return win.expand(dt=1, dx=self.dx, dg=self.dg)


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


def default_schedule(p: ProblemInstance, rounds: int = 5) -> list[DegreeWindow]:
    """The nested windows exponent_test runs on, shaped by the shift analysis
    (see _round_window).  A longer run begins with the windows of a shorter
    one, so rounds only sets how many there are."""
    sh = _shift_analysis(p)
    return [_round_window(p, sh, r) for r in range(rounds)]


def _round_window(p: ProblemInstance, sh: _Shifts, r: int) -> DegreeWindow:
    """Window r of the schedule: t in [-tmax, tmax] with tmax = t_margin + 1 + 2r,
    xmax = x_margin + 2 + 3r, and gmax = xmax when g != 1."""
    tmax = sh.t_margin + 1 + 2 * r
    xmax = sh.x_margin + 2 + 3 * r
    return DegreeWindow(-tmax, tmax, xmax, 0 if p.g.is_one() else xmax)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def _check_cells(cells: int) -> None:
    cap = os.environ.get(MAX_WINDOW_CELLS_ENV)
    if cap is not None and cells > int(cap):
        raise ResourceLimitError(f"window needs {cells} cells, cap is {cap}")


def _stencil_columns(
    stencil: tuple, monos: list[Monomial], win: DegreeWindow, n: int
) -> list[Optional[dict[int, object]]]:
    """Each monomial's image under a compiled stencil as a column {row: value}
    over win's canonical order (rows placed by win.layout), or None if a
    non-zero term falls outside win."""
    xrow, tsize = win.layout(n)
    tmin, tmax, gmax = win.tmin, win.tmax, win.gmax
    terms = [
        (s[0], s[1], s[0] * tsize + s[1], [(c, var, r, {}) for c, var, r in pairs])
        for s, pairs in stencil
    ]
    by_u: dict[tuple, list] = {}  # u -> row offset of u + dx for each term, None outside
    cols: list[Optional[dict[int, object]]] = []
    for k, u, m in monos:
        xs = by_u.get(u)
        if xs is None:
            xs = by_u[u] = [xrow.get(tuple(map(sum, zip(u, s[2:-1])))) for s, _ in stencil]
        e = (k, m, *u, 1)
        base = (k - tmin) * tsize + m
        col: Optional[dict[int, object]] = {}
        for (dt, dg, off, pairs), x in zip(terms, xs):
            v = None
            for c, var, r, memo in pairs:
                cv = memo.get(e[var])
                if cv is None:
                    cv = memo[e[var]] = c * (e[var] + r)
                v = cv if v is None else v + cv
            if not v:
                continue
            if x is None or not tmin <= k + dt <= tmax or m + dg > gmax:
                col = None
                break
            col[base + x + off] = v
        cols.append(col)
    return cols


def assemble_phi(
    p: ProblemInstance, win_in: DegreeWindow, win_out: DegreeWindow
) -> SparseMatrixQ:
    """Matrix of the row map from the (n+1)-fold basis of win_in to win_out.

    Each component is compiled once into a stencil; its columns, in win_in's
    canonical order, are the stencil at each monomial, with rows in win_out's
    canonical order: column ci * win_in.size(n) + i is component ci at cell i.
    Raises WindowError when win_out cannot hold the image.
    """
    in_monos = list(win_in.monomials(p.n))
    _check_cells((p.n + 1) * len(in_monos))
    cols: list = []
    for ci, comp in enumerate(phi_row(p)):
        image = _stencil_columns(compile_stencil(comp, p.g), in_monos, win_out, p.n)
        if None in image:
            bad = RingElement.monomial(p.n, in_monos[image.index(None)])
            raise WindowError(f"image of {serialize(bad)} under component {ci} leaves the window")
        cols += image
    return SparseMatrixQ(win_out.size(p.n), cols)


def _relation_columns(p: ProblemInstance, gens: DegreeWindow, win: DegreeWindow) -> list[dict]:
    """Columns mono * (g * g^-(m+1) - g^-m) over win's basis, for the
    monomials of gens whose relation lies inside win."""
    if p.g.is_one():
        return []
    rel = compile_stencil(Sum(MulByElem(p.g.shift_gpow(1)), Scale(-1, Identity())), p.g)
    return [c for c in _stencil_columns(rel, list(gens.monomials(p.n)), win, p.n) if c is not None]


def _stack(cols: list[dict], blocks: int, size: int) -> list[dict]:
    """cols repeated in each of `blocks` stacked copies of a size-row basis."""
    return [{b * size + r: v for r, v in c.items()} if b else c
            for b in range(blocks) for c in cols]


@dataclass(frozen=True)
class _WindowComplex:
    """One window's complex, built once from (p, win): the component images
    (assemble_phi from win to its output window), the relation columns
    generated in win, the slack columns, and targets, {position in win: row in
    the output window} of each interior cell.

    The slack columns are the unit columns on the output rows at t-degree >=
    win.tmax, the t-major tail of the rows.  Solutions in k((t))[x, 1/g] carry
    infinite ascending t-tails; a window truncation of a true preimage leaves
    its residual in the top t-layers, so those rows need not be matched exactly.
    """

    mat: SparseMatrixQ
    relations: list[dict]
    slack: list[dict]
    targets: dict[int, int]


def _window_complex(p: ProblemInstance, win: DegreeWindow, sh: _Shifts) -> _WindowComplex:
    win_out = sh.output_window(win)
    mat = assemble_phi(p, win, win_out)
    interior = list(win.shrink(dt=sh.t_margin, dx=sh.x_margin, dg=sh.g_margin).monomials(p.n))
    _xrow, tsize = win_out.layout(p.n)
    return _WindowComplex(
        mat,
        _relation_columns(p, win, win_out),
        [{r: Q(1)} for r in range((win.tmax - win_out.tmin) * tsize, mat.nrows)],
        dict(zip(_positions(win, p.n, interior), _positions(win_out, p.n, interior))),
    )


def _positions(win: DegreeWindow, n: int, monos: list[Monomial]) -> list[int]:
    """The places of monos in win's canonical order."""
    xrow, tsize = win.layout(n)
    return [(m.tdeg - win.tmin) * tsize + xrow[m.xdeg] + m.gpow for m in monos]


def _top_cokernel(cx: _WindowComplex) -> int:
    """Degree n+1 of the complex: the interior rows modulo the image of the
    components, the relations and the slack (image columns are pivoted
    first, then the surviving target directions are counted)."""
    image = SparseMatrixQ(cx.mat.nrows, cx.mat.cols + cx.relations + cx.slack)
    _, coker = rank_with_extension(image, [{r: Q(1)} for r in sorted(cx.targets.values())])
    return coker


# ---------------------------------------------------------------------------
# Exponent test (generic truncation path)
# ---------------------------------------------------------------------------


def exponent_test(
    p: ProblemInstance, *, rounds: int = 5, method: str = "generic"
) -> ExponentReport:
    """Cokernel estimates on the windows of default_schedule(p, rounds);
    verdict on agreement of the last two windows.  rounds is a budget: more
    rounds can settle an undetermined verdict but never change a settled one.

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
    if rounds < 2:
        raise ValueError("the schedule needs at least two rounds")
    if method == "per-degree":
        from .arrangements import per_degree_exponent_test

        rep = per_degree_exponent_test(p)
        if rep is not None:
            return rep
        # fall through: reduction not applicable
    sh = _shift_analysis(p)
    estimates: list[int] = []
    used: list[DegreeWindow] = []
    for r in range(rounds):
        win = _round_window(p, sh, r)
        estimates.append(_top_cokernel(_window_complex(p, win, sh)))
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


# ---------------------------------------------------------------------------
# Koszul cohomology
# ---------------------------------------------------------------------------


def _koszul_bases(n: int):
    """Subsets of {0..n} by cardinality, each sorted, in a fixed order."""
    return [list(itertools.combinations(range(n + 1), j)) for j in range(n + 2)]


def _koszul_matrices(n: int, mat: SparseMatrixQ) -> list[SparseMatrixQ]:
    """Matrices of d^0..d^n from K^j(win) to K^(j+1)(win_out), exact, for
    mat = assemble_phi(p, win, win_out).

    K^j has one copy of the window basis per j-subset s of {0..n}, column
    k * dom + i of d^j the cell i of the copy of by_deg[j][k]; every d^j is
    signed slices of mat's component columns.
    """
    by_deg = _koszul_bases(n)
    size = mat.nrows
    dom = mat.ncols // (n + 1)
    images = [mat.cols[i * dom : (i + 1) * dom] for i in range(n + 1)]
    mats = []
    for j in range(n + 1):
        cod_pos = {s: k for k, s in enumerate(by_deg[j + 1])}
        cols = []
        for s in by_deg[j]:
            # component i maps the copy of s to that of s + {i}, sign (-1)^#{x in s: x < i}
            parts = [
                (images[i], cod_pos[tuple(sorted(s + (i,)))] * size, sum(x < i for x in s) % 2)
                for i in range(n + 1)
                if i not in s
            ]
            cols += (
                {b + r: -v if odd else v for img, b, odd in parts for r, v in img[mi].items()}
                for mi in range(dom)
            )
        mats.append(SparseMatrixQ(len(cod_pos) * size, cols))
    return mats


def koszul_cohomology(p: ProblemInstance, win: DegreeWindow) -> dict[int, int]:
    """Interior cohomology dimensions of the Koszul complex of the row
    components, degrees 0..n+1.

    The complex is the one exponent_test builds on win: every differential
    has domain win and codomain its output window, so chaining two
    differentials on the overlap composes to zero, and degree n+1 is
    exponent_test's window cokernel, computed by the same call.  Cycles are
    taken with interior support (closing up to the localization relations);
    boundaries come from the full domain window, with slack for the top
    t-layers where a truncated ascending tail leaves its residual.  Every
    degree uses the one relation set, generated in win.

    Raises WindowError on assembly problems and ValueError when the
    components fail their pairwise commutation check (an assembly bug).
    """
    probe = DegreeWindow(-2, 2, 2, min(2, 2 if not p.g.is_one() else 0))
    if not check_row_commutation(p, probe):
        raise ValueError("row components do not commute; assembly is inconsistent")
    by_deg = _koszul_bases(p.n)
    _check_cells(max(len(sets) for sets in by_deg[: p.n + 1]) * win.size(p.n))
    cx = _window_complex(p, win, _shift_analysis(p))
    mats = _koszul_matrices(p.n, cx.mat)
    dims = {j: _koszul_h(j, mats, cx, by_deg) for j in range(p.n + 1)}
    dims[p.n + 1] = _top_cokernel(cx)
    return dims


def _koszul_h(j: int, mats: list[SparseMatrixQ], cx: _WindowComplex, by_deg) -> int:
    """Dimension of degree j <= n, compared inside K^j(win_out)."""
    nm = cx.mat.nrows
    sets_j = by_deg[j]
    # kernel vectors of d^j supported on the interior; only finitely
    # supported cycles are detected (closing up to the localization
    # relations), so lower-degree dimensions are lower bounds
    mat_j = mats[j]
    dom = mat_j.ncols // len(sets_j)
    interior = sorted(cx.targets)
    interior_cols = [k * dom + q for k in range(len(sets_j)) for q in interior]
    aug_cols = [mat_j.cols[c] for c in interior_cols] + _stack(cx.relations, len(by_deg[j + 1]), nm)
    zvecs = []
    for vec in nullspace(SparseMatrixQ(mat_j.nrows, aug_cols)):
        z: dict[int, object] = {}
        for c, v in vec.items():
            if c < len(interior_cols):
                k, q = divmod(interior_cols[c], dom)
                z[k * nm + cx.targets[q]] = v
        if z:
            zvecs.append(z)
    if not zvecs:
        return 0  # rank([B | Z]) - rank(B) with Z empty

    # boundaries: image of d^(j-1) plus relations, plus slack for the top
    # t-layers where a truncated ascending tail leaves its residual
    bcols = [col for col in mats[j - 1].cols if col] if j >= 1 else []
    bcols += _stack(cx.relations, len(sets_j), nm)
    bcols += _stack(cx.slack, len(sets_j), nm)
    _, extra = rank_with_extension(SparseMatrixQ(len(sets_j) * nm, bcols), zvecs)
    return extra
