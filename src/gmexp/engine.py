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

Each row component, and the relation generator, is a stencil: a few
shifted terms with coefficients affine in the exponents (k, m, u) of
t^k x^u g^-m, written once per instance straight from f, its derivatives,
g and alpha (_row_stencils).  A column is a stencil at one monomial, its
rows found by index arithmetic over the output window's canonical order
(DegreeWindow.layout); the commutation check composes the same columns.
A window matrix is its row count and a list of {row: value} columns from
the stencil to the pivot: window cells are named by their positions,
never by Monomial labels.

Quasi-homogeneous instances are graded by the Euler field (K. Saito 1971).
Let rational weights w_1..w_n and delta give every term of f the weight 1
and every term of g the weight delta, where t^k x^u g^-m weighs
lambda = k + sum(w_i u_i) - m delta.  If every stencil term of f - t raises
the weight by 1, every term of component i lowers it by w_i and every term
of the relation keeps it, then each column of a window lies in the rows of
one weight: the components, relations, slack and targets split into
blocks by weight, and a window's estimate is the sum of its blocks'.

Theorem.  If moreover sum(w_i x_i f'_i) == f as formal elements, then on
every window of default_schedule the block of each weight lambda other
than lambda* = alpha - sum(w_i) contributes exactly 0.

Proof.  Let a = t^k x^u g^-m be an interior cell of weight lambda, and
col_0, col_i and rel the columns of f - t, of component i and of the
relation.  Formally d_i(x_i a) = (1 + u_i) a - m (x_i d_i g) t^k x^u g^-(m+1),
sum(w_i x_i d_i g) = delta g because g is homogeneous of weight delta, and
g t^k x^u g^-(m+1) = a + rel(a).  With the Euler identity for f, which turns
sum(w_i x_i f'_i (d/dt - alpha/t)) a into (k - alpha) f t^(k-1) x^u g^-m,
and col_0(a / t) = f t^(k-1) x^u g^-m - a, this gives

    sum_i w_i col_i(x_i a) - (k - alpha) col_0(a / t) + m delta rel(a)
        = (lambda + sum(w_i) - alpha) a.

Every column on the left is in the window: x_i a and a / t are cells of
it because x_margin >= 1 and t_margin = 2 (every scheduled window has
xmax > x_margin), and rel(a) lies inside the output window because
dx >= deg g and dg >= 1, so it is one of the relation columns.  All of
them lie in the block of weight lambda.  When lambda != lambda* the
coefficient on the right is not 0, so every target of that block is in
the span of the block's columns, and the block's cokernel is 0.  (For
g = 1, m = 0 and the relation term drops out.)

So exponent_test, once _certify_grading has checked exactly that the
weights are unique, that every stencil term moves the weight as above and
that the Euler identity holds, builds each window from the block of
weight lambda* alone: component 0 at the cells of weight lambda* - 1,
component i at those of weight lambda* + w_i, the relations and targets
at those of weight lambda*, and slack on the rows of weight lambda*.  Its
estimates, and so its verdicts, are those of the whole window (all 0 when
alpha is off the weight lattice: that block is then empty, and nothing is
eliminated).  When any check fails, the whole window is built.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Optional

from .linalg import SparseMatrixQ, nullspace, rank_with_extension
from .rational import Q, class_rep
from .ring import (
    DegreeWindow,
    Monomial,
    RingElement,
    clear_g,
    partial_x,
    quasi_weights,
    serialize,
)


class WindowError(ValueError):
    """Output window too small to hold the image of the input window."""


class ResourceLimitError(RuntimeError):
    """A window exceeds the matrix-size cap, or a univariate A0 the root-search cap."""


MAX_WINDOW_CELLS_ENV = "GM_MAX_WINDOW_CELLS"


@dataclass(frozen=True)
class ProblemInstance:
    """f in k[x, 1/g] (t-free), g a nonzero pure polynomial, alpha rational
    (or its canonical text, such as '1/5', which Q reads), stored as the
    representative in (0, 1] of its class mod Z, the one windows centre on."""

    n: int
    f: RingElement
    g: RingElement
    alpha: object

    def __post_init__(self):
        object.__setattr__(self, "alpha", class_rep(Q(self.alpha)))
        if self.g.is_zero():
            raise ValueError("g must be nonzero")
        if not self.g.is_polynomial():
            raise ValueError("g must be a pure polynomial")
        if not self.f.is_t_free():
            raise ValueError("f must not depend on t")
        if self.f.n != self.n or self.g.n != self.n:
            raise ValueError("variable count mismatch")
        object.__setattr__(self, "f", clear_g(self.f, self.g))

    @cached_property
    def derivatives(self) -> tuple[RingElement, ...]:
        """d_i f for i = 1..n in minimal g-layer form, computed on first use."""
        return tuple(clear_g(partial_x(i, self.f, self.g), self.g) for i in range(1, self.n + 1))

    @cached_property
    def stencils(self) -> tuple[tuple, tuple]:
        """(component stencils, relation stencil), written on first use by
        _row_stencils; instances that never assemble never build them."""
        return _row_stencils(self)

    @cached_property
    def grading(self) -> Optional["_Grading"]:
        """The certified Euler grading of (f, g, alpha), or None when (f, g)
        is not certified quasi-homogeneous; computed on first use."""
        return _certify_grading(self)


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
            "method": self.method,
        }


# ---------------------------------------------------------------------------
# Row construction and commutation
# ---------------------------------------------------------------------------


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
        quotient = _times(-partial_x(i, g, g), dg=1, var=1)
        comps.append(tuple([lower] + quotient + _times(df, dt=-1, var=0, r=-p.alpha)))
    return tuple(comps), tuple(_times(g, dg=1) + [((0,) * (n + 2), Q(-1), -1, 0)])


def check_row_commutation(p: ProblemInstance, w: DegreeWindow) -> bool:
    """Exact pairwise commutation of the row components on the monomials of
    w, by assembly's own evaluator: the component columns from w into its
    output window, composed with those from there into the next output
    window.  Each component's columns, both steps, are scaled to ints by
    the lcm L_a of their denominators, so both sides of pair (a, b) carry
    the factor L_a * L_b: the int sides agree exactly when the rational
    sides do.  The g-layers are formal (g * g^-1 stays), so a non-zero
    difference goes back to Q, divided by L_a * L_b, and is compared in
    k[x, 1/g] by clear_g."""
    sh = _shift_analysis(p)
    mid = sh.output_window(w)
    out = sh.output_window(mid)
    mid_monos = list(mid.monomials(p.n))
    first = _images(p, [list(w.monomials(p.n))] * (p.n + 1), mid)
    reached = sorted({r for cols in first for col in cols for r in col})
    second = _images(p, [[mid_monos[r] for r in reached]] * (p.n + 1), out)
    scales = [math.lcm(*(int(v.denominator) for col in c1 + c2 for v in col.values()))
              for c1, c2 in zip(first, second)]
    first = [_scaled(cols, s) for cols, s in zip(first, scales)]
    second = [dict(zip(reached, _scaled(cols, s))) for cols, s in zip(second, scales)]
    out_monos: list[Monomial] = []
    for a, b in itertools.combinations(range(p.n + 1), 2):
        for col_a, col_b in zip(first[a], first[b]):
            diff: dict[int, int] = {}
            for q, v in col_b.items():  # a(b(m)) - b(a(m)), times L_a * L_b
                for r, c in second[a][q].items():
                    diff[r] = diff.get(r, 0) + v * c
            for q, v in col_a.items():
                for r, c in second[b][q].items():
                    diff[r] = diff.get(r, 0) - v * c
            diff = {r: d for r, d in diff.items() if d}
            if diff:
                out_monos = out_monos or list(out.monomials(p.n))
                scale = scales[a] * scales[b]
                back = {out_monos[r]: Q(d, scale) for r, d in diff.items()}
                if not clear_g(RingElement(p.n, back), p.g).is_zero():
                    return False
    return True


def _scaled(cols: list[dict], s: int) -> list[dict[int, int]]:
    """The columns times s, a multiple of every denominator, as ints."""
    return [{r: int(v.numerator) * (s // int(v.denominator)) for r, v in col.items()}
            for col in cols]


# ---------------------------------------------------------------------------
# Euler grading
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Grading:
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
    """The grading of the module docstring's theorem, when all three of its
    hypotheses hold exactly (the weights are unique, the Euler identity
    sum(w_i x_i f'_i) == f holds as formal elements, and every stencil term
    moves the weight by its component's shift, the relation's by 0), scaled
    by the lcm of the denominators of w, delta and alpha.  None otherwise."""
    found = quasi_weights(p.f, p.g)
    if found is None:
        return None
    w, delta = found
    euler = RingElement.zero(p.n)
    for i, (wi, df) in enumerate(zip(w, p.derivatives), start=1):
        euler = euler + (RingElement.var(p.n, i) * df).scale(wi)
    if euler != p.f:
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


def _cells(
    win: DegreeWindow, n: int, grading: Optional[_Grading], shift: int = 0
) -> list[Monomial]:
    """The monomials of win in canonical order; with a grading, only those
    that a column moving weight by shift sends into the top block, of weight
    (top - shift) / scale: one division per (u, m) gives the only t-degree
    that can have it."""
    if grading is None:
        return list(win.monomials(n))
    weight = grading.top - shift
    xrow, _tsize = win.layout(n)
    out = []
    for u in xrow:
        rest = weight - sum(a * b for a, b in zip(grading.wx, u))
        for m in range(win.gmax + 1):
            k, r = divmod(rest + grading.wg * m, grading.scale)
            if not r and win.tmin <= k <= win.tmax:
                out.append(Monomial(k, u, m))
    out.sort(key=lambda c: c.tdeg)  # stable: t-major, then x and g as listed
    return out


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
    for df in p.derivatives:
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


def window_cell_cap() -> Optional[int]:
    """The cell cap GM_MAX_WINDOW_CELLS sets, None when it is unset; a value
    that is not a nonnegative integer is a ValueError naming the variable."""
    text = os.environ.get(MAX_WINDOW_CELLS_ENV)
    if text is None:
        return None
    if not re.fullmatch(r"[0-9]+", text):
        raise ValueError(f"{MAX_WINDOW_CELLS_ENV} must be a nonnegative integer, not {text!r}")
    return int(text)


def _check_cells(cells: int) -> None:
    cap = window_cell_cap()
    if cap is not None and cells > cap:
        raise ResourceLimitError(f"window needs {cells} cells, cap is {cap}")


def _stencil_columns(
    stencil: tuple, monos: list[Monomial], win: DegreeWindow, n: int
) -> list[Optional[dict[int, object]]]:
    """Each monomial's image under a stencil (see _row_stencils) as a column
    {row: value} over win's canonical order (rows placed by win.layout), or
    None if a non-zero term falls outside win."""
    xrow, tsize = win.layout(n)
    tmin, tmax, gmax = win.tmin, win.tmax, win.gmax
    terms = [(s[0], s[1], s[0] * tsize + s[1], c, var, r, {}) for s, c, var, r in stencil]
    by_u: dict[tuple, list] = {}  # u -> row offset of u + dx for each term, None outside
    cols: list[Optional[dict[int, object]]] = []
    for k, u, m in monos:
        xs = by_u.get(u)
        if xs is None:
            xs = by_u[u] = [xrow.get(tuple(map(sum, zip(u, s[2:])))) for s, *_ in stencil]
        e = (k, m, *u, 1)
        base = (k - tmin) * tsize + m
        col: Optional[dict[int, object]] = {}
        for (dt, dg, off, c, var, r, memo), x in zip(terms, xs):
            v = memo.get(e[var])
            if v is None:
                v = memo[e[var]] = c * (e[var] + r)
            if not v:
                continue
            if x is None or not tmin <= k + dt <= tmax or m + dg > gmax:
                col = None
                break
            col[base + x + off] = v
        cols.append(col)
    return cols


def _images(
    p: ProblemInstance, cells: list[list[Monomial]], win: DegreeWindow
) -> list[list[dict]]:
    """The columns over win of each row component ci at each of cells[ci];
    raises WindowError when an image leaves win."""
    images = []
    for ci, (stencil, monos) in enumerate(zip(p.stencils[0], cells)):
        cols = _stencil_columns(stencil, monos, win, p.n)
        if None in cols:
            bad = RingElement.monomial(p.n, monos[cols.index(None)])
            raise WindowError(f"image of {serialize(bad)} under component {ci} leaves the window")
        images.append(cols)
    return images


def assemble_phi(
    p: ProblemInstance, win_in: DegreeWindow, win_out: DegreeWindow,
    grading: Optional[_Grading] = None,
) -> SparseMatrixQ:
    """Matrix of the row map from the (n+1)-fold basis of win_in to win_out.

    Its columns, in win_in's canonical order, are each component's stencil
    at each monomial, with rows in win_out's canonical order: column
    ci * win_in.size(n) + i is component ci at cell i.  With a grading,
    component ci is taken only at the cells it sends into the top block,
    so the columns are those cells of component 0, then of component 1, and
    so on; the rows keep win_out's positions.  The cell cap counts the full
    window and is checked before any monomial is enumerated.  Raises
    WindowError when win_out cannot hold the image.
    """
    _check_cells((p.n + 1) * win_in.size(p.n))
    if grading is None:
        cells = [list(win_in.monomials(p.n))] * (p.n + 1)
    else:
        cells = [_cells(win_in, p.n, grading, s) for s in grading.shifts]
    images = _images(p, cells, win_out)
    return SparseMatrixQ(win_out.size(p.n), [col for cols in images for col in cols])


def _relation_columns(
    p: ProblemInstance, gens: DegreeWindow, win: DegreeWindow, grading: Optional[_Grading] = None
) -> list[dict]:
    """Columns mono * (g * g^-(m+1) - g^-m) over win's basis, for the
    monomials of gens (of the top weight, with a grading) whose relation
    lies inside win."""
    if p.g.is_one():
        return []
    cols = _stencil_columns(p.stencils[1], _cells(gens, p.n, grading), win, p.n)
    return [c for c in cols if c is not None]


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
    win.tmax, the t-major tail of the rows (those of the top weight, for a
    graded complex, whose targets are the interior cells of that weight too).
    Solutions in k((t))[x, 1/g] carry infinite ascending t-tails; a window
    truncation of a true preimage leaves its residual in the top t-layers, so
    those rows need not be matched exactly.
    """

    mat: SparseMatrixQ
    relations: list[dict]
    slack: list[dict]
    targets: dict[int, int]


def _window_complex(
    p: ProblemInstance, win: DegreeWindow, sh: _Shifts, grading: Optional[_Grading] = None
) -> _WindowComplex:
    """The complex of (p, win); with a grading, only its top block (see the
    module docstring), whose degree n+1 is the whole window's."""
    win_out = sh.output_window(win)
    mat = assemble_phi(p, win, win_out, grading)
    interior = _cells(win.shrink(dt=sh.t_margin, dx=sh.x_margin, dg=sh.g_margin), p.n, grading)
    top_layers = replace(win_out, tmin=win.tmax)
    return _WindowComplex(
        mat,
        _relation_columns(p, win, win_out, grading),
        [{r: Q(1)} for r in _positions(win_out, p.n, _cells(top_layers, p.n, grading))],
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

    When (f, g) is certified quasi-homogeneous (p.grading), each window is
    built from its block of weight alpha - sum(w_i) alone; by the theorem of
    the module docstring the estimates are those of the whole window.

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
        estimates.append(_top_cokernel(_window_complex(p, win, sh, p.grading)))
        used.append(win)
        v = estimates[-1]
        agree = 3 if v == 0 and not p.g.is_one() else 2
        if estimates[-agree:] == [v] * agree:
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

    A degree's cycles are first checked against the boundary columns that
    share a row with one of them.  Those columns are a subset of all the
    boundary columns, so when they already span every cycle the degree is
    exactly 0; otherwise the whole boundary matrix is eliminated.

    Raises WindowError on assembly problems and ValueError when the
    components fail their pairwise commutation check (an assembly bug).
    """
    by_deg = _koszul_bases(p.n)
    _check_cells(max(len(sets) for sets in by_deg[: p.n + 1]) * win.size(p.n))
    probe = DegreeWindow(-2, 2, 2, min(2, 2 if not p.g.is_one() else 0))
    if not check_row_commutation(p, probe):
        raise ValueError("row components do not commute; assembly is inconsistent")
    cx = _window_complex(p, win, _shift_analysis(p))
    mats = _koszul_matrices(p.n, cx.mat)
    dims = {j: _koszul_h(j, mats, cx, by_deg) for j in range(p.n + 1)}
    dims[p.n + 1] = _top_cokernel(cx)
    return dims


def _koszul_h(j: int, mats: list[SparseMatrixQ], cx: _WindowComplex, by_deg) -> int:
    """Dimension of degree j <= n, compared inside K^j(win_out): the rank of
    the interior cycles modulo the boundaries.

    The neighbourhood certificate eliminates first only the boundary columns
    that meet a cycle.  A vector in the span of a subset of the columns is
    in the span of all of them, so an extension rank of 0 there is exact;
    any other count is only an upper bound, and the whole boundary matrix
    is eliminated instead."""
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
    zrows = set().union(*zvecs)
    near = [col for col in bcols if not zrows.isdisjoint(col)]
    _, extra = rank_with_extension(SparseMatrixQ(len(sets_j) * nm, near), zvecs)
    if extra == 0:
        return 0
    # a non-zero count there is only an upper bound: eliminate everything
    _, extra = rank_with_extension(SparseMatrixQ(len(sets_j) * nm, bcols), zvecs)
    return extra
