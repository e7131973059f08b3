"""Exponent verdicts via the surjectivity/cokernel criterion.

Given f in k[x1..xn, 1/g] and a rational class alpha, the row map

    (f - t, d_1 + f'_1 phi, ..., d_n + f'_n phi),   phi = d/dt - alpha/t,

from R^(n+1) to R = k((t))[x, 1/g] is surjective exactly when alpha mod Z
is not an exponent at the origin of the direct image of the structure
sheaf under f; the cokernel dimension counts the Jordan blocks of the
zeroth cohomology for that class.  On each window this module builds the
Koszul complex of the pairwise-commuting components, with one set of
relations and one slack rule (the slack quotient below); its top
degree n+1, the cokernel on the window interior, is exponent_test's
estimate, which koszul_cohomology reads from the window's one assembly.
Verdicts come once the estimates stabilize over a schedule of nested windows.

The localization by g is handled formally: window bases use monomials
t^k x^u g^-m, and cokernels are computed modulo the span R of the relation
columns g * g^-(m+1) - g^-m.  The top degree (exponent_test's image)
augments its columns with R.  Degrees 0..n of koszul_cohomology, where R
would be stacked into every copy of every degree, use instead the quotient
map pi by span(R), built once per window by Gauss-Jordan over R
(linalg.quotient_map) and applied to each copy of the rows: the cycles
are the kernel of pi(d^j), exactly {z : d^j z in span R}, and since
rank([B | R | Z]) - rank([B | R]) = rank([pi B | pi Z]) - rank(pi B), each
degree is compared as pi of its cycles modulo pi of its boundaries.  For
g = 1, R and pi are empty.

Each row component, and the relation generator, is a stencil: a few
shifted terms with coefficients affine in the exponents (k, m, u) of
t^k x^u g^-m, written once per instance straight from f, its derivatives,
g and alpha (_row_stencils).  A column is a stencil at one monomial, its
rows found by index arithmetic over the output window's canonical order
(DegreeWindow.layout).  Commutation is certified on the stencils
themselves, with no window (check_row_commutation).
A window matrix is its row count and a list of {row: value} columns from
the stencil to the pivot.  Window cells are their positions in
DegreeWindow.layout from selection (_cells, _kept) to assembly, decoded
by its inverse DegreeWindow.layer; no Monomial label is built.  Every value
is the reduced int pair (num, den) that gmexp.linalg eliminates
(rational.pair), made once per stencil term and value of the exponent it
reads; no Q value is built per entry.

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
it because x_margin >= 1 and _T_MARGIN = 2 (every scheduled window has
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
component i at those of weight lambda* + w_i, and the relations and
targets at those of weight lambda*.  Its estimates, and so its verdicts,
are those of the whole window (all 0 when alpha is off the weight
lattice: that block is then empty, and nothing is eliminated).  When any
check fails, the whole window is built.

Theorem (every degree).  In the Koszul complex (koszul_cohomology), give
e_S (x) a, the cell a in the copy of S, the weight mu = lambda(a) - sum_S
s_i, where s_0 = 1 and s_i = -w_i are the moves of the components: every
differential and relation keeps it.  With the checks above, and g = 1 or
a monomial of positive degree, on every window of default_schedule each
block of weight mu other than mu* = alpha - 1 contributes 0 to each degree.

Proof.  Let h(e_S (x) a) = sum_{i in S} +-e_{S-i} (x) H_i a, with d's
signs, H_0 = -(d/dt - alpha/t) and H_i = w_i x_i.  On formal monomials
[phi_j, H_i] = 0 for i != j, [phi_0, H_0] = -1 and [phi_i, H_i] = w_i, so
with the identity above, written as sum_i phi_i H_i,

    (dh + hd)(e_S (x) a) = (mu - mu*) e_S (x) a - m delta e_S (x) rel(a).

Let z be an interior cycle of weight mu != mu*, with dz = r a combination
of relation columns.  Then (mu - mu*) z = d(hz) + h(r) + delta sum_a z_a
m rel(a): hz sits at cells x_i a and a / t, and the rel(a) are relation
columns, as above.  h(r) is a combination of the rel(x_i b) and rel(b / t)
over the generators b that r uses: none for g = 1.  For g = c x^v each
relation column meets b and x^v b / g only, so they are independent and
r's coefficients unique; along a chain b, x^v b / g, ... a run of used
columns is followed by a row of r.  A row of r is an interior cell moved
by a component: at most dg up in g-power and x_margin - 1 up in x-degree
(clear_g writes f over one power of g, d_i f is at most deg g - 1 above
it, and division by a monomial g lowers degree), and into t-degrees
tmin + 1 .. tmax - 1.  So each b has g-power <= gmax - dg - 1 and
x-degree <= xmax - 1 - deg g, and x_i b and b / t are cells whose
relations are relation columns.  Off the slack rows z is in the span of
the boundary and relation columns, of its block alone.  (Degree n+1 is
the theorem above.)  Every x-degree here, of a cell, of g and of the
margins, is a total degree, so a monomial g in several variables is no
different.

So only the copy of S at the cells of weight lambda* - sum_{i not in S}
s_i, the rule _kept applies to degree n+1, can carry cohomology.  When
alpha is off the weight lattice none of them has a cell, and
koszul_cohomology, under a certified grading with g = 1 or a monomial of
positive degree, answers 0 in every degree with nothing assembled.  Every
other query builds the whole window in degrees 0..n.

Degree n+1 of a window is its target rows modulo the span of the
component columns, the relation columns and the slack (the slack quotient
below).  exponent_test and koszul_cohomology eliminate a smaller matrix
with the same answer, the top image (_top_image), in three steps.

Theorem (pruning).  Suppose that the one stencil term of component 0
that raises t is -t, shift (1, 0, ..., 0) with a non-zero constant
coefficient c_tau, and that component 0 commutes with component i >= 1 on
every formal monomial, before clear_g; p.commuting checks both exactly.
Let c = t a be a cell of the input window such that a + s is a cell of it
for every shift s of a term of component 0 other than -t, and of
component i, whose coefficient is not 0 at a.  Then col_i(c) lies in the span of the
columns of component 0 and of the columns of component i at t-degrees
below that of c.

Proof.  Write comp_0(a) = sum_s c_s(a) (a + s) + c_tau t a, the sum over
the terms other than -t.  Applying comp_i and commuting gives

    c_tau col_i(t a) = sum_q comp_i(a)_q col_0(q) - sum_s c_s(a) col_i(a + s),

where q runs over the cells a + s of the terms of component i that do not
vanish at a.  Every cell on the right is a cell of the window by
hypothesis, and every assembled column is the exact image of its cell
(assembly raises WindowError otherwise), so the right-hand side is a
combination of window columns.  The columns of component i on it sit at
the t-degree of a or lower.  By induction on the t-degree, every column
of component i that meets the hypothesis lies in the span of component 0,
which is never left out, and of the columns of component i that are
kept; so leaving all of them out keeps the span, and every estimate.  With
a grading, the cells a + s of component i and q of component 0 have the
weights those components are taken at, so the identity stays inside the
top block.  _unpruned applies the hypothesis, and finds that the component
columns of the benchmark's sweep lose about a fifth of their number.

Slack quotient, in every degree.  Solutions in k((t))[x, 1/g] carry
infinite ascending t-tails, so a window truncation of a true preimage
leaves its residual in the top t-layers.  Each degree j of a window is
therefore defined with slack S, the unit columns on the output rows at
t-degree >= win.tmax (the t-major tail from _slack_start, in each copy):
it is rank([B | S | Z]) - rank([B | S]), with B the boundaries (the image
of d^(j-1), or of the components for j = n+1, and the relations, as
columns for j = n+1 and through pi below it) and Z the interior cycles
(the unit targets for j = n+1).  The span of [B | S | Z] is span(S) plus
the projection of [B | Z] away from the slack rows, so when Z has no entry
there this is rank([B' | Z']) - rank(B'), where ' deletes them.  That
holds in every degree: interior cells sit at t <= win.tmax - 2 and each
component raises t by at most 1, so neither the cycles nor d^j at the
interior cells reach a slack row; the relation stencil keeps t, so the
relation columns in the tail form a block of their own there and add no
kernel vector on the cells, and pi, built from the relation columns as
cut, is the quotient by their projected span; and a zero extension rank on
a subset of the projected columns (the neighbourhood shortcut of
_koszul_h) is still a proof.  So assemble_phi stops every column at the
slack tail, a relation column that the cut empties is left out, and no
slack column is built.  Component 0 is t-free but for -t, so its column at
a cell of the top t-layer lies wholly in the slack rows: the top image
leaves it out (_kept).

Order.  _top_cokernel pivots the non-empty image columns in one order
fixed before elimination (linalg's in_order policy): by entry count, then
by descending highest row, the top t-layer first; the unit targets follow.
_koszul_h and nullspace keep the Markowitz rule.  No rank depends on the
order, only the fill-in on the way.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

from .linalg import SparseMatrixQ, nullspace, quotient, quotient_map, rank_with_extension
from .rational import Q, ResourceLimitError, class_rep, pair
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


MAX_WINDOW_CELLS_ENV = "GM_MAX_WINDOW_CELLS"
DEFAULT_MAX_WINDOW_CELLS = 2_000_000  # the cell cap when GM_MAX_WINDOW_CELLS is unset
MAX_WINDOW_ENTRIES = 10_000_000  # cap on a window's cells times its longest stencil


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

    @cached_property
    def commuting(self) -> bool:
        """Whether the hypotheses of the pruning theorem (module docstring),
        which let the top image drop redundant columns, hold exactly on the
        stencils: the one term of component 0 that raises t is -t itself,
        shift (1, 0, ..., 0) with a non-zero constant coefficient, and
        component 0 commutes formally with each component i >= 1 (its
        bracket has no surviving form); computed on first use."""
        # (shift, var, c * (e[-1] + r) != 0), e[-1] = 1
        raising = [(s, var, bool(c * (1 + r))) for s, c, var, r in self.stencils[0][0] if s[0] > 0]
        tau = ((1,) + (0,) * (self.n + 1), -1, True)
        return raising == [tau] and not any(self._brackets_with_0)

    @cached_property
    def _brackets_with_0(self) -> tuple[dict, ...]:
        """_commutator(component 0, component i) for i = 1..n, which both
        commuting and check_row_commutation read; computed on first use."""
        comps = self.stencils[0]
        return tuple(_commutator(comps[0], c) for c in comps[1:])


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
        quotient_rule = _times(-partial_x(i, g, g), dg=1, var=1)
        comps.append(tuple([lower] + quotient_rule + _times(df, dt=-1, var=0, r=-p.alpha)))
    return tuple(comps), tuple(_times(g, dg=1) + [((0,) * (n + 2), Q(-1), -1, 0)])


def check_row_commutation(p: ProblemInstance) -> bool:
    """Whether every pair of row components commutes on k((t))[x, 1/g],
    certified exactly on their stencils, with no window.

    A bracket (_commutator) sends t^k x^u g^-m to the sum over its shifts
    s = (dt, dg, dx) of form_s(e) t^(k+dt) x^(u+dx) g^-(m+dg).  The check
    fails when a form reads m or some u_i (var >= 1), or when a shift lowers
    an x-degree (no stencil term lowers the g-power, so dg >= 0).  Otherwise
    form_s = A_s + k B_s, and for each dt the elements A_dt = sum A_s x^dx
    g^-dg and B_dt = sum B_s x^dx g^-dg of k[x, 1/g], over the shifts with
    that dt, must be ones clear_g makes 0.

    Proof.  Composed stencils send each formal monomial to its image under
    the composed components, so the bracket's image of t^k x^u g^-m is the
    commutator's: t^k x^u g^-m sum_dt t^dt (A_dt + k B_dt), which is 0
    because A_dt = B_dt = 0 in k[x, 1/g].  The formal monomials span
    k[t, 1/t][x, 1/g], and each component moves t by at most 1, so acts term
    by term in t: the commutator vanishes on k((t))[x, 1/g].  True components
    always pass: each bracket multiplies by an element of k[x, 1/g] that is
    0 there (f'_i against the formal d_i f, or d_i f'_j against d_j f'_i,
    times phi), written in a formal g-layer.  A bracket with no surviving
    form (every pair, unless f keeps a g-layer) builds nothing, and the int
    scaling of _commutator keeps each zero test exact."""
    comps = p.stencils[0]
    rest = (_commutator(a, b) for a, b in itertools.combinations(comps[1:], 2))
    for forms in itertools.chain(p._brackets_with_0, rest):
        groups: dict[tuple, dict[Monomial, Q]] = {}  # (dt, var) -> terms of A_dt or B_dt
        for (dt, dg, *dx), form in forms.items():
            if min(dx) < 0 or max(form) >= 1:
                return False
            for var, c in form.items():
                groups.setdefault((dt, var), {})[Monomial(0, tuple(dx), dg)] = Q(c)
        if not all(clear_g(RingElement(p.n, terms), p.g).is_zero() for terms in groups.values()):
            return False
    return True


def _commutator(left: tuple, right: tuple) -> dict[tuple, dict[int, int]]:
    """The bracket of two stencils, as its surviving forms {shift: {var: coeff}}
    (ints, none of them 0); {} exactly when the stencils commute formally.

    Composing stencils gives coefficients of degree <= 2 in e = (k, m, u),
    and for any pair the quadratic parts cancel in the commutator:
    right(left(e)) - left(right(e)) is the stencil whose term at shift s0 +
    s1 collects c0 * c1 * (s0[v1] * (e[v0] + r0) - s1[v0] * (e[v1] + r1))
    over the terms (s0, c0, v0, r0) of left and (s1, c1, v1, r1) of right,
    a shift read as 0 in the constant slot -1: an affine form, var -1 its
    constant.  The arithmetic is on ints (_int_terms): every form is scaled
    by the same non-zero constant, which keeps its zero test exact."""
    diff: dict[tuple, dict[int, int]] = {}
    right = _int_terms(right)
    for s0, c0, v0, cr0 in _int_terms(left):
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


def _int_terms(stencil: tuple) -> list[tuple]:
    """The terms (shift, L c, var, L c r) of a stencil, for L the lcm of the
    denominators of every c and c * r in it: all ints."""
    scale = math.lcm(*(int(q.denominator) for _s, c, _v, r in stencil for q in (c, c * r)))
    return [(s, int(c * scale), var, int(c * r * scale)) for s, c, var, r in stencil]


# ---------------------------------------------------------------------------
# Euler grading
# ---------------------------------------------------------------------------


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
    win: DegreeWindow, n: int, grading: Optional[_Grading] = None, shift: int = 0,
    at: Optional[DegreeWindow] = None,
) -> Sequence[int]:
    """The cells of win, ascending, as their positions in the window at, which
    holds win (default win itself, where the ungraded cells are
    range(win.size(n))).  With a grading, only those that a column moving
    weight by shift sends into the top block, of weight (top - shift) /
    scale: one division per (u, m) gives the only t-degree that can have it."""
    if at is None and grading is None:
        return range(win.size(n))
    at = at or win
    xrow, tsize = at.layout(n)
    if grading is None:
        offsets = [xrow[u] + m for u, m in win.layer(n)]
        return [(k - at.tmin) * tsize + x for k in range(win.tmin, win.tmax + 1) for x in offsets]
    out = []
    for u in win.layout(n)[0]:
        rest = grading.top - shift - sum(a * b for a, b in zip(grading.wx, u))
        for m in range(win.gmax + 1):
            k, r = divmod(rest + grading.wg * m, grading.scale)
            if not r and win.tmin <= k <= win.tmax:
                out.append((k - at.tmin) * tsize + xrow[u] + m)
    out.sort()  # t-major, then x and g as layout orders them
    return out


# ---------------------------------------------------------------------------
# Shift analysis and windows
# ---------------------------------------------------------------------------


_T_MARGIN = 2  # interior margin in t: the max |t|-shift (1) times safety factor 2


class _Shifts(NamedTuple):
    dx: int  # max raise of total x-degree by any component (or relation)
    dg: int  # max raise of gpow
    x_margin: int  # interior margin in x
    g_margin: int  # interior margin in gpow

    def output_window(self, win: DegreeWindow) -> DegreeWindow:
        """The window holding the image of win under the row components and relations."""
        return win.expand(dt=1, dx=self.dx, dg=self.dg)

    def interior(self, win: DegreeWindow) -> DegreeWindow:
        """The window of win's interior cells, whose targets every degree tests."""
        return win.shrink(dt=_T_MARGIN, dx=self.x_margin, dg=self.g_margin)


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
    """Window r of the schedule: t in [-tmax, tmax] with tmax = _T_MARGIN + 1 + 2r,
    xmax = x_margin + 2 + 3r, and gmax = xmax when g != 1."""
    tmax = _T_MARGIN + 1 + 2 * r
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
    """ResourceLimitError when a window of this many cells exceeds the cap:
    GM_MAX_WINDOW_CELLS, or DEFAULT_MAX_WINDOW_CELLS when it is unset.

    The default sits 19x above the largest window Tier-1 builds (102,600
    cells: x1^2+x2^2 over x1+x2, fourth window) and 230x above the largest
    of the four benchmark workloads (8,550), and refuses exponent-test --f
    x1 --n 100 (1.25e8 cells) before any cell is enumerated."""
    cap = window_cell_cap()
    if cap is None:
        cap = DEFAULT_MAX_WINDOW_CELLS
    if cells > cap:
        raise ResourceLimitError(
            f"window needs {cells} cells, cap is {cap} ({MAX_WINDOW_CELLS_ENV} sets it)")


def _check_window(p: ProblemInstance, cells: int) -> None:
    """_check_cells(cells), then ResourceLimitError when cells times the term
    count of p's longest component stencil, a bound on the entries the
    window's columns can hold, exceeds MAX_WINDOW_ENTRIES, which no variable
    raises.  It passes a window at the cell cap whose stencils have up to
    5 terms, sits 32x above the largest Tier-1 window by this count
    (307,800: the window of _check_cells, by 3 terms), and refuses
    1+x1*ginv^20 over x1+x2+x3+1, whose first window has 1,747,200 cells
    and f - t 1,772 terms, before any column is built."""
    _check_cells(cells)
    terms = max(map(len, p.stencils[0]))
    if cells * terms > MAX_WINDOW_ENTRIES:
        raise ResourceLimitError(
            f"window of {cells} cells by stencils of up to {terms} terms is past "
            f"MAX_WINDOW_ENTRIES = {MAX_WINDOW_ENTRIES}")


def _stencil_columns(
    stencil: tuple, cells: Sequence[int], win_in: DegreeWindow, win: DegreeWindow, n: int,
    stop: Optional[int] = None,
) -> list[Optional[dict[int, tuple[int, int]]]]:
    """The image under a stencil (see _row_stencils) of each cell, given by
    its position in win_in, as a column {row: (num, den)} over win's
    canonical order (rows placed by win.layout), or None if a non-zero term
    falls outside win; with stop, the entries on rows >= stop are left out
    (but must still lie in win).  Each term's coefficient is made into a
    pair once per value of the exponent it reads, and that one pair object
    is shared by its entries."""
    xrow, tsize = win.layout(n)
    if stop is None:
        stop = (win.tmax - win.tmin + 1) * tsize
    tmin, tmax, gmax = win.tmin, win.tmax, win.gmax
    layer, kmin, lsize = win_in.layer(n), win_in.tmin, win_in.layout(n)[1]
    terms = [(s[0], s[1], s[0] * tsize + s[1], c, var, r, {}) for s, c, var, r in stencil]
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
        for (dt, dg, off, c, var, r, memo), x in zip(terms, xs):
            v = memo.get(e[var], memo)  # memo itself marks a miss, None a zero
            if v is memo:
                v = c * (e[var] + r)
                v = memo[e[var]] = pair(v) if v else None
            if v is None:
                continue
            if x is None or not tmin <= k + dt <= tmax or m + dg > gmax:
                col = None
                break
            if base + x + off < stop:
                col[base + x + off] = v
        cols.append(col)
    return cols


def assemble_phi(
    p: ProblemInstance, win_in: DegreeWindow, win_out: DegreeWindow,
    cells: Optional[list[Sequence[int]]] = None,
) -> SparseMatrixQ:
    """Matrix of the row map from the (n+1)-fold basis of win_in to win_out,
    over the rows of win_out below win_in's slack tail (_slack_start): the
    slack rows are quotiented out (module docstring), never eliminated.

    Its columns are component 0 at the positions cells[0] of win_in, then
    component 1 at cells[1], and so on, with rows in win_out's canonical
    order.  cells = None means every cell for every component, so column
    ci * win_in.size(n) + q is component ci at cell q, as the window complex
    needs; _kept gives the cells of the top image.  The caps of
    _check_window count the full window and are checked before any cell is
    decoded.  Raises
    WindowError, naming the cell, when win_out cannot hold the image, slack
    rows included.
    """
    _check_window(p, (p.n + 1) * win_in.size(p.n))
    nrows = _slack_start(win_in, win_out, p.n)
    if cells is None:
        cells = [range(win_in.size(p.n))] * (p.n + 1)
    cols = []
    for ci, (stencil, qs) in enumerate(zip(p.stencils[0], cells)):
        image = _stencil_columns(stencil, qs, win_in, win_out, p.n, nrows)
        if None in image:
            dk, j = divmod(qs[image.index(None)], win_in.layout(p.n)[1])
            bad = RingElement.monomial(p.n, Monomial(win_in.tmin + dk, *win_in.layer(p.n)[j]))
            raise WindowError(f"image of {serialize(bad)} under component {ci} leaves the window")
        cols += image
    return SparseMatrixQ(nrows, cols)


def _slack_start(win: DegreeWindow, win_out: DegreeWindow, n: int) -> int:
    """The first row of win's slack tail: the rows of win_out at t-degree
    >= win.tmax are the t-major tail from here."""
    return (win.tmax - win_out.tmin) * win_out.layout(n)[1]


def _kept(
    p: ProblemInstance, win: DegreeWindow, grading: Optional[_Grading]
) -> list[Sequence[int]]:
    """The positions of win at which the top image takes each component, the
    one selection of its cells: every cell, or with a grading those the
    component sends into the top block; less component 0 at the top
    t-layer, whose columns lie wholly in the slack rows (module docstring),
    and, where p.commuting certifies the pruning theorem, less the cells
    where it makes the column of component i >= 1 redundant (_unpruned).
    The caps of _check_window are checked first, before any layout is built."""
    size = win.size(p.n)
    _check_window(p, (p.n + 1) * size)
    top = size - win.layout(p.n)[1]  # the first cell of the top t-layer
    if grading is None:
        at = [range(top)] + [range(size)] * p.n
    else:
        at = [_cells(win, p.n, grading, s) for s in grading.shifts]
        at[0] = [q for q in at[0] if q < top]
    return _unpruned(p, win, at) if p.commuting else at


def _unpruned(p: ProblemInstance, win: DegreeWindow, at: list) -> list:
    """For each component ci, the positions of at[ci] in win where its column
    is not redundant under the pruning theorem (module docstring), whose
    hypotheses p.commuting certifies: all of them for component 0.

    Component i at the cell t a is redundant when a + s lies in win for the
    shift s of every term of component 0 other than -t, and of component
    i, whose coefficient is not 0 at a.  A coefficient c * (e[var] + r)
    vanishes only where e[var] = -r, so the terms are grouped by (var, r),
    each group's shifts fit exactly when a lies in a box (_fit_box), and
    only the groups with an integer r need their own box.  The boxes are
    read once per (u, m) of win.layer, as the k where the cells
    t^(k+1) x^u g^-m are redundant (_redundant_ks)."""
    out = list(at)
    comps = p.stencils[0]
    layer = win.layer(p.n)
    tsize = len(layer)
    for i in range(1, p.n + 1):
        groups: dict[tuple, list[tuple]] = {}
        for s, _c, var, r in [t for t in comps[0] if t[0][0] <= 0] + list(comps[i]):
            groups.setdefault((var, r), []).append(s)
        live = [s for (var, r), ss in groups.items() if var < 0 or r.denominator != 1 for s in ss]
        dying = sorted([(var, int(-r), _fit_box(win, ss)) for (var, r), ss in groups.items()
                        if var >= 0 and r.denominator == 1], key=lambda d: -d[0])
        box = _fit_box(win, live)
        spans: list = [None] * tsize  # of each (u, m), less tmin - 1: read at q // tsize
        kept = []
        for q in at[i]:
            span = spans[q % tsize]
            if span is None:
                lo, hi, z = _redundant_ks(box, dying, *layer[q % tsize])
                d = win.tmin - 1
                span = spans[q % tsize] = lo - d, hi - d, None if z is None else z - d
            lo, hi, z = span
            if not (lo <= q // tsize <= hi or q // tsize == z):
                kept.append(q)
        out[i] = kept
    return out


def _redundant_ks(box: Optional[tuple], dying: list[tuple], u: tuple, m: int) -> tuple:
    """(lo, hi, z): _unpruned's hypothesis holds at (k, m, u) exactly when lo <= k
    <= hi or k == z.  The group of var 0 (r = -alpha), if any, comes last in
    dying and alone tests k itself: it holds at k == z or in its box."""
    (lo, hi), e, z0 = _k_span(box, u, m), (None, m, *u), None
    for var, z, b in dying:
        if var == 0:
            z0 = z if lo <= z <= hi else None
        elif e[var] == z:
            continue
        blo, bhi = _k_span(b, u, m)
        lo, hi = blo if blo > lo else lo, bhi if bhi < hi else hi
    return lo, hi, z0


def _fit_box(win: DegreeWindow, shifts: list[tuple]) -> Optional[tuple]:
    """The box (klo, khi, mlo, mhi, xhi, ulo) of the exponents e = (k, m, u)
    with e + s in win for every shift s: klo <= k <= khi, mlo <= m <= mhi,
    sum(u) <= xhi and u >= ulo componentwise (ulo is None when that holds
    for every u >= 0).  None when there is no shift, and nothing to fit."""
    if not shifts:
        return None
    dts, dgs, dxs = [s[0] for s in shifts], [s[1] for s in shifts], [s[2:] for s in shifts]
    ulo = tuple(max(0, -min(col)) for col in zip(*dxs))
    return (win.tmin - min(dts), win.tmax - max(dts), -min(dgs), win.gmax - max(dgs),
            win.xmax - max(map(sum, dxs)), ulo if any(ulo) else None)


def _k_span(box: Optional[tuple], u: tuple, m: int) -> tuple:
    """(lo, hi): (k, m, u) lies in a box of _fit_box exactly when lo <= k <= hi."""
    if box is None:
        return -math.inf, math.inf
    klo, khi, mlo, mhi, xhi, ulo = box
    if mlo <= m <= mhi and sum(u) <= xhi and (ulo is None or all(map(int.__ge__, u, ulo))):
        return klo, khi
    return 1, 0


def _relation_columns(
    p: ProblemInstance, gens: DegreeWindow, win: DegreeWindow,
    grading: Optional[_Grading] = None, stop: Optional[int] = None,
) -> list[dict]:
    """Columns mono * (g * g^-(m+1) - g^-m) over win's basis, for the
    monomials of gens (of the top weight, with a grading) whose relation
    lies inside win, without their rows >= stop.  A relation keeps t, so
    one at or past stop's t-layer is all cut, and is left out."""
    if p.g.is_one():
        return []
    cols = _stencil_columns(p.stencils[1], _cells(gens, p.n, grading), gens, win, p.n, stop)
    return [c for c in cols if c]


class _WindowComplex(NamedTuple):
    """Degrees 0..n of one window's complex, built once from (p, win), with
    the slack rows quotiented out (module docstring): the component images
    (assemble_phi from win to its output window win_out), the relation
    columns generated in win over the same rows, the quotient map by their
    span (linalg.quotient_map, empty when g = 1), which degrees 0..n apply
    to each copy of the rows in place of the relation columns, and targets,
    {position in win: row in win_out} of each interior cell."""

    mat: SparseMatrixQ
    relations: list[dict]
    targets: dict[int, int]
    win: DegreeWindow
    win_out: DegreeWindow
    pi: dict[int, dict]

    def reduce(self, cols: list[dict]) -> list[dict]:
        """pi of each column, in order, over stacked copies of mat's rows;
        cols itself when pi is empty (g = 1)."""
        if not self.pi:
            return cols
        return [quotient(col, self.pi, self.mat.nrows) for col in cols]


def _window_complex(p: ProblemInstance, win: DegreeWindow, sh: _Shifts) -> _WindowComplex:
    """The complex of (p, win), every column cut at the slack tail."""
    win_out = sh.output_window(win)
    mat = assemble_phi(p, win, win_out)
    inner = sh.interior(win)
    relations = _relation_columns(p, win, win_out, stop=mat.nrows)
    return _WindowComplex(
        mat,
        relations,
        dict(zip(_cells(inner, p.n, at=win), _cells(inner, p.n, at=win_out))),
        win,
        win_out,
        quotient_map(relations),
    )


def _top_image(
    p: ProblemInstance, win: DegreeWindow, sh: _Shifts, grading: Optional[_Grading] = None,
    cx: Optional[_WindowComplex] = None,
) -> tuple[SparseMatrixQ, list[int]]:
    """(image, target rows) of degree n+1 on (p, win), for exponent_test and
    koszul_cohomology alike: the component columns at the cells _kept
    selects and the relation columns, over the output rows below the slack
    tail, and the output rows of the interior cells.  With a grading, only
    the top block (module docstring), whose degree n+1 is the whole
    window's.  Given cx = _window_complex(p, win, sh), nothing is assembled
    again: the same column objects, in the same order, are read from cx by
    position."""
    win_out = sh.output_window(win)
    kept = _kept(p, win, grading)
    if cx is None:
        mat = assemble_phi(p, win, win_out, kept)
        cols = mat.cols
    else:  # column ci * win.size(n) + q of cx.mat is component ci at cell q
        mat, size = cx.mat, win.size(p.n)
        cols = [mat.cols[ci * size + q] for ci, qs in enumerate(kept) for q in qs]
    relations = (cx.relations if cx and grading is None
                 else _relation_columns(p, win, win_out, grading, mat.nrows))
    targets = _cells(sh.interior(win), p.n, grading, at=win_out)
    return SparseMatrixQ(mat.nrows, cols + relations), targets


def _top_cokernel(image: SparseMatrixQ, targets) -> int:
    """Degree n+1 from a top image (_top_image): the target rows modulo the
    span of the image columns.  The non-empty image columns are pivoted
    first, each once, in the order of the module docstring (Order.), then
    the unit targets by row; the surviving target directions are counted."""
    cols = sorted(filter(None, image.cols), key=lambda col: (len(col), -max(col)))
    _, coker = rank_with_extension(
        SparseMatrixQ(image.nrows, cols), [{r: (1, 1)} for r in sorted(targets)], in_order=True
    )
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
    the generic path otherwise.  Any other method is a ValueError.

    Each estimate is _top_cokernel of the window's top image (_top_image).
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
    if method not in ("generic", "per-degree"):
        raise ValueError(f"unknown method {method!r}: use 'generic' or 'per-degree'")
    if method == "per-degree":
        from .arrangements import per_degree_exponent_test

        rep = per_degree_exponent_test(p)
        if rep is not None:
            return rep
        # fall through: reduction not applicable
    sh = _shift_analysis(p)
    estimates: list[int] = []
    used: list[DegreeWindow] = []
    verdict, dim = Verdict.UNDETERMINED, None
    for r in range(rounds):
        win = _round_window(p, sh, r)
        estimates.append(_top_cokernel(*_top_image(p, win, sh, p.grading)))
        used.append(win)
        v = estimates[-1]
        agree = 3 if v == 0 and not p.g.is_one() else 2
        if estimates[-agree:] == [v] * agree:
            verdict, dim = Verdict.NOT_EXPONENT if v == 0 else Verdict.EXPONENT, v
            break
    return ExponentReport(verdict=verdict, cokernel_dim=dim, windows_used=used,
                          stabilized=dim is not None, estimates=estimates)


# ---------------------------------------------------------------------------
# Koszul cohomology
# ---------------------------------------------------------------------------


def _koszul_bases(n: int):
    """Subsets of {0..n} by cardinality, each sorted, in a fixed order."""
    return [list(itertools.combinations(range(n + 1), j)) for j in range(n + 2)]


def _koszul_differential(j: int, mat: SparseMatrixQ, by_deg: list, cells=None) -> SparseMatrixQ:
    """d^j from K^j(win) to K^(j+1)(win_out), exact, at the positions cells
    of win (default: all), for mat = assemble_phi(p, win, win_out) and
    by_deg = _koszul_bases(n), so over mat's rows below the slack tail.
    K^j has one copy of cells per j-subset of {0..n}, column k * len(cells)
    + i of d^j the cells[i] of the copy of by_deg[j][k]: signed slices of
    mat's component columns, each odd-signed pair (num, den) written
    (-num, den)."""
    n = len(by_deg) - 2
    dom = mat.ncols // (n + 1)
    images = [mat.cols[i * dom : (i + 1) * dom] for i in range(n + 1)]
    cod_pos = {s: k for k, s in enumerate(by_deg[j + 1])}
    cols = []
    for s in by_deg[j]:
        # component i maps the copy of s to that of s + {i}, sign (-1)^#{x in s: x < i}
        parts = [
            (images[i], cod_pos[tuple(sorted(s + (i,)))] * mat.nrows, sum(x < i for x in s) % 2)
            for i in range(n + 1)
            if i not in s
        ]
        cols += (
            {b + r: (-v[0], v[1]) if odd else v
             for img, b, odd in parts for r, v in img[mi].items()}
            for mi in (range(dom) if cells is None else cells)
        )
    return SparseMatrixQ(len(cod_pos) * mat.nrows, cols)


def koszul_cohomology(p: ProblemInstance, win: DegreeWindow) -> dict[int, int]:
    """Interior cohomology dimensions of the Koszul complex of the row
    components, degrees 0..n+1.

    The complex is the one exponent_test's estimate comes from on win:
    every differential has domain win and codomain its output window, so
    chaining two differentials on the overlap composes to zero, and degree
    n+1 is exponent_test's window cokernel (_top_cokernel of _top_image,
    graded where p.grading certifies it), its columns read from the one
    assembly of the window (_window_complex) that degrees 0..n use.
    Cycles are taken with interior support (closing up to the localization
    relations); boundaries come from the full domain window.  Every degree
    quotients out the slack rows (module docstring) and uses the one
    relation set, generated in win: as columns in degree n+1, and through
    its quotient map, built once, in degrees 0..n (module docstring).

    A degree's cycles are first checked against the boundary columns that
    share a row with one of them, built only at the cells those rows reach
    back through the stencils' shifts (_near_boundary).  Those columns are a
    subset of all the boundary columns, so when they already span every
    cycle the degree is exactly 0; otherwise the whole boundary matrix is
    built and eliminated.

    Where p.grading certifies the grading, g is 1 or a monomial of
    positive degree and alpha is off the weight lattice (no cell has the
    weight of any copy's block), every degree is 0 by the every-degree
    theorem (module docstring), with nothing assembled or eliminated.  The
    caps still count the whole window.

    The components must commute pairwise in k((t))[x, 1/g]:
    check_row_commutation certifies it on the stencils, once per call, with
    no window.  Raises WindowError on assembly problems and ValueError when
    the certificate fails (an assembly bug).
    """
    by_deg = _koszul_bases(p.n)
    _check_window(p, max(len(sets) for sets in by_deg[: p.n + 1]) * win.size(p.n))
    if not check_row_commutation(p):
        raise ValueError("row components do not commute; assembly is inconsistent")
    sh = _shift_analysis(p)
    sh.interior(win)  # a window with no interior is refused before any answer
    grading = p.grading
    proved = p.g.is_one() or (len(p.g.terms) == 1 and p.g.max_xdeg() > 0)
    if grading and proved and not any(
        _cells(win, p.n, grading, sum(s))
        for k in range(p.n + 2) for s in itertools.combinations(grading.shifts, k)
    ):  # alpha off the weight lattice: every degree is 0 (module docstring)
        return dict.fromkeys(range(p.n + 2), 0)
    cx = _window_complex(p, win, sh)
    dims = {j: _koszul_h(p, j, cx, by_deg) for j in range(p.n + 1)}
    dims[p.n + 1] = _top_cokernel(*_top_image(p, win, sh, p.grading, cx))
    return dims


def _koszul_h(p: ProblemInstance, j: int, cx: _WindowComplex, by_deg) -> int:
    """Dimension of degree j <= n, compared inside K^j(win_out) below the
    slack tail of each copy, modulo the relations: the rank of pi of the
    interior cycles modulo pi of the boundaries, for pi the window's
    quotient map (cx.pi), which equals the rank of the cycles modulo the
    boundaries and the relation columns stacked in each copy.

    The neighbourhood certificate eliminates first only the columns of
    d^(j-1) that meet a cycle before pi, built at the cells _near_boundary
    finds from the cycle rows alone.  A vector in the span of a subset of
    the columns is in the span of all of them, so an extension rank of 0
    there is exact; any other count is only an upper bound, and the whole
    boundary matrix, d^(j-1) at every cell, is built and eliminated instead.
    Cycles that pi sends to 0 lie in the span of the relations and are
    dropped.  Degree 0 has no boundary: the rank of its cycles is the answer."""
    cycles = _interior_cycles(j, cx, by_deg)
    kept = [(z, zq) for z, zq in zip(cycles, cx.reduce(cycles)) if zq]
    if not kept:
        return 0  # rank([B | Z]) - rank(B) with Z empty
    nrows = len(by_deg[j]) * cx.mat.nrows
    zrows = set().union(*(z for z, _ in kept))
    zvecs = [zq for _, zq in kept]
    near = cx.reduce(_near_boundary(p, j, cx, by_deg, zrows)) if j >= 1 else []
    _, extra = rank_with_extension(SparseMatrixQ(nrows, [col for col in near if col]), zvecs)
    if extra == 0 or j == 0:
        return extra
    # a non-zero count there is only an upper bound: eliminate everything
    whole = cx.reduce(_koszul_differential(j - 1, cx.mat, by_deg).cols)
    _, extra = rank_with_extension(SparseMatrixQ(nrows, [col for col in whole if col]), zvecs)
    return extra


def _interior_cycles(j: int, cx: _WindowComplex, by_deg) -> list[dict]:
    """The interior cycles of degree j, as {row of K^j(win_out): (num, den)}:
    a basis of the kernel of pi(d^j) built at the interior cells alone, for
    pi the quotient map cx.pi, so of {z : d^j z in the span of the
    relations}.  Only finitely supported cycles are detected (closing up to
    the localization relations), so lower-degree dimensions are lower
    bounds."""
    nm = cx.mat.nrows
    interior = sorted(cx.targets)
    mat_j = _koszul_differential(j, cx.mat, by_deg, interior)
    rows = [k * nm + cx.targets[q] for k in range(len(by_deg[j])) for q in interior]
    kernel = nullspace(SparseMatrixQ(mat_j.nrows, cx.reduce(mat_j.cols)))
    return [{rows[c]: v for c, v in vec.items()} for vec in kernel]


def _near_boundary(
    p: ProblemInstance, j: int, cx: _WindowComplex, by_deg, zrows: set[int]
) -> list[dict]:
    """The columns of d^(j-1), 1 <= j <= n, that meet a row of zrows, in
    their order in the whole d^(j-1), built only at the cells that can meet
    one.  Component i maps the copy of S - {i} into that of S, and its
    column at a cell c holds rows c + s only, for s the shifts of its
    stencil; so a row of the copy of S = by_deg[j][k] at position r of
    win_out is met only by columns at the cells r - s of win, for the shifts
    s of the components i in S, decoded by win_out.layer and placed by
    win.layout."""
    win, win_out, n, nm = cx.win, cx.win_out, p.n, cx.mat.nrows
    xrow, tsize = win.layout(n)
    layer_out, tsize_out = win_out.layer(n), win_out.layout(n)[1]
    dk = win_out.tmin - win.tmin  # a t-index of win_out, as one of win
    shifts = [[s for s, *_ in comp] for comp in p.stencils[0]]
    by_copy = [[s for i in sets for s in shifts[i]] for sets in by_deg[j]]
    cells = set()
    for z in zrows:
        k, r = divmod(z, nm)
        kt, (u, m) = r // tsize_out + dk, layer_out[r % tsize_out]
        for dt, dg, *dx in by_copy[k]:
            kc, mc = kt - dt, m - dg
            if 0 <= kc <= win.tmax - win.tmin and 0 <= mc <= win.gmax:
                x = xrow.get(tuple([a - b for a, b in zip(u, dx)]))
                if x is not None:
                    cells.add(kc * tsize + x + mc)
    cols = _koszul_differential(j - 1, cx.mat, by_deg, sorted(cells)).cols
    return [col for col in cols if not zrows.isdisjoint(col)]
