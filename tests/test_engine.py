import itertools
import math
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from gmexp import engine
from gmexp.engine import (
    DegreeWindow,
    ProblemInstance,
    ResourceLimitError,
    Verdict,
    WindowError,
    _cells,
    _koszul_bases,
    _koszul_differential,
    _relation_columns,
    _select,
    _shift_analysis,
    _top_cokernel,
    _top_image,
    _window_complex,
    assemble_phi,
    check_row_commutation,
    default_schedule,
    exponent_test,
    koszul_cohomology,
)
from gmexp.linalg import SparseMatrixQ, _Eliminator, nullspace, quotient, rank_with_extension
from gmexp.operators import Compose, MulByElem, MulByT, PartialX, PhiC, Scale, Sum, apply
from gmexp.parser import parse_poly
from gmexp.rational import Q
from gmexp.ring import Monomial, RingElement, clear_g, quasi_weights


def pair(q):
    """q as the reduced (numerator, denominator) pair of ints, with a
    positive denominator, that gmexp.linalg computes on."""
    return int(q.numerator), int(q.denominator)


def instance(fs, n=1, gs="1", alpha="0"):
    f = parse_poly(fs, n, allow_ginv=True)
    g = parse_poly(gs, n)
    return ProblemInstance(n=n, f=f, g=g, alpha=alpha)


def test_instance_validation():
    with pytest.raises(ValueError):
        instance("x1", gs="0")
    with pytest.raises(ValueError):
        ProblemInstance(n=1, f=RingElement.t(1), g=RingElement.one(1), alpha=0)
    # f is normalized to the minimal g-layer
    p = instance("x1^2*ginv", gs="x1")
    assert p.f == parse_poly("x1", 1)


def phi_row(p):
    """The n+1 row components as operator trees: the tree-walk oracle that
    stencil assembly is checked against, built independently of it."""
    phi = PhiC(-p.alpha)
    comps = [Sum(MulByElem(p.f), Scale(-1, MulByT()))]
    for i, df in enumerate(p.derivatives, start=1):
        comps.append(Sum(PartialX(i), Compose(MulByElem(df), phi)))
    return comps


def trees_commute(p, w):
    """Pairwise commutation of the phi_row operator trees on the monomials of
    w, applied by tree walk and compared in k[x, 1/g]."""
    for a, b in itertools.combinations(phi_row(p), 2):
        for m in w.monomials(p.n):
            e = RingElement.monomial(p.n, m)
            diff = apply(a, apply(b, e, p.g), p.g) - apply(b, apply(a, e, p.g), p.g)
            if not clear_g(diff, p.g).is_zero():
                return False
    return True


def test_phi_row_components_commute():
    # the stencil certificate, with no window, and the tree walk on a small
    # window agree
    for fs, n, gs in [("x1^2*(1-x1)", 1, "1"), ("x1*x2", 2, "1"), ("x1^2*ginv", 1, "x1"),
                      ("x1^2*ginv", 1, "1-x1")]:
        p = instance(fs, n=n, gs=gs, alpha="1/2")
        assert check_row_commutation(p)
        assert trees_commute(p, DegreeWindow(-2, 2, 2, 0 if gs == "1" else 2))


# -- the tree walk as the oracle for stencil assembly ---------------------------


def tree_image(op, p, m, index):
    """{row: value} of op applied to monomial m by tree walk; WindowError
    when a term falls outside the rows of index."""
    image = apply(op, RingElement.monomial(p.n, m), p.g)
    if any(t not in index for t in image.terms):
        raise WindowError("outside")
    return {index[t]: c for t, c in image.terms.items()}


def tree_relations(p, win_in, index):
    """mono * (g * g^-(m+1) - g^-m) for the monomials whose relation fits."""
    if p.g.is_one():
        return []
    cols = []
    for m in win_in.monomials(p.n):
        mono = RingElement.monomial(p.n, m)
        rel = (mono * p.g).shift_gpow(1) - mono
        if all(t in index for t in rel.terms):
            cols.append({index[t]: c for t, c in rel.terms.items()})
    return cols


def tree_koszul(p, j, win_in, index):
    """Columns of d^j by tree walk, K^j blocks ordered as _koszul_bases."""
    by_deg = _koszul_bases(p.n)
    pos = {s: k for k, s in enumerate(by_deg[j + 1])}
    comps = phi_row(p)
    cols = []
    for s in by_deg[j]:
        for m in win_in.monomials(p.n):
            col = {}
            for i in range(p.n + 1):
                if i not in s:
                    sign = (-1) ** sum(1 for x in s if x < i)
                    base = pos[tuple(sorted(s + (i,)))] * len(index)
                    for r, c in tree_image(comps[i], p, m, index).items():
                        col[base + r] = sign * c
            cols.append(col)
    return cols


def differential(j, mat, n, cells=None):
    """d^j by _koszul_differential."""
    return _koszul_differential(j, mat, _koszul_bases(n), cells)


class FullWindow(NamedTuple):
    """A window with its slack as columns, built here from the definition."""

    mat: SparseMatrixQ  # every component column over every output row
    relations: list  # the relation columns over every output row
    slack: list  # unit columns on the output rows at t-degree >= tmax
    targets: list  # output rows of the interior cells, sorted


def full_image(p, win, win_out):
    """Every component column from win over every row of win_out: the
    stencil evaluator with no stop; WindowError when an image leaves it."""
    cols = [col for stencil in p.stencils[0]
            for col in engine._stencil_columns(stencil, range(win.size(p.n)), win, win_out, p.n)]
    if None in cols:
        raise WindowError("outside")
    return SparseMatrixQ(win_out.size(p.n), cols)


def full_window(p, win):
    """The full window of (p, win) that the engine's slack quotient stands
    for: full_image, the relation columns over all rows, and unit slack
    columns made here."""
    sh = _shift_analysis(p)
    win_out = sh.output_window(win)
    index = positions(win_out, p.n)
    interior = sh.interior(win)
    return FullWindow(
        full_image(p, win, win_out),
        _relation_columns(p, win, _cells(win, p.n), win_out),
        [{i: pair(Q(1))} for m, i in index.items() if m.tdeg >= win.tmax],
        sorted(index[m] for m in interior.monomials(p.n)),
    )


def as_pairs(cols):
    """Q-valued columns, such as the tree walk's, as the reduced int pairs
    of rational.pair that assembly and elimination hold."""
    return [{r: pair(v) for r, v in col.items()} for col in cols]


def is_reduced_pair(v):
    """A reduced (num, den) pair of Python ints with num != 0 < den."""
    return (type(v) is tuple and len(v) == 2 and all(type(x) is int for x in v)
            and v[0] != 0 and v[1] > 0 and math.gcd(*v) == 1)


def assert_columns(cols, expected):
    """cols equal the Q-valued columns expected, as reduced int pairs."""
    assert cols == as_pairs(expected)
    assert all(is_reduced_pair(v) for col in cols for v in col.values())


def stacked(cols, copies, size):
    """cols repeated in each of `copies` stacked copies of a size-row basis."""
    return [{b * size + r: v for r, v in c.items()} for b in range(copies) for c in cols]


def positions(win, n):
    """{monomial: its index in win.monomials(n)}, checked against win.layout(n)."""
    index = {m: i for i, m in enumerate(win.monomials(n))}
    xrow, tsize = win.layout(n)
    assert all((m.tdeg - win.tmin) * tsize + xrow[m.xdeg] + m.gpow == i for m, i in index.items())
    return index


G_POOL = {1: ["1", "x1", "-(2*x1)"], 2: ["1", "x1", "x1+x2", "x1*x2+1", "-(2*x1)"]}


@st.composite
def stencil_cases(draw):
    n = draw(st.integers(1, 2))
    powers = st.tuples(*[st.integers(0, 2)] * n, st.integers(0, 2))
    terms = draw(st.dictionaries(powers, st.integers(-3, 3).filter(bool), min_size=1, max_size=4))
    fs = " + ".join(
        f"{c}*" + "*".join(f"x{i + 1}^{e}" for i, e in enumerate(pw[:n])) + f"*ginv^{pw[n]}"
        for pw, c in terms.items()
    )
    gs = draw(st.sampled_from(G_POOL[n]))
    alpha = draw(st.sampled_from(["0", "1", "-2", "1/2", "-1/3", "5/4"]))
    tmin = draw(st.integers(-2, 1))
    win = DegreeWindow(tmin, tmin + draw(st.integers(0, 2)), draw(st.integers(0, 2)),
                       draw(st.integers(0, 2)))
    return n, fs, gs, alpha, win


@settings(max_examples=60, deadline=None)
@given(stencil_cases())
@example((1, "x1^2", "x1", "1", DegreeWindow(-2, 2, 2, 2)))
@example((2, "x1^2*ginv^2+x2", "x1+x2", "1/3", DegreeWindow(-1, 1, 2, 2)))
@example((2, "-x1^2*ginv^2+3*x2", "-(2*x1)-2*x2", "-2/3", DegreeWindow(-1, 1, 2, 2)))
def test_stencil_assembly_matches_tree_walk(case):
    n, fs, gs, alpha, win = case
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    # the output window equal to the input, widened in t, and the engine's own
    for win_out in (win, win.expand(dt=1), _shift_analysis(p).output_window(win)):
        rows = list(win_out.monomials(n))
        index = positions(win_out, n)
        try:
            expected = [tree_image(c, p, m, index) for c in phi_row(p)
                        for m in win.monomials(n)]
        except WindowError:
            with pytest.raises(WindowError):
                full_image(p, win, win_out)
            with pytest.raises(WindowError):
                assemble_phi(p, win, win_out)
        else:
            # every output row, then assemble_phi's cut at the slack tail
            mat = full_image(p, win, win_out)
            assert (mat.nrows, mat.ncols) == (len(rows), len(expected))
            assert_columns(mat.cols, expected)
            cut = assemble_phi(p, win, win_out)
            assert cut.nrows == sum(1 for m in rows if m.tdeg < win.tmax)
            assert cut.cols == as_pairs([{r: v for r, v in col.items() if r < cut.nrows}
                                         for col in expected])

        rel = tree_relations(p, win, index)
        assert_columns(_relation_columns(p, win, _cells(win, p.n), win_out), rel)

        by_deg = _koszul_bases(n)
        try:
            expected_k = [tree_koszul(p, j, win, index) for j in range(n + 1)]
        except WindowError:
            with pytest.raises(WindowError):
                differential(0, assemble_phi(p, win, win_out), n)
        else:
            image = full_image(p, win, win_out)
            for j in range(n + 1):
                mat = differential(j, image, n)
                assert (mat.nrows, mat.ncols) == (
                    len(by_deg[j + 1]) * len(rows), len(expected_k[j]))
                assert_columns(mat.cols, expected_k[j])

    # the window complex names cells by position: targets take each interior
    # cell of the input window to its output row, and its rows stop where
    # the slack tail starts, the output rows at t-degree >= tmax, which are
    # the t-major tail; the input window is widened in t so that it has an
    # interior
    sh = _shift_analysis(p)
    big = win.expand(dt=engine._T_MARGIN)
    out = sh.output_window(big)
    index_in, index_out = positions(big, n), positions(out, n)
    cx = _window_complex(p, big)
    interior = sh.interior(big)
    assert cx.targets == {index_in[m]: index_out[m] for m in interior.monomials(n)}
    tail = [i for m, i in index_out.items() if m.tdeg >= big.tmax]
    assert tail == list(range(cx.mat.nrows, len(index_out)))
    full = full_window(p, big)
    assert full.targets == sorted(cx.targets.values())
    assert cx.relations == [c for c in ({r: v for r, v in col.items() if r < cx.mat.nrows}
                                        for col in full.relations) if c]
    # the quotient map sends every relation column, in every stacked copy, to 0
    nm = cx.mat.nrows
    assert bool(cx.pi) is bool(cx.relations)
    assert all(quotient({b * nm + r: v for r, v in col.items()}, cx.pi, nm) == {}
               for b in range(3) for col in cx.relations)

    # d^j built at the interior cells alone (as koszul_cohomology builds it
    # for its cycles) is the matching columns of the full d^j, entry for
    # entry, in the same order; so is d^j at cells in any order
    by_deg, dom = _koszul_bases(n), big.size(n)
    for cells in (sorted(cx.targets), range(dom - 1, -1, -3)):
        for j in range(n + 1):
            full = differential(j, cx.mat, n)
            part = differential(j, cx.mat, n, cells)
            assert part.nrows == full.nrows
            assert part.cols == [full.cols[k * dom + q]
                                 for k in range(len(by_deg[j])) for q in cells]
            assert all(is_reduced_pair(v) for col in part.cols for v in col.values())


def test_phi_row_shape():
    p = instance("x1*(1-x1)", alpha="1/3")
    comps = phi_row(p)
    assert len(comps) == 2
    # first component is multiplication by f - t
    one = RingElement.one(1)
    assert apply(comps[0], one, p.g) == p.f - RingElement.t(1)
    # second is d/dx + f' (d/dt - alpha/t)
    e = RingElement.t(1, 2)
    df = parse_poly("1 - 2*x1", 1)
    assert apply(comps[1], e, p.g) == df * RingElement.t(1, 1).scale(2 - Q(1, 3))


def test_assemble_phi_window_error():
    p = instance("x1^3", alpha="1/2")
    win = DegreeWindow(-2, 2, 3, 0)
    # too small to hold the image; the message decodes the first cell that leaves it
    with pytest.raises(WindowError, match=r"^image of t\^-2\*x1 under component 0 leaves"):
        assemble_phi(p, win, win)
    mat = assemble_phi(p, win, win.expand(1, 3, 0))
    assert mat.ncols == 2 * win.size(1)
    assert rank_with_extension(mat, [])[0] <= min(mat.nrows, mat.ncols)


def test_exponent_test_identity_map():
    # smooth coordinate: the direct image is trivial, only the integer
    # class survives with a single block
    rep = exponent_test(instance("x1", alpha="0"))
    assert rep.verdict is Verdict.EXPONENT and rep.cokernel_dim == 1
    rep = exponent_test(instance("x1", alpha="1/2"))
    assert rep.verdict is Verdict.NOT_EXPONENT and rep.cokernel_dim == 0
    assert rep.stabilized


def test_exponent_test_cusp():
    # f = x^3: classes 0, 1/3, 2/3
    for a, verdict in [("1/3", Verdict.EXPONENT), ("2/3", Verdict.EXPONENT),
                       ("1/2", Verdict.NOT_EXPONENT), ("1", Verdict.EXPONENT)]:
        rep = exponent_test(instance("x1^3", alpha=a))
        assert rep.verdict is verdict, a


def brieskorn_pham_count(exps, alpha):
    """#{(j_i) : 1 <= j_i < a_i, sum j_i/a_i = alpha mod Z} (Brieskorn 1970)."""
    return sum(
        1
        for js in itertools.product(*[range(1, a) for a in exps])
        if (sum(Q(j, a) for j, a in zip(js, exps)) - alpha).denominator == 1
    )


def test_brieskorn_pham_late_windows():
    # x1^5 + x2^5 at 3/5: the pairs (1,2), (2,1), (4,4); the estimates on the
    # default windows are 2, 2, 3, 3, so windows 3 and 4 agree on it
    p = instance("x1^5+x2^5", n=2, alpha="3/5")
    expected = brieskorn_pham_count((5, 5), Q(3, 5))
    assert expected == 3
    late = default_schedule(p, rounds=4)[2:]
    assert [_top_cokernel(*_top_image(p, w)) for w in late] == [expected] * 2


@pytest.mark.xfail(
    strict=True,
    reason="the two-window stabilisation rule stops at the early estimates 2, 2 "
    "(ROADMAP item 1: start where the Milnor algebra fits, and certify)",
)
def test_brieskorn_pham_default_schedule():
    p = instance("x1^5+x2^5", n=2, alpha="3/5")
    assert exponent_test(p).cokernel_dim == brieskorn_pham_count((5, 5), Q(3, 5))


def fibre_count(weights, alpha):
    """Cokernel of x^w1 (1 - x)^w0 over k[x], or of x^w1 over k[x, 1/x] with
    w0 = 0: the fibre over a small t is w_i points near each root, permuted
    cyclically by the monodromy, so each class j/w_i (1 <= j <= w_i) counts
    once per weight."""
    return sum(1 for w in weights if w and (w * alpha).denominator == 1)


# (f, n, g, classes, closed form: alpha -> cokernel)
SHIFTED = [
    ("x1^2", 1, "1", ["1/2", "1", "1/3"], lambda a: fibre_count((0, 2), a)),
    ("x1^2+x2^3", 2, "1", ["1/6", "5/6", "1/2", "1"],
     lambda a: brieskorn_pham_count((2, 3), a)),
    ("x1^2*(1-x1)", 1, "1", ["1/2", "1", "1/3"], lambda a: fibre_count((1, 2), a)),
    ("x1^2", 1, "x1", ["1/2", "1", "1/3"], lambda a: fibre_count((0, 2), a)),
    ("x1^3", 1, "x1", ["1/3", "2/3", "1", "1/2"], lambda a: fibre_count((0, 3), a)),
]


@pytest.mark.parametrize("fs, n, gs, classes, closed", SHIFTED,
                         ids=[f"{fs}/{gs}" for fs, _, gs, *_ in SHIFTED])
def test_verdicts_depend_only_on_the_class(fs, n, gs, classes, closed):
    for a in classes:
        want = closed(Q(a))
        # the arrangement's candidate set: the classes j/w_i
        if fs == "x1^2*(1-x1)":
            assert (want > 0) == (Q(a) in {Q(1, 2), Q(1)})
        base = exponent_test(instance(fs, n=n, gs=gs, alpha=a))
        assert base.cokernel_dim == want and base.stabilized, a
        for k in (-6, -1, 1, 5):
            p = instance(fs, n=n, gs=gs, alpha=Q(a) + k)
            assert p.alpha == Q(a)
            rep = exponent_test(p)
            verdict = Verdict.EXPONENT if want else Verdict.NOT_EXPONENT
            assert (rep.verdict, rep.cokernel_dim) == (verdict, want), (a, k)
            assert rep.to_dict() == base.to_dict(), (a, k)


def test_koszul_cohomology_depends_only_on_the_class():
    p = instance("x1^2*(1-x1)", alpha="1")
    win = default_schedule(p)[0]
    dims = koszul_cohomology(p, win)
    assert dims[2] == fibre_count((1, 2), Q(1))
    assert koszul_cohomology(instance("x1^2*(1-x1)", alpha="-5"), win) == dims


def test_exponent_test_nontrivial_g():
    # f = x^2/(1-x) behaves like x^2 near the origin
    for a, verdict in [("1/2", Verdict.EXPONENT), ("1/3", Verdict.NOT_EXPONENT)]:
        rep = exponent_test(instance("x1^2*ginv", gs="1-x1", alpha=a))
        assert rep.verdict is verdict, a


def test_report_invariant_not_exponent_means_zero():
    rep = exponent_test(instance("x1*(1-x1)", alpha="1/5"))
    assert rep.verdict is Verdict.NOT_EXPONENT
    assert rep.cokernel_dim == 0 and rep.stabilized
    d = rep.to_dict()
    assert d["verdict"] == "not-exponent" and d["estimates"] == rep.estimates


def test_default_schedule_growth():
    p = instance("x1^2*(1-x1)")
    sched = default_schedule(p, rounds=3)
    assert len(sched) == 3
    for a, b in zip(sched, sched[1:]):
        assert b.tmax > a.tmax and b.xmax > a.xmax and b.tmin < a.tmin
    # more rounds only append windows
    assert default_schedule(p, rounds=5)[:3] == sched
    pg = instance("x1^2*ginv", gs="x1")
    assert all(w.gmax == w.xmax for w in default_schedule(pg))
    with pytest.raises(ValueError):
        exponent_test(p, rounds=1)


def test_exponent_test_rejects_an_unknown_method():
    # a misspelt method is refused, not run as the generic path
    p = instance("x1^2*(1-x1)", alpha="1/2")
    for method in ("per_degree", "Generic", ""):
        with pytest.raises(ValueError, match="unknown method"):
            exponent_test(p, method=method)


def test_windows_built_only_when_reached(monkeypatch):
    # a large round budget costs nothing beyond the windows the verdict needs
    built = []

    def counting(*args):
        built.append(DegreeWindow(*args))
        return built[-1]

    monkeypatch.setattr(engine, "DegreeWindow", counting)
    rep = exponent_test(instance("x1", alpha="1/2"), rounds=10**5)
    assert rep.stabilized and built == rep.windows_used


def test_window_without_interior():
    p = instance("x1", alpha="1/2")
    with pytest.raises(ValueError, match="tmin"):
        koszul_cohomology(p, DegreeWindow(-1, 1, 3, 0))


def test_resource_cap(monkeypatch):
    monkeypatch.setenv("GM_MAX_WINDOW_CELLS", "10")
    with pytest.raises(ResourceLimitError):
        exponent_test(instance("x1"))


def test_resource_cap_precedes_enumeration(monkeypatch):
    # a window past the cap is refused before any of its monomials is made
    monkeypatch.setenv("GM_MAX_WINDOW_CELLS", "100000")

    def enumerated(*args):
        raise AssertionError("window monomials enumerated before the cap check")

    monkeypatch.setattr(DegreeWindow, "monomials", enumerated)
    p = instance("x1^30000", alpha="1/2")
    win = default_schedule(p)[0]
    with pytest.raises(ResourceLimitError):
        assemble_phi(p, win, _shift_analysis(p).output_window(win))
    with pytest.raises(ResourceLimitError):
        exponent_test(p)
    with pytest.raises(ResourceLimitError):
        koszul_cohomology(p, win)


def test_default_cap_bounds_a_query_in_many_variables(monkeypatch):
    # without GM_MAX_WINDOW_CELLS the default cap refuses the first window of
    # x1 in 100 variables (1.25e8 cells, from its size alone: no query is
    # run), stays 10x above the largest window Tier-1 builds, and the
    # variable still overrides it
    monkeypatch.delenv("GM_MAX_WINDOW_CELLS", raising=False)
    p = instance("x1", n=100, alpha="1/2")
    cells = (p.n + 1) * default_schedule(p)[0].size(p.n)
    assert cells == 101 * 7 * math.comb(103, 100) > 1.25e8
    with pytest.raises(ResourceLimitError, match="GM_MAX_WINDOW_CELLS"):
        engine._check_cells(cells)
    largest = instance("x1^2+x2^2", n=2, gs="x1+x2", alpha="1")
    assert 3 * default_schedule(largest)[3].size(2) == 102_600
    assert engine.DEFAULT_MAX_WINDOW_CELLS >= 10 * 102_600
    # the entry cap stays 10x above that window by its longest stencil
    assert max(map(len, largest.stencils[0])) == 3
    assert engine.MAX_WINDOW_ENTRIES >= 10 * 102_600 * 3
    engine._check_cells(engine.DEFAULT_MAX_WINDOW_CELLS)
    monkeypatch.setenv("GM_MAX_WINDOW_CELLS", str(cells))
    engine._check_cells(cells)
    monkeypatch.setenv("GM_MAX_WINDOW_CELLS", "100")
    with pytest.raises(ResourceLimitError, match="cap is 100"):
        engine._check_cells(101)


@pytest.mark.parametrize("fs, n, gs, alpha", [
    ("x1^2*(1-x1)^3", 1, "1", "1/2"),  # ungraded, pruned
    ("x1*x2*(1-x1-x2)^3", 2, "1", "1/4"),
    ("x1^2+x2^3", 2, "1", "5/6"),  # graded
    ("x1^2", 1, "x1", "1/3"),  # graded, with relations
    ("x1^2*ginv", 1, "1-x1", "1/2"),  # a g-layer: relations, nothing pruned
    ("(1/3)*x1^2*x2+(1/5)*x2^3", 2, "1", "3/7"),  # rational coefficients
])
def test_window_columns_hold_reduced_int_pairs(fs, n, gs, alpha):
    # the stencil evaluator writes reduced int pairs, and no Q value, into
    # every column that reaches the eliminator
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    sh = _shift_analysis(p)
    win = default_schedule(p)[0]
    out = sh.output_window(win)
    cx = _window_complex(p, win)
    matrices = [assemble_phi(p, win, out), assemble_phi(p, win, out, _select(p, win, p.grading).kept),
                _top_image(p, win, p.grading)[0], _top_image(p, win, p.grading, cx)[0],
                cx.mat, SparseMatrixQ(cx.mat.nrows, cx.relations)]
    for mat in matrices:
        assert all(is_reduced_pair(v) for col in mat.cols for v in col.values())
    assert cx.mat.nnz() > 0 and any(v[1] > 1 for col in cx.mat.cols for v in col.values())


# ---------------------------------------------------------------------------
# The top image: redundant columns left out, slack rows quotiented out
# ---------------------------------------------------------------------------


def full_image_cokernel(full):
    """Degree n+1 from the full image of a full_window: every component
    column, the relations and the unit slack columns, then unit targets."""
    image = SparseMatrixQ(full.mat.nrows, full.mat.cols + full.relations + full.slack)
    return rank_with_extension(image, [{r: pair(Q(1))} for r in full.targets])[1]


@pytest.mark.parametrize("fs, n, gs, alpha, rounds, commuting", [
    ("x1^2*(1-x1)^3", 1, "1", "1/5", 3, True),
    ("x1^2*(1-x1)^3", 1, "1", "1/2", 3, True),
    ("x1*x2^2*(1-x1-x2)^2", 2, "1", "1/3", 3, True),
    ("x1^2*x2*(1-x1-x2)", 2, "1", "1/2", 3, True),
    ("x1*x2*x3*(1-x1-x2-x3)", 3, "1", "1/4", 2, True),
    ("x1^3+x2^4", 2, "1", "5/12", 3, True),  # graded
    ("x1^2", 1, "x1", "1", 3, True),  # graded, with relations
    ("x1^2*ginv", 1, "1-x1", "1/2", 3, False),  # a g-layer: the full image
])
def test_top_image_equals_the_full_image(fs, n, gs, alpha, rounds, commuting):
    # on every default window, the top image (graded where p.grading
    # certifies it, and ungraded) and the complex's unpruned columns give
    # the cokernel of the full image, and none has a row in the slack tail
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    assert p.commuting is commuting
    for win in default_schedule(p, rounds=rounds):
        full = full_window(p, win)
        cx = _window_complex(p, win)
        image, targets = _top_image(p, win, p.grading)
        whole, whole_targets = _top_image(p, win)
        assert image.nrows == min(full.slack[0]) == cx.mat.nrows == whole.nrows
        assert all(r < image.nrows
                   for col in image.cols + whole.cols + cx.mat.cols + cx.relations for r in col)
        assert sorted(whole_targets) == sorted(cx.targets.values()) == full.targets
        if p.grading is None:
            assert sorted(targets) == full.targets
        want = full_image_cokernel(full)
        assert _top_cokernel(image, targets) == want, win
        assert _top_cokernel(whole, whole_targets) == want, win
        unpruned = SparseMatrixQ(cx.mat.nrows, cx.mat.cols + cx.relations)
        assert _top_cokernel(unpruned, cx.targets.values()) == want, win


def test_pruning_needs_the_commutation_certificate(monkeypatch):
    # d/dx1 alone does not commute with f - t: the certificate refuses, and
    # the top image keeps every component column but those of component 0
    # at the top t-layer and, by the theorem (top x-degree), which holds with
    # f of degree 3 over d/dx1's raise of -1, at the top x-degree: one cell
    # in each other t-layer
    real = engine._row_stencils

    def bare_dx1(p):
        comps, relation = real(p)
        return (comps[0], tuple(t for t in comps[1] if t[0][0] == 0)), relation

    p = instance("x1^2*(1-x1)", alpha="1/2")
    assert p.commuting
    monkeypatch.setattr(engine, "_row_stencils", bare_dx1)
    p = instance("x1^2*(1-x1)", alpha="1/2")
    assert not p.commuting
    for win in default_schedule(p, rounds=3):
        image, targets = _top_image(p, win)
        assert top_x_cut(p)
        assert image.ncols == 2 * win.size(1) - win.layout(1)[1] - (win.tmax - win.tmin)
        assert _top_cokernel(image, targets) == full_image_cokernel(full_window(p, win))


def test_pruning_drops_a_pinned_number_of_columns():
    # the benchmark's arr(1,2,2) at 1/3 on its second window: 378 of the
    # 1452 columns of components 1 and 2 are redundant, the 66 columns of
    # component 0 at the top t-layer lie wholly in the slack rows, the 110
    # at the top x-degree below it (11 monomials of degree 10 in each of 10
    # t-layers) are left out by the theorem (top x-degree), and the rows stop
    # at the slack tail (t-degree >= 5 of the output window from t^-6)
    p = instance("x1*x2^2*(1-x1-x2)^2", n=2, alpha="1/3")
    win = default_schedule(p)[1]
    out = _shift_analysis(p).output_window(win)
    assert (win, out.tmin, win.layout(2)[1]) == (DegreeWindow(-5, 5, 10, 0), -6, 66)
    full = full_window(p, win).mat
    top = assemble_phi(p, win, out, _select(p, win, None).kept)
    assert (full.ncols, top.ncols) == (3 * 726, 3 * 726 - 378 - 66 - 110)
    assert top.nrows == 11 * (full.nrows // 13) == assemble_phi(p, win, out).nrows
    assert all(col and min(col) >= top.nrows for col in full.cols[726 - 66 : 726])


def hypothesis_holds(p, win, i, cell):
    """The pruning theorem's hypothesis for component i at cell = t a, term
    by term: a + s lies in win for the shift s of every term of component 0
    other than -t, and of component i, whose coefficient is not 0 at a."""
    a = (cell.tdeg - 1, cell.gpow, *cell.xdeg)
    comps = p.stencils[0]
    for s, c, var, r in [t for t in comps[0] if t[0][0] <= 0] + list(comps[i]):
        k, m, *u = (x + y for x, y in zip(a, s))
        if c * ((*a, 1)[var] + r) and not (win.tmin <= k <= win.tmax and 0 <= m <= win.gmax
                                           and min(u) >= 0 and sum(u) <= win.xmax):
            return False
    return True


def top_x_cut(p):
    """The hypothesis of the theorem (top x-degree), read off the stencils
    term by term: some term of component 0 raises total x-degree by more
    than every term of components 1..n and of the relation."""
    comps, relation = p.stencils

    def top_raise(stencil):
        return max(sum(s[2:]) for s, *_ in stencil)

    return top_raise(comps[0]) > max(map(top_raise, (*comps[1:], relation)))


def at_top_x(win, n, q):
    """Whether position q of win is a cell of win's top total x-degree."""
    return sum(decode(win, n, q).xdeg) == win.xmax


def decode(win, n, q):
    """The monomial at position q of win, read from win.layer."""
    layer = win.layer(n)
    dk, j = divmod(q, len(layer))
    return Monomial(win.tmin + dk, *layer[j])


def weight(grading, m):
    """The weight of monomial m, times grading.scale."""
    return (grading.scale * m.tdeg - grading.wg * m.gpow
            + sum(a * u for a, u in zip(grading.wx, m.xdeg)))


def block_cells(win, n, grading, shift):
    """Every position of win, or with a grading those of weight
    (grading.top - shift) / grading.scale, weighed cell by cell."""
    cells = range(win.size(n))
    if grading is None:
        return list(cells)
    return [q for q in cells if weight(grading, decode(win, n, q)) == grading.top - shift]


# the sweep benchmark's shapes at each of their classes, rendered here
SWEEP_SHAPES = (
    [(f, n, "1", a) for f, n, alphas in (
        ("x1^3*(1-x1)^2", 1, "1/5 1/2 1"), ("x1*(1-x1)^4", 1, "1/4 2/5"),
        ("x1*x2*(1-x1-x2)", 2, "1/4 1"), ("x1^2*x2^2*(1-x1-x2)", 2, "1/3 1/2"),
        ("x1*x2*(1-x1-x2)^2", 2, "1/3"), ("x1^2+x2^3", 2, "5/6 1/2 1/6"),
        ("x1^3+x2^3", 2, "1 1/3"), ("x1^2+x2^5", 2, "3/10 1/5"), ("x1^3+x2^4", 2, "5/12"),
    ) for a in alphas.split()]
)


@pytest.mark.parametrize("fs, n, gs, alpha", [
    ("x1^2*(1-x1)^3", 1, "1", "1"),  # alpha = 1: the f' terms vanish at k = 1
    ("x1^2*(1-x1)^3", 1, "1", "1/5"),
    ("x1*x2*(1-x1-x2)^3", 2, "1", "1"),
    ("x1^2", 1, "x1", "1"),  # graded, with the g-quotient terms
    ("x1*x2*(1-x1-x2)", 2, "x1+1", "1/3"),
    ("ginv", 1, "x1", "1"),  # f' has the higher g-power: k = 1 decides alone
    ("x2*ginv", 2, "1-x1", "1"),
] + [case for case in SWEEP_SHAPES if "+" not in case[0]])  # the ungraded sweep slots
def test_kept_leaves_out_exactly_the_cells_of_the_hypothesis(fs, n, gs, alpha):
    # on windows 0-2 every list of _select, graded or not, is the per-cell
    # reference: the weight of each cell and the pruning hypothesis term by
    # term (hypothesis_holds)
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    assert p.commuting
    sh, cut = _shift_analysis(p), top_x_cut(p)
    assert sh.top_x is cut
    for win in default_schedule(p, rounds=3):
        top = win.size(n) - win.layout(n)[1]  # the first position of the top t-layer
        xrow, tsize = sh.output_window(win).layout(n)
        inner = [(m, (m.tdeg - win.tmin + 1) * tsize + xrow[m.xdeg] + m.gpow)
                 for m in sh.interior(win).monomials(n)]  # each with its output row
        for grading in {None, p.grading}:
            shifts = grading.shifts if grading else (0,) * (n + 1)
            cells = [block_cells(win, n, grading, s) for s in shifts]
            sel = _select(p, win, grading)
            kept = sel.kept
            # the relation generators and the targets: every cell of win,
            # and the interior cells as rows of the output window, of weight
            # lambda* with a grading
            assert list(sel.gens) == block_cells(win, n, grading, 0)
            assert list(sel.targets) == sorted(
                row for m, row in inner if grading is None or weight(grading, m) == grading.top)
            # component 0 leaves out the top t-layer, the top x-degree where
            # the theorem (top x-degree) holds, and nothing else
            assert list(kept[0]) == [q for q in cells[0]
                                     if q < top and not (cut and at_top_x(win, n, q))]
            for i in range(1, n + 1):
                assert list(kept[i]) == [q for q in cells[i]
                                         if not hypothesis_holds(p, win, i, decode(win, n, q))]


def check_top_x_cut(p, win, grading):
    """The theorem (top x-degree) on win against a reference top image that
    keeps component 0 at the top x-degree, chosen here: every cell of its
    block below the top t-layer.  The base rank drops by exactly the columns
    left out, the extension rank stays, and the output rows of x-degree
    xmax + d0 are met by those columns alone."""
    n, sh = p.n, p.shifts
    win_out, cut = sh.output_window(win), top_x_cut(p)
    assert sh.top_x is cut
    sel = _select(p, win, grading)
    top = win.size(n) - win.layout(n)[1]
    ref0 = [q for q in block_cells(win, n, grading, grading.shifts[0] if grading else 0)
            if q < top]
    left_out = [j for j, q in enumerate(ref0) if cut and at_top_x(win, n, q)]
    assert list(sel.kept[0]) == [q for j, q in enumerate(ref0) if j not in left_out]
    image, targets = _top_image(p, win, grading)
    ref = assemble_phi(p, win, win_out, [ref0, *sel.kept[1:]])
    ref = SparseMatrixQ(ref.nrows, ref.cols + _relation_columns(p, win, sel.gens, win_out,
                                                                ref.nrows))
    units = [{r: (1, 1)} for r in sorted(targets)]
    base, extra = rank_with_extension(image, units)
    assert rank_with_extension(ref, units) == (base + len(left_out), extra)
    assert _top_cokernel(image, targets) == _top_cokernel(ref, targets) == extra
    if cut:  # component 0 is ref's first columns, in the order of ref0
        d0 = max(sum(s[2:]) for s, *_ in p.stencils[0][0])
        layer, tsize = win_out.layer(n), win_out.layout(n)[1]
        edge = {r for r in range(ref.nrows) if sum(layer[r % tsize][0]) == win.xmax + d0}
        assert [j for j, col in enumerate(ref.cols) if not edge.isdisjoint(col)] == left_out
        assert edge.isdisjoint(targets)


TOP_X_G = {1: ["1", "x1", "1-x1"], 2: ["1", "x1*x2", "1-x1-x2"]}


@st.composite
def top_x_cases(draw):
    n = draw(st.integers(1, 2))
    gs = draw(st.sampled_from(TOP_X_G[n]))
    powers = st.tuples(*[st.integers(0, 4 - n)] * n, st.integers(0, gs != "1"))
    terms = draw(st.dictionaries(powers, st.integers(-3, 3).filter(bool), min_size=1, max_size=3))
    fs = " + ".join(
        f"{c}*" + "*".join(f"x{i + 1}^{e}" for i, e in enumerate(pw[:n])) + f"*ginv^{pw[n]}"
        for pw, c in terms.items()
    )
    alpha = draw(st.sampled_from(["1", "1/2", "1/3", "2/3"]))
    return n, fs, gs, alpha, draw(st.integers(0, 1 if n == 1 or gs == "1" else 0))


@settings(max_examples=40, deadline=None)
@given(top_x_cases())
@example((2, "x1^2*x2 + x1*x2^2", "1", "1/3", 1))  # arr(2,1,1)'s degree part
@example((1, "x1^2*ginv + x1^3", "x1", "1/2", 1))  # graded only in part: a g-layer
def test_top_x_degree_cut_keeps_every_estimate(case):
    # on random small f, over 1, a monomial or another g, graded and not,
    # the theorem (top x-degree) holds on the top image built both ways
    n, fs, gs, alpha, r = case
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    win = default_schedule(p, rounds=r + 1)[r]
    for grading in {None, p.grading}:
        check_top_x_cut(p, win, grading)


@pytest.mark.parametrize("fs, gs, alpha", [
    ("ginv", "x1", "1"),  # d0 = 0: f has no x-degree to raise
    ("x1", "x1^2+1", "1/2"),  # the relation raises by deg g = 2 > d0 = 1
    ("x1^2*ginv", "1-x1", "1/3"),  # f'_1 = 2 x1 g^-1 + x1^2 g^-2 reaches d0 = 2
])
def test_top_x_degree_cut_needs_its_hypothesis(fs, gs, alpha):
    # where some other term raises total x-degree as far as f, nothing is
    # left out at the top x-degree, on windows 0-1
    p = instance(fs, gs=gs, alpha=alpha)
    assert not top_x_cut(p) and not p.shifts.top_x
    for win in default_schedule(p, rounds=2):
        for grading in {None, p.grading}:
            check_top_x_cut(p, win, grading)


def test_commuting_needs_a_live_raising_term(monkeypatch):
    # component 0's one t-raising term, -t, rewritten as -(e[-1] - 1) t,
    # vanishes at e[-1] = 1 and raises nothing: the certificate refuses, on
    # a constant f whose brackets with component 0 vanish either way
    real = engine._row_stencils

    def dead_tau(p):
        comps, relation = real(p)
        comp0 = tuple((s, c, var, Q(-1) if s[0] > 0 else r) for s, c, var, r in comps[0])
        return (comp0, *comps[1:]), relation

    p = instance("2", alpha="1/2")
    assert p._brackets_with_0 == ({},) and p.commuting
    monkeypatch.setattr(engine, "_row_stencils", dead_tau)
    p = instance("2", alpha="1/2")
    assert [t for t in p.stencils[0][0] if t[0][0] > 0] == [((1, 0, 0), Q(-1), -1, Q(-1))]
    assert p._brackets_with_0 == ({},) and not p.commuting


def test_top_cokernel_pivots_the_top_t_layer_first(monkeypatch):
    # the image columns reach the eliminator without empty columns, ahead of
    # the unit targets, by entry count and then by descending highest row,
    # and are pivoted in that order
    seen = []
    real = engine.rank_with_extension

    def recording(a, extra, **kwargs):
        seen.append((a, kwargs))
        return real(a, extra, **kwargs)

    monkeypatch.setattr(engine, "rank_with_extension", recording)
    p = instance("x1^2*(1-x1)^3", alpha="1/2")
    assert exponent_test(p).cokernel_dim == 1
    assert seen
    for a, kwargs in seen:
        keys = [(len(col), -max(col)) for col in a.cols]
        assert keys == sorted(keys) and all(a.cols) and kwargs == {"in_order": True}


@pytest.mark.parametrize("fs, n, gs, alpha, graded, commuting", [
    ("x1*x2*(1-x1-x2)^3", 2, "1", "1/4", False, True),  # ungraded, pruned
    ("x1^2", 1, "x1", "1/3", True, True),  # graded, with relations
    ("x1^2+x2^3", 2, "1", "5/6", True, True),  # graded
    ("x1^2*ginv", 1, "1-x1", "1/3", False, False),  # a g-layer: nothing pruned
])
def test_top_image_cut_from_the_complex_is_its_own_assembly(fs, n, gs, alpha, graded, commuting):
    # degree n+1 read from the window complex by position holds the columns
    # that _top_image assembles itself, equal and in the same order, each
    # component column an object of the complex; the cokernel is the same
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    assert (p.grading is not None, p.commuting) == (graded, commuting)
    sh = _shift_analysis(p)
    for win in default_schedule(p, rounds=2):
        cx = _window_complex(p, win)
        own, targets = _top_image(p, win, p.grading)
        cut, cut_targets = _top_image(p, win, p.grading, cx)
        assert (cut.nrows, cut_targets) == (own.nrows, targets)
        assert cut.cols == own.cols
        rels = _relation_columns(p, win, _select(p, win, p.grading).gens, sh.output_window(win),
                                 own.nrows)
        comps = len(own.cols) - len(rels)
        held = {id(col) for col in cx.mat.cols}
        assert all(id(col) in held for col in cut.cols[:comps])
        if not graded:
            assert cut.cols[comps:] == cx.relations
            assert all(a is b for a, b in zip(cut.cols[comps:], cx.relations))
            # component 0 leaves out its top t-layer, and the pruning more
            # exactly where p.commuting certifies it
            assert comps <= cx.mat.ncols - win.layout(n)[1]
            assert (comps < cx.mat.ncols - win.layout(n)[1]) is commuting
        assert _top_cokernel(cut, cut_targets) == _top_cokernel(own, targets)


def test_koszul_assembles_each_window_once(monkeypatch):
    # degrees 0..n and degree n+1 read the one assembly of the whole window;
    # x1^2 over x1 at 1/3, graded and off the weight lattice, assembles
    # nothing, and a graded instance over a g that is not a monomial
    # assembles its window even off the lattice
    calls = []
    real = engine.assemble_phi

    def counting(*args, **kwargs):
        mat = real(*args, **kwargs)
        calls.append(mat.ncols)
        return mat

    monkeypatch.setattr(engine, "assemble_phi", counting)
    for fs, n, gs, alpha, graded, assemblies in [
        ("x1*x2*(1-x1-x2)^3", 2, "1", "1/4", False, 1),
        ("x1^2", 1, "x1", "1/3", True, 0),
        ("x1^2+x2^3", 2, "1", "5/6", True, 1),
        ("x1^2*ginv", 1, "1-x1", "1/3", False, 1),
        ("x1^2+x2^2", 2, "x1+x2", "1/3", True, 1),
    ]:
        p = instance(fs, n=n, gs=gs, alpha=alpha)
        assert (p.grading is not None) is graded
        calls.clear()
        win = default_schedule(p)[0]
        koszul_cohomology(p, win)
        assert calls == [(n + 1) * win.size(n)] * assemblies, fs


def test_koszul_top_matches_cokernel():
    for fs, a in [("x1", "0"), ("x1", "1/2"), ("x1^3", "1/3"), ("x1^2*(1-x1)", "1/2")]:
        p = instance(fs, alpha=a)
        rep = exponent_test(p)
        dims = koszul_cohomology(p, default_schedule(p)[0])
        assert dims[p.n + 1] == rep.cokernel_dim, (fs, a)


def test_koszul_dominance():
    for fs, gs, a in [("x1", "1", "1/2"), ("x1*(1-x1)", "1", "1/3"),
                      ("x1^2*ginv", "x1", "1/5"),
                      ("x1^2*ginv", "1-x1", "1/2"), ("x1^2*ginv", "1-x1", "1/3"),
                      ("x1^3*ginv", "x1^2+1", "1/3"), ("x1^3*ginv", "x1^2+1", "1/2")]:
        p = instance(fs, gs=gs, alpha=a)
        # a vanishing top degree forces every degree to vanish on the window
        dims = koszul_cohomology(p, default_schedule(p)[0])
        assert dims[p.n + 1] != 0 or not any(dims.values()), (fs, gs, a, dims)


def test_koszul_keeps_g_layer():
    # f keeps a g-layer: the components commute only in k[x, 1/g]
    for fs, gs, a, dims in [
        ("x1^2*ginv", "1-x1", "1/2", {0: 0, 1: 0, 2: 1}),
        ("x1^2*ginv", "1-x1", "1/3", {0: 0, 1: 0, 2: 0}),
        ("x1^3*ginv", "x1^2+1", "1/3", {0: 0, 1: 0, 2: 1}),
        ("x1^3*ginv", "x1^2+1", "1/2", {0: 0, 1: 0, 2: 0}),
    ]:
        p = instance(fs, gs=gs, alpha=a)
        assert p.f.max_gpow() > 0
        assert koszul_cohomology(p, default_schedule(p)[0]) == dims, (fs, gs, a)
        assert exponent_test(p).cokernel_dim == dims[2], (fs, gs, a)


def test_koszul_skips_boundaries_without_cycles(monkeypatch):
    # no interior cycle survives in degrees 0 and 1, so their boundary
    # matrices are never eliminated: only the top degree's cokernel call,
    # whose extension is the unit columns of the interior targets, remains
    calls = []
    real = engine.rank_with_extension

    def counting(a, extra, **kwargs):
        calls.append(extra)
        return real(a, extra, **kwargs)

    monkeypatch.setattr(engine, "rank_with_extension", counting)
    p = instance("x1^2*(1-x1)^3", alpha="1/5")
    assert koszul_cohomology(p, default_schedule(p)[0]) == {0: 0, 1: 0, 2: 0}
    (extra,) = calls
    assert extra and all(list(col.values()) == [(1, 1)] for col in extra)


def test_koszul_certifies_boundaries_on_the_cycles_neighbourhood(monkeypatch):
    # degree 2 has interior cycles, and the boundary columns that meet them
    # already span them: the whole boundary matrix is never eliminated
    calls = []
    real = engine.rank_with_extension

    def recording(a, extra, **kwargs):
        calls.append((a, extra))
        return real(a, extra, **kwargs)

    monkeypatch.setattr(engine, "rank_with_extension", recording)
    p = instance("x1*x2*(1-x1-x2)^3", n=2, alpha="1/4")
    win = default_schedule(p)[0]
    assert koszul_cohomology(p, win) == {0: 0, 1: 0, 2: 0, 3: 0}

    # the reference boundary of degree 2 over the full window, slack included;
    # the engine eliminates columns of its projection below the slack tail
    # of each copy
    full = full_window(p, win)
    nm, sets = full.mat.nrows, len(_koszul_bases(2)[2])
    bcols = [col for col in differential(1, full.mat, 2).cols if col]
    bcols += stacked(full.relations, sets, nm) + stacked(full.slack, sets, nm)
    assert len(bcols) == 1302
    stop = min(full.slack[0])
    boundary = {tuple(sorted((r // nm * stop + r % nm, v) for r, v in col.items()
                             if r % nm < stop))
                for col in bcols}
    (near,) = [a for a, _extra in calls if a.nrows == sets * stop]
    assert 0 < near.ncols <= 50
    assert all(tuple(sorted(col.items())) in boundary for col in near.cols)
    assert all(a.ncols < len(bcols) for a, _extra in calls)


@pytest.mark.parametrize("fs, gs, alpha, dims, extras", [
    ("x1^2", "x1", "1", {0: 0, 1: 1, 2: 0}, [1, 1, 0]),
    ("x1^3", "x1", "1/3", {0: 0, 1: 1, 2: 1}, [1, 1, 1]),
    ("x1^2", "x1^2", "1/2", {0: 0, 1: 0, 2: 0}, [1, 0, 0]),  # the bound is not the answer
    ("x1^4", "x1", "1/5", {0: 0, 1: 0, 2: 0}, []),  # off the weight lattice
    ("x1^2*(1-x1)^2", "1", "1/2", {0: 0, 1: 1, 2: 2}, [1, 1, 2]),  # ungraded
    ("x1*x2*(1-x1-x2)", "1", "1", {0: 0, 1: 1, 2: 3, 3: 3}, [1, 1, 3, 3, 3]),  # ungraded
])
def test_koszul_falls_back_when_the_neighbourhood_does_not_certify(
    monkeypatch, fs, gs, alpha, dims, extras
):
    # degree 0 keeps no cycle that the quotient map leaves non-zero, so it
    # eliminates nothing; each degree j >= 1 checks its cycles on the
    # neighbourhood first, and where cycles stay outside the span of the
    # columns that meet them, that count is an upper bound and the whole
    # boundary decides; the top cokernel follows.  x1^4 over x1 at 1/5,
    # graded and off the weight lattice, eliminates nothing at all
    counts = []
    real = engine.rank_with_extension

    def recording(a, extra, **kwargs):
        result = real(a, extra, **kwargs)
        counts.append((a.ncols, result[1]))
        return result

    monkeypatch.setattr(engine, "rank_with_extension", recording)
    n = 2 if "x2" in fs else 1
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    assert (p.grading is not None) is (gs != "1")
    assert koszul_cohomology(p, default_schedule(p)[0]) == dims
    assert [extra for _ncols, extra in counts] == extras
    if len(counts) == 3:  # h1 on the neighbourhood, then on every boundary column, top
        (small, _), (full, h1), _top = counts
        assert small < full and h1 == dims[1]


# the koszul benchmark's shapes, x^w (1 - sum x)^w0 with weights (w0, w1, ...)
# at a non-exponent class and x1^w over x1, rendered here, and two more
KOSZUL_CORPUS = [
    ("x1^3*(1-x1)^2", 1, "1", "1/5"),
    ("x1^3*(1-x1)", 1, "1", "1/4"),
    ("x1*(1-x1)^4", 1, "1", "1/3"),
    ("x1^2*(1-x1)^3", 1, "1", "1/4"),
    ("x1*x2*(1-x1-x2)", 2, "1", "1/4"),
    ("x1^2*x2^2*(1-x1-x2)", 2, "1", "1/3"),
    ("x1*x2^2*(1-x1-x2)^2", 2, "1", "1/5"),
    ("x1*x2*(1-x1-x2)^3", 2, "1", "1/4"),
    ("x1^2", 1, "x1", "1/3"),
    ("x1^3", 1, "x1", "1/4"),
    ("x1^4", 1, "x1", "1/5"),
    ("(1/3)*x1^2*x2+(1/5)*x2^3", 2, "1", "3/7"),
    ("x1^2*ginv", 1, "1-x1", "1/2"),  # clear_g keeps a g-layer
]

# f that keep a g-layer: their brackets survive formally and vanish in k[x, 1/g]
G_LAYERS = [
    ("x1^3*ginv", 1, "x1^2+1", "1/3"),
    ("x1*ginv^3", 1, "1+x1", "1/2"),
    ("x1*x2*ginv", 2, "1-x1-x2", "1/3"),
]


def definition_koszul(p, win):
    """Degrees 0..n+1 of the window's Koszul complex from its definition,
    with no shortcut: tree-walk differentials over the full output window,
    tree-walk relations and unit slack columns on the output rows at
    t-degree >= tmax.  Degree j is the rank of the interior cycles (the
    kernel of d^j at the interior cells, up to the relations) modulo the
    image of d^(j-1), the relations and the slack, in one elimination."""
    sh = _shift_analysis(p)
    out = sh.output_window(win)
    index_in, index = positions(win, p.n), positions(out, p.n)
    nm, dom = len(index), len(index_in)
    interior = list(sh.interior(win).monomials(p.n))
    rel = as_pairs(tree_relations(p, win, index))
    slack = [{i: pair(Q(1))} for m, i in index.items() if m.tdeg >= win.tmax]
    by_deg = _koszul_bases(p.n)
    d = [as_pairs(tree_koszul(p, j, win, index)) for j in range(p.n + 1)]

    dims = {}
    for j in range(p.n + 2):
        copies = len(by_deg[j])
        # the interior cells of K^j, as columns of d^j and as rows of K^j(out)
        cells = [(k * dom + index_in[m], k * nm + index[m])
                 for k in range(copies) for m in interior]
        if j <= p.n:
            up = len(by_deg[j + 1])
            kernel = nullspace(SparseMatrixQ(
                up * nm, [d[j][c] for c, _ in cells] + stacked(rel, up, nm)))
            zvecs = [z for z in ({cells[c][1]: v for c, v in vec.items() if c < len(cells)}
                                 for vec in kernel) if z]
        else:
            zvecs = [{r: pair(Q(1))} for _, r in cells]
        bcols = (d[j - 1] if j else []) + stacked(rel, copies, nm) + stacked(slack, copies, nm)
        dims[j] = rank_with_extension(SparseMatrixQ(copies * nm, bcols), zvecs)[1]
    return dims


@pytest.mark.parametrize("fs, n, gs, alpha, window", [
    ("x1^2", 1, "x1", "1", 0),  # H^1 != 0
    ("x1^2", 1, "x1", "1", 1),
    ("x1^3", 1, "x1", "1/3", 0),  # H^1 != 0
    ("x1^3", 1, "x1", "1/3", 1),
    ("x1^2", 1, "x1^2", "1/2", 0),  # the neighbourhood bound is not the answer
    ("x1^2*(1-x1)", 1, "1", "1/2", 0),
    ("x1^2*(1-x1)", 1, "1", "1", 0),
    ("x1^3*(1-x1)^2", 1, "1", "1/5", 0),
    ("x1*x2*(1-x1-x2)", 2, "1", "1/4", 0),
    ("x1^2+x2^3", 2, "1", "5/6", 0),  # Brieskorn-Pham exponent classes, graded top
    ("x1^3+x2^3", 2, "1", "2/3", 0),
    ("x1*x2*x3", 3, "1", "1", 0),  # an arrangement, non-zero in degrees 1 to 4
] + [  # every localized case of KOSZUL_CORPUS and G_LAYERS, at windows 0 and 1
    (fs, n, gs, alpha, window)
    for fs, n, gs, alpha in KOSZUL_CORPUS + G_LAYERS if gs != "1"
    for window in ((0,) if n == 2 else (0, 1))  # x1*x2*ginv: 30 s at window 1, 2 s at 0
])
def test_koszul_cohomology_matches_the_unit_slack_definition(fs, n, gs, alpha, window):
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    win = default_schedule(p)[window]
    assert koszul_cohomology(p, win) == definition_koszul(p, win)


# (f template, g template, n, alpha); the substitutions below are exact
# changes of basis on the window, so every degree's dimension stays
KOSZUL_METAMORPHIC = [
    ("{x1}*{x2}^2*(1-{x1}-{x2})^2", "1", 2, "1/5"),
    ("{x1}^2", "{x1}", 1, "1"),
]


@pytest.mark.parametrize("ft, gt, n, alpha", KOSZUL_METAMORPHIC)
def test_koszul_cohomology_metamorphic(ft, gt, n, alpha):
    def dims(subst, sign=""):
        names = {f"x{i}": subst.get(f"x{i}", f"x{i}") for i in range(1, n + 1)}
        p = instance(f"{sign}({ft.format(**names)})", n=n, gs=gt.format(**names), alpha=alpha)
        win = default_schedule(p)[0]
        return win, koszul_cohomology(p, win)

    base = dims({})
    assert n == 2 or base[1][1] == 1  # a nonzero H^1 must survive too
    variants = [dims({"x1": "(3*x1)"}), dims({"x1": "(-2*x1)"}), dims({}, sign="-")]
    if n == 2:
        variants += [dims({"x1": "x2", "x2": "x1"}), dims({"x2": "(2*x2)"})]
    for got in variants:
        assert got == base


def test_koszul_rejects_non_commuting_components(monkeypatch):
    # d/dx1 does not commute with multiplication by f - t when f' != 0:
    # component 1 keeps only its terms that do not move t, d/dx1 itself
    real = engine._row_stencils

    def bare_dx1(p):
        comps, relation = real(p)
        return (comps[0], tuple(t for t in comps[1] if t[0][0] == 0)), relation

    monkeypatch.setattr(engine, "_row_stencils", bare_dx1)
    for fs, gs in [("x1^2", "1"), ("x1^2*ginv", "1-x1")]:
        p = instance(fs, gs=gs, alpha="1/2")
        assert not check_row_commutation(p)
        with pytest.raises(ValueError, match="do not commute"):
            koszul_cohomology(p, default_schedule(p)[0])


def test_commutation_with_rational_coefficients(monkeypatch):
    # denominators 3, 5 and 7 in the stencils: the int-scaled forms must
    # still cancel exactly, and still survive once component 1 is broken
    fs = "(1/3)*x1^2*x2+(1/5)*x2^3"
    assert check_row_commutation(instance(fs, n=2, alpha="3/7"))
    real = engine._row_stencils

    def bare_dx1(p):  # as in test_koszul_rejects_non_commuting_components
        comps, relation = real(p)
        return (comps[0], tuple(t for t in comps[1] if t[0][0] == 0)), relation

    monkeypatch.setattr(engine, "_row_stencils", bare_dx1)
    assert not check_row_commutation(instance(fs, n=2, alpha="3/7"))


def test_commutation_falls_back_to_k_x_ginv(monkeypatch):
    # the formal g-layer keeps g * g^-1, so the brackets with component 0
    # survive as written and vanish only after clear_g
    calls = []
    real = engine.clear_g

    def counting(e, g):
        calls.append(e)
        return real(e, g)

    monkeypatch.setattr(engine, "clear_g", counting)
    p = instance("x1^2*ginv", gs="1-x1", alpha="1/3")
    assert all(p._brackets_with_0) and not p.commuting
    calls.clear()  # ProblemInstance normalises f by clear_g too
    assert check_row_commutation(p)
    assert calls


@settings(max_examples=60, deadline=None)
@given(stencil_cases())
def test_certificate_accepts_the_components_of_any_instance(case):
    # random f with g-layers up to ginv^2 over the g of the assembly test:
    # true components always commute, so the certificate never refuses them
    n, fs, gs, alpha, _win = case
    assert check_row_commutation(instance(fs, n=n, gs=gs, alpha=alpha))


@pytest.mark.parametrize("fs, n, gs, alpha", KOSZUL_CORPUS + SWEEP_SHAPES)
def test_top_cokernel_in_order_matches_markowitz(fs, n, gs, alpha):
    # the fixed column order of _top_cokernel and the Markowitz rule, the
    # reference, find the same ranks on the top images of windows 0-2
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    for win in default_schedule(p, rounds=3):
        image, targets = _top_image(p, win, p.grading)
        cols = sorted(filter(None, image.cols), key=lambda col: (len(col), -max(col)))
        a, units = SparseMatrixQ(image.nrows, cols), [{r: (1, 1)} for r in sorted(targets)]
        fixed = rank_with_extension(a, units, in_order=True)
        assert fixed == rank_with_extension(a, units), win
        assert fixed[1] == _top_cokernel(image, targets)


# ---------------------------------------------------------------------------
# The one-pass selection against the per-shift scan it replaced
# ---------------------------------------------------------------------------


def scan_cells(win, n, grading, shift, at=None):
    """The cells of win of weight (top - shift) / scale, as positions of at
    (default win): one divmod per (u, m) and shift, then a sort; the scan
    that the one-pass selection replaced, kept here as its reference."""
    at = at or win
    xrow, tsize = at.layout(n)
    out = []
    for u in win.layout(n)[0]:
        rest = grading.top - shift - sum(a * b for a, b in zip(grading.wx, u))
        for m in range(win.gmax + 1):
            k, r = divmod(rest + grading.wg * m, grading.scale)
            if not r and win.tmin <= k <= win.tmax:
                out.append((k - at.tmin) * tsize + xrow[u] + m)
    return sorted(out)


def k_span(box, u, m):
    """(lo, hi): (k, m, u) lies in a box of engine._fit_box exactly when lo <= k <= hi."""
    if box is None:
        return -math.inf, math.inf
    klo, khi, mlo, mhi, xhi, ulo = box
    if mlo <= m <= mhi and sum(u) <= xhi and (ulo is None or all(map(int.__ge__, u, ulo))):
        return klo, khi
    return 1, 0


def redundant_ks(box, dying, u, m):
    """(lo, hi, z): the pruning hypothesis holds at (k, m, u) exactly when
    lo <= k <= hi or k == z; the group of var 0 comes last in dying."""
    (lo, hi), e, z0 = k_span(box, u, m), (None, m, *u), None
    for var, z, b in dying:
        if var == 0:
            z0 = z if lo <= z <= hi else None
        elif e[var] == z:
            continue
        blo, bhi = k_span(b, u, m)
        lo, hi = max(lo, blo), min(hi, bhi)
    return lo, hi, z0


def scan_unpruned(p, win, at):
    """at less, for each component i >= 1, the cells where the pruning
    hypothesis holds, tested cell by cell by redundant_ks."""
    comps, layer, out = p.stencils[0], win.layer(p.n), list(at)
    tsize = len(layer)
    for i in range(1, p.n + 1):
        groups = {}
        for s, _c, var, r in [t for t in comps[0] if t[0][0] <= 0] + list(comps[i]):
            groups.setdefault((var, r), []).append(s)
        live = [s for (var, r), ss in groups.items() if var < 0 or r.denominator != 1 for s in ss]
        dying = sorted([(var, int(-r), engine._fit_box(win, ss)) for (var, r), ss in groups.items()
                        if var >= 0 and r.denominator == 1], key=lambda d: -d[0])
        box = engine._fit_box(win, live)
        kept = []
        for q in at[i]:
            lo, hi, z = redundant_ks(box, dying, *layer[q % tsize])
            k = win.tmin + q // tsize - 1  # the cell is t a; the span reads a
            if not (lo <= k <= hi or k == z):
                kept.append(q)
        out[i] = kept
    return out


def scan_selection(p, win):
    """(kept, gens, targets) of the graded top image on win, by scan_cells
    per shift and scan_unpruned, component 0 less its top t-layer and, where
    top_x_cut holds, its top x-degree."""
    sh, grading, n = _shift_analysis(p), p.grading, p.n
    top, cut = win.size(n) - win.layout(n)[1], top_x_cut(p)
    at = [scan_cells(win, n, grading, s) for s in grading.shifts]
    at[0] = [q for q in at[0] if q < top and not (cut and at_top_x(win, n, q))]
    kept = scan_unpruned(p, win, at) if p.commuting else at
    inner = scan_cells(sh.interior(win), n, grading, 0, at=sh.output_window(win))
    return kept, scan_cells(win, n, grading, 0), inner


# x^w over x on and off the weight lattice, the Brieskorn-Pham shapes of
# the sweep benchmark, and graded f over monomial g in two variables
SELECTION_CASES = (
    [("x1^2", 1, "x1", a) for a in ("1", "1/2", "1/3")]
    + [("x1^3", 1, "x1", a) for a in ("1/3", "2/3", "1", "1/4")]
    + [("x1^4", 1, "x1", a) for a in ("1/4", "1", "1/2", "1/5")]
    + [case for case in SWEEP_SHAPES if "+" in case[0]]
    + [("x1^2+x2^2", 2, "x1*x2", a) for a in ("1", "1/2", "1/3")]
    + [("x1^3+x2^3", 2, "x1*x2^2", a) for a in ("1/3", "2/3", "1/4")]
)


@pytest.mark.parametrize("fs, n, gs, alpha", SELECTION_CASES)
def test_one_pass_selection_equals_the_per_shift_scan(fs, n, gs, alpha):
    # on windows 0-3 the one pass gives the lists of the per-shift scan and
    # the per-cell hypothesis test, equal and in the same order: the kept
    # cells of every component, the relation generators, the targets, and
    # the blocks of every Koszul subset sum, empty ones included
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    grading = p.grading
    assert grading is not None
    sums = sorted({sum(s) for k in range(n + 2) for s in itertools.combinations(grading.shifts, k)})
    for win in default_schedule(p, rounds=4 if gs == "x1" or gs == "1" else 2):
        sel = _select(p, win, grading)
        assert (sel.kept, sel.gens, sel.targets) == scan_selection(p, win), win
        box = (win.tmin, win.tmax, win.xmax, win.gmax)
        lanes = [(s, box, win, None) for s in sums]
        assert engine._block_cells(win, n, grading, lanes) == [
            scan_cells(win, n, grading, s) for s in sums], win


def test_selection_cases_hold_empty_and_pruned_blocks():
    # the corpus above reaches empty blocks (alpha off the lattice) and
    # blocks the pruning theorem cuts, with and without relations
    empty = pruned = 0
    for fs, n, gs, alpha in SELECTION_CASES:
        p = instance(fs, n=n, gs=gs, alpha=alpha)
        win = default_schedule(p)[1]
        kept, gens, _ = scan_selection(p, win)
        blocks = [scan_cells(win, n, p.grading, s) for s in p.grading.shifts]
        empty += not any(blocks)
        pruned += any(len(k) < len(b) for k, b in zip(kept[1:], blocks[1:]))
    assert empty >= 4 and pruned >= 10


# every slot of the sweep, koszul and localized benchmarks
LOCALIZED_SHAPES = [("x1^2", 1, "x1", "1"), ("x1^3", 1, "x1", "1/3"), ("x1^3", 1, "x1", "2/3"),
                    ("x1^4", 1, "x1", "1/4"), ("x1^4", 1, "x1", "1")]


@pytest.mark.parametrize("fs, n, gs, alpha", SWEEP_SHAPES + KOSZUL_CORPUS + LOCALIZED_SHAPES)
def test_top_cokernel_order_is_the_count_then_highest_row_key(monkeypatch, fs, n, gs, alpha):
    # the two stable sorts of _top_cokernel (descending highest row, then
    # entry count) pass the eliminator the very column objects, in the very
    # order, of one sort by the key (len, -max) on the top images of
    # windows 0-1
    seen = []
    monkeypatch.setattr(engine, "rank_with_extension",
                        lambda a, extra, **kwargs: seen.append(a.cols) or (0, 0))
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    for win in default_schedule(p, rounds=2):
        image, targets = _top_image(p, win, p.grading)
        _top_cokernel(image, targets)
        want = sorted(filter(None, image.cols), key=lambda col: (len(col), -max(col)))
        got = seen.pop()
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want)), win


def test_shift_analysis_runs_once_per_instance(monkeypatch):
    # the schedule, the exponent test and the Koszul query of one instance
    # share one shift analysis
    calls = []
    real = engine._shift_analysis
    monkeypatch.setattr(engine, "_shift_analysis", lambda p: calls.append(p) or real(p))
    for fs, n, gs, alpha in [("x1^2*(1-x1)^3", 1, "1", "1/4"), ("x1^2", 1, "x1", "1/3"),
                             ("x1^2+x2^3", 2, "1", "5/6")]:
        p = instance(fs, n=n, gs=gs, alpha=alpha)
        koszul_cohomology(p, default_schedule(p)[0])
        exponent_test(p)
        assert calls == [p] and p.shifts == real(p)
        calls.clear()


@pytest.mark.parametrize("fs, n, gs, alpha", [c for c in KOSZUL_CORPUS if c[2] == "1"])
def test_koszul_degree_zero_is_zero_for_g_one(monkeypatch, fs, n, gs, alpha):
    # for g = 1, degree 0 is 0 with no differential and no nullspace, as the
    # definition finds it, and every other degree is eliminated as before
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    win = default_schedule(p)[0]
    want = definition_koszul(p, win)
    assert want[0] == 0
    calls = []
    real = engine.nullspace
    monkeypatch.setattr(engine, "nullspace", lambda a: calls.append(a.ncols) or real(a))
    monkeypatch.setattr(engine, "_koszul_differential", lambda j, *args, **kwargs: (
        calls.append(("d", j)) or _koszul_differential(j, *args, **kwargs)))
    by_deg = _koszul_bases(n)
    cx = _window_complex(p, win)
    assert engine._koszul_h(p, 0, cx, by_deg) == 0 and calls == []
    assert koszul_cohomology(p, win) == want
    assert sum(isinstance(c, int) for c in calls) in (0, n)  # degrees 1..n, or none off the lattice


@pytest.mark.parametrize("fs, n, gs, alpha", KOSZUL_CORPUS)
def test_neighbourhood_columns_are_those_of_the_whole_boundary_that_meet_the_rows(
    fs, n, gs, alpha
):
    # the columns of d^(j-1) that _near_boundary builds from the rows alone
    # are, in order, those of the whole d^(j-1) that meet them: for the
    # interior cycles of each degree, and for every interior row of K^j
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    by_deg = _koszul_bases(n)
    cx = _window_complex(p, default_schedule(p)[0])
    nm = cx.mat.nrows
    for j in range(1, n + 1):
        whole = _koszul_differential(j - 1, cx.mat, by_deg).cols
        cycles = engine._interior_cycles(j, cx, by_deg)
        interior = {k * nm + r for k in range(len(by_deg[j])) for r in cx.targets.values()}
        for zrows in (set().union(*cycles), interior):
            want = [col for col in whole if not zrows.isdisjoint(col)]
            assert engine._near_boundary(p, j, cx, by_deg, zrows) == want, (j, len(zrows))
            assert want or not zrows


def test_the_window_path_enumerates_no_monomial(monkeypatch):
    # cells are positions from their selection to assembly, decoded by
    # DegreeWindow.layer: no query builds the monomials of a window, graded
    # (x1^2+x2^3 at 5/6), ungraded or with a g-layer
    def enumerated(*args):
        raise AssertionError("window monomials enumerated")

    monkeypatch.setattr(DegreeWindow, "monomials", enumerated)
    for fs, n, gs, alpha in KOSZUL_CORPUS + [("x1^2+x2^3", 2, "1", "5/6")]:
        p = instance(fs, n=n, gs=gs, alpha=alpha)
        exponent_test(p)
        koszul_cohomology(p, default_schedule(p)[0])
    assert instance("x1^2+x2^3", n=2, alpha="5/6").grading is not None
    assert ("x1^2*ginv", 1, "1-x1", "1/2") in KOSZUL_CORPUS


@pytest.mark.parametrize("fs, n, gs, alpha", KOSZUL_CORPUS + G_LAYERS)
def test_pairwise_certificate_agrees_with_the_probe(monkeypatch, fs, n, gs, alpha):
    # the stencil certificate and the independent tree walk on a small probe
    # window agree that every pair commutes; the brackets with component 0
    # are formally 0 exactly when f keeps no g-layer, and koszul_cohomology
    # runs the certificate once
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    assert check_row_commutation(p)
    assert trees_commute(p, DegreeWindow(-2, 2, 2, 0 if gs == "1" else 2))
    layered = p.f.max_gpow() > 0
    assert all(p._brackets_with_0) is layered and p.commuting is not layered
    calls = []
    real = engine.check_row_commutation

    def counting(q):
        calls.append(q)
        return real(q)

    monkeypatch.setattr(engine, "check_row_commutation", counting)
    dims = koszul_cohomology(p, default_schedule(p)[0])
    assert calls == [p]
    want = dict.fromkeys(range(n + 2), 0)
    if (fs, gs, alpha) in [("x1^2*ginv", "1-x1", "1/2"), ("x1^3*ginv", "x1^2+1", "1/3")]:
        want[n + 1] = 1
    assert dims == want


def test_a_bracket_that_vanishes_only_in_k_x_ginv_is_certified(monkeypatch):
    # x1 x2 / g over g = 1 - x1 - x2: the bracket of components 1 and 2 reads
    # k and survives as written, yet every group of its forms is 0 in
    # k[x, 1/g]; koszul_cohomology accepts it and assembles its window once
    p = instance("x1*x2*ginv", n=2, gs="1-x1-x2", alpha="1/3")
    forms = engine._commutator(*p.stencils[0][1:])
    assert forms and {var for form in forms.values() for var in form} == {-1, 0}
    assert check_row_commutation(p)
    calls = []
    real = engine.assemble_phi

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "assemble_phi", counting)
    assert koszul_cohomology(p, default_schedule(p)[0]) == {0: 0, 1: 0, 2: 0, 3: 0}
    assert len(calls) == 1


def test_koszul_rejects_a_break_between_components_one_and_two(monkeypatch):
    # component 2 gains multiplication by x1, which commutes with f - t but
    # not with component 1: the pruning's certificate (0 against each i)
    # still holds, and only the check over every pair catches the break
    real = engine._row_stencils

    def times_x1(p):
        comps, relation = real(p)
        return (*comps[:2], comps[2] + (((0, 0, 1, 0), Q(1), -1, 0),)), relation

    monkeypatch.setattr(engine, "_row_stencils", times_x1)
    p = instance("x1*x2*(1-x1-x2)", n=2, alpha="1/4")
    assert p.commuting
    assert engine._commutator(*p.stencils[0][1:])
    assert not check_row_commutation(p)
    with pytest.raises(ValueError, match="do not commute"):
        koszul_cohomology(p, default_schedule(p)[0])


def test_a_bracket_that_reads_u_is_rejected(monkeypatch):
    # component 2 gains u1 times the identity: its bracket with d/dx1 in
    # component 1 is u1 x^(u - e1), a form that reads u1 at a shift that
    # lowers x1, which the certificate refuses before any clear_g
    real = engine._row_stencils

    def times_u1(p):
        comps, relation = real(p)
        return (*comps[:2], comps[2] + (((0, 0, 0, 0), Q(1), 2, 0),)), relation

    monkeypatch.setattr(engine, "_row_stencils", times_u1)
    p = instance("x1*x2*(1-x1-x2)", n=2, alpha="1/4")
    forms = engine._commutator(*p.stencils[0][1:])
    assert set(forms[0, 0, -1, 0]) == {2}  # u1, scaled to ints
    assert not check_row_commutation(p)


def rational_commutator(left, right):
    """_commutator's surviving forms, in Q, unscaled."""
    diff = {}
    for (s0, c0, v0, r0), (s1, c1, v1, r1) in itertools.product(left, right):
        a = s0[v1] if v1 >= 0 else 0
        b = s1[v0] if v0 >= 0 else 0
        form = diff.setdefault(tuple(map(sum, zip(s0, s1))), {})
        for v, d in ((v0, c0 * c1 * a), (-1, c0 * c1 * a * r0),
                     (v1, -c0 * c1 * b), (-1, -c0 * c1 * b * r1)):
            form[v] = form.get(v, 0) + d
    forms = {s: {v: d for v, d in form.items() if d} for s, form in diff.items()}
    return {s: form for s, form in forms.items() if form}


def moved_by_thirds(comps):
    """comps with the first term of each component moved: its coefficient
    times 2/3 and its offset plus 1/3."""
    return tuple(tuple((s, c * Q(2, 3), var, r + Q(1, 3)) if k == 0 else (s, c, var, r)
                       for k, (s, c, var, r) in enumerate(comp)) for comp in comps)


def int_terms(stencil):
    """(L, [(shift, L c, var, L c r)]) for L the lcm of the denominators of
    every c and c * r, made by Q products: the int scaling that _commutator
    read before _int_stencil, kept as its reference."""
    scale = math.lcm(*(int(q.denominator) for _s, c, _v, r in stencil for q in (c, c * r)))
    return scale, [(s, int(c * scale), var, int(c * r * scale)) for s, c, var, r in stencil]


@pytest.mark.parametrize("fs, n, gs, alpha", KOSZUL_CORPUS + G_LAYERS)
def test_int_commutator_matches_the_rational_one(fs, n, gs, alpha):
    # the int-scaled forms survive exactly where the rational ones do, each
    # the rational form times the product of the two stencils' L: the ints
    # that the Q-product scaling (int_terms) gives, also for components
    # whose coefficients and offsets are moved by thirds
    comps = instance(fs, n=n, gs=gs, alpha=alpha).stencils[0]
    for left, right in itertools.permutations(comps + moved_by_thirds(comps), 2):
        got, want = engine._commutator(left, right), rational_commutator(left, right)
        scale = int_terms(left)[0] * int_terms(right)[0]
        assert got == {s: {v: int(d * scale) for v, d in f.items()} for s, f in want.items()}


@pytest.mark.parametrize("fs, n, gs, alpha", KOSZUL_CORPUS + G_LAYERS + LOCALIZED_SHAPES)
def test_int_stencils_give_the_rational_coefficients(fs, n, gs, alpha):
    # every component and relation stencil, and the components moved by
    # thirds: _int_stencil's (L, a, b) are int_terms' ints, and the pair
    # that _stencil_columns makes of (a x + b, L) is pair(c * (x + r))
    comps, relation = instance(fs, n=n, gs=gs, alpha=alpha).stencils
    for stencil in comps + (relation,) + moved_by_thirds(comps):
        den, ints = engine._int_stencil(stencil)
        assert (den, ints) == int_terms(stencil)
        assert all(type(a) is int and type(b) is int for _s, a, _v, b in ints)
        for (s, c, var, r), (s_int, a, var_int, b) in zip(stencil, ints):
            assert (s_int, var_int) == (s, var)
            for x in range(-12, 13):
                v, d = a * x + b, math.gcd(a * x + b, den)
                assert (v != 0) == (c * (x + r) != 0)
                assert not v or (v // d, den // d) == pair(c * (x + r))


def rational_columns(stencil, cells, win_in, win, n, stop):
    """_stencil_columns evaluated in Q, entry by entry: each coefficient
    c * (e[var] + r) a Q product made into a pair, and each row found from
    the monomial of the image."""
    xrow, tsize = win.layout(n)
    cols = []
    for q in cells:
        mono = decode(win_in, n, q)
        e = (mono.tdeg, mono.gpow, *mono.xdeg, 1)
        col = {}
        for (dt, dg, *dx), c, var, r in stencil:
            v = c * (e[var] + r)
            if not v:
                continue
            k, m, u = mono.tdeg + dt, mono.gpow + dg, tuple(map(sum, zip(mono.xdeg, dx)))
            if not (win.tmin <= k <= win.tmax and m <= win.gmax and u in xrow):
                col = None
                break
            row = (k - win.tmin) * tsize + xrow[u] + m
            if row < stop:
                col[row] = pair(v)
        cols.append(col)
    return cols


@pytest.mark.parametrize("fs, n, gs, alpha", KOSZUL_CORPUS + G_LAYERS + LOCALIZED_SHAPES)
def test_stencil_columns_equal_the_rational_evaluation(fs, n, gs, alpha):
    # on windows 0-1 every component and relation column, and those of the
    # components moved by thirds, equal their evaluation in Q: over the
    # output window cut at the slack tail, and over the window itself, which
    # some images leave (None)
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    comps, relation = p.stencils
    left = 0
    for win in default_schedule(p, rounds=2):
        win_out, cells = p.shifts.output_window(win), range(win.size(n))
        for out, stop in ((win_out, engine._slack_start(win, win_out, n)), (win, None)):
            for stencil in comps + (relation,) + moved_by_thirds(comps):
                got = engine._stencil_columns(stencil, cells, win, out, n, stop)
                assert got == rational_columns(stencil, cells, win, out, n, stop or len(cells))
                left += got.count(None)
    assert left


def test_each_pair_of_components_is_certified_once(monkeypatch):
    # commuting and check_row_commutation share the brackets with component
    # 0, and exponent_test never pays for the pair of components 1 and 2
    calls = []
    real = engine._commutator

    def counting(left, right):
        calls.append((left, right))
        return real(left, right)

    monkeypatch.setattr(engine, "_commutator", counting)
    p = instance("x1*x2*(1-x1-x2)^3", n=2, alpha="1/4")
    comps = p.stencils[0]
    exponent_test(p)
    assert calls == [(comps[0], comps[1]), (comps[0], comps[2])]
    koszul_cohomology(p, default_schedule(p)[0])
    assert calls == [(comps[0], comps[1]), (comps[0], comps[2]), (comps[1], comps[2])]


def test_determinism():
    p = instance("x1^2*(1-x1)", alpha="1/2")
    r1 = exponent_test(p)
    r2 = exponent_test(p)
    assert r1.to_dict() == r2.to_dict()


# ---------------------------------------------------------------------------
# The graded path: quasi-homogeneous (f, g) build only the top weight block
# ---------------------------------------------------------------------------


def full_window_blocks(p, win, grading):
    """(cokernel of the full window's block of weight alpha - sum(w_i), sum of
    the cokernels of all its other blocks), with weights read from grading.

    One elimination of the whole window: its full image (every component
    column, the relations and the slack, over every output row), then the
    top block's targets, then every other target.  Every image column must
    lie in the rows of a single weight."""
    sh = _shift_analysis(p)
    full = full_window(p, win)
    weights = [weight(grading, m) for m in sh.output_window(win).monomials(p.n)]
    image = full.mat.cols + full.relations + full.slack
    assert all(len({weights[r] for r in col}) <= 1 for col in image)
    top = p.alpha * grading.scale - sum(grading.wx)
    targets = full.targets
    star = [{r: pair(Q(1))} for r in targets if weights[r] == top]
    rest = [{r: pair(Q(1))} for r in targets if weights[r] != top]
    elim = _Eliminator(image + star + rest)
    elim.eliminate(range(len(image)))
    top_coker = elim.eliminate(range(len(image), len(image) + len(star)))
    return top_coker, elim.eliminate(range(len(image) + len(star), len(elim.col_rows)))


GRADED = (
    [(f"x1^{w}", 1, "x1", f"{j}/{w}") for w in (2, 3, 4) for j in range(1, w + 1)]
    + [(f"x1^{a}+x2^{b}", 2, "1", str(alpha))
       for a in range(2, 6) for b in range(a, 6)
       for alpha in sorted({Q(1, a) + Q(1, b), Q(1, math.lcm(a, b))})]
    + [("x1^5+x2^5", 2, "1", "3/5"),
       ("x1^2*x2+x2^3", 2, "1", "2/3"), ("x1^2*x2+x2^3", 2, "1", "1"),  # D4
       ("x1^3+x2^4", 2, "1", "7/12"), ("x1^3+x2^4", 2, "1", "1/2"),  # E6
       ("x1^2+x2^2+x3^3", 3, "1", "4/3"),
       ("x1^2+x2^2", 2, "x1+x2", "1"),
       ("x1^3*ginv^2", 1, "x1", "1"),
       ("x1^2+x1^3*x2", 2, "1", "1"),  # weights 1/2 and -1/2
       # the benchmark's variants: signs on f, g and the x_i, and x_i -> 2 x_i
       ("-((-2*x1)^2+(2*x2)^3)", 2, "1", "5/6"),
       ("-((-2*x1)^3+(2*x2)^4)", 2, "1", "5/12"),
       ("-((-2*x1)^4)", 1, "-((-2*x1))", "1/4"),
       ("(2*x1)^3", 1, "-((2*x1))", "2/3")]
)


@pytest.mark.parametrize("fs, n, gs, alpha", GRADED)
def test_graded_windows_equal_the_full_windows(fs, n, gs, alpha):
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    grading = p.grading
    assert grading is not None
    for win in default_schedule(p, rounds=4):
        graded = _top_cokernel(*_top_image(p, win, grading))
        assert full_window_blocks(p, win, grading) == (graded, 0), win


def product_grading(p):
    """(Euler identity holds, every stencil term moves the weight by its
    component's shift, the grading those checks certify), with the identity
    summed through RingElement products as _certify_grading summed it
    before its one dict; None when the weights are not unique."""
    found = quasi_weights(p.f, p.g)
    if found is None:
        return None
    w, delta = found
    euler = RingElement.zero(p.n)
    for i, (wi, df) in enumerate(zip(w, p.derivatives), start=1):
        euler = euler + (RingElement.var(p.n, i) * df).scale(wi)
    scale = math.lcm(*(int(q.denominator) for q in (*w, delta, p.alpha)))
    wx, wg = tuple(int(wi * scale) for wi in w), int(delta * scale)
    shifts = (scale, *(-a for a in wx))
    comps, relation = p.stencils
    moves = all(scale * dt - wg * dg + sum(map(math.prod, zip(wx, dx))) == shift
                for stencil, shift in zip((*comps, relation), (*shifts, 0))
                for (dt, dg, *dx), *_ in stencil)
    top = int((p.alpha - sum(w)) * scale)
    return euler == p.f, moves, engine._Grading(scale, wx, wg, shifts, top)


@pytest.mark.parametrize("fs, n, gs, alpha", sorted(set(
    GRADED + SELECTION_CASES + SWEEP_SHAPES + KOSZUL_CORPUS + G_LAYERS + LOCALIZED_SHAPES)))
def test_euler_certificate_equals_the_sum_of_products(fs, n, gs, alpha):
    # the termwise Euler sum of _certify_grading certifies exactly what the
    # sum of RingElement products does, on every instance of the corpora
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    found = product_grading(p)
    if found is None:
        assert p.grading is None
        return
    identity, moves, grading = found
    assert p.grading == (grading if identity and moves else None)


def test_euler_identity_is_checked_as_formal_elements():
    # x1^2 g^-1 over g = x1 + x2 has the unique weights ((1, 1), 1), and
    # every stencil term moves the weight as it should, but sum(x_i f'_i) =
    # x1^2 (x1 + x2) g^-2 is not x1^2 g^-1 as a formal element: no grading
    p = instance("x1^2*ginv", n=2, gs="x1+x2", alpha="1/2")
    assert quasi_weights(p.f, p.g) == ((Q(1), Q(1)), Q(1))
    identity, moves, _grading = product_grading(p)
    assert not identity and moves
    assert p.grading is None


# (f, n, g, alpha, closed-form cokernel: the x^w/x rule or Brieskorn-Pham)
OFF_LATTICE = (
    [pytest.param(f"x1^{w}", 1, "x1", f"1/{w + 1}", fibre_count((0, w), Q(1, w + 1)),
                  id=str(w)) for w in (2, 3, 4)]
    + [pytest.param(f"x1^{a}+x2^{b}", 2, "1", alpha, brieskorn_pham_count((a, b), Q(alpha)),
                    id=f"x1^{a}+x2^{b}@{alpha}")
       for a, b, alpha in ((2, 3, "1/5"), (3, 4, "1/5"), (5, 5, "1/3"))]
)


@pytest.mark.parametrize("fs, n, gs, alpha, closed", OFF_LATTICE)
def test_classes_off_the_weight_lattice_vanish(monkeypatch, fs, n, gs, alpha, closed):
    # alpha - sum(w_i) is no cell's weight: the graded query builds an empty
    # top block and eliminates nothing, every other block being one the
    # theorem sends to 0
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    grading = p.grading
    assert grading is not None
    assembled, ranks = [], []
    real_assemble, real_rank = engine.assemble_phi, engine.rank_with_extension

    def recording(*args, **kwargs):
        assembled.append(real_assemble(*args, **kwargs))
        return assembled[-1]

    def empty_only(a, extra, **kwargs):
        assert a.nnz() == 0 and not any(extra)
        ranks.append(a.ncols)
        return real_rank(a, extra, **kwargs)

    monkeypatch.setattr(engine, "assemble_phi", recording)
    monkeypatch.setattr(engine, "rank_with_extension", empty_only)
    rep = exponent_test(p)
    assert [m.ncols for m in assembled] == ranks == [0] * len(rep.windows_used)
    assert closed == 0 and set(rep.estimates) == {0} and rep.verdict is Verdict.NOT_EXPONENT
    # the reference: one elimination of each full window, split by weight
    for win in default_schedule(p, rounds=4):
        assert full_window_blocks(p, win, grading) == (0, 0), win


@pytest.mark.parametrize("fs, n, gs", [
    ("x1^2*(1-x1)", 1, "1"),  # not quasi-homogeneous
    ("x1^2*ginv", 1, "1-x1"),  # g not homogeneous
    ("x1^2*x2", 2, "1"),  # weights underdetermined: 2 w1 + w2 = 1
])
def test_uncertified_instances_take_the_full_window(monkeypatch, fs, n, gs):
    # no grading selects the cells that reach assembly: component 0 (never
    # pruned) has a column at every cell of the window below its top t-layer,
    # less its top x-degree where the theorem (top x-degree) holds (not for
    # the g-layer, whose f'_1 reaches f's degree)
    p = instance(fs, n=n, gs=gs, alpha="1/2")
    assert p.grading is None and top_x_cut(p) is (gs == "1")
    calls = []
    real = engine.assemble_phi

    def recording(*args, **kwargs):
        mat = real(*args, **kwargs)
        calls.append((args[3], mat.ncols))
        return mat

    monkeypatch.setattr(engine, "assemble_phi", recording)
    rep = exponent_test(p, rounds=2)
    assert [list(cells[0]) for cells, _ in calls] == [
        [q for q in range(w.size(n) - w.layout(n)[1])
         if not (top_x_cut(p) and at_top_x(w, n, q))] for w in rep.windows_used]
    assert all(ncols >= w.size(n) for (_, ncols), w in zip(calls, rep.windows_used))


def test_graded_path_keeps_the_late_class():
    # x^2 over k[x, 1/x] at class 1: the estimates 0, 0, 1, 1 survive grading
    p = instance("x1^2", gs="x1", alpha="1")
    assert p.grading is not None
    rep = exponent_test(p)
    assert rep.estimates == [0, 0, 1, 1] and rep.verdict is Verdict.EXPONENT


# graded instances and the denominator D of their weight lattice (1/D)Z, on
# which alpha must lie for a block to have a cell: x1^a+x2^b, x1^w over x1
# and over 1, monomial g of other degrees and in two variables, rational
# coefficients, n = 3
KOSZUL_BLOCKS = (
    [(f"x1^{a}+x2^{b}", 2, "1", math.lcm(a, b)) for a in range(2, 6) for b in range(a, 7)]
    + [(f"x1^{w}", 1, g, w) for w in range(1, 6) for g in ("x1", "1")]
    + [("x1^2", 1, "x1^3", 2), ("x1^3", 1, "x1^2", 3), ("x1^2+x2^2", 2, "x1", 2),
       ("(1/3)*x1^2*x2+(1/5)*x2^3", 2, "1", 3), ("x1^2*x2+x2^3", 2, "1", 3),
       ("x1^4+x2^4+x1^2*x2^2", 2, "1", 4), ("x1^2+x2^2+x3^2", 3, "1", 2),
       ("x1^2+x2^2", 2, "x1*x2", 2), ("x1^3+x2^3", 2, "x1*x2^2", 3)]
)


def test_graded_koszul_block_equals_the_whole_window(monkeypatch):
    # at every class j/q (q <= 7) off the weight lattice, every block of
    # every copy is empty: the graded query is 0 in every degree with
    # nothing assembled, and so is the same query with its grading taken
    # away, on the whole window; for the monomial g in two variables at one
    # class on window 1 too
    assembled = []
    real = engine.assemble_phi

    def counting(*args, **kwargs):
        assembled.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "assemble_phi", counting)
    cases = 0
    for fs, n, gs, den in KOSZUL_BLOCKS:
        for alpha in sorted({Q(j, q) for q in range(2, 8) for j in range(1, q)}):
            if (alpha * den).denominator == 1:
                continue
            windows = (0, 1) if "*" in gs and alpha in (Q(1, 3), Q(1, 2)) else (0,)
            for window in windows:
                p = instance(fs, n=n, gs=gs, alpha=alpha)
                assert p.grading is not None
                win = default_schedule(p)[window]
                assembled.clear()
                assert koszul_cohomology(p, win) == dict.fromkeys(range(n + 2), 0)
                assert not assembled, (fs, gs, alpha)
                whole = instance(fs, n=n, gs=gs, alpha=alpha)
                vars(whole)["grading"] = None  # the cached property, taken away
                assert koszul_cohomology(whole, win) == dict.fromkeys(range(n + 2), 0)
                assert assembled, (fs, gs, alpha)
                cases += 1
    assert cases == 459


@pytest.mark.parametrize("fs, n, gs, alpha", [
    ("x1^4", 1, "x1", "1/5"),
    ("x1^2+x2^3", 2, "1", "1/5"),
    ("x1^2+x2^2", 2, "x1*x2", "1/3"),
])
def test_koszul_off_the_weight_lattice_builds_nothing(monkeypatch, fs, n, gs, alpha):
    # every block is empty: every degree is 0 with nothing assembled or
    # eliminated, as the whole window gives
    p = instance(fs, n=n, gs=gs, alpha=alpha)
    win = default_schedule(p)[0]
    whole = instance(fs, n=n, gs=gs, alpha=alpha)
    vars(whole)["grading"] = None
    want = koszul_cohomology(whole, win)
    assert want == dict.fromkeys(range(n + 2), 0)

    def refused(*args, **kwargs):
        raise AssertionError("nothing is built off the weight lattice")

    for name in ("assemble_phi", "rank_with_extension", "nullspace"):
        monkeypatch.setattr(engine, name, refused)
    assert koszul_cohomology(p, win) == want
