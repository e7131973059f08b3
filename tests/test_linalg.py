from fractions import Fraction
from math import gcd
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from gmexp import linalg
from gmexp.engine import ProblemInstance, default_schedule, exponent_test, koszul_cohomology
from gmexp.linalg import SparseMatrixQ, nullspace, quotient, quotient_map, rank_with_extension
from gmexp.parser import parse_poly
from gmexp.rational import Q, pair


def rank(m):
    return rank_with_extension(m, [])[0]


def dense_rank(rows):
    """Reference rank by plain fraction Gaussian elimination."""
    rows = [[Fraction(int(v.numerator), int(v.denominator)) for v in row] for row in rows]
    rk = 0
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rk += 1
    return rk


def from_dense(rows):
    ncols = len(rows[0]) if rows else 0
    cols = [{i: pair(Q(row[j])) for i, row in enumerate(rows) if row[j] != 0}
            for j in range(ncols)]
    return SparseMatrixQ(len(rows), cols)


def is_reduced_pair(v):
    """A reduced (num, den) pair of Python ints with num != 0 < den."""
    n, d = v
    return type(n) is int and type(d) is int and n != 0 and d > 0 and gcd(n, d) == 1


def transpose(m):
    """The transpose, built entry by entry: the oracle of the rank test."""
    cols = [{} for _ in range(m.nrows)]
    for c, col in enumerate(m.cols):
        for r, v in col.items():
            cols[r][c] = v
    return SparseMatrixQ(m.ncols, cols)


matrices = st.lists(
    st.lists(st.builds(Q, st.integers(-5, 5), st.integers(1, 3)), min_size=1, max_size=6),
    min_size=1,
    max_size=6,
).filter(lambda rows: len({len(r) for r in rows}) == 1)

# entries far past machine words: the eliminator's integer pairs must stay exact
wide_entries = st.builds(Q, st.integers(-10**20, 10**20), st.integers(1, 10**6))
wide_matrices = st.integers(1, 6).flatmap(
    lambda w: st.lists(
        st.lists(st.one_of(st.just(Q(0)), wide_entries), min_size=w, max_size=w),
        min_size=1,
        max_size=6,
    )
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(matrices, wide_matrices))
def test_rank_matches_dense_oracle(rows):
    m = from_dense(rows)
    assert rank(m) == dense_rank(rows)


@settings(max_examples=100, deadline=None)
@given(matrices)
def test_rank_transpose_invariant(rows):
    m = from_dense(rows)
    assert rank(m) == rank(transpose(m))


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices, wide_matrices))
def test_nullspace_rank_nullity(rows):
    m = from_dense(rows)
    basis = nullspace(m)
    assert len(basis) == m.ncols - rank(m)
    # each vector is 1 at its own free column, listed first and in increasing
    # order, and 0 at every other vector's free column
    free = [next(iter(vec)) for vec in basis]
    assert free == sorted(free)
    for c, vec in zip(free, basis):
        assert vec[c] == (1, 1) and not set(vec) & set(free) - {c}
    for vec in basis:
        assert all(is_reduced_pair(v) for v in vec.values())
        for r in range(m.nrows):
            assert sum((Q(*m.cols[c].get(r, (0, 1))) * Q(*v) for c, v in vec.items()), Q(0)) == 0


def back_substituted_nullspace(a):
    """nullspace as it was before its early return: the back-substitution
    runs whatever the pivot count, the reference for the full-rank case."""
    elim = linalg._Eliminator(a.cols)
    elim.eliminate(range(a.ncols))
    solved = {}
    for r, pc in reversed(elim.pivots):
        row = elim.rows[r]
        coord = {}
        for c, v in row.items():
            if c == pc:
                continue
            fn, fd = linalg._ratio(v, row[pc])
            for f, (xn, xd) in solved.get(c, {c: (1, 1)}).items():
                tn, td = fn * xn, fd * xd
                cn, cd = coord.get(f, (0, 1))
                n, d = cn * td + tn * cd, cd * td
                if n == 0:
                    del coord[f]
                else:
                    g = gcd(n, d)
                    coord[f] = (n // g, d // g)
        solved[pc] = coord
    basis = {c: {c: (1, 1)} for c in range(a.ncols) if c not in solved}
    for _r, pc in elim.pivots:
        for f, v in solved[pc].items():
            basis[f][pc] = v
    return list(basis.values())


@settings(max_examples=200, deadline=None)
@given(st.one_of(matrices, wide_matrices, matrices.map(lambda rows: rows + [
    [Q(int(i == j)) for j in range(len(rows[0]))] for i in range(len(rows[0]))])))
def test_nullspace_returns_early_when_every_column_pivots(rows):
    # the same basis as the back-substitution, which runs only when some
    # column is free (the third strategy stacks an identity: full column rank)
    m = from_dense(rows)
    ratios = []
    real = linalg._ratio
    with mock.patch.object(linalg, "_ratio", lambda a, p: ratios.append(1) or real(a, p)):
        basis = nullspace(m)
    assert basis == back_substituted_nullspace(m)
    if rank(m) == m.ncols:
        assert basis == [] and ratios == []


def column_strategy(nrows):
    """Up to five columns over nrows rows, about half their entries 0."""
    entry = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-4, 4), st.integers(1, 3)))
    return st.lists(st.lists(entry, min_size=nrows, max_size=nrows), max_size=5).map(
        lambda cols: [{r: pair(v) for r, v in enumerate(col) if v} for col in cols])


quotient_cases = st.integers(1, 6).flatmap(
    lambda nrows: st.tuples(st.just(nrows), column_strategy(nrows), column_strategy(nrows)))


def in_span(nrows, cols, vec):
    """Whether vec lies in the span of cols."""
    return rank_with_extension(SparseMatrixQ(nrows, cols), [vec])[1] == 0


@settings(max_examples=300, deadline=None)
@given(quotient_cases)
@example((3, [{0: (1, 1), 1: (-1, 1)}, {1: (1, 1), 2: (-1, 1)}], [{2: (1, 1)}, {0: (2, 1)}]))
def test_quotient_map_quotients_the_span(case):
    nrows, rel, d = case
    pi = quotient_map(rel)
    # eliminated rows map to free rows only, one per independent relation
    assert len(pi) == rank(SparseMatrixQ(nrows, rel))
    assert all(set(img).isdisjoint(pi) for img in pi.values())
    assert all(is_reduced_pair(v) for img in pi.values() for v in img.values())
    # pi vanishes exactly on span(R)
    assert all(quotient(col, pi, nrows) == {} for col in rel)
    pd = [quotient(col, pi, nrows) for col in d]
    assert all(is_reduced_pair(v) for col in pd for v in col.values())
    assert [not col for col in pd] == [in_span(nrows, rel, col) for col in d]
    # rank(pi D) = rank([R | D]) - rank(R)
    assert rank(SparseMatrixQ(nrows, pd)) == rank_with_extension(SparseMatrixQ(nrows, rel), d)[1]
    # nullspace(pi D) spans {z : D z in span R}
    basis = nullspace(SparseMatrixQ(nrows, pd))
    assert len(basis) == len(d) - rank(SparseMatrixQ(nrows, pd))
    for z in basis:
        dz = {}
        for c, v in z.items():
            for r, x in d[c].items():
                dz[r] = dz.get(r, Q(0)) + Q(*v) * Q(*x)
        assert in_span(nrows, rel, {r: pair(v) for r, v in dz.items() if v})
    # over stacked copies of the rows, pi acts on each copy alone
    for col in d:
        stacked = {**col, **{nrows + r: v for r, v in col.items()}}
        alone = quotient(col, pi, nrows)
        assert quotient(stacked, pi, nrows) == {**alone, **{nrows + r: v for r, v in alone.items()}}


class _RecordingEliminator(linalg._Eliminator):
    """Keeps every eliminator made (in made), the columns it was given, and
    for each class it eliminates the columns, the policy, where its pivots
    start in self.pivots, and a copy of the rows and col_rows after it.  In
    order, linalg's heapq is unbound for the call: the heap is neither built
    nor read."""

    made: list = []

    def __init__(self, cols):
        super().__init__(cols)
        self.given = [dict(col) for col in cols]
        self.classes = []
        type(self).made.append(self)

    def eliminate(self, cols, *, in_order=False):
        start = len(self.pivots)
        with mock.patch.object(linalg, "heapq", None if in_order else linalg.heapq):
            found = super().eliminate(cols, in_order=in_order)
        assert found == len(self.pivots) - start
        after = ({r: dict(row) for r, row in self.rows.items()}, [set(s) for s in self.col_rows])
        self.classes.append((cols, in_order, start, after))
        return found


def replay(elim):
    """Replays elim's pivots, class by class, on a plain elimination in Q from
    the columns it was given, asserting that each pivot is the brute-force
    argmin computed from the live rows (the rows less the retired pivot
    rows): the column, with the Markowitz heap, by (active count, index); in
    order, the first column of the class, in the given order, with an active
    row; then the row by (row nnz, numerator bit length, index).  After the
    last pivot of a class, that no column of it has an active row; and that
    the eliminator's rows then hold the reference's values as reduced (num,
    den) pairs with num != 0 and den > 0, and its col_rows list exactly the
    live rows of each column.  Returns the steps: every pivot, and the empty
    pick that ends each class."""
    rows = {}
    for c, col in enumerate(elim.given):
        for r, v in col.items():
            rows.setdefault(r, {})[c] = Q(*v)
    live = set(rows)
    col_rows = [{r for r in rows if c in rows[r]} for c in range(len(elim.given))]
    steps = 0
    ends = [start for _cols, _order, start, _after in elim.classes[1:]] + [len(elim.pivots)]
    for (cols, in_order, start, (got_rows, got_col_rows)), end in zip(elim.classes, ends):
        for pick in elim.pivots[start:end] + [None]:
            steps += 1
            active = [c for c in cols if col_rows[c]]
            want = None
            if active:
                c = active[0] if in_order else min(active, key=lambda c: (len(col_rows[c]), c))
                r = min(col_rows[c],
                        key=lambda rr: (len(rows[rr]), rows[rr][c].numerator.bit_length(), rr))
                want = (r, c)
            assert pick == want
            if pick is None:
                break
            pr, pc = pick
            live.discard(pr)
            for c in rows[pr]:
                col_rows[c].discard(pr)
            for r in list(col_rows[pc]):
                f = rows[r][pc] / rows[pr][pc]
                for c, v in rows[pr].items():
                    x = rows[r].get(c, 0) - f * v
                    if x:
                        rows[r][c] = x
                        col_rows[c].add(r)
                    else:
                        rows[r].pop(c, None)
                        col_rows[c].discard(r)
        for row in got_rows.values():
            assert all(is_reduced_pair(v) for v in row.values())
        assert {r: {c: Q(*v) for c, v in row.items()} for r, row in got_rows.items()} == rows
        for c, got in enumerate(got_col_rows):
            assert got == col_rows[c] == {r for r in live if c in rows[r]}
    return steps


def sparse_matrices(nonzero):
    """Matrices of up to 9 x 9 entries, two thirds of them 0, the rest drawn
    from nonzero, with up to 4 extension columns from nonzero."""
    entries = st.one_of(st.just(Q(0)), st.just(Q(0)), nonzero)
    rows = st.integers(1, 9).flatmap(
        lambda w: st.lists(st.lists(entries, min_size=w, max_size=w), min_size=1, max_size=9)
    )
    return st.tuples(rows, st.lists(st.dictionaries(st.integers(0, 8), nonzero, max_size=4),
                                    max_size=4))


nonzero_entries = st.builds(Q, st.integers(-5, 5).filter(bool), st.integers(1, 3))
# denominators 1 only: every row update takes the eliminator's int branch
integer_entries = st.builds(Q, st.integers(-5, 5).filter(bool))


# 400 examples: about 200 from each strategy, as the fractional one had alone
@settings(max_examples=400, deadline=None)
@given(st.one_of(sparse_matrices(nonzero_entries), sparse_matrices(integer_entries)))
# two fills raise column 2's count above every queued entry for it; the
# queue must take the raised count, or column 2 is never pivoted
@example(
    ([[Q(4), 0, 0], [0, -1, -3], [-3, 1, 0], [Q(-5, 3), 1, Q(-4, 3)],
      [Q(-4, 3), -1, 0], [Q(-5, 3), 0, -5], [Q(-5, 2), 0, -2]], []),
)
# all ints: entries that cancel to 0 and fill-in, both on the int branch
@example(([[Q(2), Q(1), 0], [Q(4), Q(2), Q(3)], [0, Q(-1), Q(1)], [Q(1), 0, Q(1)]],
          [{0: Q(1), 3: Q(-2)}]))
def test_pivot_order_is_brute_force_argmin(case):
    rows, extra = case
    m = from_dense(rows)
    extra = [{r: pair(v) for r, v in col.items() if r < m.nrows} for col in extra]
    augmented = [list(row) + [Q(*col[i]) if i in col else 0 for col in extra]
                 for i, row in enumerate(rows)]
    rk = dense_rank(rows)
    made = _RecordingEliminator.made
    with mock.patch.object(linalg, "_Eliminator", _RecordingEliminator):
        for in_order in (False, True):
            made.clear()
            assert rank_with_extension(m, [], in_order=in_order)[0] == rk
            # every pivot, then the empty pick of A's columns and of the
            # empty extension
            assert [replay(elim) for elim in made] == [rk + 2]
            assert [order for elim in made for _c, order, _s, _a in elim.classes] == [in_order] * 2
            # second class after the first
            base, more = rank_with_extension(m, extra, in_order=in_order)
            assert (base, more) == (rk, dense_rank(augmented) - rk)
            assert replay(made[-1]) == base + more + 2
        made.clear()
        assert len(nullspace(m)) == m.ncols - rk
        assert [replay(elim) for elim in made] == [rk + 1]


def test_pivot_order_is_brute_force_argmin_on_real_windows(monkeypatch):
    # window matrices fill in far more than the small random matrices above,
    # so the heap sees many stale entries per column between pivots; every
    # elimination of the queries runs under one policy, then the other
    recorded = _RecordingEliminator.eliminate

    def forced(self, cols, **_kw):  # the loop's policy, whatever the caller asks
        return recorded(self, cols, in_order=in_order)

    monkeypatch.setattr(_RecordingEliminator, "eliminate", forced)
    p = ProblemInstance(n=1, f=parse_poly("x1^2*(1-x1)^2", 1), g=parse_poly("1", 1), alpha="1/2")
    made = _RecordingEliminator.made
    for in_order in (False, True):
        made.clear()
        with mock.patch.object(linalg, "_Eliminator", _RecordingEliminator):
            rep = exponent_test(p)  # every window of the default schedule it reaches
            assert (rep.cokernel_dim, list(rep.estimates)) == (2, [2, 2])
            assert koszul_cohomology(p, default_schedule(p)[0]) == {0: 0, 1: 1, 2: 2}
        assert sum(replay(elim) for elim in made) > 300, in_order


def test_eliminator_holds_only_the_rows_its_columns_touch():
    # a block of a large window: two entries among 10^5 rows
    elim = linalg._Eliminator(SparseMatrixQ(10**5, [{3: pair(Q(1))}, {99_999: pair(Q(2))}]).cols)
    assert elim.eliminate(range(2)) == 2
    assert len(elim.rows) == 2


def test_rank_with_extension_orders_pivots():
    # extension columns must not steal pivots from the base matrix
    a = from_dense([[1], [1]])
    base, extra = rank_with_extension(a, [{0: pair(Q(1))}, {1: pair(Q(1))}])
    assert (base, extra) == (1, 1)


def cokernel_on(m, targets):
    """dim of span{e_r : r in targets} modulo the column space of m."""
    return rank_with_extension(m, [{r: pair(Q(1))} for r in targets])[1]


def test_cokernel_examples():
    # zero map: everything survives
    z = SparseMatrixQ(3, [{}, {}])
    assert cokernel_on(z, [0, 1, 2]) == 3
    # identity: nothing survives
    i3 = from_dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert cokernel_on(i3, [0, 1, 2]) == 0
    # rank-1 projection, target the dead row
    m = from_dense([[1, 0], [0, 0]])
    assert cokernel_on(m, [1]) == 1
    assert cokernel_on(m, [0]) == 0


def test_dump_triplets_roundtrip():
    m = from_dense([[Q(1, 2), 0], [0, Q(-3)]])
    text = m.dump_triplets()
    lines = text.splitlines()
    assert lines[0] == "2 2"
    assert "0 0 1/2" in lines and "1 1 -3" in lines


def test_dump_triplets_prints_values_as_q_does():
    values = [Q(1), Q(-1), Q(1, 2), Q(-7, 3), Q(10**20, 3), Q(-10**20)]
    m = from_dense([values])
    assert m.dump_triplets().splitlines()[1:] == [f"0 {c} {v}" for c, v in enumerate(values)]


def test_determinism():
    rows = [[Q(1), Q(2), Q(0)], [Q(2), Q(4), Q(1)], [Q(0), Q(1), Q(1)]]
    m = from_dense(rows)
    assert rank(m) == rank(from_dense(rows)) == 3
    singular = [[Q(1), Q(2), Q(0)], [Q(2), Q(4), Q(1)], [Q(3), Q(6), Q(1)]]
    assert nullspace(from_dense(singular)) == nullspace(from_dense(singular)) != []
