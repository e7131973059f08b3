from fractions import Fraction
from math import gcd
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from gmexp import linalg
from gmexp.engine import ProblemInstance, default_schedule, exponent_test, koszul_cohomology
from gmexp.linalg import SparseMatrixQ, nullspace, rank_with_extension
from gmexp.parser import parse_poly
from gmexp.rational import Q


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
    cols = [{i: Q(row[j]) for i, row in enumerate(rows) if row[j] != 0} for j in range(ncols)]
    return SparseMatrixQ(len(rows), cols)


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
        assert vec[c] == 1 and not set(vec) & set(free) - {c}
    for vec in basis:
        assert all(type(v) is Q for v in vec.values())
        for r in range(m.nrows):
            assert sum((m.cols[c].get(r, 0) * v for c, v in vec.items()), Q(0)) == 0


class _CheckedEliminator(linalg._Eliminator):
    """Asserts at every step that the pivot equals a brute-force argmin
    computed from the live rows (the keys of rows less the retired pivot
    rows): column (active count, index), then row (row nnz, numerator bit
    length, index), and that every stored entry is a reduced (num, den)
    pair with num != 0 and den > 0."""

    steps = 0

    def eliminate(self, cols):
        self.checked_cols = cols
        return super().eliminate(cols)

    def _pick_pivot(self):
        for row in self.rows.values():
            for n, d in row.values():
                assert n != 0 and d > 0 and gcd(n, d) == 1, (n, d)
        live = set(self.rows) - {r for r, _ in self.pivots}
        for c in range(len(self.col_rows)):
            assert self.col_rows[c] == {r for r in live if c in self.rows[r]}
        counts = [(len(self.col_rows[c]), c) for c in self.checked_cols if self.col_rows[c]]
        want = None
        if counts:
            _, c = min(counts)
            r = min(
                self.col_rows[c],
                key=lambda rr: (
                    len(self.rows[rr]), self.rows[rr][c][0].bit_length(), rr
                ),
            )
            want = (r, c)
        got = super()._pick_pivot()
        assert got == want
        type(self).steps += 1
        return got


nonzero_entries = st.builds(Q, st.integers(-5, 5).filter(bool), st.integers(1, 3))
sparse_entries = st.one_of(st.just(Q(0)), st.just(Q(0)), nonzero_entries)
sparse_matrices = st.integers(1, 9).flatmap(
    lambda w: st.lists(st.lists(sparse_entries, min_size=w, max_size=w), min_size=1, max_size=9)
)
extra_columns = st.lists(
    st.dictionaries(st.integers(0, 8), nonzero_entries, max_size=4), max_size=4
)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices, extra_columns)
# two fills raise column 2's count above every queued entry for it; the
# queue must take the raised count, or column 2 is never pivoted
@example(
    rows=[[Q(4), 0, 0], [0, -1, -3], [-3, 1, 0], [Q(-5, 3), 1, Q(-4, 3)],
          [Q(-4, 3), -1, 0], [Q(-5, 3), 0, -5], [Q(-5, 2), 0, -2]],
    extra=[],
)
def test_pivot_order_is_brute_force_argmin(rows, extra):
    m = from_dense(rows)
    extra = [{r: v for r, v in col.items() if r < m.nrows} for col in extra]
    with mock.patch.object(linalg, "_Eliminator", _CheckedEliminator):
        _CheckedEliminator.steps = 0
        rk = rank(m)  # mode rank
        # every pivot, then the empty pick of A's columns and of the empty extension
        assert _CheckedEliminator.steps == rk + 2
        base, more = rank_with_extension(m, extra)  # second class after the first
        augmented = [list(row) + [col.get(i, 0) for col in extra] for i, row in enumerate(rows)]
        assert (base, more) == (rk, dense_rank(augmented) - rk)
        assert len(nullspace(m)) == m.ncols - rk


def test_pivot_order_is_brute_force_argmin_on_real_windows():
    # window matrices fill in far more than the small random matrices above,
    # so the heap sees many stale entries per column between pivots
    p = ProblemInstance(n=1, f=parse_poly("x1^2*(1-x1)^2", 1), g=parse_poly("1", 1), alpha="1/2")
    with mock.patch.object(linalg, "_Eliminator", _CheckedEliminator):
        _CheckedEliminator.steps = 0
        rep = exponent_test(p)  # every window of the default schedule it reaches
        assert (rep.cokernel_dim, list(rep.estimates)) == (2, [2, 2])
        assert koszul_cohomology(p, default_schedule(p)[0]) == {0: 0, 1: 1, 2: 2}
        assert _CheckedEliminator.steps > 300


def test_eliminator_holds_only_the_rows_its_columns_touch():
    # a block of a large window: two entries among 10^5 rows
    elim = linalg._Eliminator(SparseMatrixQ(10**5, [{3: Q(1)}, {99_999: Q(2)}]).cols)
    assert elim.eliminate(range(2)) == 2
    assert len(elim.rows) == 2


def test_rank_with_extension_orders_pivots():
    # extension columns must not steal pivots from the base matrix
    a = from_dense([[1], [1]])
    base, extra = rank_with_extension(a, [{0: Q(1)}, {1: Q(1)}])
    assert (base, extra) == (1, 1)


def cokernel_on(m, targets):
    """dim of span{e_r : r in targets} modulo the column space of m."""
    return rank_with_extension(m, [{r: Q(1)} for r in targets])[1]


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


def test_determinism():
    rows = [[Q(1), Q(2), Q(0)], [Q(2), Q(4), Q(1)], [Q(0), Q(1), Q(1)]]
    m = from_dense(rows)
    assert rank(m) == rank(from_dense(rows)) == 3
    singular = [[Q(1), Q(2), Q(0)], [Q(2), Q(4), Q(1)], [Q(3), Q(6), Q(1)]]
    assert nullspace(from_dense(singular)) == nullspace(from_dense(singular)) != []
