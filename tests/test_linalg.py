from fractions import Fraction
from math import gcd
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from gmexp import linalg
from gmexp.engine import ProblemInstance, default_schedule, exponent_test, koszul_cohomology
from gmexp.linalg import SparseMatrixQ, nullspace, rank_with_extension
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


class _CheckedEliminator(linalg._Eliminator):
    """Asserts at every step that the pivot equals a brute-force argmin
    computed from the live rows (the keys of rows less the retired pivot
    rows): the column, with the Markowitz heap, by (active count, index);
    in order, the first column of the class, in the given order, with an
    active row, with the heap left empty; then the row by (row nnz,
    numerator bit length, index).  Also that every stored entry is a
    reduced (num, den) pair with num != 0 and den > 0, and that col_rows
    lists exactly the live rows of each column."""

    steps = 0

    def eliminate(self, cols, *, in_order=False):
        self.checked_cols, self.checked_in_order = cols, in_order
        return super().eliminate(cols, in_order=in_order)

    def _pick_pivot(self, todo):
        assert (todo is not None) == self.checked_in_order
        for row in self.rows.values():
            for v in row.values():
                assert is_reduced_pair(v), v
        live = set(self.rows) - {r for r, _ in self.pivots}
        for c in range(len(self.col_rows)):
            assert self.col_rows[c] == {r for r in live if c in self.rows[r]}
        active = [c for c in self.checked_cols if self.col_rows[c]]
        want = None
        if active:
            if self.checked_in_order:
                assert not self._heap
                c = active[0]
            else:
                _, c = min((len(self.col_rows[c]), c) for c in active)
            r = min(
                self.col_rows[c],
                key=lambda rr: (
                    len(self.rows[rr]), self.rows[rr][c][0].bit_length(), rr
                ),
            )
            want = (r, c)
        got = super()._pick_pivot(todo)
        assert got == want
        type(self).steps += 1
        return got


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
    with mock.patch.object(linalg, "_Eliminator", _CheckedEliminator):
        for in_order in (False, True):
            _CheckedEliminator.steps = 0
            assert rank_with_extension(m, [], in_order=in_order)[0] == rk
            # every pivot, then the empty pick of A's columns and of the
            # empty extension
            assert _CheckedEliminator.steps == rk + 2
            # second class after the first
            base, more = rank_with_extension(m, extra, in_order=in_order)
            assert (base, more) == (rk, dense_rank(augmented) - rk)
        assert len(nullspace(m)) == m.ncols - rk


def test_pivot_order_is_brute_force_argmin_on_real_windows(monkeypatch):
    # window matrices fill in far more than the small random matrices above,
    # so the heap sees many stale entries per column between pivots; every
    # elimination of the queries runs under one policy, then the other
    checked = _CheckedEliminator.eliminate

    def forced(self, cols, **_kw):  # the loop's policy, whatever the caller asks
        return checked(self, cols, in_order=in_order)

    monkeypatch.setattr(_CheckedEliminator, "eliminate", forced)
    p = ProblemInstance(n=1, f=parse_poly("x1^2*(1-x1)^2", 1), g=parse_poly("1", 1), alpha="1/2")
    for in_order in (False, True):
        with mock.patch.object(linalg, "_Eliminator", _CheckedEliminator):
            _CheckedEliminator.steps = 0
            rep = exponent_test(p)  # every window of the default schedule it reaches
            assert (rep.cokernel_dim, list(rep.estimates)) == (2, [2, 2])
            assert koszul_cohomology(p, default_schedule(p)[0]) == {0: 0, 1: 1, 2: 2}
            assert _CheckedEliminator.steps > 300, in_order


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
