"""Sparse exact rational linear algebra.

Ranks, ranks of extensions and nullspaces over Q, computed by exact sparse
Gaussian elimination under one of two deterministic column policies
(_Eliminator): Markowitz, through a lazy heap, or in the order given.  The
top cokernel of gmexp.engine pivots in order: its columns arrive in a band
order fixed before elimination, on which the heap costs more than it saves
(about 0.65x the Markowitz time on the benchmark's sweep).  The Koszul
boundaries and nullspace keep Markowitz, where a fixed order is several
times slower.  No rank depends on the policy.

Every value, from the columns to the last pivot, is a reduced (numerator,
denominator) pair of Python ints with a positive denominator (rational.pair),
the canonical form of Q, so the pivots do not depend on it.  The eliminator
converts nothing, and nullspace returns pair vectors; a caller that holds Q
values converts at its boundary (ring.quasi_weights).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from math import gcd
from typing import Iterator, Optional


class SparseMatrixQ:
    """Sparse matrix over Q: nrows and a list of {row: (num, den)} columns.

    The columns hold reduced int pairs (module docstring) and no zeros, and
    are taken as they are, not copied.  Matrices are immutable once
    assembled (by convention; the eliminator builds its own rows from them).
    """

    __slots__ = ("nrows", "cols")

    def __init__(self, nrows: int, cols: list[dict[int, tuple[int, int]]]):
        self.nrows = nrows
        self.cols = cols

    @property
    def ncols(self) -> int:
        return len(self.cols)

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols)

    def dump_triplets(self) -> str:
        """Plain 'row col value' text, rows sorted, for debugging; a value is
        'num' or 'num/den', as Q prints it."""
        entries = sorted((r, c, v) for c, col in enumerate(self.cols) for r, v in col.items())
        return "\n".join([f"{self.nrows} {self.ncols}"] + [
            f"{r} {c} {n}" if d == 1 else f"{r} {c} {n}/{d}" for r, c, (n, d) in entries])


# ---------------------------------------------------------------------------
# Elimination core
# ---------------------------------------------------------------------------


class _Eliminator:
    """Row-based sparse elimination, one column class at a time.

    Pivot rule: with the Markowitz policy, among the columns of the class
    passed to eliminate(), take the column c minimizing (len(col_rows[c]),
    c) over columns with an active nonzero; with in_order, take the class's
    columns in the order given, skipping those with no active row.  Within
    the column, take the active row minimizing (row nnz, numerator bit
    length, row index).  Fully deterministic.

    The Markowitz choice uses a lazy min-heap of int keys count * ncols + c,
    for the active count of column c: ordered as the pairs (count, c), since
    c < ncols.  A pivot retires its row and adds multiples of it to the
    other rows, so it changes the counts of the pivot row's columns only;
    once its updates are done, each in-class column of the pivot row with a
    non-zero count gets one fresh key.  Keys whose count is no longer
    current (or is 0) are dropped when they reach the top.  Every in-class
    column with active rows thus has a current key, and the top current key
    is the exact argmin, found without scanning the class.  In order, the
    heap is neither built nor read.

    self.rows holds the rows the columns touch and no others, each active
    until it is a pivot row; every entry is a reduced pair (num, den) of ints
    with den > 0 and num != 0, the columns' own pair objects until an update
    replaces them.  A row update pops its entry in the pivot column, which
    cancels exactly, and deletes any other entry it cancels.  A term and an
    entry that both have denominator 1 add as ints, with no gcd.
    """

    def __init__(self, cols: list[dict[int, tuple[int, int]]]):
        # the one transposition: the eliminator owns, and mutates, these rows
        self.rows: defaultdict[int, dict[int, tuple[int, int]]] = defaultdict(dict)
        for c, col in enumerate(cols):
            for r, v in col.items():
                self.rows[r][c] = v
        # set(col.keys()) sizes each table as add() would; set(col) presizes
        # from the dict, and that layout raised peak RSS on `sweep` by 0.6 MiB
        self.col_rows: list[set[int]] = [set(col.keys()) for col in cols]
        self.pivots: list[tuple[int, int]] = []  # (row, col) in elimination order
        self._heap: list[int] = []

    def _pick_pivot(self, todo: Optional[Iterator[int]]) -> Optional[tuple[int, int]]:
        """The next pivot (row, col), or None: the column is next(todo) when
        pivoting in order, else the heap's top current key."""
        col_rows = self.col_rows
        if todo is not None:
            c = next(todo, None)
            if c is None:
                return None
        else:
            heap, ncols = self._heap, len(col_rows)
            while heap:
                cnt, c = divmod(heap[0], ncols)
                if cnt == len(col_rows[c]):
                    break
                heapq.heappop(heap)  # stale: a fresher key exists, or c is empty
            else:
                return None
        if len(col_rows[c]) == 1:  # a column singleton: its one active row
            for r in col_rows[c]:
                return r, c
        # the argmin of (row nnz, numerator bit length, row), compared in place
        rows = self.rows
        best = -1
        for r in col_rows[c]:
            row = rows[r]
            size = len(row)
            if best < 0 or size < best_size:
                best, best_size, best_bits = r, size, row[c][0].bit_length()
            elif size == best_size:
                bits = row[c][0].bit_length()
                if bits < best_bits or (bits == best_bits and r < best):
                    best, best_bits = r, bits
        return best, c

    def eliminate(self, cols: range, *, in_order: bool = False) -> int:
        """Eliminate using pivots only from the given columns, under the
        policy in_order names (class docstring); returns the pivot count."""
        rows, col_rows = self.rows, self.col_rows
        ncols = len(col_rows)
        if in_order:
            # the columns with an active row when reached: a passed column has
            # no active row, so no later pivot row has an entry there
            todo = filter(col_rows.__getitem__, cols)
        else:
            todo, heap = None, [len(col_rows[c]) * ncols + c for c in cols if col_rows[c]]
            heapq.heapify(heap)
            self._heap = heap
        found = 0
        while (pick := self._pick_pivot(todo)) is not None:
            pr, pc = pick
            self.pivots.append(pick)
            found += 1
            prow = rows[pr]
            for c in prow:  # retire the pivot row
                col_rows[c].discard(pr)
            piv = prow[pc]
            rest = [(c, v) for c, v in prow.items() if c != pc]
            for r in col_rows[pc]:  # row r += (fn/fd) * prow, on reduced pairs
                row = rows[r]
                fn, fd = _ratio(row.pop(pc), piv)  # the entry at pc cancels exactly
                for c, (vn, vd) in rest:
                    tn, td = fn * vn, fd * vd  # the term, tn != 0 < td
                    cur = row.get(c)
                    if cur is None:
                        col_rows[c].add(r)
                        if td == 1:
                            row[c] = (tn, 1)
                            continue
                        n, d = tn, td
                    else:
                        cn, cd = cur
                        if cd == td == 1:  # an int sum: already reduced
                            n = cn + tn
                            if n:
                                row[c] = (n, 1)
                            else:
                                del row[c]
                                col_rows[c].discard(r)
                            continue
                        n = cn * td + tn * cd
                        if n == 0:
                            del row[c]
                            col_rows[c].discard(r)
                            continue
                        d = cd * td
                    g = gcd(n, d)
                    row[c] = (n // g, d // g)
            col_rows[pc].clear()
            if todo is None:
                # only the pivot row's columns changed count: one fresh key each
                for c, _v in rest:
                    if c in cols and col_rows[c]:
                        heapq.heappush(heap, len(col_rows[c]) * ncols + c)
        return found


def _ratio(a: tuple[int, int], p: tuple[int, int]) -> tuple[int, int]:
    """-(a/p) as a reduced pair with positive denominator, a and p non-zero."""
    (an, ad), (pn, pd) = a, p
    fn, fd = -an * pd, ad * pn
    if fd < 0:
        fn, fd = -fn, -fd
    g = gcd(fn, fd)
    return fn // g, fd // g


def nullspace(a: SparseMatrixQ) -> list[dict[int, tuple[int, int]]]:
    """Basis of ker(A) as sparse {col: (num, den)} vectors, one per free
    column c: the kernel vector that is (1, 1) at c and 0 at every other free
    column.

    After elimination, pivot row k holds its own pivot column, columns of
    later pivots and free columns only, so one back-substitution in reverse
    pivot order gives each pivot coordinate as {free column: value}."""
    elim = _Eliminator(a.cols)
    elim.eliminate(range(a.ncols))
    solved: dict[int, dict[int, tuple[int, int]]] = {}  # pivot column -> coordinate
    for r, pc in reversed(elim.pivots):
        row = elim.rows[r]
        coord: dict[int, tuple[int, int]] = {}
        for c, v in row.items():
            if c == pc:
                continue
            fn, fd = _ratio(v, row[pc])
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


def rank_with_extension(
    a: SparseMatrixQ, extra_cols: list[dict[int, tuple[int, int]]], *, in_order: bool = False
):
    """(rank(A), rank([A | extra]) - rank(A)) with A-columns pivoted first;
    extra_cols are {row: (num, den)} columns like A's.  in_order pivots each
    class in its given column order instead of by Markowitz (_Eliminator)."""
    elim = _Eliminator(a.cols + extra_cols)
    base = elim.eliminate(range(a.ncols), in_order=in_order)
    extra = elim.eliminate(range(a.ncols, a.ncols + len(extra_cols)), in_order=in_order)
    return base, extra
