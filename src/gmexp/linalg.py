"""Sparse exact rational linear algebra.

Ranks, ranks of extensions and nullspaces over Q, computed by sparse
Gaussian elimination with Markowitz-style pivot selection.  The pivot
rule is exact and deterministic: within the column class being eliminated,
take the column minimizing (active nonzero count, column index); within that
column, take the active row minimizing (row nnz, numerator bit length, row
index).  The column minimum comes from a lazy heap that gets one fresh entry
per changed column after each pivot's row updates, so a pivot costs no scan
over the columns.  All arithmetic is exact.

Matrices hold Q values.  The eliminator takes the columns alone, with no row
count, and builds only the rows they touch; it converts each value once to a
reduced (numerator, denominator) pair of Python ints with a positive
denominator, and does every row update on those pairs; Q values come back
only in nullspace's basis vectors.  The pairs are the same reduced rationals
the Q values were, so the pivots do not depend on the representation; the
pairs only skip the per-operation dispatch of Fraction.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from math import gcd
from typing import Optional

from .rational import Q


class SparseMatrixQ:
    """Sparse matrix over Q: nrows and a list of {row: value} columns.

    The columns hold Q values and no zeros, and are taken as they are, not
    copied.  Matrices are immutable once assembled (by convention; the
    eliminator builds its own rows from them).
    """

    __slots__ = ("nrows", "cols")

    def __init__(self, nrows: int, cols: list[dict[int, object]]):
        self.nrows = nrows
        self.cols = cols

    @property
    def ncols(self) -> int:
        return len(self.cols)

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols)

    def dump_triplets(self) -> str:
        """Plain 'row col num/den' text, rows sorted, for debugging."""
        entries = sorted((r, c, v) for c, col in enumerate(self.cols) for r, v in col.items())
        return "\n".join([f"{self.nrows} {self.ncols}"] + [f"{r} {c} {v}" for r, c, v in entries])


# ---------------------------------------------------------------------------
# Elimination core
# ---------------------------------------------------------------------------


class _Eliminator:
    """Row-based sparse elimination with Markowitz pivoting.

    Pivot rule: among the columns of the class passed to eliminate(), take
    the column c minimizing (len(col_rows[c]), c) over columns with an active
    nonzero; within it, the active row minimizing (row nnz, numerator bit
    length, row index).  Fully deterministic.

    The column choice uses a lazy min-heap of (active count, column) entries
    for the current class.  A pivot retires its row and adds multiples of it
    to the other rows, so it changes the counts of the pivot row's columns
    only; once its updates are done, each in-class column of the pivot row
    with a non-zero count gets one fresh entry.  Entries whose count is no
    longer current (or is 0) are dropped when they reach the top.  Every
    in-class column with active rows thus has a current entry, and the top
    current entry is the exact argmin, found without scanning the class.

    self.rows holds the rows the columns touch and no others, each active
    until it is a pivot row; every entry is a reduced pair (num, den) of ints
    with den > 0 and num != 0, and a row update that cancels it deletes it.
    """

    def __init__(self, cols: list[dict[int, object]]):
        # the one transposition: the eliminator owns, and mutates, these rows.
        # Each distinct value object is converted once and its pair shared:
        # stencil columns repeat a few thousand values over many entries.
        # Keying by id() is sound because cols keeps every value alive.
        self.rows: defaultdict[int, dict[int, tuple[int, int]]] = defaultdict(dict)
        pairs: dict[int, tuple[int, int]] = {}
        for c, col in enumerate(cols):
            for r, v in col.items():
                pair = pairs.get(id(v))
                if pair is None:
                    pair = pairs[id(v)] = (int(v.numerator), int(v.denominator))
                self.rows[r][c] = pair
        # set(col.keys()) sizes each table as add() would; set(col) presizes
        # from the dict, and that layout raised peak RSS on `sweep` by 0.6 MiB
        self.col_rows: list[set[int]] = [set(col.keys()) for col in cols]
        self.pivots: list[tuple[int, int]] = []  # (row, col) in elimination order
        self._heap: list[tuple[int, int]] = []

    def _pick_pivot(self) -> Optional[tuple[int, int]]:
        heap, col_rows = self._heap, self.col_rows
        while heap:
            cnt, c = heap[0]
            if cnt != len(col_rows[c]):
                heapq.heappop(heap)  # stale: a fresher entry exists, or c is empty
                continue
            if cnt == 1:  # a column singleton: its one active row
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
        return None

    def eliminate(self, cols: range) -> int:
        """Eliminate using pivots only from the given columns; returns the
        number of pivots found."""
        rows, col_rows = self.rows, self.col_rows
        heap = self._heap = [(len(col_rows[c]), c) for c in cols if col_rows[c]]
        heapq.heapify(heap)
        found = 0
        while (pick := self._pick_pivot()) is not None:
            pr, pc = pick
            self.pivots.append(pick)
            found += 1
            prow = rows[pr]
            for c in prow:  # retire the pivot row
                col_rows[c].discard(pr)
            piv = prow[pc]
            for r in list(col_rows[pc]):  # row r += (fn/fd) * prow, on reduced pairs
                row = rows[r]
                fn, fd = _ratio(row[pc], piv)
                for c, (vn, vd) in prow.items():
                    tn, td = fn * vn, fd * vd  # the term, tn != 0 < td
                    cur = row.get(c)
                    if cur is None:
                        col_rows[c].add(r)
                        n, d = tn, td
                    else:
                        cn, cd = cur
                        n = cn * td + tn * cd
                        if n == 0:
                            del row[c]
                            col_rows[c].discard(r)
                            continue
                        d = cd * td
                    g = gcd(n, d)
                    row[c] = (n // g, d // g)
            # only the pivot row's columns changed count: one fresh entry each
            for c in prow:
                if c in cols and col_rows[c]:
                    heapq.heappush(heap, (len(col_rows[c]), c))
        return found


def _ratio(a: tuple[int, int], p: tuple[int, int]) -> tuple[int, int]:
    """-(a/p) as a reduced pair with positive denominator, a and p non-zero."""
    (an, ad), (pn, pd) = a, p
    fn, fd = -an * pd, ad * pn
    if fd < 0:
        fn, fd = -fn, -fd
    g = gcd(fn, fd)
    return fn // g, fd // g


def nullspace(a: SparseMatrixQ) -> list[dict[int, object]]:
    """Basis of ker(A) as sparse {col: value} vectors, one per free column c:
    the kernel vector that is 1 at c and 0 at every other free column.

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
    basis = {c: {c: Q(1)} for c in range(a.ncols) if c not in solved}
    for _r, pc in elim.pivots:
        for f, (n, d) in solved[pc].items():
            basis[f][pc] = Q(n, d)
    return list(basis.values())


def rank_with_extension(a: SparseMatrixQ, extra_cols: list[dict[int, object]]):
    """(rank(A), rank([A | extra]) - rank(A)) with A-columns pivoted first;
    extra_cols are {row: value} columns like A's."""
    elim = _Eliminator(a.cols + extra_cols)
    base = elim.eliminate(range(a.ncols))
    extra = elim.eliminate(range(a.ncols, a.ncols + len(extra_cols)))
    return base, extra
