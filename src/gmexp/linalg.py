"""Sparse exact rational linear algebra.

Ranks, ranks of extensions and nullspaces over Q, computed by sparse
Gaussian elimination with Markowitz-style pivot selection.  The pivot
rule is exact and deterministic: within the column class being eliminated,
take the column minimizing (active nonzero count, column index); within that
column, take the active row minimizing (row nnz, numerator bit length, row
index).  The column minimum comes from a lazy heap that is updated as counts
change, so a pivot costs no scan over the columns.  All arithmetic is exact.
"""

from __future__ import annotations

import heapq
from typing import Optional

from .rational import Q, QZERO


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
    for the current class: every change of an in-class column's count pushes
    a fresh entry, and entries whose count is no longer current (or is 0) are
    dropped when they reach the top.  The top valid entry is therefore the
    exact argmin, found without scanning the class.
    """

    def __init__(self, nrows: int, cols: list[dict[int, object]]):
        # the one transposition: the eliminator owns, and mutates, these rows
        self.rows: list[dict[int, object]] = [dict() for _ in range(nrows)]
        for c, col in enumerate(cols):
            for r, v in col.items():
                self.rows[r][c] = v
        # set(col.keys()) sizes each table as add() would; set(col) presizes
        # from the dict, and that layout raised peak RSS on `sweep` by 0.6 MiB
        self.col_rows: list[set[int]] = [set(col.keys()) for col in cols]
        self.active: set[int] = set(range(nrows))
        self.pivots: list[tuple[int, int]] = []  # (row, col) in elimination order
        self._cls: range = range(0)  # column class of the running eliminate()
        self._heap: list[tuple[int, int]] = []

    def _count_changed(self, c: int) -> None:
        cnt = len(self.col_rows[c])
        if cnt and c in self._cls:
            heapq.heappush(self._heap, (cnt, c))

    def _pick_pivot(self) -> Optional[tuple[int, int]]:
        heap = self._heap
        while heap:
            cnt, c = heap[0]
            if cnt != len(self.col_rows[c]):
                heapq.heappop(heap)  # stale: a fresher entry exists, or c is empty
                continue
            r = min(
                self.col_rows[c],
                key=lambda rr: (
                    len(self.rows[rr]),
                    int(self.rows[rr][c].numerator).bit_length(),
                    rr,
                ),
            )
            return r, c
        return None

    def eliminate(self, cols: range, jordan: bool = False) -> int:
        """Eliminate using pivots only from the given columns; returns the
        number of pivots found.  With jordan=True the pivot column is also
        cleared from previously retired pivot rows."""
        self._cls = cols
        self._heap = [(len(self.col_rows[c]), c) for c in cols if self.col_rows[c]]
        heapq.heapify(self._heap)
        found = 0
        while True:
            pick = self._pick_pivot()
            if pick is None:
                return found
            pr, pc = pick
            self._retire(pr)
            self.pivots.append((pr, pc))
            found += 1
            prow = self.rows[pr]
            pval = prow[pc]
            victims = list(self.col_rows[pc])
            if jordan:
                victims += [r for (r, _c) in self.pivots[:-1] if pc in self.rows[r]]
            for r in victims:
                self._axpy(r, prow, -(self.rows[r][pc] / pval), active=r in self.active)

    def _retire(self, r: int) -> None:
        self.active.discard(r)
        for c in self.rows[r]:
            self.col_rows[c].discard(r)
            self._count_changed(c)

    def _axpy(self, r: int, src: dict[int, object], factor, active: bool) -> None:
        row = self.rows[r]
        for c, v in src.items():
            s = row.get(c, QZERO) + factor * v
            if s == 0:
                if c in row:
                    del row[c]
                    if active:
                        self.col_rows[c].discard(r)
                        self._count_changed(c)
            else:
                if c not in row and active:
                    self.col_rows[c].add(r)
                    self._count_changed(c)
                row[c] = s


def nullspace(a: SparseMatrixQ) -> list[dict[int, object]]:
    """Basis of ker(A) as sparse {col: value} vectors, one per free column."""
    elim = _Eliminator(a.nrows, a.cols)
    elim.eliminate(range(a.ncols), jordan=True)
    pivot_cols = {c: r for (r, c) in elim.pivots}
    basis = []
    for c_free in range(a.ncols):
        if c_free in pivot_cols:
            continue
        vec = {c_free: Q(1)}
        for c_piv, r in pivot_cols.items():
            row = elim.rows[r]
            v = row.get(c_free)
            if v is not None:
                vec[c_piv] = -v / row[c_piv]
        basis.append(vec)
    return basis


def rank_with_extension(a: SparseMatrixQ, extra_cols: list[dict[int, object]]):
    """(rank(A), rank([A | extra]) - rank(A)) with A-columns pivoted first;
    extra_cols are {row: value} columns like A's."""
    elim = _Eliminator(a.nrows, a.cols + extra_cols)
    base = elim.eliminate(range(a.ncols))
    extra = elim.eliminate(range(a.ncols, a.ncols + len(extra_cols)))
    return base, extra
