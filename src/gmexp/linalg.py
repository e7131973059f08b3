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
    """Sparse matrix over Q with optional row/column labels.

    Entries are stored column-major as {col: {row: value}}; no zeros are
    stored.  Matrices are immutable once assembly is finished (by
    convention; elimination always works on copies).
    """

    __slots__ = ("nrows", "ncols", "cols", "row_labels", "col_labels")

    def __init__(self, nrows: int, ncols: int, row_labels=None, col_labels=None):
        self.nrows = nrows
        self.ncols = ncols
        self.cols: list[dict[int, object]] = [dict() for _ in range(ncols)]
        self.row_labels = row_labels
        self.col_labels = col_labels

    def get(self, r: int, c: int):
        return self.cols[c].get(r, QZERO)

    @property
    def entries(self) -> dict[tuple[int, int], object]:
        return {(r, c): v for c, col in enumerate(self.cols) for r, v in col.items()}

    def nnz(self) -> int:
        return sum(len(col) for col in self.cols)

    @classmethod
    def from_columns(cls, nrows, cols, row_labels=None, col_labels=None):
        """The matrix with these {row: value} columns (Q values, no zeros), not copied."""
        m = cls(nrows, 0, row_labels, col_labels)
        m.ncols, m.cols = len(cols), cols
        return m

    def dump_triplets(self) -> str:
        """Plain 'row col num/den' text, rows sorted, for debugging."""
        lines = [f"{self.nrows} {self.ncols}"]
        for (r, c) in sorted(self.entries):
            lines.append(f"{r} {c} {self.get(r, c)}")
        return "\n".join(lines)


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

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[dict[int, object]] = []
        self.col_rows: list[set[int]] = [set() for _ in range(ncols)]
        self.active: set[int] = set()
        self.pivots: list[tuple[int, int]] = []  # (row, col) in elimination order
        self._cls: range = range(0)  # column class of the running eliminate()
        self._heap: list[tuple[int, int]] = []

    def add_row(self, row: dict[int, object]) -> int:
        """Take row (owned by the eliminator from now on) as the next row."""
        idx = len(self.rows)
        self.rows.append(row)
        self.active.add(idx)
        for c in row:
            self.col_rows[c].add(idx)
        return idx

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


def _as_rows(a: SparseMatrixQ) -> list[dict[int, object]]:
    rows: list[dict[int, object]] = [dict() for _ in range(a.nrows)]
    for c, col in enumerate(a.cols):
        for r, v in col.items():
            rows[r][c] = v
    return rows


def nullspace(a: SparseMatrixQ) -> list[dict[int, object]]:
    """Basis of ker(A) as sparse {col: value} vectors, one per free column."""
    elim = _Eliminator(a.ncols)
    for row in _as_rows(a):
        elim.add_row(row)
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
    """(rank(A), rank([A | extra]) - rank(A)) with A-columns pivoted first."""
    elim = _Eliminator(a.ncols + len(extra_cols))
    rows = _as_rows(a)
    for j, col in enumerate(extra_cols):
        for r, v in col.items():
            rows[r][a.ncols + j] = Q(v)
    for row in rows:
        elim.add_row(row)
    base = elim.eliminate(range(a.ncols))
    extra = elim.eliminate(range(a.ncols, a.ncols + len(extra_cols)))
    return base, extra
