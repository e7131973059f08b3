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

A quotient by a column span is a map, not columns: quotient_map builds it
once by Gauss-Jordan over the columns, and quotient applies it to each
block of stacked rows, so a caller that would stack the same columns into
every block of many matrices (the relations of gmexp.engine's Koszul
degrees) eliminates them once.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from math import gcd


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
    heap is neither built nor read.  The column and the row are chosen
    inline in eliminate(), with no call per pivot.

    self.rows holds the rows the columns touch and no others, each active
    until it is a pivot row; every entry is a reduced pair (num, den) of ints
    with den > 0 and num != 0, the columns' own pair objects until an update
    replaces them.  A row update pops its entry in the pivot column, which
    cancels exactly, and deletes any other entry it cancels.  A term and an
    entry that both have denominator 1 add as ints, with no gcd.  A pivot
    column with no active row but the pivot row's skips the update pass.
    """

    def __init__(self, cols: list[dict[int, tuple[int, int]]]):
        # the one transposition: the eliminator owns, and mutates, these rows
        rows: defaultdict[int, dict[int, tuple[int, int]]] = defaultdict(dict)
        for c, col in enumerate(cols):
            for r, v in col.items():
                rows[r][c] = v
        self.rows = rows
        # set(col.keys()) sizes each table as add() would; set(col) presizes
        # from the dict, and that layout raised peak RSS on `sweep` by 0.6 MiB
        self.col_rows: list[set[int]] = [set(col.keys()) for col in cols]
        self.pivots: list[tuple[int, int]] = []  # (row, col) in elimination order

    def eliminate(self, cols: range, *, in_order: bool = False) -> int:
        """Eliminate using pivots only from the given columns, under the
        policy in_order names (class docstring); returns the pivot count."""
        rows, col_rows, pivots = self.rows, self.col_rows, self.pivots
        ncols = len(col_rows)
        if in_order:
            # the columns with an active row when reached: a passed column has
            # no active row, so no later pivot row has an entry there
            todo, heap = filter(col_rows.__getitem__, cols), None
        else:
            heap = [len(col_rows[c]) * ncols + c for c in cols if col_rows[c]]
            heapq.heapify(heap)
        found = 0
        while True:
            if heap is None:
                pc = next(todo, None)
                if pc is None:
                    break
            else:
                while heap:
                    cnt, pc = divmod(heap[0], ncols)
                    if cnt == len(col_rows[pc]):
                        break
                    heapq.heappop(heap)  # stale: a fresher key exists, or pc is empty
                else:
                    break
            active = col_rows[pc]
            if len(active) == 1:  # a column singleton: its one active row
                for pr in active:
                    break
            else:  # the argmin of (row nnz, numerator bit length, row), in place
                pr = -1
                for r in active:
                    row = rows[r]
                    size = len(row)
                    if pr < 0 or size < best_size:
                        pr, best_size, best_bits = r, size, row[pc][0].bit_length()
                    elif size == best_size:
                        bits = row[pc][0].bit_length()
                        if bits < best_bits or (bits == best_bits and r < pr):
                            pr, best_bits = r, bits
            pivots.append((pr, pc))
            found += 1
            prow = rows[pr]
            for c in prow:  # retire the pivot row
                col_rows[c].discard(pr)
            if active:  # rows other than the pivot row meet pc: update them
                pn, pd = prow[pc]
                rest = [(c, v) for c, v in prow.items() if c != pc]
                for r in active:  # row r += (fn/fd) * prow, on reduced pairs
                    row = rows[r]
                    an, ad = row.pop(pc)  # the entry at pc cancels exactly
                    fn, fd = -an * pd, ad * pn  # -(a/p), reduced below
                    if fd < 0:
                        fn, fd = -fn, -fd
                    g = gcd(fn, fd)
                    if g != 1:
                        fn, fd = fn // g, fd // g
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
                active.clear()
            if heap is not None:
                # only the pivot row's columns changed count: one fresh key each
                for c in prow:
                    if c != pc and c in cols and col_rows[c]:
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
    column; [] with no back-substitution when every column pivots.

    After elimination, pivot row k holds its own pivot column, columns of
    later pivots and free columns only, so one back-substitution in reverse
    pivot order gives each pivot coordinate as {free column: value}."""
    elim = _Eliminator(a.cols)
    if elim.eliminate(range(a.ncols)) == a.ncols:
        return []
    solved: dict[int, dict[int, tuple[int, int]]] = {}  # pivot column -> coordinate
    for r, pc in reversed(elim.pivots):
        row = elim.rows[r]
        coord: dict[int, tuple[int, int]] = {}
        for c, v in row.items():
            if c != pc:
                _add_scaled(coord, _ratio(v, row[pc]), solved.get(c, {c: (1, 1)}))
        solved[pc] = coord
    basis = {c: {c: (1, 1)} for c in range(a.ncols) if c not in solved}
    for _r, pc in elim.pivots:
        for f, v in solved[pc].items():
            basis[f][pc] = v
    return list(basis.values())


def _add_scaled(
    acc: dict[int, tuple[int, int]], f: tuple[int, int], vec: dict[int, tuple[int, int]],
    offset: int = 0,
) -> None:
    """acc[k + offset] += f * vec[k] for each k of vec, on reduced pairs, f
    non-zero; an entry that cancels is deleted."""
    fn, fd = f
    for k, (xn, xd) in vec.items():
        n, d = fn * xn, fd * xd
        cur = acc.get(k + offset)
        if cur is not None:
            cn, cd = cur
            n, d = cn * d + n * cd, cd * d
            if n == 0:
                del acc[k + offset]
                continue
        g = gcd(n, d)
        acc[k + offset] = (n // g, d // g)


# ---------------------------------------------------------------------------
# Quotient by a column span
# ---------------------------------------------------------------------------


_UNIT = {0: (1, 1)}  # the unit vector at offset 0, for _add_scaled


def quotient_map(cols: list[dict[int, tuple[int, int]]]) -> dict[int, dict[int, tuple[int, int]]]:
    """The quotient map pi of Q^rows onto Q^rows / span(cols), by Gauss-Jordan
    over cols: {eliminated row: {free row: (num, den)}}.  pi sends each
    eliminated row to its combination of free rows and keeps every other
    row, so pi(v) = 0 exactly when v lies in span(cols), and rank([B | cols
    | Z]) - rank([B | cols]) = rank([pi B | pi Z]) - rank(pi B).

    Each column in turn, reduced by the rows eliminated so far, pivots at its
    highest remaining row; its other rows are lower, so the map stays
    triangular while it is built, each eliminated row substituted highest
    first.  A last pass in ascending row order then leaves free rows alone
    in every image."""
    image: dict[int, dict[int, tuple[int, int]]] = {}
    for col in cols:
        v = dict(col)
        todo = [-r for r in v if r in image]  # a max-heap of the eliminated rows
        heapq.heapify(todo)
        while todo:
            r = -heapq.heappop(todo)
            a = v.pop(r, None)  # None: a repeated key, already substituted
            if a is not None:
                img = image[r]
                _add_scaled(v, a, img)
                for k in img:
                    if k in image:
                        heapq.heappush(todo, -k)
        if v:
            p = max(v)
            pv = v.pop(p)
            image[p] = {r: _ratio(x, pv) for r, x in v.items()}
    for p in sorted(image):  # an image's eliminated rows are lower: already final
        img = image[p]
        for r in [r for r in img if r in image]:
            _add_scaled(img, img.pop(r), image[r])
    return image


def quotient(
    col: dict[int, tuple[int, int]], image: dict[int, dict[int, tuple[int, int]]], size: int
) -> dict[int, tuple[int, int]]:
    """pi(col), for pi = quotient_map(...) over blocks of `size` rows: col's
    rows are stacked blocks, and pi acts on each block alone."""
    out: dict[int, tuple[int, int]] = {}
    for r, a in col.items():
        base = r - r % size
        img = image.get(r - base)
        if img is not None:
            _add_scaled(out, a, img, base)
        elif r in out:
            _add_scaled(out, a, _UNIT, r)
        else:
            out[r] = a
    return out


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
