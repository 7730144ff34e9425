"""Matrix validation, blocky-matrix recognition, signed sums, and rounding.

A matrix is a 2-d numpy array: ``as_int_array`` validates an array-like
into int64 (the paper's integer matrices A) and ``as_real_array`` into
float64 (the reals the construction works on), so the dtype says which
a matrix is.

A boolean matrix is *blocky* when its support is a disjoint union of
combinatorial rectangles: the row sets of the rectangles are pairwise
disjoint and so are the column sets.  Equivalently, no 2x2 submatrix
contains exactly three 1-entries.  So each row and each column lies in at
most one rectangle, and ``BlockyMatrix`` stores a matrix as two label
arrays: the rectangle id of every row and of every column, or -1.  A signed
sum is stored only as its signs and its terms' labels stacked in one
(terms x m) and one (terms x n) table; its per-term ``BlockyMatrix`` objects
are a view built on first use.  It evaluates the tables with one signed
scatter-add over the cells of every rectangle, so its cost is the total
rectangle area rather than terms x m x n.  Everything in this module is pure
and its classes are immutable after construction.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "BlockyCheck",
    "BlockyMatrix",
    "SignedBlockySum",
    "is_blocky",
    "round_half_down",
    "as_int_array",
    "as_real_array",
]


# Floats at or above this magnitude no longer represent every integer exactly.
_EXACT_FLOAT_INT = 2.0**53
_INT64_MAX = 2**63 - 1
# ``SignedBlockySum.evaluate`` expands at most about this many rectangle
# cells at once (one row's worth more at worst), bounding its temporaries.
_EVAL_CHUNK_CELLS = 1 << 20


def as_int_array(matrix) -> np.ndarray:
    """Coerce an array-like into a validated 2-d int64 array."""
    return _int_array_with_range(matrix)[0]


def _int_array_with_range(matrix) -> tuple[np.ndarray, int, int]:
    """``as_int_array`` and the array's largest and smallest entries, each reduced once."""
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got ndim={arr.ndim}")
    if arr.dtype.kind == "f":
        if not np.all(np.isfinite(arr)):
            raise ValueError("integer matrix required, got non-finite entries")
        if not np.all(arr == np.floor(arr)):
            raise ValueError("integer matrix required, got non-integral entries")
        if np.any(np.abs(arr) >= _EXACT_FLOAT_INT):
            raise ValueError("integer entries must be below 2**53 in magnitude when given as floats")
        arr = arr.astype(np.int64)
    elif arr.dtype.kind == "b":
        arr = arr.astype(np.int64)
    elif arr.dtype.kind not in "iu":
        raise ValueError(f"integer matrix required, got dtype {arr.dtype}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("matrix must have at least one row and one column")
    # uint64 above 2**63 - 1 wraps on the int64 cast, and abs(-2**63) wraps
    # to a negative int64, so both are out of range.
    top, bottom = int(arr.max()), int(arr.min())
    if top > _INT64_MAX or bottom < -_INT64_MAX:
        raise ValueError("integer entries must be at most 2**63 - 1 in magnitude")
    return np.ascontiguousarray(arr, dtype=np.int64), top, bottom


def as_real_array(matrix) -> np.ndarray:
    """Coerce an array-like into a validated 2-d float64 array."""
    arr = np.asarray(matrix, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"matrix must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError("matrix must have at least one row and one column")
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix entries must be finite")
    return np.ascontiguousarray(arr)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _group_rows(arr: np.ndarray, drop_zero: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Group the rows of a 2-d array by their bytes: rows with equal bytes share a group.

    Returns ``first``, the index of each group's first row, ascending, and
    ``group``, each row's group id, groups being numbered 0, 1, ... in the
    order of their first rows.  With ``drop_zero`` the rows whose bytes are
    all zero form no group and take the id -1 (so a float array must hold
    no -0.0 for every zero row to be found).  Where every row is distinct
    and none is dropped, one set of the rows' bytes shows it, and each row
    is its own group.  Otherwise one dict pass over the rows' bytes groups
    them: at the sizes the package groups it takes less time than
    ``np.unique`` over ``np.void`` keys and the two argsorts that put its
    groups in first-row order (2.9 against 14 µs on a 3x3 float64 array,
    33 against 41 µs on 128 int16 rows of 128).
    """
    rows = np.ascontiguousarray(arr)
    width = rows.shape[1] * rows.itemsize
    keys = rows.view(np.dtype((np.void, width))).ravel().tolist()
    zero = bytes(width)
    distinct = set(keys)
    if len(distinct) == len(keys) and not (drop_zero and zero in distinct):
        every = np.arange(len(keys), dtype=np.intp)
        return every, every
    ids = {zero: -1} if drop_zero else {}
    first: list[int] = []
    group: list[int] = []
    for i, key in enumerate(keys):
        g = ids.setdefault(key, len(first))
        if g == len(first):
            first.append(i)
        group.append(g)
    return np.array(first, dtype=np.intp), np.array(group, dtype=np.intp)


Rectangle = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class BlockyCheck:
    """Outcome of a blockiness test.

    ``term`` is the matrix as a ``BlockyMatrix`` (its rectangles are the
    row-support classes, ordered by smallest row index) when the matrix is
    blocky; ``witness`` is a ((x1, x2), (y1, y2)) quadruple picking out a
    2x2 submatrix with exactly three 1-entries otherwise.
    """

    blocky: bool
    term: BlockyMatrix | None = None
    witness: tuple[tuple[int, int], tuple[int, int]] | None = None

    def __bool__(self) -> bool:
        return self.blocky


def is_blocky(matrix) -> BlockyCheck:
    """Test whether a boolean matrix is blocky.

    Two rows whose supports intersect must have identical supports; the
    canonical rectangles are then the support classes, numbered by first
    row.  On failure the witness names a 2x2 submatrix with exactly three
    ones, at the first 1-entry (row-major) whose row's support differs from
    that of the first row with a 1 in its column.
    """
    arr = as_int_array(matrix)
    bad = (arr != 0) & (arr != 1)
    if bad.any():
        x, y = np.argwhere(bad)[0]
        raise ValueError(f"boolean matrix required; entry ({x},{y}) is {arr[x, y]}")
    owner = arr.argmax(axis=0)  # first row with a 1 in each column
    # One byte string per row support; the nonzero supports, numbered by
    # first row, are the canonical rectangle ids, and zero rows take -1.
    _, row_block = _group_rows(np.packbits(arr == 1, axis=1), drop_zero=True)
    clash = (arr == 1) & (row_block[:, None] != row_block[owner])
    if clash.any():
        x, y = divmod(int(clash.argmax()), arr.shape[1])
        x0 = int(owner[y])
        y2 = int((arr[x0] != arr[x]).argmax())
        return BlockyCheck(False, witness=((x0, x), tuple(sorted((y, y2)))))
    col_block = np.where(arr.any(axis=0), row_block[owner], -1)
    return BlockyCheck(True, term=BlockyMatrix.from_labels(arr.shape, row_block, col_block))


def _check_shape(shape) -> tuple[int, int]:
    m, n = shape
    if m < 1 or n < 1:
        raise ValueError("shape must be at least 1x1")
    return int(m), int(n)


def _index_list(indices) -> list[int]:
    """Sorted rectangle indices; Python and numpy integers only, so floats and
    bools are refused instead of truncated."""
    indices = list(indices)
    if not all(isinstance(i, numbers.Integral) and not isinstance(i, bool) for i in indices):
        raise ValueError(f"rectangle indices must be integers, got {indices!r}")
    return sorted(int(i) for i in indices)


def _canonical(row_block: np.ndarray, col_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Renumber rectangle ids 0..k-1, each present in ``row_block``, by first row."""
    ids, first = np.unique(row_block, return_index=True)
    first = first[ids >= 0]
    rank = np.full(first.size + 1, -1)  # rank[-1] keeps label -1
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[row_block], rank[col_block]


def _rectangle_keys(cb: np.ndarray, counts: np.ndarray):
    """Key every (term, rectangle id) pair of valid label tables, term by term.

    Rectangle r of term t has key ``first_key[t] + r``.  Returns
    ``first_key`` (int64, one per term), ``per_key``, the number of columns
    carrying each key, and ``col``, the labelled columns grouped by key in
    ascending key order (the order within a key is ascending too), both in
    the smallest signed dtype that holds n.  ``cb``, the column table, must
    already lie in [-1, counts) row by row; one flat scan lists its
    labelled cells (its ravels are views when it is C-ordered).
    """
    ends = counts.cumsum()
    first_key = ends - counts
    n = cb.shape[1]
    cells = (cb >= 0).ravel().nonzero()[0]  # term * n + column of every labelled column
    col_key = (cb + first_key[:, None]).ravel()[cells]
    dtype = np.min_scalar_type(-1 - n)  # the smallest signed dtype holding 0..n
    col = (cells % n)[col_key.argsort(kind="stable")].astype(dtype)
    per_key = np.bincount(col_key, minlength=ends[-1] if ends.size else 0).astype(dtype)
    return first_key, per_key, col


def _check_label_tables(shape, row_blocks, col_blocks):
    """Validate a (terms, m) and a (terms, n) table of canonical labels.

    Returns the shape as ints, both tables as read-only int32 arrays, the
    rectangle count of every term and the tables' rectangle keys
    (``_rectangle_keys``); raises ValueError if any term is invalid.  The
    keys also make the last test: a rectangle with rows but no column is a
    key that no column carries.
    """
    m, n = _check_shape(shape)
    rb, cb = np.asarray(row_blocks), np.asarray(col_blocks)
    if rb.dtype.kind != "i" or cb.dtype.kind != "i":
        raise ValueError(f"label arrays must hold signed integers, got {rb.dtype} and {cb.dtype}")
    if rb.ndim != 2 or rb.shape[1] != m or cb.shape != (rb.shape[0], n):
        raise ValueError(f"label arrays must have lengths {m} and {n}, got shapes {rb.shape} and {cb.shape}")
    if rb.size and min(rb.min(), cb.min()) < -1:
        raise ValueError("block labels must be -1 (no rectangle) or a rectangle id")
    # Canonical ids first appear down the rows as 0, 1, 2, ...: the running max steps by 1.
    seen = np.maximum.accumulate(rb, axis=1)
    if (seen[:, :1] > 0).any() or (seen[:, 1:] - seen[:, :-1] > 1).any():
        raise ValueError("rectangle ids must be numbered 0, 1, ... in order of first row")
    counts = seen[:, -1] + 1
    if (cb.max(axis=1) >= counts).any():
        raise ValueError("a column label names no rectangle: no row carries it")
    # Labels now lie in [-1, m), so int32 holds them at half the memory
    # traffic; the copies are C-ordered, so the label scans read them flat.
    rb, cb = rb.astype(np.int32, order="C"), cb.astype(np.int32, order="C")
    keys = _rectangle_keys(cb, counts)
    if not keys[1].all():
        raise ValueError("every rectangle needs at least one column")
    rb.setflags(write=False)
    cb.setflags(write=False)
    return (m, n), rb, cb, counts, keys


@dataclass(frozen=True, init=False, eq=False)
class BlockyMatrix:
    """A blocky boolean matrix stored as two rectangle-label arrays.

    ``row_block[x]`` is the id of the rectangle holding row x, or -1 when row
    x is zero; ``col_block[y]`` is the same for column y.  Entry (x, y) is 1
    exactly when both carry the same id, so rectangles are disjoint by
    construction.  Ids are canonical, rectangle k being the one with the
    k-th smallest first row; so ``==`` and ``hash`` compare shape and labels.
    ``count`` is the number of rectangles.

    ``BlockyMatrix(shape, rectangles)`` converts a rectangle list in any
    order at the boundary; ``from_labels`` validates canonical labels in
    O(m + n).  ``rectangles`` is a derived view, for output and tests.
    """

    shape: tuple[int, int]
    row_block: np.ndarray
    col_block: np.ndarray
    count: int

    def __init__(self, shape: tuple[int, int], rectangles):
        m, n = _check_shape(shape)
        row_block, col_block = np.full(m, -1), np.full(n, -1)
        for k, (rows, cols) in enumerate(rectangles):
            rows, cols = _index_list(rows), _index_list(cols)
            if not rows or not cols:
                raise ValueError("rectangles must have nonempty row and column sets")
            if rows[0] < 0 or rows[-1] >= m or cols[0] < 0 or cols[-1] >= n:
                raise ValueError("rectangle index out of range")
            if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
                raise ValueError("rectangle index repeated")
            if (row_block[rows] >= 0).any():
                raise ValueError("rectangle row sets overlap")
            if (col_block[cols] >= 0).any():
                raise ValueError("rectangle column sets overlap")
            row_block[rows], col_block[cols] = k, k
        vars(self).update(vars(BlockyMatrix.from_labels((m, n), *_canonical(row_block, col_block))))

    @classmethod
    def from_labels(cls, shape: tuple[int, int], row_block, col_block) -> "BlockyMatrix":
        """The term with these canonical labels; raises ValueError otherwise."""
        tables = _check_label_tables(shape, np.asarray(row_block)[None], np.asarray(col_block)[None])
        (term,) = cls._of_tables(*tables[:4])
        return term

    @classmethod
    def _of_tables(cls, shape, row_blocks, col_blocks, counts) -> tuple["BlockyMatrix", ...]:
        """Terms viewing the rows of tables that ``_check_label_tables`` returned."""
        terms = tuple(cls.__new__(cls) for _ in range(row_blocks.shape[0]))
        for term, row_block, col_block, count in zip(terms, row_blocks, col_blocks, counts.tolist()):
            vars(term).update(shape=shape, row_block=row_block, col_block=col_block, count=count)
        return terms

    def _key(self) -> tuple:
        return self.shape, self.row_block.tobytes(), self.col_block.tobytes()

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, BlockyMatrix) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def rectangles(self) -> tuple[Rectangle, ...]:
        """(rows, cols) per rectangle, both ascending, in id (= first row) order."""

        def members(labels: np.ndarray) -> list[tuple[int, ...]]:
            order = np.argsort(labels, kind="stable").tolist()
            ends = np.cumsum(np.bincount(labels + 1, minlength=self.count + 1)).tolist()
            return [tuple(order[a:b]) for a, b in zip(ends, ends[1:])]

        return tuple(zip(members(self.row_block), members(self.col_block)))

    def support(self) -> np.ndarray:
        """Boolean m x n mask of the 1-entries: one broadcast comparison."""
        rows = np.where(self.row_block < 0, -2, self.row_block)  # -2 matches no column
        return rows[:, None] == self.col_block

    def to_dense(self) -> np.ndarray:
        return self.support().astype(np.int64)


@dataclass(frozen=True, init=False, eq=False)
class SignedBlockySum:
    """A formal signed sum ``sum_i sign_i * B_i`` of blocky matrices.

    Stored as ``label_tables``: the terms' signs (int64), a (terms, m) table
    of row labels and a (terms, n) table of column labels (int32, canonical
    as in ``BlockyMatrix``), all read-only.  ``from_label_tables`` takes
    such tables; ``SignedBlockySum(shape, terms)`` stacks the labels of
    (sign, BlockyMatrix) pairs into them.  Both validate the tables once, by
    ``_check_label_tables``, and keep what it measured beside them: each
    term's rectangle count (``_rect_counts``) and the tables' rectangle keys
    (``_rect_keys``, see ``_rectangle_keys``).  ``len``, ``==``, ``hash``
    and ``evaluate`` read the tables and keys; ``terms`` is a derived view,
    built on first use.
    """

    shape: tuple[int, int]
    label_tables: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __init__(self, shape: tuple[int, int], terms):
        m, n = _check_shape(shape)
        terms = tuple(terms)
        for sign, b in terms:
            if not isinstance(sign, numbers.Integral) or isinstance(sign, bool) or sign not in (-1, 1):
                raise ValueError(f"term sign must be the integer -1 or +1, got {sign!r}")
            if b.shape != (m, n):
                raise ValueError(f"term shape {b.shape} does not match sum shape {(m, n)}")
        rb = np.stack([b.row_block for _, b in terms]) if terms else np.empty((0, m), np.int32)
        cb = np.stack([b.col_block for _, b in terms]) if terms else np.empty((0, n), np.int32)
        self._store((m, n), np.array([sign for sign, _ in terms], dtype=np.int64), rb, cb)

    @classmethod
    def from_label_tables(cls, shape: tuple[int, int], signs, row_blocks, col_blocks) -> "SignedBlockySum":
        """The sum of ``signs[i]`` times the term with row i of each label table.

        Raises ValueError if a term is invalid or a sign is not -1 or +1.
        """
        out = cls.__new__(cls)
        out._store(shape, signs, row_blocks, col_blocks)
        return out

    def _store(self, shape, signs, row_blocks, col_blocks) -> None:
        """Validate the tables and signs; keep them with the validation's counts and keys."""
        shape, rb, cb, counts, keys = _check_label_tables(shape, row_blocks, col_blocks)
        signs = np.asarray(signs)
        bad = signs.size and (signs.dtype.kind != "i" or (np.abs(signs) != 1).any())
        if bad or signs.shape != (rb.shape[0],):
            raise ValueError(f"need one sign of -1 or +1 per term, got {signs!r}")
        signs = signs.astype(np.int64)
        signs.setflags(write=False)
        vars(self).update(shape=shape, label_tables=(signs, rb, cb), _rect_counts=counts, _rect_keys=keys)

    @cached_property
    def terms(self) -> tuple[tuple[int, BlockyMatrix], ...]:
        """(sign, term) pairs, the terms viewing the rows of the label tables."""
        signs, rb, cb = self.label_tables
        return tuple(zip(signs.tolist(), BlockyMatrix._of_tables(self.shape, rb, cb, self._rect_counts)))

    def _key(self) -> tuple:
        return (self.shape, *(table.tobytes() for table in self.label_tables))

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, SignedBlockySum) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __len__(self) -> int:
        return self.label_tables[0].size

    def evaluate(self) -> np.ndarray:
        """The dense int64 value: one signed scatter-add over rectangle cells.

        Every (term, rectangle id) pair is a key, numbered term by term; the
        keys, each key's column count and the labelled columns grouped by
        key are the sum's stored ``_rect_keys``, so evaluating derives none
        of them again.  Each row carrying a key is repeated once per column
        carrying it, which lists the rectangle's cells, and one
        ``np.bincount`` counts the cells of positive terms into the first
        and those of negative terms into a second m*n block.  The cost is the total rectangle area (‖A‖₁ for
        the peel's output) plus O(terms * m) to key the row labels.  Rows
        are expanded in chunks of about ``_EVAL_CHUNK_CELLS`` cells.

        Allocation: index arrays over the labelled rows, which one flat scan
        of the row table lists (computed in place where they can be), one
        chunk's cells at a time, and the 2*m*n counts, which the first
        chunk's ``np.bincount`` returns: no zero-filled buffer is added
        into.  The negative block is subtracted from the positive one in
        place, so the result is the first half of the counts.
        """
        m, n = self.shape
        signs, rb, cb = self.label_tables
        first_key, per_key, col = self._rect_keys  # col: columns grouped by key, keys ascending
        base = (rb >= 0).ravel().nonzero()[0]  # term * m + row of every rectangle row
        row_term = base // m
        shift = first_key[row_term]
        shift += rb.ravel()[base]  # shift: each rectangle row's key, for now
        base -= row_term * m  # base: each rectangle row's row, for now
        width = per_key[shift]  # cells in each rectangle row
        ends = width.cumsum()
        # Cell g of rectangle row i, ends[i] - width[i] <= g < ends[i], is
        # counted at base[i] + col[g + shift[i]], where base[i] is its row
        # times n, plus m * n for a negative term.
        shift = per_key.cumsum()[shift]
        shift -= ends
        base *= n
        base += ((signs < 0) * (m * n))[row_term]
        del row_term
        cuts = range(_EVAL_CHUNK_CELLS, int(ends[-1]) if ends.size else 0, _EVAL_CHUNK_CELLS)
        bounds = [0, *(int(ends.searchsorted(cut)) for cut in cuts), base.size]
        counts = None
        for a, b in zip(bounds, bounds[1:]):
            if a < b:
                w = width[a:b]
                at = np.arange(ends[a] - w[0], ends[b - 1])
                at += shift[a:b].repeat(w)
                cell = base[a:b].repeat(w)
                cell += col[at]  # col is narrower than int64: add it into the cells
                chunk = np.bincount(cell, minlength=2 * m * n)
                counts = chunk if counts is None else np.add(counts, chunk, out=counts)
        if counts is None:  # no terms, or none with a rectangle
            return np.zeros((m, n), dtype=np.int64)
        value = counts[: m * n]
        return np.subtract(value, counts[m * n :], out=value).reshape(m, n)


def round_half_down(values):
    """Nearest-integer rounding with half-integers b+1/2 mapped down to b."""
    arr = np.asarray(values, dtype=np.float64)
    return np.ceil(arr - 0.5).astype(np.int64)

