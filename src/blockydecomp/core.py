"""Matrix containers, blocky-matrix recognition, signed sums, and rounding.

A boolean matrix is *blocky* when its support is a disjoint union of
combinatorial rectangles: the row sets of the rectangles are pairwise
disjoint and so are the column sets.  Equivalently, no 2x2 submatrix
contains exactly three 1-entries.  So each row and each column lies in at
most one rectangle, and ``BlockyMatrix`` stores a matrix as two label
arrays: the rectangle id of every row and of every column, or -1.  A
signed sum then evaluates with one broadcast comparison per term.
Everything in this module is pure and the containers are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "IntMatrix",
    "RealMatrix",
    "BlockyCheck",
    "BlockyMatrix",
    "SignedBlockySum",
    "AlmostIntegerCertificate",
    "is_blocky",
    "round_half_down",
    "convolution_matrix",
    "as_int_array",
    "as_real_array",
]


# Floats at or above this magnitude no longer represent every integer exactly.
_EXACT_FLOAT_INT = 2.0**53
_INT64_MAX = 2**63 - 1


def as_int_array(matrix) -> np.ndarray:
    """Coerce an IntMatrix / array-like into a validated 2-d int64 array."""
    if isinstance(matrix, IntMatrix):
        return matrix.values
    if isinstance(matrix, RealMatrix):
        raise ValueError("integer matrix required, got a real matrix")
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
    if arr.max() > _INT64_MAX or arr.min() < -_INT64_MAX:
        raise ValueError("integer entries must be at most 2**63 - 1 in magnitude")
    return np.ascontiguousarray(arr, dtype=np.int64)


def as_real_array(matrix) -> np.ndarray:
    """Coerce an IntMatrix / RealMatrix / array-like into a 2-d float64 array."""
    if isinstance(matrix, (IntMatrix, RealMatrix)):
        return matrix.values.astype(np.float64)
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


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(as_int_array(self.values)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)

    def __eq__(self, other):
        if isinstance(other, IntMatrix):
            return np.array_equal(self.values, other.values)
        return NotImplemented

    __hash__ = None


@dataclass(frozen=True)
class RealMatrix:
    """Dense real matrix."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(as_real_array(self.values)))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)


Rectangle = tuple[tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class BlockyCheck:
    """Outcome of a blockiness test.

    ``rectangles`` is the canonical rectangle list (rows grouped by identical
    support, ordered by smallest row index) when the matrix is blocky;
    ``witness`` is a ((x1, x2), (y1, y2)) quadruple picking out a 2x2
    submatrix with exactly three 1-entries otherwise.
    """

    blocky: bool
    rectangles: tuple[Rectangle, ...] | None = None
    witness: tuple[tuple[int, int], tuple[int, int]] | None = None

    def __bool__(self) -> bool:
        return self.blocky


def _bool01(matrix) -> np.ndarray:
    arr = as_int_array(matrix)
    bad = (arr != 0) & (arr != 1)
    if bad.any():
        x, y = np.argwhere(bad)[0]
        raise ValueError(f"boolean matrix required; entry ({x},{y}) is {arr[x, y]}")
    return arr


def is_blocky(matrix) -> BlockyCheck:
    """Test whether a boolean matrix is blocky.

    Two rows whose supports intersect must have identical supports; the
    canonical rectangles are then the support classes, numbered by first
    row.  On failure the witness names a 2x2 submatrix with exactly three
    ones, at the first 1-entry (row-major) whose row's support differs from
    that of the first row with a 1 in its column.
    """
    arr = _bool01(matrix)
    owner = arr.argmax(axis=0)  # first row with a 1 in each column
    packed = np.packbits(arr == 1, axis=1)  # one byte string per row support
    _, first, support_class = np.unique(
        packed.view(np.dtype((np.void, packed.shape[1]))).ravel(), return_index=True, return_inverse=True
    )
    head = first[support_class]  # first row with the same support
    clash = (arr == 1) & (head[:, None] != head[owner])
    if clash.any():
        x, y = divmod(int(clash.argmax()), arr.shape[1])
        x0 = int(owner[y])
        y2 = int((arr[x0] != arr[x]).argmax())
        return BlockyCheck(False, witness=((x0, x), tuple(sorted((y, y2)))))
    nonzero = arr.any(axis=1)
    heads_so_far = np.cumsum(nonzero & (head == np.arange(arr.shape[0])))
    row_block = np.where(nonzero, heads_so_far[head] - 1, -1)
    col_block = np.where(arr.any(axis=0), row_block[owner], -1)
    return BlockyCheck(True, rectangles=BlockyMatrix.from_labels(arr.shape, row_block, col_block).rectangles)


def _check_shape(shape) -> tuple[int, int]:
    m, n = shape
    if m < 1 or n < 1:
        raise ValueError("shape must be at least 1x1")
    return int(m), int(n)


def _canonical(row_block: np.ndarray, col_block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Renumber rectangle ids 0..k-1, each present in ``row_block``, by first row."""
    ids, first = np.unique(row_block, return_index=True)
    first = first[ids >= 0]
    rank = np.full(first.size + 1, -1)  # rank[-1] keeps label -1
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[row_block], rank[col_block]


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
    order at the boundary; ``from_labels`` and ``from_label_tables`` (many
    terms at once) validate canonical labels in O(m + n) per term.
    ``rectangles`` is a derived view, for output and tests.
    """

    shape: tuple[int, int]
    row_block: np.ndarray
    col_block: np.ndarray
    count: int

    def __init__(self, shape: tuple[int, int], rectangles):
        m, n = _check_shape(shape)
        row_block, col_block = np.full(m, -1), np.full(n, -1)
        for k, (rows, cols) in enumerate(rectangles):
            rows, cols = sorted(int(r) for r in rows), sorted(int(c) for c in cols)
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
        (term,) = cls.from_label_tables(shape, np.asarray(row_block)[None], np.asarray(col_block)[None])
        return term

    @classmethod
    def from_label_tables(cls, shape: tuple[int, int], row_blocks, col_blocks) -> tuple["BlockyMatrix", ...]:
        """One term per row of a (terms, m) and a (terms, n) table of canonical
        labels, validated together; raises ValueError if any term is invalid."""
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
        present = np.zeros((rb.shape[0], m + 1), dtype=bool)
        present[np.arange(rb.shape[0])[:, None], cb + 1] = True
        if (np.count_nonzero(present[:, 1:], axis=1) != counts).any():
            raise ValueError("every rectangle needs at least one column")
        # Labels lie in [-1, m); int32 halves the cost of ``support``'s broadcast.
        rb, cb = rb.astype(np.int32), cb.astype(np.int32)
        rb.setflags(write=False)
        cb.setflags(write=False)
        terms = tuple(cls.__new__(cls) for _ in range(rb.shape[0]))
        for term, row_block, col_block, count in zip(terms, rb, cb, counts.tolist()):
            vars(term).update(shape=(m, n), row_block=row_block, col_block=col_block, count=count)
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

    @classmethod
    def from_dense(cls, matrix) -> "BlockyMatrix":
        check = is_blocky(matrix)
        if not check:
            raise ValueError(f"matrix is not blocky; witness {check.witness}")
        arr = _bool01(matrix)
        return cls(shape=arr.shape, rectangles=check.rectangles)


@dataclass(frozen=True)
class SignedBlockySum:
    """A formal signed sum ``sum_i sign_i * B_i`` of blocky matrices."""

    shape: tuple[int, int]
    terms: tuple[tuple[int, BlockyMatrix], ...]

    def __post_init__(self):
        m, n = _check_shape(self.shape)
        terms = []
        for sign, b in self.terms:
            if sign not in (-1, 1):
                raise ValueError(f"term sign must be -1 or +1, got {sign}")
            if b.shape != (m, n):
                raise ValueError(f"term shape {b.shape} does not match sum shape {(m, n)}")
            terms.append((int(sign), b))
        object.__setattr__(self, "shape", (m, n))
        object.__setattr__(self, "terms", tuple(terms))

    def __len__(self) -> int:
        return len(self.terms)

    def evaluate(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        for sign, b in self.terms:
            np.add(out, sign, out=out, where=b.support())
        return out


@dataclass(frozen=True)
class AlmostIntegerCertificate:
    """Measured sup-norm distance from a real matrix to its integer rounding."""

    eps: float


def round_half_down(values):
    """Nearest-integer rounding with half-integers b+1/2 mapped down to b."""
    arr = np.asarray(values, dtype=np.float64)
    return np.ceil(arr - 0.5).astype(np.int64)


def convolution_matrix(n: int, f) -> IntMatrix:
    """Cyclic convolution table M[x, y] = f((x - y) mod n) for integer f."""
    if n < 1:
        raise ValueError("n must be positive")
    fv = np.asarray(f)
    if fv.shape != (n,):
        raise ValueError(f"f must be a length-{n} vector")
    fv = as_int_array(fv.reshape(1, -1)).ravel()
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return IntMatrix(fv[idx])
