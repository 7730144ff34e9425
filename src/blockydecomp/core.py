"""Matrix containers, blocky-matrix recognition, signed sums, and rounding.

A boolean matrix is *blocky* when its support is a disjoint union of
combinatorial rectangles: the row sets of the rectangles are pairwise
disjoint and so are the column sets.  Equivalently, no 2x2 submatrix
contains exactly three 1-entries.  Everything in this module is pure and
the containers are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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

    def __array__(self, dtype=None):
        return self.values if dtype is None else self.values.astype(dtype)

    def __eq__(self, other):
        if isinstance(other, IntMatrix):
            return np.array_equal(self.values, other.values)
        return NotImplemented

    __hash__ = None


@dataclass(frozen=True)
class RealMatrix:
    """Dense real matrix; ``max_abs`` is the cached sup-norm."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _freeze(as_real_array(self.values)))

    @cached_property
    def max_abs(self) -> float:
        return float(np.abs(self.values).max())

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def __array__(self, dtype=None):
        return self.values if dtype is None else self.values.astype(dtype)


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
    canonical rectangles are then the support classes.  On failure the
    returned witness names a 2x2 submatrix with exactly three ones.
    """
    arr = _bool01(matrix)
    m, _ = arr.shape
    supports = [tuple(np.flatnonzero(arr[x]).tolist()) for x in range(m)]
    col_owner: dict[int, int] = {}
    for x in range(m):
        sup = supports[x]
        for y in sup:
            if y not in col_owner:
                col_owner[y] = x
                continue
            x0 = col_owner[y]
            if supports[x0] != sup:
                s0, s1 = set(supports[x0]), set(sup)
                y2 = min(s0.symmetric_difference(s1))
                return BlockyCheck(False, witness=((x0, x), tuple(sorted((y, y2)))))
    groups: dict[tuple[int, ...], list[int]] = {}
    for x, sup in enumerate(supports):
        if sup:
            groups.setdefault(sup, []).append(x)
    rects = sorted(
        ((tuple(rows), cols) for cols, rows in groups.items()),
        key=lambda rc: rc[0][0],
    )
    return BlockyCheck(True, rectangles=tuple(rects))


@dataclass(frozen=True)
class BlockyMatrix:
    """A blocky boolean matrix stored as its disjoint rectangle list."""

    shape: tuple[int, int]
    rectangles: tuple[Rectangle, ...]

    def __post_init__(self):
        m, n = self.shape
        if m < 1 or n < 1:
            raise ValueError("shape must be at least 1x1")
        norm = []
        seen_rows: set[int] = set()
        seen_cols: set[int] = set()
        for rows, cols in self.rectangles:
            rows = tuple(sorted(int(r) for r in rows))
            cols = tuple(sorted(int(c) for c in cols))
            if not rows or not cols:
                raise ValueError("rectangles must have nonempty row and column sets")
            if rows[0] < 0 or rows[-1] >= m or cols[0] < 0 or cols[-1] >= n:
                raise ValueError("rectangle index out of range")
            if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
                raise ValueError("rectangle index repeated")
            if seen_rows.intersection(rows):
                raise ValueError("rectangle row sets overlap")
            if seen_cols.intersection(cols):
                raise ValueError("rectangle column sets overlap")
            seen_rows.update(rows)
            seen_cols.update(cols)
            norm.append((rows, cols))
        norm.sort(key=lambda rc: rc[0][0] if rc[0] else -1)
        object.__setattr__(self, "shape", (int(m), int(n)))
        object.__setattr__(self, "rectangles", tuple(norm))

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        for rows, cols in self.rectangles:
            out[np.ix_(rows, cols)] = 1
        return out

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
        m, n = self.shape
        if m < 1 or n < 1:
            raise ValueError("shape must be at least 1x1")
        terms = []
        for sign, b in self.terms:
            if sign not in (-1, 1):
                raise ValueError(f"term sign must be -1 or +1, got {sign}")
            if b.shape != (m, n):
                raise ValueError(f"term shape {b.shape} does not match sum shape {(m, n)}")
            terms.append((int(sign), b))
        object.__setattr__(self, "shape", (int(m), int(n)))
        object.__setattr__(self, "terms", tuple(terms))

    def __len__(self) -> int:
        return len(self.terms)

    def evaluate(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.int64)
        for sign, b in self.terms:
            out += sign * b.to_dense()
        return out

    def extended(self, other: "SignedBlockySum") -> "SignedBlockySum":
        if other.shape != self.shape:
            raise ValueError("cannot concatenate sums of different shapes")
        return SignedBlockySum(self.shape, self.terms + other.terms)


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
