"""Greedy row-sum decomposition, average subtraction, greedy column partition.

Three self-contained combinatorial tools used by the pipeline:

* ``greedy_l1_decompose`` writes any integer matrix as a signed sum of
  blocky matrices with at most 2 * (max row l1 norm) terms.  Its kernel,
  ``_peel_tables``, returns the sum's raw label tables without sorting;
  the pipeline lifts those tables before validating them once.
* ``subtract_average`` locates the vectors whose squared norm drops by at
  least half the squared mean norm when the mean is subtracted.
* ``greedy_partition`` repeatedly extracts the largest column class that
  is constant (and nonzero) in some row, yielding the harmonic density
  guarantee used downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import SignedBlockySum, _freeze, as_int_array

__all__ = [
    "PartitionClass",
    "GreedyPartition",
    "AverageSplit",
    "greedy_l1_decompose",
    "peel_term_count",
    "subtract_average",
    "greedy_partition",
]


def _signed_parts(arr: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The peel's positive and negative part of the matrix, each with its row sums;
    the negative part is clipped in place."""
    negative = np.negative(arr)
    parts = (np.maximum(arr, 0), np.maximum(negative, 0, out=negative))
    return tuple((part, part.sum(axis=1)) for part in parts)


def peel_term_count(matrix) -> int:
    """``len(greedy_l1_decompose(matrix))``, computed without building the sum:
    the largest positive row sum plus the largest negative row sum."""
    return sum(int(row_sums.max()) for _, row_sums in _signed_parts(as_int_array(matrix)))


def _peel_tables(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The peel of an integer matrix as raw label tables: signs, (terms x m)
    row labels and (terms x n) column labels, as ``greedy_l1_decompose``
    describes them.  An m x 0 input gives empty tables.

    Allocation: the two signed parts, in the input's dtype (``decompose``
    passes int16 columns), and the int32 label tables.  Each part is then
    written by ``_peel_part`` into its own rounds of the tables, with
    arrays over its units (one per unit of a row sum) and over its nonzero
    cells, never over all m * n cells, plus an int32 (rounds x n) and
    (rounds x m) key table; they are freed before the next part's.

    Nothing is sorted.  Row x's t-th unit lies in round t, so every unit of
    a part is placed at once, and each (round, column) key is a rectangle.
    ``np.minimum.at`` over a (rounds x n) table finds each key's first row.
    Flagging the first rows in a (rounds x m) table, the running count of
    flags along a round gives every key its canonical id, written into the
    column table; each unit's row label is its key's id.  Every fancy
    assignment writes distinct cells.
    """
    m, n = arr.shape
    parts = _signed_parts(arr)
    rounds = [int(row_sums.max()) for _, row_sums in parts]
    row_block = np.full((sum(rounds), m), -1, dtype=np.int32)
    col_block = np.full((sum(rounds), n), -1, dtype=np.int32)
    for first_round, count, (part, row_sums) in zip((0, rounds[0]), rounds, parts):
        if count:
            part_rounds = slice(first_round, first_round + count)
            _peel_part(part, row_sums, row_block[part_rounds], col_block[part_rounds])
    return np.repeat([1, -1], rounds), row_block, col_block


def _peel_part(part: np.ndarray, row_sums: np.ndarray, row_block: np.ndarray, col_block: np.ndarray) -> None:
    """Write one signed part's rounds into its rounds' rows of the label
    tables (contiguous views), as ``_peel_tables`` describes."""
    m, n = part.shape
    unit_row = np.repeat(np.arange(m, dtype=np.int32), row_sums)  # units run row-major, column by column
    unit_round = np.arange(unit_row.size)
    unit_round -= np.repeat(np.cumsum(row_sums) - row_sums, row_sums)
    units = part.ravel()
    cells = np.flatnonzero(units)  # row * n + column of every nonzero cell
    key = unit_round - unit_row
    key *= n
    key += np.repeat(cells, units[cells])  # round * n + column
    first_row = np.full(col_block.size, m, dtype=np.int32)
    np.minimum.at(first_row, key, unit_row)
    keys = np.flatnonzero(first_row < m)
    key_round, head = keys // n, first_row[keys]
    flags = np.zeros(row_block.shape, dtype=np.int32)
    flags[key_round, head] = 1  # a row opens at most one key per round
    key_ids = col_block.ravel()  # a view
    key_ids[keys] = np.cumsum(flags, axis=1, dtype=np.int32)[key_round, head] - 1
    row_block[unit_round, unit_row] = key_ids[key]


def greedy_l1_decompose(matrix) -> SignedBlockySum:
    """Signed blocky sum evaluating exactly to the input.

    The positive and negative parts are peeled separately, one unit per
    round: every row with a surviving nonzero entry donates one unit in its
    smallest nonzero column, and rows are grouped by chosen column into
    single-column rectangles (disjoint by construction, hence blocky),
    numbered within their round by first row (the canonical id).  Each
    round is one term, the positive part's rounds first.  ``_peel_tables``
    writes every term's labels straight into one (terms x m) and one
    (terms x n) table, validated once by ``SignedBlockySum.from_label_tables``.
    Round count per part equals that part's max row sum, so the term count
    is ``peel_term_count``, at most 2 * max_x sum_y |A(x,y)|.
    """
    arr = as_int_array(matrix)
    return SignedBlockySum.from_label_tables(arr.shape, *_peel_tables(arr))


@dataclass(frozen=True, eq=False)
class AverageSplit:
    """Vectors surviving the mean-subtraction norm test.

    ``kept`` indexes vectors with ||v - avg||^2 <= ||v||^2 - c^2/2 where
    c = ||avg||; ``drops`` is the per-vector squared-norm decrease and
    ``bound`` the guaranteed lower bound on len(kept).
    """

    average: np.ndarray
    norm_of_average: float
    kept: tuple[int, ...]
    drops: np.ndarray
    bound: float

    def __post_init__(self):
        object.__setattr__(self, "average", _freeze(np.asarray(self.average)))
        object.__setattr__(self, "drops", _freeze(np.asarray(self.drops)))


def subtract_average(vectors, gamma_budget: float) -> AverageSplit:
    """Mean-subtraction split of row vectors with norms within gamma_budget.

    The mean identity sum ||v_i - avg||^2 = sum ||v_i||^2 - r*c^2 forces at
    least c^2 * r / (2*gamma^2) vectors to pass the membership test; that
    bound is asserted (with 1e-9*r slack for roundoff).
    """
    vecs = np.asarray(vectors, dtype=np.float64)
    if vecs.ndim != 2 or vecs.shape[0] < 1:
        raise ValueError("vectors must form a nonempty 2-d array (one vector per row)")
    gamma = float(gamma_budget)
    r = vecs.shape[0]
    norms_sq = np.einsum("ij,ij->i", vecs, vecs)
    if norms_sq.max() > (gamma + 1e-9) ** 2:
        raise ValueError(
            f"vector norm {math.sqrt(norms_sq.max()):.12g} exceeds the budget {gamma:.12g}"
        )
    avg = vecs.mean(axis=0)
    c_sq = float(avg @ avg)
    diff = vecs - avg
    diff_sq = np.einsum("ij,ij->i", diff, diff)
    drops = norms_sq - diff_sq
    kept = tuple(int(i) for i in np.flatnonzero(diff_sq <= norms_sq - c_sq / 2 + 1e-12))
    bound = 0.0 if gamma == 0 else c_sq * r / (2 * gamma * gamma)
    if len(kept) < bound - 1e-9 * r:
        raise AssertionError(
            f"mean-subtraction bound violated: kept {len(kept)} < {bound:.12g}"
        )
    return AverageSplit(
        average=avg,
        norm_of_average=math.sqrt(c_sq),
        kept=kept,
        drops=drops,
        bound=bound,
    )


@dataclass(frozen=True)
class PartitionClass:
    columns: tuple[int, ...]
    row: int
    value: int


@dataclass(frozen=True, eq=False)
class GreedyPartition:
    """Ordered classes covering every column exactly once.

    Each class is constant equal to its (nonzero) defining value in its
    defining row; sizes are non-increasing in creation order.  The source
    matrix is kept for density queries.
    """

    classes: tuple[PartitionClass, ...]
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(as_int_array(self.matrix)))

    def __len__(self) -> int:
        return len(self.classes)

    @cached_property
    def class_probabilities(self) -> dict[tuple[int, int], np.ndarray]:
        """Per (row x, nonzero value b of the matrix): for each class, in order,
        the fraction of its columns where row x equals b.

        Keys run over every row and every nonzero value, row-major with values
        ascending; computed on first use.
        """
        values = np.unique(self.matrix[self.matrix != 0])
        per_class = np.empty((self.matrix.shape[0], values.size, len(self.classes)))
        for i, cls in enumerate(self.classes):
            block = self.matrix[:, list(cls.columns)]
            hits = np.count_nonzero(block[:, :, None] == values[None, None, :], axis=1)
            per_class[:, :, i] = hits / len(cls.columns)
        per_class.setflags(write=False)
        return {
            (x, int(b)): per_class[x, j]
            for x in range(self.matrix.shape[0])
            for j, b in enumerate(values)
        }

    def density_table(self, deltas=(0.5, 0.25, 0.1, 0.05)) -> list[dict]:
        """For each (x, b, delta): the number of classes where row x equals b on
        at least a delta fraction of columns, and its harmonic ceiling."""
        ceiling = math.log(self.matrix.shape[1]) + 1
        return [
            {
                "row": x,
                "value": b,
                "delta": delta,
                "count": int(np.count_nonzero(probs >= delta)),
                "ceiling": ceiling / delta,
            }
            for (x, b), probs in self.class_probabilities.items()
            for delta in deltas
        ]


def greedy_partition(matrix) -> GreedyPartition:
    """Partition all columns by repeatedly taking the largest constant class.

    Each step scans every (row, nonzero value) pair, counts its matching
    columns among the remainder, and extracts the largest class; ties prefer
    the smallest row, then the smallest |value|, negative before positive.
    Requires every column to have a nonzero entry.  The scan is one
    ``np.unique`` per step over codes of all rows together, with the same
    classes and order as a per-row count.
    """
    arr = as_int_array(matrix)
    m, n = arr.shape
    zero_cols = np.flatnonzero(~arr.any(axis=0))
    if zero_cols.size:
        raise ValueError(f"all-zero column {int(zero_cols[0])}: caller must strip zero columns")
    # Code each nonzero entry as row * (#values) + rank of its value, ranks
    # ordering values by |b| with negative first: among the largest counts,
    # the smallest code is then the tie-break winner.
    nonzero = arr != 0
    values, value_index = np.unique(arr[nonzero], return_inverse=True)
    order = np.lexsort((values > 0, np.abs(values)))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    codes = np.full(arr.shape, -1, dtype=np.int64)
    codes[nonzero] = np.nonzero(nonzero)[0] * values.size + rank[value_index]
    remaining = np.arange(n)
    classes: list[PartitionClass] = []
    while remaining.size:
        sub = codes[:, remaining]
        found, counts = np.unique(sub[sub >= 0], return_counts=True)
        x, r = divmod(int(found[np.argmax(counts)]), values.size)
        b = int(values[order[r]])
        mask = arr[x, remaining] == b
        members = remaining[mask]
        classes.append(PartitionClass(columns=tuple(members.tolist()), row=x, value=b))
        remaining = remaining[~mask]
    sizes = [len(c.columns) for c in classes]
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)):
        raise AssertionError("greedy class sizes must be non-increasing")
    return GreedyPartition(classes=tuple(classes), matrix=arr)
