"""Greedy row-sum decomposition, average subtraction, greedy column partition.

Three self-contained combinatorial tools used by the pipeline:

* ``greedy_l1_decompose`` writes any integer matrix as a signed sum of
  blocky matrices with at most 2 * (max row l1 norm) terms.  Its kernel,
  ``_peel_tables``, returns the sum's raw label tables without sorting, in
  one pass over the nonzero cells for both signs: past one scan that lists
  those cells, its work and memory follow the nonzero cells, their units
  and the label tables.  The pipeline lifts those tables before validating
  them once.
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

# The density fractions delta at which ``GreedyPartition.density_table``
# counts classes, and at which the suite and the CLI check the cap.
DENSITY_DELTAS = (0.5, 0.25, 0.1, 0.05)


def _peel_term_count(arr: np.ndarray) -> int:
    """``peel_term_count`` of a validated integer array."""
    positive = np.maximum(arr, 0)
    return int(positive.sum(axis=1).max()) + int((positive - arr).sum(axis=1).max())


def peel_term_count(matrix) -> int:
    """``len(greedy_l1_decompose(matrix))``, computed without building the sum:
    the largest positive row sum plus the largest negative row sum."""
    return _peel_term_count(as_int_array(matrix))


def _peel_tables(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The peel of an integer matrix as raw label tables: signs, (terms x m)
    row labels and (terms x n) column labels, as ``greedy_l1_decompose``
    describes them.  An m x 0 input gives empty tables.

    One pass over the nonzero cells peels both signs.  The one scan of all
    m * n cells lists them, the positive cells first and each sign's cells
    row-major.  A row of a sign is a *part row*, numbered m + x for the
    negative part's row x, so the part rows ascend along the list and each
    one's cells are a run.  Row x's t-th unit of a sign lies in that sign's
    round t, and the negative part's rounds follow the positive part's, so
    every unit is placed at once and each (round, column) key is a
    rectangle.  ``np.minimum.at`` over a (rounds x n) table finds each key's
    first row.  Flagging the first rows in a (rounds x m) table, the running
    count of flags along a round gives every key its canonical id, written
    into the column table; each unit's row label is its key's id.  Every
    fancy assignment writes distinct cells.  Nothing is sorted.

    Allocation: index arrays over the nonzero cells and over the units (one
    per unit of a row sum), a (2m + 1) table of part-row bounds, an int64
    (rounds x n) first-row and an int32 (rounds x m) flag table, and the
    int32 label tables.  Past the scan nothing is sized by m * n.
    """
    m, n = arr.shape
    flat = arr.ravel()  # a view: every caller passes a C-ordered array
    cells = (flat != 0).nonzero()[0]  # row * n + column of every nonzero cell
    values = flat[cells]
    negative = values < 0
    negative_at = negative.nonzero()[0]
    order = np.concatenate(((~negative).nonzero()[0], negative_at))
    cells = cells[order]
    units = np.abs(values[order])
    row = cells // n
    col = cells - row * n
    part_row = row.copy()
    part_row[cells.size - negative_at.size :] += m  # the negative cells' part rows
    # ends[i]: the units of the cells before cell i; first_unit[p]: those before part row p.
    ends = np.concatenate(([0], units)).cumsum()
    first_unit = ends[part_row.searchsorted(np.arange(2 * m + 1))]
    rounds = (first_unit[1:] - first_unit[:-1]).reshape(2, m).max(axis=1).tolist()
    shift = -first_unit[:-1]  # a unit's round is its index plus its part row's shift
    shift[m:] += rounds[0]
    unit_round = np.arange(ends[-1])
    unit_round += shift[part_row].repeat(units)
    unit_row = row.repeat(units)
    key = unit_round * n
    key += col.repeat(units)  # round * n + column
    total = rounds[0] + rounds[1]
    first_row = np.full(total * n, m)
    np.minimum.at(first_row, key, unit_row)
    keys = (first_row < m).nonzero()[0]
    head = keys // n
    head *= m
    head += first_row[keys]  # round * m + the key's first row
    flags = np.zeros((total, m), dtype=np.int32)
    flags.ravel()[head] = 1  # a row opens at most one key per round
    row_block = np.full((total, m), -1, dtype=np.int32)
    col_block = np.full((total, n), -1, dtype=np.int32)
    key_ids = col_block.ravel()  # a view
    key_ids[keys] = flags.cumsum(axis=1, dtype=np.int32).ravel()[head] - 1
    unit_round *= m
    unit_round += unit_row  # round * m + row
    row_block.ravel()[unit_round] = key_ids[key]
    return np.array((1, -1)).repeat(rounds), row_block, col_block


def greedy_l1_decompose(matrix) -> SignedBlockySum:
    """Signed blocky sum evaluating exactly to the input.

    The positive and negative parts are each peeled one unit per round:
    every row with a surviving nonzero entry in the part donates one unit
    in its smallest nonzero column, and rows are grouped by chosen column into
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

    def density_table(self) -> list[dict]:
        """For each (x, b) and each delta of ``DENSITY_DELTAS``, in order: the
        number of classes where row x equals b on at least a delta fraction
        of columns, and its harmonic ceiling."""
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
            for delta in DENSITY_DELTAS
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
