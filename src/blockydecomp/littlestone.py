"""Exact mistake-tree dimensions and the two column-stabilization procedures.

The dimension of a sign matrix is computed by the classical recursion: a
row splits the columns into its -1 class and its +1 class, and the
dimension is the best value of 1 + min(dim of either class), memoized on
column subsets.  The weighted variant replaces the sign split by a
threshold split at gap ``alpha``: the low side holds columns with value
<= w - alpha/2, the high side those with value >= w + alpha/2.

Both stabilizers shrink a column set until every row is near-constant on
it, with counted (not estimated) violation rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _byte_keys, _freeze, as_int_array, as_real_array

__all__ = [
    "BudgetExceeded",
    "DEFAULT_BUDGET",
    "StabilizationResult",
    "ldim",
    "ldim_alpha",
    "majority_stabilize",
    "bucket_stabilize",
]

DEFAULT_BUDGET = 10**7


class BudgetExceeded(RuntimeError):
    """The exact recursion would exceed its node-expansion budget."""


def _sign_array(matrix) -> np.ndarray:
    arr = as_int_array(matrix)
    bad = (arr != 1) & (arr != -1)
    if bad.any():
        x, y = np.argwhere(bad)[0]
        raise ValueError(f"sign matrix required; entry ({x},{y}) is {arr[x, y]}")
    return arr


# Array scans (the split-pair build here, the stabilizer's acceptance test
# below) work in chunks sized so that their temporaries hold about this many
# entries: enough to amortize per-call overhead without raising peak memory.
_SCAN_ELEMENTS = 1 << 16


def _bitmasks(bits: np.ndarray) -> list[int]:
    """Each row of a 2-d bool array as a Python int with bit y set for column y."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width)]


class _SplitEngine:
    """Bitmask recursion shared by the exact dimension computations.

    The build is a few array calls.  Duplicate columns, then duplicate
    rows, are collapsed by byte-exact ``np.unique`` on ``np.void`` views
    (first-occurrence order; neither changes the dimension), and column
    subsets become Python-int bitmasks.  Every useful threshold split of a
    kept row is one (low_mask, high_mask) pair, all pairs built by one
    broadcast comparison per chunk and packed with ``np.packbits``: for
    each distinct row value v, ascending, low = {value <= v} and high =
    {value >= v + alpha} at w = v + alpha/2, kept when high is nonempty.
    Only these maximal pairs are needed: the split at w = v + alpha/2
    dominates the one at w = v' - alpha/2, so dropping the dominated family
    cannot change the recursion's max.

    The recursion passes each node's deduplicated restricted pairs, in
    first-occurrence order, to its children: a child's columns are a subset
    of its parent's, so no other pair can split it, and the candidates, their
    sorted order and the expansion count are those of a scan over every
    pair.  Search is depth-capped by log2(#columns) -- a tree's leaves are
    distinct columns -- and branch-and-bound prunes candidates whose
    smaller side is already too small.
    """

    def __init__(self, values: np.ndarray, alpha: float, budget: int):
        arr = np.asarray(values, dtype=np.float64)
        vals = arr[:, np.sort(np.unique(_byte_keys(arr.T), return_index=True)[1])]
        k = vals.shape[1]
        self.full_mask = (1 << k) - 1
        self.budget = int(budget)
        self.expansions = 0
        self.memo: dict[int, int] = {}

        kept = vals[np.sort(np.unique(_byte_keys(vals), return_index=True)[1])]
        ordered = np.sort(kept, axis=1)
        first_of_value = np.ones(ordered.shape, dtype=bool)
        first_of_value[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        pair_row, pair_col = np.nonzero(first_of_value)
        v = ordered[pair_row, pair_col]
        # The high cut stays strictly above v even where v + alpha rounds to
        # v, so the two sides are always disjoint.
        high = np.maximum(v + float(alpha), np.nextafter(v, np.inf))
        splits = high <= ordered[pair_row, -1]
        pair_row, v, high = pair_row[splits], v[splits], high[splits]
        lows: list[int] = []
        highs: list[int] = []
        step = max(1, _SCAN_ELEMENTS // k)
        for start in range(0, v.size, step):
            block = kept[pair_row[start : start + step]]
            lows += _bitmasks(block <= v[start : start + step, None])
            highs += _bitmasks(block >= high[start : start + step, None])
        self.dim_pairs: list[tuple[int, int]] = list(dict.fromkeys(zip(lows, highs)))

    def dim(self, mask: int) -> int:
        """Exact dimension of the column subset ``mask`` (memoized, budgeted)."""
        return self._dim(mask, self.dim_pairs)

    def _dim(self, mask: int, pairs: list[tuple[int, int]]) -> int:
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        self.expansions += 1
        if self.expansions > self.budget:
            raise BudgetExceeded(
                f"exact dimension recursion exceeded its budget of {self.budget} node visits"
            )
        best = 0
        ncols = mask.bit_count()
        if ncols >= 2:
            cap = ncols.bit_length() - 1
            inherited = []
            cands = []
            for lo, hi in dict.fromkeys((low & mask, high & mask) for low, high in pairs):
                if lo and hi:
                    inherited.append((lo, hi))
                    a = lo.bit_count()
                    b = hi.bit_count()
                    cands.append((a, lo, hi) if a <= b else (b, hi, lo))
            cands.sort(key=lambda t: -t[0])
            for mn, small, large in cands:
                if 1 + (mn.bit_length() - 1) <= best:
                    break
                d1 = self._dim(small, inherited)
                if 1 + d1 <= best:
                    continue
                d2 = self._dim(large, inherited)
                value = 1 + (d1 if d1 < d2 else d2)
                if value > best:
                    best = value
                    if best >= cap:
                        break
        self.memo[mask] = best
        return best


def ldim(matrix, budget: int = DEFAULT_BUDGET) -> int:
    """Exact mistake-tree dimension of a sign matrix."""
    arr = _sign_array(matrix)
    eng = _SplitEngine(arr.astype(np.float64), alpha=2.0, budget=budget)
    return eng.dim(eng.full_mask)


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def ldim_alpha(matrix, alpha: float, budget: int = DEFAULT_BUDGET) -> int:
    """Exact threshold-split dimension at gap ``alpha`` of a real matrix."""
    _check_alpha(alpha)
    arr = as_real_array(matrix)
    if arr.shape[1] == 1:  # no split has two nonempty sides
        return 0
    eng = _SplitEngine(arr, alpha=alpha, budget=budget)
    return eng.dim(eng.full_mask)


@dataclass(frozen=True, eq=False)
class StabilizationResult:
    """Column subset plus a per-row summary function with counted error rates.

    ``row_values`` holds the majority sign (ints) or the grid value g (floats)
    per row; ``violation_rates`` the measured per-row disagreement rate on the
    returned columns; ``size_bound`` the guaranteed lower bound on ``len(columns)``
    implied by the number of shrink steps taken (``certified`` is False when a
    budget fallback decided some step, in which case the bound is not claimed).
    """

    columns: tuple[int, ...]
    row_values: np.ndarray
    violation_rates: np.ndarray
    steps: int
    size_bound: float
    certified: bool

    def __post_init__(self):
        object.__setattr__(self, "row_values", _freeze(np.asarray(self.row_values)))
        object.__setattr__(self, "violation_rates", _freeze(np.asarray(self.violation_rates)))


def majority_stabilize(matrix, eps: float, budget: int = DEFAULT_BUDGET) -> StabilizationResult:
    """Shrink columns of a sign matrix until every row is eps-close to its majority.

    While some row disagrees with its majority sign on more than an eps
    fraction of the surviving columns, both of that row's column classes are
    nonempty; restricting to the class of smaller dimension (ties keep the
    minus class) strictly decreases the dimension, so there are at most
    dim-many restrictions and the kept set has size >= eps^steps * n.
    """
    arr = _sign_array(matrix)
    if not 0 < eps < 0.5:
        raise ValueError("eps must lie strictly between 0 and 1/2")
    m, n = arr.shape
    cols = np.arange(n)
    steps = 0
    while True:
        sub = arr[:, cols]
        size = cols.size
        sums = sub.sum(axis=1)
        sigma = np.where(sums >= 0, 1, -1).astype(np.int64)
        rates = np.count_nonzero(sub != sigma[:, None], axis=1) / size
        violating = np.flatnonzero(rates > eps)
        if violating.size == 0:
            break
        x = int(violating[0])
        minus = cols[sub[x] == -1]
        plus = cols[sub[x] == 1]
        d_minus = ldim(arr[:, minus], budget=budget)
        d_plus = ldim(arr[:, plus], budget=budget)
        cols = minus if d_minus <= d_plus else plus
        steps += 1
        if steps > n:
            raise AssertionError("majority stabilization failed to terminate")
    return StabilizationResult(
        columns=tuple(int(y) for y in cols),
        row_values=sigma,
        violation_rates=rates,
        steps=steps,
        size_bound=n * eps**steps,
        certified=True,
    )


def _first_accepting(sub: np.ndarray, grid: np.ndarray, window: float, eps: float):
    """Smallest accepting grid value per row, and the first row accepting none.

    Returns ``(g, bad_row)`` with ``bad_row = -1`` when every row accepts;
    otherwise ``g`` is filled only for the row chunks before ``bad_row``.
    """
    m, size = sub.shape
    n_grid = grid.size
    g = np.empty(m, dtype=np.float64)
    per_chunk = max(1, _SCAN_ELEMENTS // size)
    centers = min(n_grid, per_chunk)
    rows = max(1, per_chunk // centers)
    for start in range(0, m, rows):
        block = sub[start : start + rows, None, :]
        first = np.full(block.shape[0], n_grid)
        for c0 in range(0, n_grid, centers):
            part = grid[c0 : c0 + centers, None]
            ok = np.count_nonzero(np.abs(block - part) >= window, axis=2) / size <= eps
            first = np.minimum(first, np.where(ok.any(axis=1), c0 + ok.argmax(axis=1), n_grid))
            if (first < n_grid).all():
                break
        rejected = first == n_grid
        if rejected.any():
            return g, start + int(np.argmax(rejected))
        g[start : start + block.shape[0]] = grid[first]
    return g, -1


def bucket_stabilize(
    matrix, alpha: float, eps: float, budget: int = DEFAULT_BUDGET
) -> StabilizationResult:
    """Shrink columns of a real matrix until every row is near one grid value.

    The grid has step alpha over [-M, M] with M the input's max absolute
    entry (kept fixed through all shrink steps).  A row accepts grid value g
    when the fraction of surviving columns with |A(x,y) - g| >= 2*alpha is at
    most eps; the returned g(x) uses the smallest accepting grid index.  When
    some row accepts nothing, its fullest bucket and a disjoint bucket at
    distance >= 2 are compared by exact dimension and the smaller side is
    kept (ties keep the fullest bucket; on budget exhaustion the larger side
    is kept and the result is marked uncertified).  eps = 0 is allowed and
    demands full capture; the size bound is then vacuous after any shrink.

    Each scan is a few array calls with unchanged semantics: the acceptance
    test (the same elementwise comparison) runs as one broadcast per chunk
    of rows, chunks holding about ``_SCAN_ELEMENTS`` (row, grid value,
    column) entries, and a non-accepting row's bucket counts come from one
    sort and two ``searchsorted`` calls.
    """
    arr = as_real_array(matrix)
    _check_alpha(alpha)
    if not eps >= 0:  # also rejects NaN
        raise ValueError(f"eps must be nonnegative, got {eps}")
    m, n = arr.shape
    big_m = float(np.abs(arr).max())
    n_buckets = math.ceil(2 * big_m / alpha)
    while -big_m + n_buckets * alpha < big_m:  # guard against float shortfall
        n_buckets += 1
    grid = -big_m + alpha * np.arange(n_buckets + 1, dtype=np.float64)
    window = 2 * alpha
    cols = np.arange(n)
    steps = 0
    certified = True
    while True:
        sub = arr[:, cols]
        size = cols.size
        g, bad_row = _first_accepting(sub, grid, window, eps)
        if bad_row < 0:
            break
        vals = sub[bad_row]
        ordered = np.sort(vals)  # bucket i holds grid[i-1] <= v <= grid[i]
        counts = np.searchsorted(ordered, grid[1:], side="right") - np.searchsorted(
            ordered, grid[:-1], side="left"
        )
        i_star = int(np.argmax(counts)) + 1  # first maximum = smallest index
        far = np.abs(np.arange(1, n_buckets + 1) - i_star) >= 2
        j_star = None
        for threshold in (max(eps * size / n_buckets, 1.0), 1.0):
            hits = np.flatnonzero(far & (counts >= threshold))
            if hits.size:
                j_star = int(hits[0]) + 1
                break
        if j_star is None:
            raise AssertionError("no far bucket found for a non-accepting row")
        side_i = cols[(vals >= grid[i_star - 1]) & (vals <= grid[i_star])]
        side_j = cols[(vals >= grid[j_star - 1]) & (vals <= grid[j_star])]
        try:
            d_i = ldim_alpha(arr[:, side_i], alpha, budget=budget)
            d_j = ldim_alpha(arr[:, side_j], alpha, budget=budget)
            cols = side_i if d_i <= d_j else side_j
        except BudgetExceeded:
            certified = False
            cols = side_i if side_i.size >= side_j.size else side_j
        steps += 1
        if steps > n:
            raise AssertionError("bucket stabilization failed to terminate")
    sub = arr[:, cols]
    rates = np.count_nonzero(np.abs(sub - g[:, None]) >= window, axis=1) / cols.size
    divisor = max(n_buckets, 1)
    return StabilizationResult(
        columns=tuple(int(y) for y in cols),
        row_values=g,
        violation_rates=rates,
        steps=steps,
        size_bound=n * (eps / divisor) ** steps if steps else float(n),
        certified=certified,
    )
