"""Mistake-tree dimensions and stabilizers against brute-force recursions."""

import itertools
import math

import numpy as np
import pytest

from blockydecomp import littlestone
from blockydecomp.littlestone import (
    BudgetExceeded,
    bucket_stabilize,
    ldim,
    ldim_alpha,
    majority_stabilize,
)

# ---------------------------------------------------------------------------
# Oracles: direct set-based recursions, no bitmasks, no pruning, no
# deduplication -- deliberately dumb so they share nothing with the package.


def brute_ldim(arr: np.ndarray) -> int:
    m, n = arr.shape
    memo: dict[frozenset, int] = {}

    def rec(cols: frozenset) -> int:
        if cols in memo:
            return memo[cols]
        best = 0
        for x in range(m):
            minus = frozenset(y for y in cols if arr[x, y] == -1)
            plus = cols - minus
            if minus and plus:
                best = max(best, 1 + min(rec(minus), rec(plus)))
        memo[cols] = best
        return best

    return rec(frozenset(range(n)))


def brute_ldim_alpha(arr: np.ndarray, alpha: float) -> int:
    m, n = arr.shape
    memo: dict[frozenset, int] = {}

    def thresholds(vals) -> list[float]:
        # Splits change only when w - alpha/2 crosses a value or w + alpha/2
        # does; sample every breakpoint and every midpoint between them.
        pts = sorted({v + alpha / 2 for v in vals} | {v - alpha / 2 for v in vals})
        mids = [(a + b) / 2 for a, b in zip(pts, pts[1:])]
        return pts + mids

    def rec(cols: frozenset) -> int:
        if cols in memo:
            return memo[cols]
        best = 0
        for x in range(m):
            vals = [arr[x, y] for y in cols]
            for w in thresholds(vals):
                low = frozenset(y for y in cols if arr[x, y] <= w - alpha / 2)
                high = frozenset(y for y in cols if arr[x, y] >= w + alpha / 2)
                if low and high:
                    best = max(best, 1 + min(rec(low), rec(high)))
        memo[cols] = best
        return best

    return rec(frozenset(range(n)))


# ---------------------------------------------------------------------------
# Exact dimension


def test_ldim_matches_brute_on_all_3x3_sign_matrices():
    for bits in range(512):
        arr = np.array([1 if bits >> k & 1 else -1 for k in range(9)]).reshape(3, 3)
        assert ldim(arr) == brute_ldim(arr), arr


def test_ldim_matches_brute_on_random_4x6():
    rng = np.random.default_rng(20)
    for _ in range(25):
        arr = rng.choice([-1, 1], size=(4, 6))
        assert ldim(arr) == brute_ldim(arr)


def test_ldim_all_sign_patterns():
    # Columns = every vector in {-1,1}^4: a complete depth-4 tree exists and
    # 16 columns cannot witness more, so the dimension is exactly 4.
    arr = np.array(list(itertools.product([-1, 1], repeat=4))).T
    assert arr.shape == (4, 16)
    assert ldim(arr) == 4


def test_ldim_edge_cases():
    assert ldim([[1, 1], [1, 1]]) == 0
    assert ldim([[1, -1]]) == 1
    assert ldim([[1, -1], [-1, 1]]) == 1
    with pytest.raises(ValueError):
        ldim([[1, 0]])


def test_ldim_restriction_monotone():
    rng = np.random.default_rng(21)
    for _ in range(10):
        arr = rng.choice([-1, 1], size=(4, 7))
        d = ldim(arr)
        keep = rng.permutation(7)[:4]
        assert ldim(arr[:, keep]) <= d


def test_ldim_alpha_matches_brute():
    rng = np.random.default_rng(22)
    grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    for alpha in (0.5, 1.0, 0.75):
        for _ in range(12):
            arr = rng.choice(grid, size=(3, 5))
            assert ldim_alpha(arr, alpha) == brute_ldim_alpha(arr, alpha), (arr, alpha)


def test_ldim_alpha_two_equals_sign_ldim():
    rng = np.random.default_rng(23)
    for _ in range(15):
        arr = rng.choice([-1, 1], size=(4, 6))
        assert ldim_alpha(arr.astype(float), 2.0) == ldim(arr)


def test_ldim_alpha_antitone_in_alpha():
    rng = np.random.default_rng(24)
    for _ in range(10):
        arr = np.round(rng.uniform(-2, 2, size=(4, 6)), 2)
        dims = [ldim_alpha(arr, a) for a in (0.25, 0.5, 1.0, 2.0)]
        assert dims == sorted(dims, reverse=True)


def test_ldim_alpha_validation():
    for alpha in (0.0, -1.0, math.nan, math.inf, -math.inf):
        for arr in ([[0.0, 1.0]], [[0.0]]):
            with pytest.raises(ValueError, match="alpha"):
                ldim_alpha(arr, alpha)


def test_budget_exceeded():
    arr = np.array(list(itertools.product([-1, 1], repeat=4))).T
    with pytest.raises(BudgetExceeded):
        ldim(arr, budget=3)


# ---------------------------------------------------------------------------
# _SplitEngine against the per-row, per-value loop build and full-scan
# recursion it replaced


class LoopSplitEngine:
    """Reference: the loop build, a full scan of every split pair at every node."""

    def __init__(self, values, alpha, budget=10**7):
        arr = np.asarray(values, dtype=np.float64)
        m, n = arr.shape
        first_cols: dict[bytes, int] = {}
        for y in range(n):
            first_cols.setdefault(arr[:, y].tobytes(), y)
        vals = arr[:, sorted(first_cols.values())]
        k = vals.shape[1]
        self.full_mask = (1 << k) - 1
        self.alpha = float(alpha)
        self.budget = int(budget)
        self.expansions = 0
        self.memo: dict[int, int] = {}
        row_seen: set[bytes] = set()
        self.dim_pairs = []
        for x in range(m):
            key = vals[x].tobytes()
            if key in row_seen:
                continue
            row_seen.add(key)
            v = vals[x]
            order = np.argsort(v, kind="stable")
            sv = v[order]
            prefix = []
            acc = 0
            for idx in order:
                acc |= 1 << int(idx)
                prefix.append(acc)
            i = 0
            while i < k:
                j = i
                while j + 1 < k and sv[j + 1] == sv[i]:
                    j += 1
                cut = int(np.searchsorted(sv, sv[i] + self.alpha, side="left"))
                if cut < k:
                    pair = (prefix[j], self.full_mask ^ prefix[cut - 1])
                    if pair not in self.dim_pairs:
                        self.dim_pairs.append(pair)
                i = j + 1

    def dim(self, mask):
        cached = self.memo.get(mask)
        if cached is not None:
            return cached
        self.expansions += 1
        if self.expansions > self.budget:
            raise BudgetExceeded("reference budget")
        best = 0
        ncols = mask.bit_count()
        if ncols >= 2:
            cap = ncols.bit_length() - 1
            cands = []
            for low, high in self.dim_pairs:
                lo = low & mask
                if not lo:
                    continue
                hi = high & mask
                if not hi:
                    continue
                a = lo.bit_count()
                b = hi.bit_count()
                cands.append((a, lo, hi) if a <= b else (b, hi, lo))
            cands.sort(key=lambda t: -t[0])
            for mn, small, large in cands:
                if 1 + (mn.bit_length() - 1) <= best:
                    break
                d1 = self.dim(small)
                if 1 + d1 <= best:
                    continue
                d2 = self.dim(large)
                value = 1 + (d1 if d1 < d2 else d2)
                if value > best:
                    best = value
                    if best >= cap:
                        break
        self.memo[mask] = best
        return best


def _engine_cases():
    """(values, alpha) inputs: seeded random ones plus the build's edge cases."""
    rng = np.random.default_rng(2026)
    cases = []
    for _ in range(150):
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        levels = int(rng.integers(2, 7))
        arr = rng.integers(-levels, levels + 1, size=(m, n)) * 0.125
        if rng.random() < 0.5:  # duplicate rows and columns
            arr = arr[rng.integers(0, m, size=m)][:, rng.integers(0, n, size=n)]
        cases.append((arr, float(rng.choice([0.125, 0.25, 0.375, 1.0]))))
    for _ in range(30):
        m, n = int(rng.integers(1, 6)), int(rng.integers(2, 10))
        cases.append((np.round(rng.uniform(-2, 2, size=(m, n)), 3), float(rng.uniform(0.05, 1.5))))
    for _ in range(20):
        cases.append((rng.choice([-1.0, 1.0], size=(int(rng.integers(1, 7)), 8)), 2.0))
    # -0.0 and 0.0 in one row: distinct column bytes, one split value
    cases.append((np.array([[0.0, -0.0, 1.0, -0.0], [1.0, 1.0, 0.0, 0.0]]), 1.0))
    cases.append((np.array([[-0.0, 0.0, 0.5, 0.0, -0.5]]), 0.5))
    # gaps exactly alpha, and 0.1 steps where v + alpha rounds above the next value
    cases.append((np.array([[0.0, 0.25, 0.5, 0.75, 1.0], [1.0, 0.5, 0.0, 0.75, 0.25]]), 0.25))
    cases.append((np.array([[0.0, 0.1, 0.2, 0.3, 0.4, 0.5], [0.5, 0.3, 0.1, 0.4, 0.2, 0.0]]), 0.1))
    # duplicate rows and columns only
    cases.append((np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 1.0))
    # one row, one column, all columns equal
    cases.append((np.array([[3.0, 1.0, 2.0, 0.0, 1.0, 3.0]]), 1.0))
    cases.append((np.array([[1.0], [0.0], [-2.0]]), 0.5))
    cases.append((np.ones((4, 5)), 0.5))
    # more than 64 distinct columns (masks wider than one machine word)
    cols = np.array(list(itertools.product([0.0, 1.0, 2.0], repeat=4))).T
    cases.append((cols[:, rng.permutation(cols.shape[1])[:70]], 1.0))
    cases.append((np.array(list(itertools.product([-1.0, 1.0], repeat=7))).T, 2.0))
    return cases


@pytest.mark.parametrize("scan_elements", [1, 5, None])
def test_split_engine_matches_loop_reference(scan_elements, monkeypatch):
    if scan_elements is not None:
        monkeypatch.setattr(littlestone, "_SCAN_ELEMENTS", scan_elements)
    for arr, alpha in _engine_cases():
        ref = LoopSplitEngine(arr, alpha)
        eng = littlestone._SplitEngine(arr, alpha, budget=10**7)
        assert eng.dim_pairs == ref.dim_pairs
        assert eng.full_mask == ref.full_mask
        assert eng.dim(eng.full_mask) == ref.dim(ref.full_mask)
        assert eng.expansions == ref.expansions


def test_public_dimensions_match_loop_reference():
    for arr, alpha in _engine_cases():
        ref = LoopSplitEngine(arr, alpha)
        d = ref.dim(ref.full_mask)
        assert ldim_alpha(arr, alpha) == d
        if alpha == 2.0:
            assert ldim(arr.astype(int)) == d


def test_split_engine_budget_boundary():
    arr = np.array(list(itertools.product([0.0, 1.0, 2.0], repeat=3))).T
    ref = LoopSplitEngine(arr, 1.0)
    d = ref.dim(ref.full_mask)
    spent = ref.expansions
    assert spent > 2
    eng = littlestone._SplitEngine(arr, 1.0, budget=spent)
    assert eng.dim(eng.full_mask) == d and eng.expansions == spent
    assert ldim_alpha(arr, 1.0, budget=spent) == d
    with pytest.raises(BudgetExceeded):
        littlestone._SplitEngine(arr, 1.0, budget=spent - 1).dim(eng.full_mask)
    with pytest.raises(BudgetExceeded):
        ldim_alpha(arr, 1.0, budget=spent - 1)


def test_ldim_alpha_one_column_builds_no_engine(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("engine built for a one-column input")

    monkeypatch.setattr(littlestone, "_SplitEngine", refuse)
    assert ldim_alpha([[0.5], [-3.0], [2.0]], 0.25) == 0
    assert ldim_alpha(np.zeros((4, 1)), 1.0) == 0


def test_ldim_alpha_split_survives_an_absorbed_gap():
    # -1e17 + 0.125 rounds to -1e17; the high side must still exclude column 0.
    arr = np.array([[-1e17, 1.0]])
    assert ldim_alpha(arr, 0.125) == 1
    assert littlestone._SplitEngine(arr, 0.125, budget=10**7).dim_pairs == [(1, 2)]


# ---------------------------------------------------------------------------
# Stabilizers


def test_majority_no_shrink_needed():
    res = majority_stabilize([[1, 1, 1, -1]], eps=0.3)
    assert res.columns == (0, 1, 2, 3)
    assert res.row_values.tolist() == [1]
    assert res.violation_rates.tolist() == [0.25]
    assert res.steps == 0 and res.certified


def test_majority_single_shrink_tie_keeps_minus():
    res = majority_stabilize([[1, 1, -1, -1]], eps=0.3)
    assert res.columns == (2, 3)
    assert res.row_values.tolist() == [-1]
    assert res.violation_rates.tolist() == [0.0]
    assert res.steps == 1
    assert len(res.columns) >= res.size_bound - 1e-9


def test_majority_postconditions_random():
    rng = np.random.default_rng(26)
    for t in range(40):
        arr = rng.choice([-1, 1], size=(5, 32))
        eps = 0.25
        res = majority_stabilize(arr, eps=eps)
        sub = arr[:, list(res.columns)]
        rates = (sub != res.row_values[:, None]).mean(axis=1)
        assert np.array_equal(rates, res.violation_rates)
        assert (rates <= eps).all()
        assert res.certified
        assert len(res.columns) >= res.size_bound - 1e-9
        assert res.size_bound == 32 * eps**res.steps


def test_majority_eps_validation():
    for eps in (0.0, 0.5, -0.1, 0.7):
        with pytest.raises(ValueError):
            majority_stabilize([[1, -1]], eps=eps)


def test_bucket_no_shrink_frozen_example():
    res = bucket_stabilize([[0.0, 1.0, 0.0, 0.0]], alpha=0.125, eps=0.3)
    assert res.columns == (0, 1, 2, 3)
    assert res.row_values.tolist() == [-0.125]
    assert res.violation_rates.tolist() == [0.25]
    assert res.steps == 0 and res.size_bound == 4.0 and res.certified


def test_bucket_eps_zero_shrinks_to_one_column():
    res = bucket_stabilize([[-1.0, 1.0]], alpha=0.5, eps=0.0)
    assert res.columns == (0,)
    assert res.row_values.tolist() == [-1.0]
    assert res.steps == 1 and res.certified


def test_bucket_postconditions_random():
    rng = np.random.default_rng(27)
    for t in range(20):
        arr = rng.uniform(-2, 2, size=(4, 48))
        alpha, eps = 0.125, 0.1
        res = bucket_stabilize(arr, alpha=alpha, eps=eps)
        assert res.columns, "stabilizer returned an empty column set"
        sub = arr[:, list(res.columns)]
        for x in range(4):
            rate = np.mean(np.abs(sub[x] - res.row_values[x]) >= 2 * alpha)
            assert rate == res.violation_rates[x]
            assert rate <= eps + 1e-12
        if res.certified:
            assert len(res.columns) >= res.size_bound - 1e-9


def test_bucket_validation():
    for alpha, eps in [(0.0, 0.1), (math.nan, 0.1), (math.inf, 0.1), (0.5, -0.1), (0.5, math.nan)]:
        with pytest.raises(ValueError):
            bucket_stabilize([[0.0, 1.0, 3.0]], alpha=alpha, eps=eps)


# ---------------------------------------------------------------------------
# bucket_stabilize against the row-by-row loop scan it replaced


def loop_bucket_stabilize(arr, alpha, eps, budget=10**7):
    """Reference: one count per (row, grid value) and per bucket, in Python loops."""
    arr = np.asarray(arr, dtype=np.float64)
    m, n = arr.shape
    big_m = float(np.abs(arr).max())
    n_buckets = math.ceil(2 * big_m / alpha)
    while -big_m + n_buckets * alpha < big_m:
        n_buckets += 1
    grid = -big_m + alpha * np.arange(n_buckets + 1, dtype=np.float64)
    window = 2 * alpha
    cols = np.arange(n)
    steps = 0
    certified = True
    while True:
        sub = arr[:, cols]
        size = cols.size
        g = np.empty(m, dtype=np.float64)
        bad_row = -1
        for x in range(m):
            accepted = None
            for center in grid:
                outside = int(np.count_nonzero(np.abs(sub[x] - center) >= window))
                if outside / size <= eps:
                    accepted = float(center)
                    break
            if accepted is None:
                bad_row = x
                break
            g[x] = accepted
        if bad_row < 0:
            break
        vals = sub[bad_row]
        counts = [
            int(np.count_nonzero((vals >= grid[i - 1]) & (vals <= grid[i])))
            for i in range(1, n_buckets + 1)
        ]
        i_star = int(np.argmax(counts)) + 1
        j_star = None
        for threshold in (max(eps * size / n_buckets, 1.0), 1.0):
            for j in range(1, n_buckets + 1):
                if abs(j - i_star) >= 2 and counts[j - 1] >= threshold:
                    j_star = j
                    break
            if j_star is not None:
                break
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
    sub = arr[:, cols]
    rates = np.array(
        [np.count_nonzero(np.abs(sub[x] - g[x]) >= window) / cols.size for x in range(m)]
    )
    return tuple(int(y) for y in cols), g, rates, steps, certified


def _stabilizer_cases():
    rng = np.random.default_rng(41)
    cases = [
        # entries exactly at center +- 2*alpha: 0 and +-0.5 with alpha 0.25
        (np.array([[0.0, 0.5, -0.5, 0.0, 0.5], [0.5, 0.5, 0.0, 1.0, -0.5]]), 0.25, 0.0),
        (np.array([[0.0, 0.5, -0.5, 0.0, 0.5], [0.5, 0.5, 0.0, 1.0, -0.5]]), 0.25, 0.2),
        (np.array([[0.0, 0.5, -0.5, 0.0, 0.5], [0.5, 0.5, 0.0, 1.0, -0.5]]), 0.25, 0.4),
        (np.array([[-1.0, 1.0]]), 0.5, 0.0),
        (np.zeros((3, 4)), 0.125, 0.0),
        # widely spread rows: several rows accept nothing before the end
        (np.array([[-3.0, -3.0, 0.0, 0.0, 3.0, 3.0, 3.0, 1.0]] * 2 + [[0, 2, 0, 2, -2, 0, 2, -2]]), 0.125, 0.0),
        # 1 x 600 over a 257-value grid: the scan chunks the grid
        (rng.integers(-16, 17, size=(1, 600)).astype(float), 0.125, 0.1),
    ]
    for t in range(60):
        m, n = int(rng.integers(1, 7)), int(rng.integers(1, 40))
        base = rng.integers(-3, 4, size=(m, int(rng.integers(1, 5))))
        arr = base[:, rng.integers(0, base.shape[1], size=n)].astype(float)
        if t % 3 == 0:
            arr += rng.normal(0, 0.05, size=arr.shape)
        elif t % 3 == 1:
            arr = rng.choice([-0.75, -0.25, 0.0, 0.25, 0.5], size=(m, n))
        cases.append((arr, [0.125, 0.25, 0.5][t % 3], [0.0, 0.05, 0.2, 0.3][t % 4]))
    return cases


@pytest.mark.parametrize("scan_elements", [1, 7, 64, None])
def test_bucket_matches_loop_reference(scan_elements, monkeypatch):
    if scan_elements is not None:  # tiny chunks cross every chunk boundary
        monkeypatch.setattr(littlestone, "_SCAN_ELEMENTS", scan_elements)
    multi_step = 0
    for arr, alpha, eps in _stabilizer_cases():
        cols, g, rates, steps, certified = loop_bucket_stabilize(arr, alpha, eps)
        res = bucket_stabilize(arr, alpha=alpha, eps=eps)
        assert res.columns == cols
        assert res.row_values.tobytes() == g.tobytes()
        assert res.violation_rates.tobytes() == rates.tobytes()
        assert (res.steps, res.certified) == (steps, certified)
        multi_step += steps >= 2
    assert multi_step >= 5  # the cases reach repeated non-accepting rows


def test_bucket_budget_fallback_matches_loop_reference():
    rng = np.random.default_rng(43)
    arr = rng.integers(-2, 3, size=(6, 40)).astype(float)
    cols, g, rates, steps, certified = loop_bucket_stabilize(arr, 0.125, 0.0, budget=3)
    res = bucket_stabilize(arr, alpha=0.125, eps=0.0, budget=3)
    assert not certified and steps >= 1
    assert (res.columns, res.steps, res.certified) == (cols, steps, certified)
    assert res.row_values.tobytes() == g.tobytes()
    assert res.violation_rates.tobytes() == rates.tobytes()


def test_bucket_scan_is_chunked_not_per_row(monkeypatch):
    rng = np.random.default_rng(44)
    m, size = 64, 64
    arr = np.repeat(rng.integers(-3, 4, size=(m, 4)), size // 4, axis=1).astype(float)
    arr += rng.normal(0, 0.01, size=arr.shape)
    calls = []
    real = np.count_nonzero

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "count_nonzero", counted)
    res = bucket_stabilize(arr, alpha=0.125, eps=0.01)
    grid_size = math.ceil(2 * np.abs(arr).max() / 0.125) + 1
    chunks = math.ceil(m / max(1, littlestone._SCAN_ELEMENTS // (grid_size * size)))
    assert res.steps >= 1
    # one call per scanned row chunk and step, plus the final rates
    assert len(calls) <= (res.steps + 1) * chunks + 1 < m
