"""Greedy peel decomposition, mean-subtraction split, greedy column classes."""

import hashlib
import math

import numpy as np
import pytest

from blockydecomp.core import BlockyMatrix, SignedBlockySum, is_blocky
from blockydecomp.factorize import GammaFactorization
from blockydecomp.generators import GeneratorSpec, generate
from blockydecomp.partition import (
    DENSITY_DELTAS,
    _peel_tables,
    greedy_l1_decompose,
    greedy_partition,
    peel_term_count,
    subtract_average,
)
from blockydecomp.pipeline import MAX_DECOMPOSE_ENTRY, decompose


# ---------------------------------------------------------------------------
# greedy_l1_decompose


def test_l1_trace_single_entry():
    s = greedy_l1_decompose([[2]])
    assert len(s.terms) == 2
    assert all(sign == 1 for sign, _ in s.terms)
    assert all(b.rectangles == (((0,), (0,)),) for _, b in s.terms)
    assert s.evaluate().tolist() == [[2]]


def test_l1_trace_upper_triangle():
    s = greedy_l1_decompose([[1, 1], [0, 1]])
    assert len(s.terms) == 2
    first, second = s.terms
    assert first[0] == 1 and first[1].rectangles == (((0,), (0,)), ((1,), (1,)))
    assert second[0] == 1 and second[1].rectangles == (((0,), (1,)),)
    assert s.evaluate().tolist() == [[1, 1], [0, 1]]


def test_l1_trace_mixed_signs():
    s = greedy_l1_decompose([[1, -1]])
    assert len(s.terms) == 2
    assert sorted(sign for sign, _ in s.terms) == [-1, 1]
    assert s.evaluate().tolist() == [[1, -1]]


def test_l1_zero_matrix():
    s = greedy_l1_decompose(np.zeros((2, 3), dtype=int))
    assert s.terms == ()
    assert s.evaluate().tolist() == [[0, 0, 0], [0, 0, 0]]


def test_peel_term_count_equals_peel_length():
    booleans = [((code >> np.arange(9)) & 1).reshape(3, 3) for code in range(512)]  # the zero matrix too
    rng = np.random.default_rng(31)
    integers = [rng.integers(-3, 4, size=(rng.integers(1, 7), rng.integers(1, 7))) for _ in range(200)]
    for arr in booleans + integers:
        assert peel_term_count(arr) == len(greedy_l1_decompose(arr))


def test_l1_random_exactness_and_term_bound():
    rng = np.random.default_rng(30)
    for _ in range(25):
        arr = rng.integers(-4, 5, size=(rng.integers(1, 6), rng.integers(1, 7)))
        s = greedy_l1_decompose(arr)
        assert np.array_equal(s.evaluate(), arr)
        l1 = int(np.abs(arr).sum(axis=1).max()) if arr.size else 0
        assert len(s.terms) <= 2 * l1
        for sign, b in s.terms:
            assert sign in (-1, 1)
            assert is_blocky(b.to_dense())


def _tables_digest(s):
    h = hashlib.sha256(repr(s.shape).encode())
    for table in s.label_tables:
        h.update(repr((table.dtype.str, table.shape)).encode())
        h.update(table.tobytes())
    return h.hexdigest()


def _trivial_certificate(A):
    """U = I, V = A: exact, with gamma the largest column norm."""
    gamma = float(np.sqrt((A * A).sum(axis=0).max()))
    return GammaFactorization(U=np.eye(A.shape[0]), V=A.astype(np.float64), gamma=gamma, residual=0.0)


def _pinned_integer_matrices():
    rng = np.random.default_rng(2027)
    cases = {}
    for m, n in [(1, 1), (1, 9), (7, 1), (5, 6), (8, 8), (6, 13), (12, 5), (16, 16)]:
        A = rng.integers(-5, 6, size=(m, n))
        if m > 2 and n > 2:  # one zero row and one zero column
            A[int(rng.integers(0, m))] = 0
            A[:, int(rng.integers(0, n))] = 0
        cases[f"{m}x{n}"] = A
    return cases


# name -> sha256 of the label tables of (greedy_l1_decompose, decompose),
# recorded with the unique + lexsort peel kernel that _peel_tables replaced
PEEL_TABLE_DIGESTS = {
    "1x1": (
        "8068bb62e597596141a1c480765c4484f6be6e2663d932cadfacb78b768e64f7",
        "8068bb62e597596141a1c480765c4484f6be6e2663d932cadfacb78b768e64f7",
    ),
    "1x9": (
        "b7bf3407be219b8ec547738045ef39fbfe90bc2e3391b1625fa6c1919c6c29f2",
        "f7cd348815b041db9c0c2fc2440d9d4434c93dff54101a1571ae61844716c1e1",
    ),
    "7x1": (
        "bd4c8ebcdc98c33ce96e8aa32cc3e100395ac7e2016c33122f02c67b5b4fbb52",
        "bd4c8ebcdc98c33ce96e8aa32cc3e100395ac7e2016c33122f02c67b5b4fbb52",
    ),
    "5x6": (
        "fd0be4bc19875f06e3f6f4a89ac77ac96040d60cd4b5a997d69830ebe9e961da",
        "fd0be4bc19875f06e3f6f4a89ac77ac96040d60cd4b5a997d69830ebe9e961da",
    ),
    "8x8": (
        "0ddab3a7cb82a10a2ee0480290efbe2555da01b74ff9386aa3241169ff5a02b0",
        "0ddab3a7cb82a10a2ee0480290efbe2555da01b74ff9386aa3241169ff5a02b0",
    ),
    "6x13": (
        "222b69fe6f6bb019d9948dcdb7f071aa8b5c5e0823135e10cd2677e06e8cc422",
        "222b69fe6f6bb019d9948dcdb7f071aa8b5c5e0823135e10cd2677e06e8cc422",
    ),
    "12x5": (
        "62670d6cf7beb0f2f5d2a299dc4f2397a634dc2fb578d7a287fab7cc13c8db4a",
        "62670d6cf7beb0f2f5d2a299dc4f2397a634dc2fb578d7a287fab7cc13c8db4a",
    ),
    "16x16": (
        "18d3481f28c87fdd51ffb75c43fa8714deca9ba8e6c9c794d6a9a7a3688d772a",
        "18d3481f28c87fdd51ffb75c43fa8714deca9ba8e6c9c794d6a9a7a3688d772a",
    ),
    "3x3-booleans": (
        "8422964406cb3d0af92d184c510c1518ba94c621b6e3c7231367205a3b164bbd",
        "b2e6403dcc237cd7fa48bd890198525eb5d5e750f6bb98d7ed9b5637daabfd87",
    ),
    "128-sum": (
        "b9232168c56932dec7161f09cfd5b987cda150f8266d415b5ead07aa98d1c1bd",
        "626e0cca760fcce043827b40ff38b5be5338270e949e18b6951743de183b0cf6",
    ),
}


@pytest.mark.parametrize("name", list(_pinned_integer_matrices()))
def test_peel_and_decompose_tables_pinned_on_integer_matrices(name):
    A = _pinned_integer_matrices()[name]
    got = (_tables_digest(greedy_l1_decompose(A)), _tables_digest(decompose(A, fac=_trivial_certificate(A))[0]))
    assert got == PEEL_TABLE_DIGESTS[name]


def test_peel_and_decompose_tables_pinned_on_3x3_booleans():
    peel, dec = hashlib.sha256(), hashlib.sha256()
    for code in range(512):  # the zero matrix too
        A = ((code >> np.arange(9)) & 1).reshape(3, 3).astype(np.int64)
        peel.update(_tables_digest(greedy_l1_decompose(A)).encode())
        dec.update(_tables_digest(decompose(A, fac=_trivial_certificate(A))[0]).encode())
    assert (peel.hexdigest(), dec.hexdigest()) == PEEL_TABLE_DIGESTS["3x3-booleans"]


def test_peel_and_decompose_tables_pinned_on_a_128_generator_sum():
    inst = generate(GeneratorSpec(kind="random-blocky-sum", n=128, term_count=8), seed=128 * 100 + 8)
    A = inst.matrix
    got = (_tables_digest(greedy_l1_decompose(A)), _tables_digest(decompose(A, fac=inst.certificate)[0]))
    assert got == PEEL_TABLE_DIGESTS["128-sum"]


# ---------------------------------------------------------------------------
# subtract_average


def test_average_split_two_unit_vectors():
    split = subtract_average([(1.0, 0.0), (0.0, 1.0)], gamma_budget=1.0)
    assert split.average.tolist() == [0.5, 0.5]
    assert split.norm_of_average == pytest.approx(math.sqrt(0.5))
    assert split.kept == (0, 1)
    assert split.bound == pytest.approx(0.5)
    assert split.drops.tolist() == pytest.approx([0.5, 0.5])


def test_average_split_identical_vectors():
    v = np.array([0.6, -0.8])
    split = subtract_average(np.tile(v, (5, 1)), gamma_budget=1.0)
    assert split.kept == (0, 1, 2, 3, 4)
    assert np.allclose(split.average, v)
    assert split.bound == pytest.approx(5 / 2)


def test_average_split_norm_budget():
    with pytest.raises(ValueError):
        subtract_average([(2.0, 0.0)], gamma_budget=1.0)
    for vectors in ([1.0, 0.0], np.zeros((0, 2))):
        with pytest.raises(ValueError, match="nonempty 2-d array"):
            subtract_average(vectors, gamma_budget=1.0)


def test_average_split_zero_budget_zero_vectors():
    split = subtract_average(np.zeros((3, 2)), gamma_budget=0.0)
    assert split.kept == (0, 1, 2)
    assert split.bound == 0.0


def test_average_split_membership_and_mean_identity():
    rng = np.random.default_rng(31)
    for _ in range(25):
        r, d = int(rng.integers(1, 9)), int(rng.integers(1, 6))
        vecs = rng.normal(size=(r, d))
        gamma = float(np.linalg.norm(vecs, axis=1).max()) * 1.25 + 1e-9
        split = subtract_average(vecs, gamma_budget=gamma)
        avg = vecs.mean(axis=0)
        c_sq = float(avg @ avg)
        kept = []
        for i in range(r):
            diff_sq = float(np.sum((vecs[i] - avg) ** 2))
            if diff_sq <= float(vecs[i] @ vecs[i]) - c_sq / 2 + 1e-12:
                kept.append(i)
        assert split.kept == tuple(kept)
        # Mean identity: total squared-norm drop equals r * ||avg||^2.
        assert float(split.drops.sum()) == pytest.approx(r * c_sq, abs=1e-9)
        assert len(split.kept) >= split.bound - 1e-9 * r


# ---------------------------------------------------------------------------
# greedy_partition


def test_partition_two_block_example():
    part = greedy_partition([[1, 1, 0], [0, 0, 2]])
    assert [(c.columns, c.row, c.value) for c in part.classes] == [
        ((0, 1), 0, 1),
        ((2,), 1, 2),
    ]


def test_partition_tie_prefers_smaller_magnitude():
    part = greedy_partition([[1, 1, 2, 2]])
    assert [(c.columns, c.value) for c in part.classes] == [((0, 1), 1), ((2, 3), 2)]


def test_partition_tie_prefers_negative():
    part = greedy_partition([[-1, -1, 1, 1]])
    assert part.classes[0].value == -1 and part.classes[0].columns == (0, 1)


def test_partition_all_ones_single_class():
    part = greedy_partition(np.ones((3, 3), dtype=int))
    assert len(part) == 1
    assert part.classes[0].columns == (0, 1, 2)


def test_partition_identity_singletons():
    part = greedy_partition(np.eye(3, dtype=int))
    assert [(c.columns, c.row) for c in part.classes] == [((0,), 0), ((1,), 1), ((2,), 2)]


def test_partition_zero_column_rejected():
    with pytest.raises(ValueError):
        greedy_partition([[1, 0], [1, 0]])


def test_partition_is_partition_and_constant():
    rng = np.random.default_rng(32)
    for _ in range(20):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 12))
        arr = rng.integers(-2, 3, size=(m, n))
        arr[rng.integers(0, m), arr.any(axis=0) == False] = 1  # noqa: E712
        part = greedy_partition(arr)
        seen = sorted(y for c in part.classes for y in c.columns)
        assert seen == list(range(n))
        for c in part.classes:
            assert c.value != 0
            assert all(arr[c.row, y] == c.value for y in c.columns)
        sizes = [len(c.columns) for c in part.classes]
        assert sizes == sorted(sizes, reverse=True)


def test_partition_harmonic_density_bounds():
    # Independent recount: for every (row, value, delta) the number of
    # delta-dense classes obeys (ln n + 1) / delta, and the probability sum
    # obeys ln n + 1.  The guarantee rests on class sizes being maximal at
    # creation time, so it must hold for every greedy output.
    rng = np.random.default_rng(33)
    for _ in range(15):
        m, n = int(rng.integers(1, 7)), int(rng.integers(2, 40))
        arr = rng.integers(-3, 4, size=(m, n))
        arr[0, ~arr.any(axis=0)] = 1
        part = greedy_partition(arr)
        ceiling = math.log(n) + 1
        values = sorted(int(v) for v in np.unique(arr) if v != 0)
        deltas = (0.5, 0.25, 0.1, 0.05)
        assert DENSITY_DELTAS == deltas
        table = iter(part.density_table())
        for x in range(m):
            for b in values:
                fracs = [
                    sum(1 for y in c.columns if arr[x, y] == b) / len(c.columns)
                    for c in part.classes
                ]
                assert fracs == pytest.approx(part.class_probabilities[(x, b)].tolist())
                assert sum(fracs) <= ceiling + 1e-9
                for delta in deltas:
                    count = sum(1 for frac in fracs if frac >= delta)
                    row = next(table)
                    assert (row["row"], row["value"], row["delta"]) == (x, b, delta)
                    assert count == row["count"]
                    assert count <= ceiling / delta + 1e-9
        assert next(table, None) is None


def test_density_table_keys():
    part = greedy_partition([[1, -1], [1, 1]])
    rows = part.density_table()
    assert len(rows) == 4 * len(DENSITY_DELTAS)  # (x, b) in {0, 1} x {-1, 1}
    assert {r["value"] for r in rows} == {-1, 1}
    assert all(set(r) == {"row", "value", "delta", "count", "ceiling"} for r in rows)


# ---------------------------------------------------------------------------
# Array scans against the per-row loops they replaced


def loop_greedy_partition(arr):
    """Reference: one np.unique per (round, row); classes as (columns, row, value)."""
    arr = np.asarray(arr)
    remaining = np.arange(arr.shape[1])
    classes = []
    while remaining.size:
        sub = arr[:, remaining]
        best = None
        for x in range(arr.shape[0]):
            vals, counts = np.unique(sub[x][sub[x] != 0], return_counts=True)
            for b, c in zip(vals.tolist(), counts.tolist()):
                key = (-c, x, abs(b), 0 if b < 0 else 1)
                if best is None or key < best[0]:
                    best = (key, x, b)
        _, x, b = best
        mask = sub[x] == b
        classes.append((tuple(int(y) for y in remaining[mask]), x, int(b)))
        remaining = remaining[~mask]
    return classes


def loop_greedy_l1_decompose(arr):
    """Reference: one peel unit per row and round, in a Python loop over rows."""
    arr = np.asarray(arr, dtype=np.int64)
    terms = []
    for sign, part in ((1, np.clip(arr, 0, None)), (-1, np.clip(-arr, 0, None))):
        work = part.copy()
        while work.any():
            chosen: dict[int, list[int]] = {}
            for x in range(arr.shape[0]):
                nz = np.flatnonzero(work[x])
                if nz.size:
                    chosen.setdefault(int(nz[0]), []).append(x)
                    work[x, int(nz[0])] -= 1
            rects = tuple((tuple(r), (y,)) for y, r in sorted(chosen.items()))
            terms.append((sign, BlockyMatrix(shape=arr.shape, rectangles=rects).rectangles))
    return terms


def _partition_cases():
    rng = np.random.default_rng(45)
    cases = [
        # ties across row, |b| and sign in every combination
        np.array([[1, 1, -1, -1, 2, 2, -2, -2]]),
        np.array([[2, 2, -1, -1], [-1, -1, 1, 1]]),
        np.array([[3, 3, 0, 0], [0, 0, -3, -3], [-3, -3, 3, 3]]),
        np.array([[1, -1], [-1, 1], [2, -2]]),
        np.array([[5, -7, 5, -7, 9, 9]]),
        np.eye(4, dtype=int),
    ]
    for _ in range(80):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 50))
        arr = rng.integers(-3, 4, size=(m, n)) * rng.integers(0, 2, size=(m, n))
        arr[int(rng.integers(0, m)), ~arr.any(axis=0)] = int(rng.choice([-2, -1, 1, 2]))
        cases.append(arr)
    return cases


def test_partition_matches_loop_reference():
    for arr in _partition_cases():
        part = greedy_partition(arr)
        assert [(c.columns, c.row, c.value) for c in part.classes] == loop_greedy_partition(arr)


def test_l1_decompose_matches_loop_reference():
    rng = np.random.default_rng(46)
    cases = [np.zeros((2, 3), dtype=int), np.array([[0, 3, -2], [1, 0, 0]]), np.array([[5]]), np.array([[-5]])]
    cases += [rng.integers(-4, 5, size=(rng.integers(1, 9), rng.integers(1, 12))) for _ in range(40)]
    for _ in range(200):  # sparser, with zero rows and columns
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        arr = rng.integers(-5, 6, size=(m, n)) * (rng.random((m, n)) < rng.random())
        arr[int(rng.integers(0, m))] *= int(rng.random() < 0.7)
        arr[:, int(rng.integers(0, n))] *= int(rng.random() < 0.7)
        cases.append(arr)
    # one sign only, so one part has no rounds
    cases += [sign * np.abs(arr) for sign, arr in zip((1, -1) * 20, cases[4:44])]
    # row sums of 5 and 6 above the row count of 2, in either sign and in both
    cases += [np.array([[3, 0, 2], [0, 6, 0]]), np.array([[-3, 0, -2], [0, -6, 0]]), np.array([[3, -1, 2], [-6, 4, 0]])]
    # entries at MAX_DECOMPOSE_ENTRY, the largest that decompose peels as int16
    cases.append(np.array([[MAX_DECOMPOSE_ENTRY, -MAX_DECOMPOSE_ENTRY], [1, -MAX_DECOMPOSE_ENTRY]]))
    for arr in cases:
        s = greedy_l1_decompose(arr)
        assert [(sign, b.rectangles) for sign, b in s.terms] == loop_greedy_l1_decompose(arr)
        # decompose peels int16 columns: the same tables as from int64
        wide, narrow = _peel_tables(np.asarray(arr, dtype=np.int64)), _peel_tables(np.asarray(arr, dtype=np.int16))
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(wide, narrow))
    # a row sum of 9 * MAX_DECOMPOSE_ENTRY, past the int16 range of decompose's columns
    big = MAX_DECOMPOSE_ENTRY * np.array([[1] * 9, [-1, 1] * 4 + [-1]])
    wide, narrow = _peel_tables(big), _peel_tables(big.astype(np.int16))
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(wide, narrow))
    assert np.array_equal(SignedBlockySum.from_label_tables(big.shape, *wide).evaluate(), big)
    signs, rows, cols = _peel_tables(np.zeros((3, 0), dtype=np.int16))
    assert (signs.shape, rows.shape, cols.shape) == ((0,), (0, 3), (0, 0))


def test_partition_one_unique_per_round(monkeypatch):
    rng = np.random.default_rng(47)
    arr = rng.integers(-3, 4, size=(40, 60))
    arr[0, ~arr.any(axis=0)] = 1
    calls = []
    real = np.unique

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    part = greedy_partition(arr)
    # one call per round, plus one for the table of distinct values
    assert len(calls) <= len(part) + 1
