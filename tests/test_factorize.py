"""Factorization-norm solver, certificates, and exact lower bounds."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from blockydecomp import factorize, littlestone
from blockydecomp.config import RunConfig
from blockydecomp.core import BlockyMatrix, SignedBlockySum
from blockydecomp.factorize import (
    GammaFactorization,
    factorization_from_blocky_sum,
    gamma2_bracket,
    gamma2_lower,
    gamma2_upper,
    verify_factorization,
)
from blockydecomp.generators import GeneratorSpec, generate
from blockydecomp.partition import greedy_l1_decompose

CORNER = [[1, 0], [1, 1]]  # known norm 2/sqrt(3)


# ---------------------------------------------------------------------------
# Solver anchors


def test_corner_matrix_window():
    fac = gamma2_upper(CORNER)
    assert fac.certifies()
    assert 1.15470 <= fac.gamma <= 1.15570
    assert fac.gamma == pytest.approx(2 / math.sqrt(3), abs=1e-3)


def test_identity_and_all_ones_hit_one():
    for A in (np.eye(3), np.ones((4, 4))):
        fac = gamma2_upper(A)
        assert fac.certifies()
        assert 1.0 <= fac.gamma <= 1.0 + 1e-6


def test_hadamard_sqrt_two():
    fac = gamma2_upper([[1, 1], [1, -1]])
    assert fac.certifies()
    assert fac.gamma == pytest.approx(math.sqrt(2), abs=1e-6)


def test_zero_matrix_empty_certificate():
    fac = gamma2_upper(np.zeros((2, 3)))
    assert fac.gamma == 0.0 and fac.shape == (2, 3) and fac.inner_dim == 0
    assert np.array_equal(fac.product(), np.zeros((2, 3)))
    assert verify_factorization(np.zeros((2, 3)), fac).ok


def test_zero_rows_and_columns_are_reembedded():
    A = np.zeros((3, 4))
    A[0, 1] = 1.0
    A[2, 3] = -1.0
    fac = gamma2_upper(A)
    assert fac.certifies() and fac.shape == (3, 4)
    assert 1.0 <= fac.gamma <= 1.0 + 1e-6  # disjoint singletons factor like an identity


def test_determinism():
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    f1 = gamma2_upper(A)
    f2 = gamma2_upper(A, RunConfig(seed=7))
    assert f1.gamma == f2.gamma
    assert np.array_equal(f1.U, f2.U) and np.array_equal(f1.V, f2.V)


def test_submatrix_never_much_harder():
    rng = np.random.default_rng(41)
    for _ in range(8):
        A = rng.integers(-2, 3, size=(4, 6)).astype(float)
        g_full = gamma2_upper(A).gamma
        rows = np.sort(rng.permutation(4)[:3])
        cols = np.sort(rng.permutation(6)[:4])
        g_sub = gamma2_upper(A[np.ix_(rows, cols)]).gamma
        assert g_sub <= g_full + 1e-4


# ---------------------------------------------------------------------------
# Golden outputs: the solver's certificates are pinned bit for bit, so any
# change to the ascent that is not bit-identical fails here.  Recorded with
# numpy 2.4.6 (OpenBLAS) on x86-64; another LAPACK build may round differently.

GOLDEN_INPUTS = {
    "corner": CORNER,
    "eye3": np.eye(3),
    "ones3": np.ones((3, 3)),
    "hadamard2": [[1, 1], [1, -1]],
    "sign8": np.random.default_rng(8).choice([-1, 1], size=(8, 8)),
    "ternary16": np.random.default_rng(16).integers(-1, 2, size=(16, 16)),
    "row1x5": [[1, -2, 0, 3, 1]],
    "col5x1": [[2], [0], [-1], [1], [1]],
}

# name -> (float.hex(gamma), float.hex(residual), sha256 of U bytes + V bytes)
GOLDEN = {
    "corner": ("0x1.279a75e463e9bp+0", "0x1.8000000000000p-52", "f992be9ec2527c13d6e34439f5e2ffd72f9c9401bea368c029c546c0aa2061c8"),
    "eye3": ("0x1.0000000000002p+0", "0x0.0p+0", "08d94fcf4e14c682e988305422e5563f5c7fc2f7dec91824379bd8352a7c7994"),
    "ones3": ("0x1.0000000000002p+0", "0x0.0p+0", "91765af9c3360695201a96044cfdebe55a1712e935aeb06b2ce1e141250d94e3"),
    "hadamard2": ("0x1.6a09e667f3bcfp+0", "0x0.0p+0", "0adce254676c983a51f8fb67451a55516cadc2746227956615f05494319951f4"),
    "sign8": ("0x1.3207228e52898p+1", "0x1.2000000000000p-49", "88349b7ae6d68dd889e34a0a47fc4647e942d64b04eafc2232ba4b375fd38d49"),
    "ternary16": ("0x1.74b17e5ba233ap+1", "0x1.9000000000000p-48", "9ba9de894405c9e922b5355b16ef7d5f9913e5d9a5c58c5cf79609a617bbd598"),
    "row1x5": ("0x1.8000000000003p+1", "0x0.0p+0", "45dea68417d6160128c3edc24989201b9f3281d787bd83a522dc46d7174358e3"),
    "col5x1": ("0x1.0000000000002p+1", "0x0.0p+0", "781e75eb1a446192d73c5b534525733d9aa9ec7c9caf7d1ff080e7286537e0cd"),
}


# name -> float.hex(gamma) of the exponential-step ascent without the global
# stop, when each of 17 starts ascended until its own gap closed or it went
# stale.  The single fixed-point ascent with its early stop may only return a
# slightly larger certificate, within the 1e-7 stop gap.
GAMMA_WITHOUT_GLOBAL_STOP = {
    "corner": "0x1.279a7622e9704p+0",
    "eye3": "0x1.0000000000002p+0",
    "ones3": "0x1.0000000000002p+0",
    "hadamard2": "0x1.6a09e667f3bd0p+0",
    "sign8": "0x1.3207229bbb4a5p+1",
    "ternary16": "0x1.74b17e698d63dp+1",
    "row1x5": "0x1.8000000000003p+1",
    "col5x1": "0x1.0000000000002p+1",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_certificates(name):
    A = GOLDEN_INPUTS[name]
    fac = gamma2_upper(A)
    digest = hashlib.sha256(fac.U.tobytes() + fac.V.tobytes()).hexdigest()
    assert (float.hex(fac.gamma), float.hex(fac.residual), digest) == GOLDEN[name]
    assert fac.gamma <= float.fromhex(GAMMA_WITHOUT_GLOBAL_STOP[name]) * (1 + 1e-7)
    assert verify_factorization(A, fac).ok


@pytest.mark.parametrize(
    "name, config, gamma_hex",
    [
        ("row1x5", RunConfig(), GOLDEN["row1x5"][0]),
        ("col5x1", RunConfig(), GOLDEN["col5x1"][0]),
        ("corner", RunConfig(max_iter=2), "0x1.37f2790b82f5ap+0"),
        ("sign8", RunConfig(tol=1e-300), "0x1.3207228e52899p+1"),
        ("corner", RunConfig(max_iter=1), "0x1.5775c544ff264p+0"),
        ("sign8", RunConfig(max_iter=1), "0x1.5061c8ae0e2f5p+1"),
        ("ones3", RunConfig(), GOLDEN["ones3"][0]),
    ],
)
def test_batched_ascent_edge_cases(name, config, gamma_hex):
    # Closed forms, ascents cut at one or two iterations, and a tolerance
    # no refit meets, where the refit of smaller residual is returned.
    A = GOLDEN_INPUTS[name]
    fac = gamma2_upper(A, config)
    assert verify_factorization(A, fac).ok
    assert float.hex(fac.gamma) == gamma_hex


def _count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return svd(*args, **kwargs)

    monkeypatch.setattr(factorize.np.linalg, "svd", counted)
    return calls


def test_one_stacked_svd_per_ascent_iteration(monkeypatch):
    # One ascent from the uniform start, one 2-d SVD per iteration.
    calls = _count_svds(monkeypatch)
    config = RunConfig(max_iter=5)
    gamma2_upper(CORNER, config)
    assert calls == [(2, 2)] * config.max_iter


def test_uniform_start_closing_at_once_costs_one_svd(monkeypatch):
    # A rank-one sign pattern closes the gap from the uniform start on
    # iteration one.
    calls = _count_svds(monkeypatch)
    gamma2_upper(np.ones((3, 3)))
    assert calls == [(3, 3)]


@pytest.mark.parametrize(
    "A, svds",
    [([[1, 0, 1], [0, 1, 1], [1, 1, 0]], 1), (np.eye(3), 1), (CORNER, 21)],
    ids=["triangle", "eye3", "corner"],
)
def test_batch_stops_on_the_global_dual_gap(monkeypatch, A, svds):
    # The ascent closes the gap of the first two on iteration one and of
    # corner after 21.
    calls = _count_svds(monkeypatch)
    fac = gamma2_upper(A)
    assert len(calls) == svds
    assert verify_factorization(A, fac).ok
    assert fac.gamma - fac.dual_bound <= 1e-7 * max(1.0, fac.dual_bound)


@pytest.mark.parametrize("name", ["row1x5", "col5x1"])
def test_one_row_or_column_core_is_closed_form(monkeypatch, name):
    calls = _count_svds(monkeypatch)
    A = np.asarray(GOLDEN_INPUTS[name], dtype=np.float64)
    fac = gamma2_upper(A)
    assert calls == []
    top = float(np.abs(A).max())
    assert verify_factorization(A, fac).ok and fac.residual == 0.0
    assert top <= fac.gamma <= top * (1 + 1e-15)
    assert fac.dual_bound == top
    # The dual ties the exact max-entry bound, and the bracket keeps the exact tag.
    assert gamma2_bracket(A).lower_witness == "max-entry"


@pytest.mark.parametrize("n, L, seed", [(16, 3, 0), (16, 4, 0), (24, 4, 2)])
def test_solver_certificate_near_dual_on_low_rank_blocky_sums(n, L, seed):
    # Low-rank inputs: without the uniform floor weights fell to 1e-17 and
    # below, the winner's factors missed A and the polish returned a valid
    # certificate thousands of times above the dual (2228 against 2.0 on the
    # first case).
    inst = generate(GeneratorSpec("random-blocky-sum", n=n, term_count=L), seed=seed)
    A = np.asarray(inst.matrix)
    fac = gamma2_upper(A)
    assert verify_factorization(A, fac).ok
    assert fac.gamma <= (1 + 1e-6) * fac.dual_bound


@pytest.mark.parametrize(
    "n, L, seed, gamma_hex",
    [(16, 4, 0, "0x1.247443ce407c4p+1"), (24, 4, 2, "0x1.33e3ccd4b256ap+1")],
)
def test_open_gap_falls_back_to_the_batch_of_all_starts(monkeypatch, n, L, seed, gamma_hex):
    # On these low-rank sums the uniform start, cut by a 60-stale rule, once
    # left the gap open, and a fallback batch of the uniform and 16 random
    # starts certified gamma_hex.  The single ascent needs no fallback: it
    # closes the gap alone, with one 2-d SVD per iteration, and its
    # certificate is no larger than the batch's.
    inst = generate(GeneratorSpec("random-blocky-sum", n=n, term_count=L), seed=seed)
    A = np.asarray(inst.matrix)
    calls = _count_svds(monkeypatch)
    fac = gamma2_upper(A)
    assert 0 < len(calls) <= RunConfig.max_iter
    assert all(shape == (n, n) for shape in calls)
    assert verify_factorization(A, fac).ok
    assert fac.gamma - fac.dual_bound <= 1e-7 * max(1.0, fac.dual_bound)
    assert fac.gamma <= float.fromhex(gamma_hex)


def _dense_bench_inputs(seed):
    # The 42 dense inputs of the benchmark at ``seed``: two sign, two boolean
    # and two {-1, 0, 1} matrices per size, drawn in this order (the
    # benchmark then shuffles them).
    rng = np.random.default_rng([seed, 32])
    draw = {
        "sign": lambda n: rng.choice(np.array([-1, 1]), size=(n, n)),
        "boolean": lambda n: rng.integers(0, 2, size=(n, n)),
        "ternary": lambda n: rng.integers(-1, 2, size=(n, n)),
    }
    out = []
    for n in (8, 12, 16, 20, 24, 28, 32):
        for kind in ("sign", "boolean", "ternary"):
            for _ in range(2):
                A = draw[kind](n)
                while not A.any():
                    A = draw[kind](n)
                out.append(A)
    return out


def _census_sums():
    # 54 low-rank blocky sums: n in {16, 24, 32}, 3, 4 or 6 terms, seeds 0-5.
    return [
        np.asarray(generate(GeneratorSpec("random-blocky-sum", n=n, term_count=L), seed=seed).matrix)
        for n in (16, 24, 32)
        for L in (3, 4, 6)
        for seed in range(6)
    ]


INPUT_SETS = {
    "booleans": lambda: [((code >> np.arange(9)) & 1).reshape(3, 3) for code in range(1, 512)],
    "dense-1": lambda: _dense_bench_inputs(1),
    "dense-9001": lambda: _dense_bench_inputs(9001),
    "census": _census_sums,
}


@pytest.mark.parametrize("name", sorted(INPUT_SETS))
def test_uniform_start_closes_the_gap_on_every_input_set(monkeypatch, name):
    # One ascent from the uniform start closes the 1e-7 gap on every input
    # (at most 95, 585, 3,605 and 4,587 iterations on the four sets).
    calls = _count_svds(monkeypatch)
    for k, A in enumerate(INPUT_SETS[name]()):
        calls.clear()
        fac = gamma2_upper(A)
        assert verify_factorization(A, fac).ok, k
        assert fac.gamma - fac.dual_bound <= 1e-7 * max(1.0, fac.dual_bound), k
        assert len(calls) <= RunConfig.max_iter, k
        assert all(len(shape) == 2 for shape in calls), k


@pytest.mark.parametrize("n, L, seed, side", [(16, 4, 3, 0), (24, 3, 4, 1)])
def test_two_sided_refit_closes_where_one_side_does_not(n, L, seed, side):
    # Refitting only L (side 0) leaves a 9.9e-6 gap on the first sum, and
    # refitting only R (side 1) gives gamma 43x the dual on the second; the
    # certifying refit of smaller gamma closes both.
    A = np.asarray(generate(GeneratorSpec("random-blocky-sum", n=n, term_count=L), seed=seed).matrix)
    A = A.astype(np.float64)
    L_, R_, dual = factorize._ascend_weights(A, RunConfig.max_iter)
    one_side = [
        (np.linalg.lstsq(R_.T, A.T, rcond=None)[0].T, R_),
        (L_, np.linalg.lstsq(L_, A, rcond=None)[0]),
    ][side]
    assert factorize._max_row_norm(one_side[0]) * factorize._max_col_norm(one_side[1]) > dual * (1 + 1e-6)
    fac = gamma2_upper(A)
    assert verify_factorization(A, fac).ok
    assert fac.gamma - fac.dual_bound <= 1e-7 * max(1.0, fac.dual_bound)


# ---------------------------------------------------------------------------
# Certificate container + verification


def test_constructor_validation():
    with pytest.raises(ValueError):
        GammaFactorization(U=[[1.2]], V=[[1.0]], gamma=5.0, residual=0.0)
    with pytest.raises(ValueError):
        GammaFactorization(U=[[1.0]], V=[[2.0]], gamma=1.0, residual=0.0)
    with pytest.raises(ValueError):
        GammaFactorization(U=np.ones((1, 2)), V=np.ones((1, 1)), gamma=9.0, residual=0.0)
    with pytest.raises(ValueError):
        GammaFactorization(U=[[1.0]], V=[[1.0]], gamma=-1.0, residual=0.0)
    with pytest.raises(ValueError):
        GammaFactorization(U=[[1.0]], V=[[1.0]], gamma=1.0, residual=float("nan"))


def test_verify_accepts_exact():
    fac = GammaFactorization(U=[[1.0]], V=[[1.0]], gamma=1.0, residual=0.0)
    rep = verify_factorization([[1]], fac)
    assert rep.ok and bool(rep)
    assert rep.max_row_norm == 1.0 and rep.max_col_norm == 1.0 and rep.residual == 0.0


def test_verify_rejects_wrong_product():
    fac = GammaFactorization(U=[[1.0]], V=[[1.0]], gamma=1.0, residual=0.0)
    rep = verify_factorization([[2]], fac)
    assert not rep and rep.residual == 1.0


def test_verify_is_stricter_than_construction():
    # The container allows a relative 1e-6 slack; verification at tol=1e-9
    # must still flag a column that overshoots the claimed gamma.
    fac = GammaFactorization(U=[[1.0]], V=[[2.0000002]], gamma=2.0, residual=0.0)
    rep = verify_factorization([[2.0000002]], fac)
    assert not rep.ok and rep.max_col_norm > rep.gamma + rep.tol


def test_verify_shape_mismatch():
    fac = GammaFactorization(U=[[1.0]], V=[[1.0]], gamma=1.0, residual=0.0)
    with pytest.raises(ValueError):
        verify_factorization([[1, 0]], fac)


# ---------------------------------------------------------------------------
# Lower bounds


def test_lower_bound_max_entry():
    val, tag = gamma2_lower(CORNER)
    assert val == 1.0 and tag == "max-entry"


def test_lower_bound_zero_matrix():
    val, tag = gamma2_lower(np.zeros((2, 2)))
    assert val == 0.0 and tag == "max-entry"


def test_lower_bound_sqrt_dimension():
    arr = np.array(list(itertools.product([-1, 1], repeat=4))).T
    val, tag = gamma2_lower(arr)
    assert val == 2.0 and tag == "sqrt-Littlestone"


def test_lower_bound_budget_degrades_gracefully():
    arr = np.array(list(itertools.product([-1, 1], repeat=4))).T
    val, tag = gamma2_lower(arr, budget=3)
    assert val == 1.0 and tag == "max-entry"


def test_lower_bound_runs_no_weighted_dimension(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gamma2_lower ran ldim_alpha")

    monkeypatch.setattr(factorize, "ldim_alpha", refuse)
    monkeypatch.setattr(littlestone, "ldim_alpha", refuse)
    assert gamma2_lower([[0.5, -2.0, 1.0], [3.0, 1.0, -1.0]]) == (3.0, "max-entry")
    assert gamma2_lower([[1, -1], [-1, 1]]) == (1.0, "max-entry")


def test_bracket_sandwich_random():
    rng = np.random.default_rng(42)
    for _ in range(8):
        A = rng.integers(-2, 3, size=(3, 5))
        br = gamma2_bracket(A)
        assert br.lower <= br.upper + 1e-6 * max(1.0, br.upper)
        assert br.lower_witness in ("max-entry", "sqrt-Littlestone", "dual")
        assert verify_factorization(A, br.upper_witness, tol=1e-6).ok


def test_bracket_dual_beats_max_entry_on_a_blocky_sum():
    # A 32 x 32 sum of 4 random blocky terms with max|entry| = 2: the exact
    # bounds stop at max-entry, the solver's dual value reaches about 2.66.
    inst = generate(GeneratorSpec("random-blocky-sum", n=32, term_count=4), seed=3204)
    A = np.asarray(inst.matrix)
    br = gamma2_bracket(A)
    assert gamma2_lower(A) == (2.0, "max-entry")
    assert br.lower_witness == "dual"
    assert 2.0 < br.lower < br.upper <= inst.certificate.gamma


# ---------------------------------------------------------------------------
# Exact certificates from blocky sums


def test_from_blocky_single_term():
    b = BlockyMatrix(shape=(2, 3), rectangles=(((0, 1), (0, 2)),))
    s = SignedBlockySum(shape=(2, 3), terms=((1, b),))
    fac = factorization_from_blocky_sum(s)
    assert fac.gamma == 1.0 and fac.residual == 0.0
    assert np.array_equal(fac.product(), s.evaluate())


def test_from_blocky_empty_sum():
    s = SignedBlockySum(shape=(2, 2), terms=())
    fac = factorization_from_blocky_sum(s)
    assert fac.gamma == 0.0 and fac.inner_dim == 0


def test_from_blocky_random_sums_verify():
    rng = np.random.default_rng(43)
    for _ in range(15):
        arr = rng.integers(-3, 4, size=(4, 5))
        s = greedy_l1_decompose(arr)
        fac = factorization_from_blocky_sum(s)
        assert fac.gamma == len(s.terms)
        assert fac.residual <= 1e-12
        rep = verify_factorization(arr.astype(float), fac, tol=1e-9)
        assert rep.ok
        assert rep.max_row_norm <= 1 + 1e-9
        assert rep.max_col_norm <= len(s.terms) + 1e-9


def test_from_blocky_inner_dim_counts_rectangles():
    b1 = BlockyMatrix(shape=(2, 2), rectangles=(((0,), (0,)), ((1,), (1,))))
    b2 = BlockyMatrix(shape=(2, 2), rectangles=(((0,), (1,)),))
    s = SignedBlockySum(shape=(2, 2), terms=((1, b1), (-1, b2)))
    fac = factorization_from_blocky_sum(s)
    assert fac.inner_dim == 3
    assert np.array_equal(fac.product(), s.evaluate())
