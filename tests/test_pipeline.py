"""Peeling pipeline end-to-end, exhaustive complexity oracle, experiment."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from blockydecomp import pipeline
from blockydecomp.config import RunConfig
from blockydecomp.core import BlockyMatrix, SignedBlockySum, is_blocky, round_half_down
from blockydecomp.factorize import (
    GammaFactorization,
    factorization_from_blocky_sum,
    gamma2_bracket,
    gamma2_upper,
)
from blockydecomp.generators import GeneratorSpec, generate
from blockydecomp.partition import greedy_l1_decompose
from blockydecomp.pipeline import (
    MAX_DECOMPOSE_ENTRY,
    ReconstructionError,
    decompose,
    exact_block_complexity,
    norm_decrement_step,
    random_lower_bound_experiment,
    term_count_floor,
)


def _exact_ones_fac(m: int, n: int) -> GammaFactorization:
    return GammaFactorization(
        U=np.ones((m, 1)), V=np.ones((1, n)), gamma=1.0, residual=0.0
    )


def _first_step(fac: GammaFactorization, config: RunConfig | None = None):
    """The construction's first level from the certificate's product at its measured eps."""
    product = fac.product()
    eps0 = float(np.abs(product - round_half_down(product)).max())
    return product, eps0, norm_decrement_step(product, fac, eps0, config)


# ---------------------------------------------------------------------------
# Single decrement step


def test_step_all_ones_frozen_trace():
    A = np.ones((2, 2))
    step = norm_decrement_step(A, _exact_ones_fac(2, 2), eps=0.0)
    assert np.array_equal(step.a_prime, A)
    assert len(step.blocky_part) == 1
    assert np.array_equal(step.blocky_part.evaluate(), np.ones((2, 2), dtype=int))
    assert step.eps_out.eps == 0.0
    assert step.residual_factorization.gamma == 0.0
    assert not step.residual_factorization.V.any()
    assert step.certified
    assert step.diagnostics[0]["captured"] == 2 and step.diagnostics[0]["remaining"] == 0


def test_step_residual_certifies_remainder():
    A = np.ones((2, 3))
    step = norm_decrement_step(A, _exact_ones_fac(2, 3), eps=0.0)
    res = step.residual_factorization
    remainder = A - step.a_prime
    assert np.abs(remainder - res.product()).max() <= 1e-12
    assert res.gamma**2 <= 1.0 - 0.125 + 1e-9


def test_step_validation():
    A = np.ones((2, 2))
    fac = _exact_ones_fac(2, 2)
    with pytest.raises(ValueError):
        norm_decrement_step(A, fac, eps=0.25)
    with pytest.raises(ValueError):
        norm_decrement_step(A + 1.0, fac, eps=0.0)  # residual 1 above tol
    with pytest.raises(ValueError):
        norm_decrement_step(np.ones((3, 3)), fac, eps=0.0)  # shape mismatch
    zero_fac = GammaFactorization(
        U=np.zeros((2, 1)), V=np.zeros((1, 2)), gamma=0.0, residual=0.0
    )
    with pytest.raises(ValueError):
        norm_decrement_step(np.zeros((2, 2)), zero_fac, eps=0.0)  # rounds to zero


@pytest.mark.parametrize(
    "scale, offset, error, match",
    [
        (1.5, 0.0, ReconstructionError, "additivity"),  # 1 -> 1.5 + (-0.5) rounds to 1 + (-1)
        (1.5, 5e-10, ReconstructionError, "rounds differently"),  # -0.5 vs -0.5 + 5e-10
        (1.2, 0.0, AssertionError, "residual eps"),  # residual 0.2 from the integers
    ],
)
def test_step_rejects_a_split_that_breaks_rounding(scale, offset, error, match, monkeypatch):
    real = pipeline.subtract_average

    def skewed(vectors, gamma):
        split = real(vectors, gamma)
        return dataclasses.replace(split, average=split.average * scale)

    monkeypatch.setattr(pipeline, "subtract_average", skewed)
    with pytest.raises(error, match=match):
        norm_decrement_step(np.ones((2, 2)) + offset, _exact_ones_fac(2, 2), eps=1e-9)


def test_step_rejects_understated_eps():
    A = np.full((2, 2), 0.8)
    fac = GammaFactorization(
        U=np.ones((2, 1)), V=np.full((1, 2), 0.8), gamma=0.8, residual=0.0
    )
    with pytest.raises(ValueError):
        norm_decrement_step(A, fac, eps=0.1)  # true distance to the grid is 0.2


# ---------------------------------------------------------------------------
# Full decomposition


def test_decompose_corner_matrix():
    A = [[1, 0], [1, 1]]
    s, rep = decompose(A)
    assert np.array_equal(s.evaluate(), A)
    assert rep.total_terms == 2 and rep.levels == ()
    assert len(rep.gamma_squared_trajectory) == len(rep.eps_trajectory) == 1
    assert rep.gamma_squared_trajectory[0] == pytest.approx(4 / 3, rel=1e-5)
    assert rep.bound_fit == pytest.approx(2 / math.log(2) ** 2)


def test_step_corner_matrix():
    A = [[1, 0], [1, 1]]
    fac = gamma2_upper(A)
    _, _, step = _first_step(fac)
    assert fac.gamma**2 == pytest.approx(4 / 3, rel=1e-5)
    assert np.array_equal(step.blocky_part.evaluate(), A) and len(step.blocky_part) == 2
    assert step.residual_factorization.gamma**2 == pytest.approx(0.0, abs=1e-9)
    assert not round_half_down(step.residual_factorization.product()).any()


def test_decompose_identity_single_term():
    A = np.eye(4, dtype=int)
    s, rep = decompose(A)
    assert np.array_equal(s.evaluate(), A)
    assert rep.total_terms == 1


def test_decompose_single_blocky_with_exact_certificate():
    b = BlockyMatrix(shape=(3, 4), rectangles=(((0, 1), (0, 1)), ((2,), (3,))))
    s_in = SignedBlockySum(shape=(3, 4), terms=((1, b),))
    A = s_in.evaluate()
    s, rep = decompose(A, fac=factorization_from_blocky_sum(s_in))
    assert rep.total_terms == 1
    assert np.array_equal(s.evaluate(), A)


def test_decompose_zero_matrix():
    s, rep = decompose(np.zeros((3, 2), dtype=int))
    assert rep.total_terms == 0 and rep.levels == ()
    assert np.array_equal(s.evaluate(), np.zeros((3, 2), dtype=int))
    assert rep.gamma_squared_trajectory == (0.0,) and rep.eps_trajectory == (0.0,)


def test_decompose_refuses_bad_certificate():
    fac = GammaFactorization(U=[[1.0]], V=[[1.0]], gamma=1.0, residual=0.0)
    with pytest.raises(ValueError):
        decompose([[2]], fac=fac)
    with pytest.raises(ValueError):
        decompose([[2]], fac=fac, force=True)  # product rounds to 1, not 2


def _random_integer_matrices():
    rng = np.random.default_rng(50)
    return [rng.integers(-2, 3, size=(4, 5)) for _ in range(6)]


def test_decompose_random_exactness_and_invariants():
    config = RunConfig()
    for A in _random_integer_matrices():
        s, rep = decompose(A, config=config)
        assert np.array_equal(s.evaluate(), A)
        for sign, b in s.terms:
            assert sign in (-1, 1) and is_blocky(b.to_dense())
        _, _, step = _first_step(gamma2_upper(A, config), config)
        assert rep.total_terms == len(s) <= len(step.blocky_part)


def test_step_random_invariants():
    config = RunConfig()
    for A in _random_integer_matrices():
        fac = gamma2_upper(A, config)
        product, eps0, step = _first_step(fac, config)
        res = step.residual_factorization
        assert res.gamma**2 <= fac.gamma**2 - 0.125 + 1e-9
        assert 1 <= math.ceil(8 * fac.gamma**2)  # one level, inside the level cap
        assert not round_half_down(res.product()).any()
        assert step.eps_out.eps <= 2 * eps0 + 1e-9
        eps_res = float(np.abs(res.product() - round_half_down(res.product())).max())
        assert eps_res <= 3 * eps0 + 1e-9
        assert np.array_equal(
            round_half_down(product),
            round_half_down(step.a_prime) + round_half_down(product - step.a_prime),
        )
        assert np.array_equal(step.blocky_part.evaluate(), A)


def test_report_json_shape():
    _, rep = decompose([[1, 0], [1, 1]])
    d = rep.to_json_dict()
    assert set(d) == {
        "levels",
        "totalTerms",
        "gammaSquaredTrajectory",
        "epsTrajectory",
        "boundFit",
    }
    assert d["totalTerms"] == rep.total_terms


@pytest.mark.parametrize(
    "A",
    [
        [[2**40, 1]],
        [[1, -(MAX_DECOMPOSE_ENTRY + 1)]],
        np.array([[np.iinfo(np.int64).min, 0]]),  # abs() of this wraps negative
    ],
)
def test_decompose_rejects_huge_entries_before_any_work(A, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solver ran on an input the cap rejects")

    monkeypatch.setattr(pipeline, "gamma2_upper", refuse)
    # -2**63 is refused by as_int_array's int64 range check, the rest by the cap.
    with pytest.raises(ValueError, match="decomposition limit|2\\*\\*63 - 1 in magnitude"):
        decompose(A)


# (n, L) -> sha256 of the canonical terms of the construction's first level
# (norm_decrement_step from the certificate's product) on the random blocky
# sum generate(random-blocky-sum, n, L, seed=n + L) with its exact certificate
GOLDEN_DECOMPOSITIONS = {
    (32, 4): "0dacb6d20578961247aeb15872644a290d474d30d20ccddb9b055111c4b01fec",
    (48, 6): "de080f8738d8d2f83c616210087809bc237093380ebe5de6942532fdb6ab5b85",
    (64, 8): "5684f7ee649def7b958d324f967b47f3e70dbbd8e4f093c1f0acae0636a3ad5b",
}


def _canonical(s: SignedBlockySum) -> str:
    return ";".join(
        f"{sign}:" + "|".join(f"{','.join(map(str, r))}/{','.join(map(str, c))}" for r, c in term.rectangles)
        for sign, term in s.terms
    )


def _golden_instance(n: int, L: int):
    return generate(GeneratorSpec(kind="random-blocky-sum", n=n, term_count=L), seed=n + L)


@pytest.mark.parametrize("n, L", sorted(GOLDEN_DECOMPOSITIONS))
def test_golden_blocky_decompositions(n, L):
    _, _, step = _first_step(_golden_instance(n, L).certificate)
    digest = hashlib.sha256(_canonical(step.blocky_part).encode()).hexdigest()
    assert digest == GOLDEN_DECOMPOSITIONS[(n, L)]


def test_decompose_and_step_never_touch_rectangle_lists(monkeypatch):
    """Peel, lift and verify run on label arrays: no rectangle view, no np.ix_."""
    inst = _golden_instance(48, 6)
    A, fac = inst.matrix.values, inst.certificate

    def refuse(*args):
        raise AssertionError("rectangle-list path reached")

    monkeypatch.setattr(BlockyMatrix, "rectangles", property(refuse))
    monkeypatch.setattr(np, "ix_", refuse)
    s, rep = decompose(A, fac=fac)
    assert rep.total_terms == len(s) > 0
    _, _, step = _first_step(fac)
    assert len(step.blocky_part) > 0
    assert np.array_equal(step.blocky_part.evaluate(), round_half_down(step.a_prime))


def _dedupe_peel_lift(A: np.ndarray) -> SignedBlockySum:
    """Reference: group equal nonzero columns in order of first occurrence,
    peel one representative per group, give each rectangle its group's columns.
    """
    m, n = A.shape
    groups: dict[tuple, list[int]] = {}
    for y in range(n):
        if A[:, y].any():
            groups.setdefault(tuple(A[:, y].tolist()), []).append(y)
    members = list(groups.values())
    if not members:
        return SignedBlockySum(shape=(m, n), terms=())
    small = greedy_l1_decompose(np.array(list(groups), dtype=np.int64).T)
    terms = []
    for sign, term in small.terms:
        rects = []
        for rows, cols in term.rectangles:
            rects.append((rows, tuple(sorted(y for c in cols for y in members[c]))))
        terms.append((sign, BlockyMatrix(shape=(m, n), rectangles=tuple(rects))))
    return SignedBlockySum(shape=(m, n), terms=tuple(terms))


def _boolean3x3(code: int) -> np.ndarray:
    return np.array([(code >> k) & 1 for k in range(9)], dtype=np.int64).reshape(3, 3)


@pytest.mark.parametrize("n, L", sorted(GOLDEN_DECOMPOSITIONS))
def test_decompose_equals_dedupe_peel_lift_on_golden_sums(n, L):
    inst = _golden_instance(n, L)
    s, _ = decompose(inst.matrix.values, fac=inst.certificate)
    assert _canonical(s) == _canonical(_dedupe_peel_lift(inst.matrix.values))


def test_decompose_equals_dedupe_peel_lift_on_all_3x3_booleans():
    # Past the certificate checks the terms depend on A alone, so the trivial
    # exact certificate U = I, V = A (gamma = the largest column norm) serves.
    for code in range(1, 512):
        A = _boolean3x3(code)
        gamma = float(np.sqrt((A * A).sum(axis=0).max()))
        fac = GammaFactorization(U=np.eye(3), V=A.astype(np.float64), gamma=gamma, residual=0.0)
        s, _ = decompose(A, fac=fac)
        assert _canonical(s) == _canonical(_dedupe_peel_lift(A)), code


# code -> (U, V) as float.hex rows: the certificates of the former solver
# (uniform start, exponential step, three-round polish) on the two 3x3
# booleans where its first level split a column.  Their third inner
# coordinate, about 1e-8, tells the equal columns apart.
SPLITTING_CERTIFICATES = {
    151: (
        (
            ("0x1.ee8dd400d2806p-1", "0x1.0907df78f7b0dp-2", "0x1.921aa88ffa614p-86"),
            ("0x1.6a09e44456a82p-1", "-0x1.6a09e44456a7dp-1", "-0x1.c2443958d68e5p-29"),
            ("0x1.6a09e44456a84p-1", "-0x1.6a09e44456a7fp-1", "0x1.c2443958d68dbp-29"),
        ),
        (
            ("0x1.a20bd62dfbf79p-1", "0x1.1d87e9d147684p+0", "0x1.a20bd62dfbf7bp-1"),
            ("0x1.a20bd62dfbf83p-1", "-0x1.3207fae925b13p-2", "0x1.a20bd62dfbf81p-1"),
            ("0x1.03f624e7d06c7p-28", "0x1.3212b9ff96f16p-83", "-0x1.03f624e7d06ddp-28"),
        ),
    ),
    231: (
        (
            ("-0x1.fea0e5667d0e7p-1", "-0x1.2b9a7a5a25dfep-4", "-0x1.2f632cee5c3bfp-29"),
            ("-0x1.bdc32f3dce072p-2", "-0x1.ccf13eb23878ep-1", "0x1.97785b6b4d26bp-27"),
            ("-0x1.1fbf4dc7960b0p-1", "0x1.a77def66f3bc8p-1", "0x1.e35127173fec3p-28"),
        ),
        (
            ("-0x1.0a201103777f9p+0", "-0x1.0a201103777fap+0", "-0x1.e901a89a65ee1p-1"),
            ("0x1.015c72abbfe2ap-1", "0x1.015c72abbfe2ep-1", "-0x1.4c431395614f2p-1"),
            ("0x1.2c240df7778f3p-27", "-0x1.2c240df7778f5p-27", "-0x1.18e9d136f977cp-79"),
        ),
    ),
}


def _pinned_certificate(A: np.ndarray, code: int) -> GammaFactorization:
    U, V = (np.array([[float.fromhex(x) for x in row] for row in M]) for M in SPLITTING_CERTIFICATES[code])
    row = float(np.sqrt(np.einsum("ij,ij->i", U, U).max()))
    col = float(np.sqrt(np.einsum("ij,ij->j", V, V).max()))
    return GammaFactorization(
        U=U, V=V, gamma=row * col * (1 + 5e-16), residual=float(np.abs(A - U @ V).max())
    )


@pytest.mark.parametrize("code", [151, 231, 399])
def test_decompose_optimal_where_the_construction_splits_a_column(code):
    # The construction's cells hold one distinct column twice on these
    # inputs, so its first level peels 3 terms; the dedupe gives the optimum.
    # Which inputs split depends on the certificate: 399 is the only 3x3
    # boolean where the default certificate has a first level that peels
    # more terms than decompose, and 151 and 231 split under the pinned
    # certificates of the former solver.
    A = _boolean3x3(code)
    fac = _pinned_certificate(A, code) if code in SPLITTING_CERTIFICATES else gamma2_upper(A)
    s, _ = decompose(A, fac=fac)
    _, _, step = _first_step(fac)
    assert len(step.blocky_part) == 3
    assert len(s) == exact_block_complexity(A) == 2


def test_bound_fit_none_for_single_row():
    s, rep = decompose([[1, 1, 0]])
    assert rep.bound_fit is None
    assert np.array_equal(s.evaluate(), [[1, 1, 0]])


# ---------------------------------------------------------------------------
# Exhaustive complexity oracle, cross-checked by an even dumber search


def _brute_complexity_2x2(A: np.ndarray) -> int | None:
    if not A.any():
        return 0
    blockys = []
    for bits in range(1, 16):
        B = np.array([[bits & 1, (bits >> 1) & 1], [(bits >> 2) & 1, (bits >> 3) & 1]])
        if B.sum() != 3:  # the only non-blocky booleans on a 2x2 grid
            blockys.append(B)
    signed = [s * B for B in blockys for s in (1, -1)]
    for k in (1, 2, 3):
        for combo in itertools.product(signed, repeat=k):
            if np.array_equal(sum(combo), A):
                return k
    return None


def test_oracle_matches_brute_on_all_2x2_booleans():
    for bits in range(16):
        A = np.array([[bits & 1, (bits >> 1) & 1], [(bits >> 2) & 1, (bits >> 3) & 1]])
        assert exact_block_complexity(A) == _brute_complexity_2x2(A), A


def test_oracle_anchors():
    assert exact_block_complexity(np.zeros((2, 2), dtype=int)) == 0
    assert exact_block_complexity([[1, 1], [1, 1]]) == 1
    assert exact_block_complexity([[1, 1], [1, 0]]) == 2
    assert exact_block_complexity([[1, 1], [1, 0]], l_max=1) is None
    assert exact_block_complexity([[2]]) == 2
    assert exact_block_complexity([[-1]]) == 1


def test_oracle_validation():
    with pytest.raises(ValueError):
        exact_block_complexity(np.ones((3, 6), dtype=int))
    with pytest.raises(ValueError):
        exact_block_complexity([[1]], l_max=7)


def test_oracle_answers_large_entries_without_search():
    # Each signed blocky term moves an entry by at most 1, so an entry above
    # l_max rules out every sum of at most l_max terms.
    assert exact_block_complexity([[2**53, 1]]) is None
    assert exact_block_complexity([[7, 0], [0, 1]]) is None
    assert exact_block_complexity([[3, -2]], l_max=2) is None
    assert exact_block_complexity([[3, -2]], l_max=5) == 5
    assert exact_block_complexity([[3, 0]], l_max=3) == 3


def test_oracle_tables_are_built_once_per_shape_and_immutable(monkeypatch):
    A = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    want = exact_block_complexity(A)
    tables = pipeline._ORACLE_TABLES[(3, 3)]

    def refuse(m, n):
        raise AssertionError("oracle tables rebuilt for a cached shape")

    monkeypatch.setattr(pipeline, "_blocky_library", refuse)
    assert exact_block_complexity(A) == want
    assert exact_block_complexity(A.T) == want
    assert pipeline._ORACLE_TABLES[(3, 3)] is tables
    assert isinstance(tables.one_sums, frozenset) and isinstance(tables.pair_sums, frozenset)
    assert len(tables.one_sums) == tables.signed.shape[0] == 254
    with pytest.raises(ValueError):
        tables.signed[0, 0, 0] = 0
    with pytest.raises(AttributeError):
        tables.one_sums.add(b"")
    with pytest.raises(AttributeError):
        tables.pair_sums.discard(next(iter(tables.pair_sums)))


def test_oracle_lower_bounds_other_term_counts():
    rng = np.random.default_rng(51)
    for _ in range(10):
        A = rng.integers(0, 2, size=(3, 4))
        v = exact_block_complexity(A)
        assert v is not None
        assert v <= len(greedy_l1_decompose(A))
        s, _ = decompose(A)
        assert v <= len(s)


def test_term_count_floor_rounds_the_bound_up_within_its_slack():
    assert term_count_floor(np.zeros((2, 2), dtype=np.int64), 0.0) == 0
    assert term_count_floor([[3, 0], [0, 1]], 1.5) == 3  # max|A| dominates
    assert term_count_floor([[1, 0], [1, 1]], 2 / math.sqrt(3)) == 2
    assert term_count_floor([[1, 1], [1, 1]], 2.0 + 1e-12) == 2  # roundoff above an integer
    assert term_count_floor([[1, 1], [1, 1]], 2.0 + 1e-6) == 3


def test_term_count_floor_is_below_the_oracle_on_every_3x3_boolean():
    total = 0
    for code in range(1, 512):
        A = ((code >> np.arange(9)) & 1).reshape(3, 3)
        floor = term_count_floor(A, gamma2_bracket(A).lower)
        assert 1 <= floor <= exact_block_complexity(A), code
        total += floor
    assert total == 895  # the oracle's total: the floor is tight on every boolean


# ---------------------------------------------------------------------------
# Random-matrix experiment


def test_experiment_deterministic_and_shaped():
    r1 = random_lower_bound_experiment(3, 12, RunConfig(seed=9))
    r2 = random_lower_bound_experiment(3, 12, RunConfig(seed=9))
    assert r1 == r2
    assert set(r1) == {"n", "trials", "mode", "histogram", "min", "median", "max", "reference"}
    assert r1["mode"] == "exact"
    assert sum(r1["histogram"].values()) == 12
    assert r1["min"] <= r1["median"] <= r1["max"]
    assert r1["reference"] == pytest.approx(3 / (4 * math.log2(6)))


def test_experiment_one_by_one():
    r = random_lower_bound_experiment(1, 8, RunConfig(seed=2))
    assert set(r["histogram"]) <= {0, 1}


def test_experiment_pipeline_mode_and_validation():
    r = random_lower_bound_experiment(2, 4, RunConfig(seed=3), mode="pipeline-upper")
    assert r["mode"] == "pipeline-upper" and r["min"] >= 0
    with pytest.raises(ValueError):
        random_lower_bound_experiment(5, 2, mode="exact")
