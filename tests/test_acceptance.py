"""Acceptance battery: ten checked criteria, one printed pass/fail line each.

Each test runs one criterion from the suite module against a default
RunConfig, echoes its summary line past pytest's capture so the verdicts
appear inline in the run log, and asserts the criterion's own pass flag
(which includes the wall-clock limit).
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from blockydecomp import pipeline, suite
from blockydecomp.config import RunConfig
from blockydecomp.factorize import GammaFactorization, gamma2_upper
from blockydecomp.generators import GeneratorSpec, generate
from blockydecomp.suite import CRITERIA, SuiteContext


@pytest.fixture(scope="module")
def config():
    return RunConfig()


@pytest.fixture(scope="module")
def ctx(config):
    # Shared lazy corpora: the 512 boolean 3x3 decompositions and the 50
    # generated blocky-sum instances are computed once, reused by 6-11.
    return SuiteContext(config)


def _run(number: int, config, ctx, capsys):
    result = CRITERIA[number](config, ctx)
    with capsys.disabled():
        print(f"\n{result.line}")
    assert result.passed, result.line
    return result


def test_criterion_01_norm_solver_anchors(config, ctx, capsys):
    _run(1, config, ctx, capsys)


def test_criterion_02_dimension_vs_norm_inequalities(config, ctx, capsys):
    _run(2, config, ctx, capsys)


def test_criterion_03_stabilizer_rates_and_size_bounds(config, ctx, capsys):
    _run(3, config, ctx, capsys)


def test_criterion_04_partition_density_caps(config, ctx, capsys):
    _run(4, config, ctx, capsys)


def test_criterion_05_mean_subtraction_identity_and_count(config, ctx, capsys):
    _run(5, config, ctx, capsys)


def test_criterion_06_blocky_sum_level_invariants(config, ctx, capsys):
    result = _run(6, config, ctx, capsys)
    # One step per nonzero input: 511 booleans and 49 of the 50 sums.
    rows = result.data["step_rows"]
    assert len(rows) == 560 and min(row[2] for row in rows) >= 0.125


def test_criterion_07_exact_reconstruction_everywhere(config, ctx, capsys):
    _run(7, config, ctx, capsys)


def test_criterion_08_oracle_consistency(config, ctx, capsys):
    _run(8, config, ctx, capsys)


def test_criterion_10_random_complexity_histogram(config, ctx, capsys):
    result = _run(10, config, ctx, capsys)
    # Exact over all 512 booleans: only the zero matrix has complexity 0, and
    # the 127 nonzero blocky matrices are the ones at 1.
    rep = result.data["distribution"]
    assert rep["matrices"] == 512
    assert rep["histogram"] == {0: 1, 1: 127, 2: 384}
    assert (rep["min"], rep["median"], rep["max"]) == (0, 2.0, 2)


def test_criterion_11_term_count_floor(config, ctx, capsys):
    result = _run(11, config, ctx, capsys)
    # The oracle is exact: 358 over the 191 nonzero 4x4 classes, and 131,275
    # over all 65,535 nonzero 4x4 booleans.
    assert result.data["classes_4x4"] == 191
    assert result.data["floor_oracle_terms"]["4x4"][1] == 358
    assert result.data["floor_oracle_terms"]["4x4 weighted"][1] == 131_275


def test_full_suite_runs_the_oracle_once_per_matrix(config, monkeypatch):
    # 512 booleans 3x3, the padded witness of criterion 8 and the 191 nonzero
    # 4x4 classes: criteria 8, 10 and 11 share the 3x3 oracle pass.
    calls = []
    oracle = pipeline.exact_block_complexity
    for module in (pipeline, suite):
        monkeypatch.setattr(module, "exact_block_complexity", lambda A: calls.append(A) or oracle(A))
    code, results = suite.run_suite(config, echo=None)
    assert code == 0 and len(results) == len(CRITERIA)
    assert len(calls) == 512 + 1 + 191


def test_every_criterion_fails_past_its_wall_clock_limit(config, ctx, monkeypatch):
    # A clock that advances 10^4 s on each reading puts every check past its
    # limit, whatever it found.
    ticks = itertools.count()
    monkeypatch.setattr(suite.time, "perf_counter", lambda: 1e4 * next(ticks))
    for number in sorted(CRITERIA):
        result = CRITERIA[number](config, ctx)
        assert not result.passed, result.line
        assert result.seconds >= 1e4 > result.limit, result.line


def test_boolean_classes_match_known_counts():
    # n x n booleans up to row and column permutations: 36 at n = 3 and 317 at
    # n = 4 (OEIS A002724); with transposition too, 26 and 192.
    for n, without_transpose, classes in ((3, 36, 26), (4, 317, 192)):
        reps, sizes = suite.boolean_classes(n)
        assert reps.shape == (classes, n, n) and sizes.sum() == 1 << (n * n)
        assert not reps[0].any() and sizes[0] == 1
        bits = ((np.arange(1 << (n * n))[:, None] >> np.arange(n * n)) & 1).reshape(-1, n, n)
        assert np.unique(suite._row_column_canon(bits)).size == without_transpose


def test_construction_criteria_fail_when_no_step_was_checked(config):
    # Zero matrices only: decompose succeeds but no construction step runs,
    # so criteria 6 and 7 have nothing to check and must not pass.
    zero = np.zeros((3, 3), dtype=np.int64)
    fac = GammaFactorization(U=np.zeros((3, 1)), V=np.zeros((1, 3)), gamma=0.0, residual=0.0)
    ctx = SuiteContext(config)
    ctx._boolean3 = [{"code": 0, **suite._construction(zero, fac, config)}]
    instance = SimpleNamespace(matrix=zero, certificate=fac)
    ctx._blocky50 = [{"id": 0, "instance": instance, **suite._construction(zero, fac, config)}]
    for number in (6, 7):
        result = CRITERIA[number](config, ctx)
        assert not result.passed, result.line
        assert "0 construction steps" in result.detail


def test_a_raising_construction_step_fails_its_criteria(config, monkeypatch):
    # A step that fails one of its own bound checks on one input is recorded
    # on that input's item: building the corpora does not raise, and criteria
    # 6 and 7 fail with a detail naming the input.
    instances = [
        generate(GeneratorSpec(kind="random-blocky-sum", n=6, m=5, term_count=2), seed=i) for i in range(2)
    ]
    real = suite.norm_decrement_step

    def step(matrix, fac, eps, cfg):
        if fac is instances[1].certificate:
            raise AssertionError("residual column norm^2 above gamma^2 - 1/8")
        return real(matrix, fac, eps, cfg)

    monkeypatch.setattr(suite, "norm_decrement_step", step)
    ctx = SuiteContext(config)
    ctx._boolean3 = []
    for code in (7, 11):
        A = ((code >> np.arange(9)) & 1).reshape(3, 3)
        ctx._boolean3.append({"code": code, **suite._construction(A, gamma2_upper(A, config), config)})
    ctx._blocky50 = [
        {"id": i, "instance": inst, **suite._construction(inst.matrix, inst.certificate, config)}
        for i, inst in enumerate(instances)
    ]
    failed = ctx._blocky50[1]
    assert failed["step"] is None and failed["step_error"].startswith("AssertionError: residual column")
    assert all(item["step"] is not None for item in ctx._boolean3 + ctx._blocky50[:1])
    for number in (6, 7):
        result = CRITERIA[number](config, ctx)
        assert not result.passed, result.line
        assert "; 1 raised, first on blocky-sum id 1 (AssertionError" in result.detail, result.line


def test_criterion_6_fails_on_a_generator_certificate_that_does_not_verify(config):
    # Both steps return, but instance 1's certificate is paired with its
    # matrix moved by 1 in one entry: criterion 6 alone fails, naming it.
    instances = [
        generate(GeneratorSpec(kind="random-blocky-sum", n=6, m=5, term_count=2), seed=i) for i in range(2)
    ]
    ctx = SuiteContext(config)
    ctx._boolean3 = []
    ctx._blocky50 = [
        {"id": i, "instance": inst, **suite._construction(inst.matrix, inst.certificate, config)}
        for i, inst in enumerate(instances)
    ]
    moved = instances[1].matrix.copy()
    moved[0, 0] += 1
    ctx._blocky50[1]["instance"] = SimpleNamespace(matrix=moved, certificate=instances[1].certificate)
    result = CRITERIA[6](config, ctx)
    assert not result.passed, result.line
    assert "2 generator certificates, 1 failing verification; 2 construction steps" in result.detail
    assert "first failing certificate on blocky-sum id 1" in result.detail
    assert CRITERIA[7](config, ctx).passed
