"""Acceptance battery: seven checked criteria, 1-5, 7 and 11, one printed pass/fail line each.

Each test runs one criterion from the suite module against a default
RunConfig, echoes its summary line past pytest's capture so the verdicts
appear inline in the run log, and asserts the criterion's own pass flag
(which includes the wall-clock limit).
"""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from blockydecomp import pipeline, suite
from blockydecomp.config import RunConfig
from blockydecomp.factorize import GammaFactorization
from blockydecomp.generators import GeneratorSpec, generate
from blockydecomp.partition import GreedyPartition
from blockydecomp.suite import CRITERIA, SuiteContext


@pytest.fixture(scope="module")
def config():
    return RunConfig()


@pytest.fixture(scope="module")
def ctx(config):
    # Shared lazy corpora: the 512 boolean 3x3 decompositions and the 50
    # generated blocky-sum instances are computed once, reused by 7 and 11.
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
    # Criterion 7's step rows: one step per nonzero input, 511 booleans and
    # 49 of the 50 sums, each with a gamma^2 drop of at least 1/8.
    result = _run(7, config, ctx, capsys)
    rows = result.data["step_rows"]
    assert len(rows) == 560 and min(row[2] for row in rows) >= 0.125


def test_criterion_07_exact_reconstruction_everywhere(config, ctx, capsys):
    _run(7, config, ctx, capsys)


@pytest.fixture(scope="module")
def criterion_11(config, ctx):
    # Criterion 11 holds what retired criteria 8 (oracle consistency) and 10
    # (3x3 complexity histogram) checked; its tests share one run.
    return CRITERIA[11](config, ctx)


def _echo(result, capsys):
    with capsys.disabled():
        print(f"\n{result.line}")
    assert result.passed, result.line
    return result


def test_criterion_08_oracle_consistency(ctx, criterion_11, capsys):
    result = _echo(criterion_11, capsys)
    # The oracle sits at or below decompose's term count on every 3x3
    # boolean, the 127 nonzero blocky matrices are at 1, and the padded
    # witness [[1,0],[1,1]] is at 2.
    assert all(item["oracle"] <= len(item["sum"]) for item in ctx.boolean3x3())
    assert "127 of 127 nonzero blocky 3x3 at complexity 1; padded witness at 2" in result.detail
    assert result.detail.endswith("; 0 violations"), result.line


def test_criterion_10_random_complexity_histogram(criterion_11, capsys):
    result = _echo(criterion_11, capsys)
    # Exact over all 512 booleans: only the zero matrix has complexity 0, and
    # the 127 nonzero blocky matrices are the ones at 1.
    rep = result.data["distribution"]
    assert rep["matrices"] == 512
    assert rep["histogram"] == {0: 1, 1: 127, 2: 384}
    assert (rep["min"], rep["median"], rep["max"]) == (0, 2.0, 2)
    assert "3x3 histogram {0: 1, 1: 127, 2: 384}" in result.detail


def test_criterion_11_term_count_floor(criterion_11, capsys):
    result = _echo(criterion_11, capsys)
    # floor <= oracle <= terms, totalled on the 3x3 booleans, on the 191
    # nonzero 4x4 classes, and weighted by class size over all 65,535
    # nonzero 4x4 booleans; the oracle is exact.
    assert result.data["classes_4x4"] == 191
    totals = {key: row.tolist() for key, row in result.data["floor_oracle_terms"].items()}
    assert totals == {
        "3x3": [895, 895, 967],
        "4x4": [354, 358, 456],
        "4x4 weighted": [128_971, 131_275, 180_859],
    }


@pytest.mark.parametrize(
    "code, oracle, shown, violations",
    [
        (1, 2, "126 of 127 nonzero blocky 3x3 at complexity 1; padded witness at 2; ", 2),  # blocky
        (25, 1, "127 of 127 nonzero blocky 3x3 at complexity 1; padded witness at 1; ", 2),
        (11, 3, "totals 893 <= 893 <= 965 on 512 boolean 3x3", 1),  # above its 2 terms
        (11, 1, "totals 893 <= 893 <= 965 on 512 boolean 3x3", 1),  # below its floor of 2
    ],
    ids=["blocky-at-2", "witness-at-1", "above-terms", "below-floor"],
)
def test_criterion_11_fails_on_a_wrong_3x3_oracle_value(config, ctx, code, oracle, shown, violations):
    # One oracle value of the shared 3x3 pass replaced: a matrix outside the
    # sandwich leaves the totals, and a blocky matrix or the witness
    # [[1,0],[1,1]] at the wrong value is one more violation.
    patched = SuiteContext(config)
    patched._boolean3 = [dict(item) for item in ctx.boolean3x3()]
    patched._boolean3[code]["oracle"] = oracle
    result = CRITERIA[11](config, patched)
    assert not result.passed, result.line
    assert shown in result.detail, result.line
    assert result.detail.endswith(f"; {violations} violations"), result.line


def test_criterion_2_fails_where_the_dimension_exceeds_gamma_squared(config, ctx, monkeypatch):
    # gamma^2 <= 6 on a sign matrix with at most 6 rows, so a dimension of 7
    # puts sqrt(dim) above gamma on all 200 matrices.
    monkeypatch.setattr(suite, "ldim", lambda A: 7)
    result = CRITERIA[2](config, ctx)
    assert not result.passed and "200 violations" in result.detail, result.line


def test_full_suite_runs_the_oracle_once_per_matrix(config, monkeypatch):
    # 512 booleans 3x3, the padded witness among them, and the 191 nonzero
    # 4x4 classes: criterion 11 reads the shared 3x3 oracle pass.
    calls = []
    oracle = pipeline.exact_block_complexity
    for module in (pipeline, suite):
        monkeypatch.setattr(module, "exact_block_complexity", lambda A: calls.append(A) or oracle(A))
    code, results = suite.run_suite(config, echo=None)
    assert code == 0 and len(results) == len(CRITERIA)
    assert len(calls) == 512 + 191


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
    # so criterion 7 has nothing to check and must not pass.
    zero = np.zeros((3, 3), dtype=np.int64)
    fac = GammaFactorization(U=np.zeros((3, 1)), V=np.zeros((1, 3)), gamma=0.0, residual=0.0)
    ctx = SuiteContext(config)
    ctx._boolean3 = [{"code": 0, **suite._construction("boolean3x3 code 0", zero, fac, config)}]
    instance = SimpleNamespace(matrix=zero, certificate=fac)
    ctx._blocky50 = [{"id": 0, "instance": instance, **suite._construction("blocky-sum id 0", zero, fac, config)}]
    result = CRITERIA[7](config, ctx)
    assert not result.passed, result.line
    assert "; 0 construction steps; 0 failures" in result.detail, result.line


def _blocky_corpus(config, instances):
    return [
        {"id": i, "instance": inst,
         **suite._construction(f"blocky-sum id {i}", inst.matrix, inst.certificate, config)}
        for i, inst in enumerate(instances)
    ]


def _small_sums():
    return [generate(GeneratorSpec(kind="random-blocky-sum", n=6, m=5, term_count=2), seed=i) for i in range(2)]


def test_a_raising_construction_step_fails_its_criteria(config, ctx, monkeypatch):
    # A step that fails one of its own bound checks on one input is recorded
    # on that input's item: building the corpora does not raise, criterion 7
    # fails with a detail naming the input, and every other criterion passes.
    instances = _small_sums()
    real = suite.norm_decrement_step

    def step(matrix, fac, eps, cfg):
        if fac is instances[1].certificate:
            raise AssertionError("residual column norm^2 above gamma^2 - 1/8")
        return real(matrix, fac, eps, cfg)

    patched = SuiteContext(config)
    patched._boolean3 = ctx.boolean3x3()  # built before the step is patched
    monkeypatch.setattr(suite, "norm_decrement_step", step)
    patched._blocky50 = _blocky_corpus(config, instances)
    failed = patched._blocky50[1]
    assert failed["step"] is None and failed["step_error"].startswith("AssertionError: residual column")
    assert patched._blocky50[0]["step"] is not None
    results = {number: CRITERIA[number](config, patched) for number in CRITERIA}
    assert [number for number, result in results.items() if not result.passed] == [7]
    assert results[7].detail.endswith(
        "; 1 failures (raised, uncertified, a second level or fewer terms than decompose); "
        "first: blocky-sum id 1 raised AssertionError: residual column norm^2 above gamma^2 - 1/8"
    ), results[7].line


def test_criterion_7_fails_on_an_uncertified_step(config, monkeypatch):
    # Every stabilization reports a budget fallback: both steps return
    # uncertified, and criterion 7 fails, naming the first.
    real = pipeline.bucket_stabilize
    monkeypatch.setattr(
        pipeline, "bucket_stabilize", lambda *a, **k: dataclasses.replace(real(*a, **k), certified=False)
    )
    ctx = SuiteContext(config)
    ctx._boolean3 = []
    ctx._blocky50 = _blocky_corpus(config, _small_sums())
    result = CRITERIA[7](config, ctx)
    assert not result.passed, result.line
    assert "; 2 construction steps, least gamma^2 drop" in result.detail, result.line
    assert result.detail.endswith("; 2 failures (raised, uncertified, a second level or fewer terms than "
                                  "decompose); first: blocky-sum id 0 uncertified"), result.line


@pytest.mark.parametrize(
    "name, fields, first",
    [
        ("majority_stabilize", {"steps": 99}, "('majority-size', 0)"),  # more steps than the dimension
        ("bucket_stabilize", {"certified": False}, "('bucket-uncertified', 0)"),
        ("bucket_stabilize", {"size_bound": 65.0}, "('bucket-size', 0)"),  # above all 64 columns
    ],
    ids=["majority-size", "bucket-uncertified", "bucket-size"],
)
def test_criterion_3_fails_on_a_wrong_stabilizer_result(config, ctx, monkeypatch, name, fields, first):
    # Every result of one stabilizer altered: all 100 of its trials fail.
    real = getattr(suite, name)
    monkeypatch.setattr(suite, name, lambda *a, **k: dataclasses.replace(real(*a, **k), **fields))
    result = CRITERIA[3](config, ctx)
    assert not result.passed, result.line
    assert result.detail.endswith(f"trials: 100 violations; first: {first}"), result.line


def _harmonic_overflow(self):
    # One class with probability ln(n) + 2: the harmonic sum passes its
    # ceiling ln(n) + 1, and each delta counts 1 class, within its cap.
    return {(0, 1): np.array([np.log(self.matrix.shape[1]) + 2.0])}


def _density_overflow(self, real=GreedyPartition.density_table):
    # The first (x, b, delta) row counts one class past its cap.
    rows = real(self)
    rows[0]["count"] = rows[0]["ceiling"] + 1
    return rows


@pytest.mark.parametrize(
    "attribute, patched, slack",
    [
        ("class_probabilities", property(_harmonic_overflow), "1.000e+00"),
        ("density_table", _density_overflow, None),
    ],
    ids=["harmonic-sum", "density-count"],
)
def test_criterion_4_fails_on_a_wrong_partition_bound(config, ctx, monkeypatch, attribute, patched, slack):
    # One violation per trial partitioned (the all-zero trials are skipped).
    monkeypatch.setattr(GreedyPartition, attribute, patched)
    result = CRITERIA[4](config, ctx)
    assert not result.passed, result.line
    assert f": {len(result.data['density_rows'])} violations;" in result.detail, result.line
    if slack:
        assert result.detail.endswith(f"worst harmonic slack {slack}"), result.line


def test_criterion_5_fails_on_a_wrong_mean_identity(config, ctx, monkeypatch):
    # Every squared-norm drop one too large: sum of drops = r c^2 + r on all 1000 families.
    real = suite.subtract_average

    def shifted(*args):
        split = real(*args)
        return dataclasses.replace(split, drops=split.drops + 1.0)

    monkeypatch.setattr(suite, "subtract_average", shifted)
    result = CRITERIA[5](config, ctx)
    assert not result.passed and "1000 violations of the mean identity" in result.detail, result.line


@pytest.mark.parametrize(
    "wrong, first",
    [("second-level", "needs a second level"), ("fewer-terms", "has fewer terms than decompose")],
    ids=["second-level", "fewer-terms"],
)
def test_criterion_7_fails_on_a_wrong_construction_step(config, ctx, wrong, first):
    # One step of the shared corpora replaced: its residual still rounds to
    # a nonzero matrix, or its blocky part has fewer terms than decompose's sum.
    patched = SuiteContext(config)
    patched._boolean3 = [dict(item) for item in ctx.boolean3x3()]
    patched._blocky50 = ctx.blocky_instances()
    step = patched._boolean3[11]["step"]
    if wrong == "second-level":
        ones = GammaFactorization(U=np.ones((3, 1)), V=np.ones((1, 3)), gamma=1.0, residual=0.0)
        step = dataclasses.replace(step, residual_factorization=ones)
    else:
        step = dataclasses.replace(step, blocky_part=())
    patched._boolean3[11]["step"] = step
    result = CRITERIA[7](config, patched)
    assert not result.passed, result.line
    assert "; 560 construction steps, least gamma^2 drop" in result.detail, result.line
    assert result.detail.endswith(f"; 1 failures (raised, uncertified, a second level or fewer terms than "
                                  f"decompose); first: boolean3x3 code 11 {first}"), result.line


def test_criterion_11_fails_on_a_wrong_4x4_oracle_value(config, ctx, monkeypatch):
    # After the shared 3x3 pass, the oracle puts the 4x4 class of a single 1
    # (16 matrices, floor = oracle = terms = 1) at 0, below its floor: that
    # class is one violation and leaves the 4x4 totals.
    ctx.boolean3x3()
    real = suite.exact_block_complexity
    single = np.zeros((4, 4), dtype=np.int64)
    single[0, 0] = 1
    monkeypatch.setattr(suite, "exact_block_complexity", lambda A: 0 if np.array_equal(A, single) else real(A))
    result = CRITERIA[11](config, ctx)
    assert not result.passed, result.line
    assert result.detail.endswith("; 1 violations"), result.line
    totals = {key: row.tolist() for key, row in result.data["floor_oracle_terms"].items()}
    assert totals == {
        "3x3": [895, 895, 967],
        "4x4": [353, 357, 455],
        "4x4 weighted": [128_955, 131_259, 180_843],
    }
