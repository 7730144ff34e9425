"""Fast tests of the benchmark itself: a small slice of each workload.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
from checks import Checker, evaluate_terms
from corpus import WORKLOADS

SLICE = 3


def _run(workload, trace):
    return run.run_workload(workload, seed=7, seconds=0.0, trace=trace, t0=time.perf_counter(),
                            limit=SLICE, setup_children=False)


@pytest.fixture(scope="module", params=WORKLOADS)
def runs(request):
    """Two untraced runs and one traced run of the same slice."""
    w = request.param
    return _run(w, False), _run(w, False), _run(w, True)


def test_untraced_slice_is_correct_and_reports_every_metric(runs):
    res = runs[0]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= SLICE
    units = run.metric_units("end_to_end")
    assert set(res["metrics"]) == set(units)
    for name, m in res["metrics"].items():
        assert m["unit"] == units[name]
        assert m["value"] > 0, name


def test_digest_and_quality_repeat_exactly(runs):
    first, second, traced = runs
    assert first["digest"] == second["digest"] == traced["digest"]
    quality = ("failed_frac", "terms_vs_oracle", "terms_vs_generating", "gamma_upper_mean",
               "bracket_rel_gap")
    for name in quality:
        assert first["report_metrics"].get(name) == second["report_metrics"].get(name), name
    assert first["metrics"]["terms_vs_baseline"] == second["metrics"]["terms_vs_baseline"]


def test_traced_slice_reports_every_layer_metric(runs):
    res = runs[2]
    assert res["correct"]
    assert set(res["metrics"]) == set(run.metric_units("per_layer"))
    assert res["metrics"]["pipeline.decompose.calls"]["value"] == 1.0


def test_layer_self_times_cover_the_op_wall_time(runs):
    coverage = runs[2]["metrics"]["trace.layer_coverage"]["value"]
    assert 0.9 <= coverage <= 1.0 + 1e-9


def test_tracer_restores_every_binding():
    api = run.load_package()
    from spans import Recorder, Tracer, layer_table

    before = [getattr(o, a) for _, b, _ in layer_table(api) for o, a in b] + [np.linalg.svd]
    original = api.pipeline.bucket_stabilize
    with Tracer(api, Recorder()):
        assert api.pipeline.bucket_stabilize is not original
    after = [getattr(o, a) for _, b, _ in layer_table(api) for o, a in b] + [np.linalg.svd]
    assert all(x is y for x, y in zip(before, after))


def test_baseline_lifts_duplicate_and_zero_columns():
    api = run.load_package()
    A = np.array([[1, 0, 1, 2, 0], [0, 0, 0, -1, 0], [1, 0, 1, 2, 0]])
    lifted = Checker(api).baseline(A)
    assert np.array_equal(evaluate_terms(lifted), A)
    # columns 0 and 2 are equal, so every rectangle holding one holds both
    for _, term in lifted.terms:
        for _, cols in term.rectangles:
            assert (0 in cols) == (2 in cols)


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tiny-exhaustive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
