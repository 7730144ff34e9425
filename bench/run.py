"""Benchmark of the blockydecomp decomposition chain.

    python3 bench/run.py --workload tiny-exhaustive --seed 1 --seconds 30 --trace 0

Runs one workload (see ``corpus.py`` and ``bench/README.md``) from the
package source in ``src/`` of this checkout, checks every op's output,
prints one line per metric and, as the last line of standard output, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones of the traced run.  Full results (environment, per-workload
quality figures, digests) go to ``bench/out/``, and the traced run's spans
to a JSONL file next to them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is measured in the parent and in this many fresh processes.
SETUP_CHILDREN = 4
# Probe kernel time at the reference speed: its time on a 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.4, one BLAS thread) when nothing else loaded it.
PROBE_REF_S = 0.013
# Tail percentile: the highest of these with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10

# Printed and stored next to the metrics of BENCHMARK.json: wall-clock
# latencies, the speed probe, and figures defined on only some workloads.
REPORT_ONLY = {
    "setup_wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "probe_s": "s",
    "failed_frac": "ratio",
    "terms_vs_oracle": "ratio",
    "terms_vs_generating": "ratio",
    "gamma_upper_mean": "gamma",
    "bracket_rel_gap": "ratio",
}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def pin_threads() -> None:
    """Use one BLAS/OpenMP thread unless the caller chose a count; never more than nproc."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, "1"))
        except ValueError:
            want = 1
        os.environ[var] = str(min(max(want, 1), nproc))


def load_package():
    """Import blockydecomp from ``src/`` of this checkout, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "blockydecomp" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import blockydecomp

    if src.resolve() not in Path(blockydecomp.__file__).resolve().parents:
        raise SystemExit(f"error: imported blockydecomp from {blockydecomp.__file__}, not {src}")
    return blockydecomp


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def setup(workload: str, seed: int, t0: float):
    """Imports, corpus generation with certificates, and one warm-up op.

    ``t0`` is taken before the first import.  Returns (api, corpus, seconds,
    probe seconds), the last the median of three probe kernels run right after.
    """
    api = load_package()
    import corpus as corpus_mod
    from checks import Checker

    items = corpus_mod.build_corpus(api, workload, seed)
    warm = corpus_mod.warmup_item(api, workload)
    problems = Checker(api).problems(warm, corpus_mod.run_op(api, workload, warm))
    if problems:
        raise SystemExit(f"error: warm-up op failed its checks: {problems}")
    seconds = time.perf_counter() - t0
    probe = SpeedProbe()
    return api, items, seconds, statistics.median(probe.kernel() for _ in range(3))


def child_setups(workload: str, seed: int) -> list[tuple[float, float]]:
    out = []
    for _ in range(SETUP_CHILDREN):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        row = json.loads(res.stdout.strip().splitlines()[-1])
        out.append((row["setup_s"], row["probe_s"]))
    return out


def tail(values: list[float]):
    """(percentile, samples beyond it, value): the highest ladder percentile
    with at least TAIL_BEYOND samples above it, else the median."""
    import numpy as np

    n = len(values)
    for p in TAIL_LADDER:
        beyond = n * (1 - p / 100)
        if beyond >= TAIL_BEYOND:
            return p, beyond, float(np.percentile(values, p))
    return 50.0, n / 2, float(np.percentile(values, 50))


class SpeedProbe:
    """Follows the machine's speed through a run with a fixed kernel that does
    not touch the package but is made of what the package's ops are made of:
    weighted SVD steps on a small matrix and per-row window counts, each a
    short numpy call dominated by interpreter and dispatch cost.

    On a shared machine other tenants slowed every op by up to 2x for
    minutes at a time, longer than a run.  An op's time scaled by
    ``PROBE_REF_S`` over the probe time around it is the time the op would
    take with the probe at its reference speed; the metrics named ``*_ref_s``
    are built from these times.
    """

    EVERY_S = 0.25  # sample the kernel at most this often
    KEEP = 5  # and use the median of the last KEEP samples

    def __init__(self):
        import numpy as np

        self.np = np
        self.A = np.random.default_rng(0).standard_normal((4, 4))
        self.B = np.random.default_rng(1).integers(-4, 5, size=(8, 96)).astype(np.float64)
        self.samples: list[float] = []
        self.last = -math.inf

    def kernel(self) -> float:
        np, A, B = self.np, self.A, self.B
        t0 = time.perf_counter()
        u = np.full(4, 0.25)
        for i in range(250):
            su = np.sqrt(u)
            P, sig, _ = np.linalg.svd(su[:, None] * A * su[None, :], full_matrices=False)
            L = P * np.sqrt(sig)[None, :]
            gu = np.einsum("ij,ij->i", L, L)
            u = u * np.exp(0.35 * gu / gu.max())
            u /= u.sum()
            for x in range(8):
                int(np.count_nonzero(np.abs(B[x] - i % 5) >= 0.5))
        return time.perf_counter() - t0

    def current(self) -> float:
        now = time.perf_counter()
        if now - self.last >= self.EVERY_S:
            self.samples = (self.samples + [self.kernel()])[-self.KEEP:]
            self.last = time.perf_counter()
        return statistics.median(self.samples)


class Run:
    """Timed passes over the corpus, with every op's output checked.

    A pass runs every corpus item once.  Passes repeat until about
    ``seconds`` of wall time have gone (at least one), so the same items
    are measured on every commit whatever its speed.  Each op is timed
    together with the speed probe's reading around it.  Outputs of repeated
    passes must match the first pass bit for bit.
    """

    def __init__(self, api, workload, items, checker):
        self.api = api
        self.workload = workload
        self.items = items
        self.checker = checker
        self.durations: list[float] = []  # every op, in run order
        self.times: list[list[float]] = [[] for _ in items]  # per item, one per pass
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first: list = [None] * len(items)  # outcome of the first pass, per item
        self.digests: list[str | None] = [None] * len(items)
        self.first_pass_rss_mib = 0.0
        self.probe = SpeedProbe()
        self.probes: list[list[float]] = [[] for _ in items]

    def one_pass(self, rec=None) -> None:
        from checks import outcome_digest
        from corpus import run_op

        for i, item in enumerate(self.items):
            self.attempted += 1
            self.probes[i].append(self.probe.current())
            if rec is not None:
                rec.op = self.attempted
                span = rec.open("bench.op")
            start = time.perf_counter()
            try:
                outcome = run_op(self.api, self.workload, item)
                error = None
            except Exception as exc:  # one bad op must not stop the run
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - start
            if rec is not None:
                rec.close(span)
            self.durations.append(dt)
            self.times[i].append(dt)
            if error is None:
                problems = self.checker.problems(item, outcome)
                digest = outcome_digest(outcome)
                if self.digests[i] is None:
                    self.digests[i], self.first[i] = digest, outcome
                elif digest != self.digests[i]:
                    problems.append("output differs from the first pass")
                error = "; ".join(problems) or None
            if error is not None:
                self.failed += 1
                self.errors.append(f"{item.key}: {error}")

    def passes(self, seconds: float, rec=None) -> int:
        """Run whole passes until ``seconds`` is nearer to the elapsed time
        than one more pass would take it."""
        start = time.perf_counter()
        count = 0
        while True:
            self.one_pass(rec)
            count += 1
            if count == 1:
                # Later passes repeat the same work; how many run depends on speed.
                self.first_pass_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / count >= seconds:
                return count


def quality(run: Run) -> dict:
    """Term counts against their references, over the first pass's good outputs."""
    pairs = [(it, o) for it, o in zip(run.items, run.first) if o is not None]
    if not pairs:
        return {}
    items, outs = zip(*pairs)
    terms = sum(len(o.terms) for o in outs)
    base = sum(len(run.checker.baseline(it.matrix)) for it in items)
    q = {"terms_vs_baseline": terms / base}
    if outs[0].oracle is not None:
        q["terms_vs_oracle"] = terms / sum(o.oracle for o in outs)
    if items[0].generating_terms is not None:
        q["terms_vs_generating"] = terms / sum(it.generating_terms for it in items)
    if outs[0].bracket is not None:
        uppers = [o.bracket.upper for o in outs]
        q["gamma_upper_mean"] = statistics.fmean(uppers)
        q["bracket_rel_gap"] = statistics.fmean(
            (o.bracket.upper - o.bracket.lower) / o.bracket.upper for o in outs
        )
    return q


def layer_metrics(rec, names, n_ops: int, op_wall: float, overhead: float) -> dict:
    times = rec.layer_times()
    out = {}
    for name in names:
        if name.startswith("trace."):
            continue
        layer, kind = name.rsplit(".", 1)
        if kind in ("calls", "busy_s", "self_s"):
            value = times.get(layer, {}).get(kind, 0)
        elif kind == "kept_ratio":
            offered = rec.counts.get(layer + ".offered", 0)
            value = rec.counts.get(layer + ".kept", 0) / offered if offered else 0.0
            out[name] = value
            continue
        else:
            value = rec.counts.get(name, 0)
        out[name] = value / n_ops
    layer_self = sum(row["self_s"] for layer, row in times.items() if layer != "bench.op")
    out["trace.overhead_frac"] = overhead
    out["trace.layer_coverage"] = layer_self / op_wall
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool, t0: float,
                 limit: int | None = None, setup_children: bool = True,
                 trace_path: Path | None = None) -> dict:
    """Run one workload and return the full result.

    ``limit`` keeps only the first corpus items and ``setup_children=False``
    measures set-up in this process only; both exist for the fast tests.
    The traced run writes its spans to ``trace_path`` when one is given.
    """
    api, items, setup_s, probe_s = setup(workload, seed, t0)
    if limit is not None:
        items = items[:limit]
    setups = [(setup_s, probe_s)]
    if setup_children and not trace:
        setups += child_setups(workload, seed)

    from checks import Checker, combined_digest

    checker = Checker(api)
    run = Run(api, workload, items, checker)
    extra = {}
    if trace:
        from spans import Recorder, Tracer

        start = time.perf_counter()
        run.one_pass()  # untraced reference for the overhead
        rec = Recorder()
        traced_from = len(run.durations)
        with Tracer(api, rec):
            run.passes(seconds - (time.perf_counter() - start), rec)
        traced = run.durations[traced_from:]
        # Per item, first traced pass against the untraced one, each scaled by
        # its probe time: the median ratio is not moved by load on the machine.
        overhead = statistics.median(
            (t[1] / p[1]) / (t[0] / p[0]) for t, p in zip(run.times, run.probes)
        ) - 1
        units = metric_units("per_layer")
        metrics = layer_metrics(rec, units, len(traced), sum(traced), overhead)
        if trace_path is not None:
            rec.write_jsonl(trace_path)
        extra["spans"] = len(rec.spans)
    else:
        n_passes = run.passes(seconds)
        verified = len(items) * (1 - run.failed / run.attempted)
        # Scaled times have the machine's speed taken out, so an input's time
        # is their median over passes; wall-clock times keep the fastest pass.
        ref_s = [statistics.median(t * PROBE_REF_S / p for t, p in zip(ts, ps))
                 for ts, ps in zip(run.times, run.probes)]
        raw_s = [min(ts) for ts in run.times]
        p, beyond, tail_ref = tail(ref_s)
        metrics = {
            "setup_s": statistics.median(s * PROBE_REF_S / p for s, p in setups),
            "ops_per_ref_s": verified / sum(ref_s),
            "op_p50_ref_s": statistics.median(ref_s),
            "op_tail_ref_s": tail_ref,
            "peak_rss_mib": run.first_pass_rss_mib,
        }
        q = quality(run)
        metrics["terms_vs_baseline"] = q.pop("terms_vs_baseline", 0.0)
        units = metric_units("end_to_end")
        extra = {
            "passes": n_passes,
            "tail_percentile": p,
            "tail_samples_beyond": beyond,
            "setup_samples": [{"wall_s": s, "probe_s": p} for s, p in setups],
            "report_metrics": {
                "setup_wall_s": statistics.median(s for s, _ in setups),
                "ops_per_s": verified / sum(raw_s),
                "op_p50_s": statistics.median(raw_s),
                "op_tail_s": tail(raw_s)[2],
                "probe_s": statistics.median(x for ps in run.probes for x in ps),
                "failed_frac": run.failed / run.attempted,
                **q,
            },
            "per_item": [
                {"key": it.key, "terms": len(o.terms) if o is not None else None,
                 "op_s": ts, "probe_s": ps}
                for it, o, ts, ps in zip(items, run.first, run.times, run.probes)
            ],
        }
    import numpy as np

    return {
        "workload": workload,
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors[:20],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "digest": combined_digest([d or "" for d in run.digests]),
        "items": len(items),
        "op_time_s": sum(run.durations),
        "env": {
            "nproc": os.cpu_count(),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "commit": git_commit(),
        },
        **extra,
    }


def print_report(res: dict) -> None:
    print(f"workload {res['workload']}: {res['attempted']} ops, {res['failed']} failed, "
          f"{res['items']} inputs, digest {res['digest'][:16]}")
    for name, m in res["metrics"].items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for name, value in res.get("report_metrics", {}).items():
        print(f"  {name:44s} {value:.6g} {REPORT_ONLY[name]}")
    if "tail_percentile" in res:
        print(f"  op_tail_ref_s and op_tail_s are p{res['tail_percentile']:g} with "
              f"{res['tail_samples_beyond']:.1f} samples beyond it")
    for line in res["errors"]:
        print(f"  FAILED {line}")


def main(argv=None) -> int:
    t0 = time.perf_counter()
    pin_threads()  # before numpy is first imported
    import corpus

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        _, _, seconds, probe = setup(args.workload, args.seed, t0)
        print(json.dumps({"setup_s": seconds, "probe_s": probe}))
        return 0
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}.s{args.seed}"
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), t0,
                       trace_path=OUT / f"{stem}.trace.jsonl" if args.trace else None)
    path = OUT / f"{stem}.t{args.trace}.json"
    path.write_text(json.dumps(res, indent=1) + "\n")
    print_report(res)
    print(f"  results in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
