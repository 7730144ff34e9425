"""In-memory span recorder and the per-layer timing wrappers of the traced run.

A wrapper records one span per call of a package function: layer name,
start, end, parent span and op id.  Wrappers are installed at the names the
callers look up at call time (``pipeline.bucket_stabilize`` is what
``norm_decrement_step`` calls, ``factorize.ldim_alpha`` what
``gamma2_lower`` calls), so the package source is never edited, and
``Tracer.uninstall`` puts every original back.  The untraced run installs
nothing.

Alongside the spans the wrappers keep counters measured where the work
happens: SVD calls inside the solver, stabilizer steps, classes, terms.
"""

from __future__ import annotations

import json
import time

import numpy as np

# Solver iterations are counted as numpy.linalg.svd calls made while the
# innermost open span is this layer.
UPPER = "factorize.gamma2_upper"


class Recorder:
    """Spans as ``[name, start, end, parent, op]`` lists, plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.stack: list[int] = []
        self.op = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans of one thread never overlap, so that is the part of
        the interval no child covers.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write_jsonl(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                row = {"name": name, "start": start - t0, "end": end - t0, "parent": parent, "op": op}
                fh.write(json.dumps(row) + "\n")


def _stabilize_hook(rec, args, res):
    name = "littlestone.bucket_stabilize"
    rec.count(name + ".steps", res.steps)
    rec.count(name + ".uncertified", 0 if res.certified else 1)
    rec.count(name + ".kept", len(res.columns))
    rec.count(name + ".offered", np.shape(args[0])[1])


def _average_hook(rec, args, res):
    name = "partition.subtract_average"
    rec.count(name + ".kept", len(res.kept))
    rec.count(name + ".offered", np.shape(args[0])[0])


def _partition_hook(rec, args, res):
    rec.count("partition.greedy_partition.classes", len(res))


def _peel_hook(rec, args, res):
    rec.count("partition.greedy_l1_decompose.terms", len(res))


def _step_hook(rec, args, res):
    rec.count("pipeline.norm_decrement_step.rounds", len(res.diagnostics))


def layer_table(api):
    """(layer name, [(owner, attribute), ...], result hook) for every wrapped layer.

    Each owner/attribute pair is a binding some caller looks the function up
    by; the package attribute is the one the benchmark's own ops call.
    """
    core, factorize, littlestone = api.core, api.factorize, api.littlestone
    pipeline = api.pipeline
    return [
        ("factorize.gamma2_bracket", [(api, "gamma2_bracket")], None),
        (UPPER, [(factorize, "gamma2_upper"), (pipeline, "gamma2_upper")], None),
        ("factorize.gamma2_lower", [(factorize, "gamma2_lower")], None),
        ("littlestone.ldim", [(factorize, "ldim"), (littlestone, "ldim")], None),
        ("littlestone.ldim_alpha", [(factorize, "ldim_alpha"), (littlestone, "ldim_alpha")], None),
        ("factorize.verify_factorization", [(pipeline, "verify_factorization")], None),
        ("core.SignedBlockySum.evaluate", [(core.SignedBlockySum, "evaluate")], None),
        ("littlestone.bucket_stabilize", [(pipeline, "bucket_stabilize")], _stabilize_hook),
        ("partition.greedy_partition", [(pipeline, "greedy_partition")], _partition_hook),
        ("partition.subtract_average", [(pipeline, "subtract_average")], _average_hook),
        ("partition.greedy_l1_decompose", [(pipeline, "greedy_l1_decompose")], _peel_hook),
        ("pipeline.norm_decrement_step", [(pipeline, "norm_decrement_step")], _step_hook),
        ("pipeline.decompose", [(api, "decompose")], None),
        ("pipeline.exact_block_complexity", [(api, "exact_block_complexity")], None),
    ]


class Tracer:
    """Installs the wrappers of ``layer_table`` and numpy's SVD counter."""

    def __init__(self, api, rec: Recorder):
        self.api = api
        self.rec = rec
        self.saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        rec = self.rec
        budget_exc = self.api.BudgetExceeded

        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                res = fn(*args, **kwargs)
            except budget_exc:
                rec.count("littlestone.budget_exceeded")
                raise
            finally:
                rec.close(idx)
            if hook is not None:
                hook(rec, args, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self.saved:
            raise RuntimeError("wrappers already installed")
        for name, bindings, hook in layer_table(self.api):
            for owner, attr in bindings:
                self._patch(owner, attr, self._wrap(name, getattr(owner, attr), hook))
        rec = self.rec
        svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            if rec.innermost() == UPPER:
                rec.count(UPPER + ".ascent_iters")
            return svd(*args, **kwargs)

        self._patch(np.linalg, "svd", counted_svd)

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
