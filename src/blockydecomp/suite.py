"""The ten-criterion verification battery, shared by pytest and the CLI.

Each criterion is a standalone check taking a RunConfig and a shared
SuiteContext, registered in ``CRITERIA`` by ``_criterion`` with its number,
name and wall-clock limit; the registration times every check and fails it
past its limit.  The SuiteContext lazily caches the two expensive
corpora: decompositions of all 512 boolean 3x3 matrices and of 50
generated blocky-sum instances, each with one ``norm_decrement_step`` of
the paper's construction run from the same certificate on every nonzero
instance (a step that raises fails criteria 6 and 7, which name it).
The 3x3 corpus also holds each matrix's exact block complexity,
one oracle call per matrix, which criteria 8, 10 and 11 all read.
Criterion 11 also runs the oracle on one matrix of each class of 4x4
booleans under row and column permutations and transposition
(``boolean_classes``).  Criterion 4 reads each partition's own density
table (``GreedyPartition.density_table``).
Results carry pass/fail, a human-readable detail line, elapsed seconds, and
machine-readable rows for plot tables.  ``run_suite`` executes a selection
in order and optionally writes results plus tab-separated data tables.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .core import is_blocky, round_half_down
from .factorize import gamma2_upper, verify_factorization
from .generators import GeneratorSpec, generate
from .littlestone import bucket_stabilize, ldim, ldim_alpha, majority_stabilize
from .partition import greedy_partition, peel_term_count, subtract_average
from .pipeline import ReconstructionError, RoundingDriftError, _all_booleans, decompose
from .pipeline import exact_block_complexity, norm_decrement_step, term_count_floor

__all__ = ["CriterionResult", "SuiteContext", "run_suite", "CRITERIA", "boolean_classes"]


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    limit: float
    data: dict = field(default_factory=dict)

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} criterion {self.number} ({self.name}): {self.detail} "
            f"[{self.seconds:.1f}s / limit {self.limit:.0f}s]"
        )


def _construction(A: np.ndarray, fac, config: RunConfig) -> dict:
    """``decompose`` and one construction step on A from the same certificate.

    The step starts from the certificate's product at the eps ``decompose``
    measured on it, as the construction does; it is None for the zero
    matrix, where there is nothing to decrement, and where it fails one of
    its own checks, which ``step_error`` then names.
    """
    s, rep = decompose(A, fac=fac, config=config)
    step = error = None
    if A.any():
        try:
            step = norm_decrement_step(fac.product(), fac, rep.eps_trajectory[0], config)
        except (AssertionError, ReconstructionError, RoundingDriftError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    return {"matrix": A, "sum": s, "report": rep, "fac": fac, "step": step, "step_error": error}


def _raised_steps(corpora) -> str:
    """A detail suffix counting the steps of the (name, id key, items) corpora that raised, naming the first."""
    raised = [f"{kind} {key} {item[key]} ({item['step_error']})"
              for kind, key, items in corpora for item in items if item["step_error"]]
    return f"; {len(raised)} raised, first on {raised[0]}" if raised else ""


class SuiteContext:
    """Lazy caches for corpora reused across criteria 6-11."""

    def __init__(self, config: RunConfig | None = None):
        self.config = config or DEFAULT_CONFIG
        self._boolean3: list[dict] | None = None
        self._blocky50: list[dict] | None = None

    def boolean3x3(self) -> list[dict]:
        if self._boolean3 is None:
            out = []
            for code, A in enumerate(_all_booleans(3, 3).astype(np.int64)):
                fac = gamma2_upper(A, self.config)
                oracle = exact_block_complexity(A)
                out.append({"code": code, "oracle": oracle, **_construction(A, fac, self.config)})
            self._boolean3 = out
        return self._boolean3

    def blocky_instances(self) -> list[dict]:
        if self._blocky50 is None:
            cfg = self.config
            out = []
            for i in range(50):
                rng = np.random.default_rng([cfg.seed, 6, i])
                n = int(rng.integers(4, 65))
                m = int(rng.integers(4, 65))
                l0 = int(rng.integers(1, 5))
                inst = generate(
                    GeneratorSpec(kind="random-blocky-sum", n=n, m=m, term_count=l0), seed=i
                )
                A = np.asarray(inst.matrix)
                out.append({"id": i, "instance": inst, **_construction(A, inst.certificate, cfg)})
            self._blocky50 = out
        return self._blocky50

    def corpora(self) -> tuple:
        """Both construction corpora as (name, id key, items)."""
        return (("boolean3x3", "code", self.boolean3x3()), ("blocky-sum", "id", self.blocky_instances()))


def _row_column_canon(bits: np.ndarray) -> np.ndarray:
    """One code per class of n x n booleans under row and column permutations.

    ``bits`` holds the matrices as an integer array (count, n, n).  For each
    one: over the n! row permutations, the least packing, base 2^n, of its
    column codes (row x as bit x) in ascending order.
    """
    n = bits.shape[1]
    columns = (bits << np.arange(n)[:, None]).sum(axis=1)
    perms = np.array(list(itertools.permutations(range(n))))
    # moved[p, c]: column code c with row x moved to row perms[p, x]
    moved = (_all_booleans(1, n)[:, 0] << perms[:, None, :]).sum(axis=2)
    permuted = moved.astype(np.uint8)[:, columns]  # (n!, count, n); n <= 8
    permuted.sort(axis=2)
    packed = np.zeros(permuted.shape[:2], dtype=np.int64)
    for j in range(n):
        packed <<= n
        packed |= permuted[:, :, j]
    return packed.min(axis=0)


def boolean_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n x n boolean matrices up to row and column permutations and transposition.

    Returns one representative per class, the class's matrix of least code
    (entry (x, y) is bit x*n + y of the code), as an int64 array
    (classes, n, n), and each class's size; the zero matrix comes first.
    Block complexity is the same on every matrix of a class.
    """
    bits = _all_booleans(n, n)
    canon = np.minimum(_row_column_canon(bits), _row_column_canon(bits.transpose(0, 2, 1)))
    _, first, sizes = np.unique(canon, return_index=True, return_counts=True)
    return bits[first].astype(np.int64), sizes


CRITERIA: dict[int, Callable[[RunConfig, SuiteContext], CriterionResult]] = {}


def _criterion(number: int, name: str, limit: float):
    """Register a check as criterion ``number``, timed and held to ``limit`` seconds.

    The check returns ``(ok, detail)`` or ``(ok, detail, data)``; the
    criterion passes when ``ok`` holds and the check ran in under ``limit``.
    """

    def register(check):
        @functools.wraps(check)
        def run(config: RunConfig, ctx: SuiteContext) -> CriterionResult:
            t0 = time.perf_counter()
            ok, detail, *data = check(config, ctx)
            dt = time.perf_counter() - t0
            data = data[0] if data else {}
            return CriterionResult(number, name, ok and dt < limit, detail, dt, limit, data)

        CRITERIA[number] = run
        return run

    return register


@_criterion(1, "norm value reproduction", 1.0)
def criterion_1(config: RunConfig, ctx: SuiteContext):
    """Pinned norm values: the 2/sqrt(3) witness and the exact-1 anchors."""
    g_l = gamma2_upper([[1, 0], [1, 1]], config).gamma
    g_i = gamma2_upper(np.eye(3), config).gamma
    g_j = gamma2_upper(np.ones((3, 3)), config).gamma
    ok = (
        1.15470 <= g_l <= 1.15570
        and 1.0 <= g_i <= 1.0 + 1e-6
        and 1.0 <= g_j <= 1.0 + 1e-6
    )
    detail = f"[[1,0],[1,1]] -> {g_l:.6f} (window [1.15470, 1.15570]); identity -> {g_i:.9f}; all-ones -> {g_j:.9f}"
    return ok, detail, {"gammas": {"lower-triangular": g_l, "identity": g_i, "all-ones": g_j}}


@_criterion(2, "lower/upper consistency", 120)
def criterion_2(config: RunConfig, ctx: SuiteContext):
    """Dimension-vs-norm inequalities on 200 random sign matrices."""
    worst_sqrt = -math.inf
    worst_alpha = -math.inf
    bad = 0
    for t in range(200):
        rng = np.random.default_rng([config.seed, 2, t])
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 11))
        A = rng.choice([-1.0, 1.0], size=(m, n))
        gamma = gamma2_upper(A, config).gamma
        d = ldim(A)
        worst_sqrt = max(worst_sqrt, math.sqrt(d) - gamma)
        if math.sqrt(d) > gamma + 1e-6:
            bad += 1
        for alpha in (0.125, 0.25, 0.5, 1.0):
            da = ldim_alpha(A, alpha)
            cap = (2 * (1.0 + 1) * (gamma + 1) / alpha) ** 2 + 1e-6
            worst_alpha = max(worst_alpha, da - cap)
            if da > cap:
                bad += 1
    detail = (
        f"200 sign matrices <= 6x10: {bad} violations; worst sqrt(dim)-gamma slack "
        f"{worst_sqrt:.3e}; worst weighted-dim margin {worst_alpha:.1f}"
    )
    return bad == 0, detail


@_criterion(3, "stabilizer postconditions", 120)
def criterion_3(config: RunConfig, ctx: SuiteContext):
    """Stabilizer postconditions, counted exactly, on 100+100 seeded trials."""
    bad = []
    for t in range(100):
        rng = np.random.default_rng([config.seed, 31, t])
        A = rng.choice([-1, 1], size=(5, 32)).astype(np.int64)
        res = majority_stabilize(A, 0.25)
        cols = list(res.columns)
        rates = (A[:, cols] != res.row_values[:, None]).mean(axis=1)
        d = ldim(A)
        if not (rates <= 0.25).all():
            bad.append(("majority-rate", t))
        if res.steps > d or len(cols) < (0.25**d) * 32:
            bad.append(("majority-size", t))
    for t in range(100):
        rng = np.random.default_rng([config.seed, 32, t])
        A = rng.uniform(-2.0, 2.0, size=(4, 64))
        res = bucket_stabilize(A, alpha=0.125, eps=0.1)
        cols = list(res.columns)
        rates = (np.abs(A[:, cols] - res.row_values[:, None]) >= 0.25).mean(axis=1)
        if not (rates <= 0.1).all():
            bad.append(("bucket-rate", t))
        if not res.certified:
            bad.append(("bucket-uncertified", t))
        else:
            d = ldim_alpha(A, 0.125)
            if res.steps > d or len(cols) < res.size_bound - 1e-12:
                bad.append(("bucket-size", t))
    detail = f"100 majority (5x32, eps=0.25) + 100 bucket (4x64, alpha=1/8, eps=0.1) trials: {len(bad)} violations"
    if bad:
        detail += f"; first: {bad[0]}"
    return not bad, detail


@_criterion(4, "greedy partition guarantee", 60)
def criterion_4(config: RunConfig, ctx: SuiteContext):
    """Greedy-partition harmonic bound and delta-density cap on 100 matrices."""
    bad = 0
    rows = []
    for t in range(100):
        rng = np.random.default_rng([config.seed, 4, t])
        m = int(rng.integers(1, 17))
        n = int(rng.integers(1, 257))
        A = rng.integers(-3, 4, size=(m, n))
        A = A[:, A.any(axis=0)]
        if A.shape[1] == 0:
            continue
        gp = greedy_partition(A)
        ceiling = math.log(A.shape[1]) + 1
        sums = [float(arr.sum()) for arr in gp.class_probabilities.values()]
        table = gp.density_table()  # the per-delta counts and their caps
        bad += sum(s > ceiling + 1e-9 for s in sums)
        bad += sum(r["count"] > r["ceiling"] + 1e-9 for r in table)
        rows.append((t, A.shape[1], max(sums) - ceiling, max(r["count"] - r["ceiling"] for r in table)))
    detail = f"100 integer matrices <= 16x256: {bad} violations; worst harmonic slack {max(r[2] for r in rows):.3e}"
    return bad == 0, detail, {"density_rows": rows}


@_criterion(5, "subtract-average guarantee", 30)
def criterion_5(config: RunConfig, ctx: SuiteContext):
    """Mean identity and kept-fraction bound over 1000 vector families."""
    bad = 0
    for t in range(1000):
        rng = np.random.default_rng([config.seed, 5, t])
        r = int(rng.integers(1, 65))
        dim = int(rng.integers(1, 33))
        vecs = rng.normal(size=(r, dim)) * float(rng.uniform(0.2, 3.0))
        norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))
        gamma = float(norms.max()) * float(rng.uniform(1.0, 1.5))
        split = subtract_average(vecs, gamma)
        c_sq = split.norm_of_average**2
        lhs = float(split.drops.sum())
        rhs = r * c_sq
        scale = max(1.0, abs(rhs), float((norms**2).sum()))
        if abs(lhs - rhs) > 1e-9 * scale:
            bad += 1
        if len(split.kept) < c_sq * r / (2 * gamma * gamma) - 1e-9 * r:
            bad += 1
    detail = f"1000 families (r<=64, dim<=32): {bad} violations of the mean identity / kept bound"
    return bad == 0, detail


@_criterion(6, "norm decrement per level", 900)
def criterion_6(config: RunConfig, ctx: SuiteContext):
    """The generator's 50 certificates verify, and every construction step of both corpora returned.

    ``norm_decrement_step`` raises where its gamma^2 drop of 1/8, its
    eps_out <= 2 eps or its rounding additivity fails, so a returned step
    has all three; the criterion fails on a step that raised and reports
    each returned step's gamma^2 drop, eps_in and eps_out.
    """
    corpora = ctx.corpora()
    raised = _raised_steps(corpora)
    instances = [item["instance"] for item in ctx.blocky_instances()]
    bad_certs = [i for i, inst in enumerate(instances)
                 if not verify_factorization(inst.matrix, inst.certificate, config.tol).ok]
    rows = [
        (kind, item[key], item["fac"].gamma ** 2 - item["step"].residual_factorization.gamma ** 2,
         item["report"].eps_trajectory[0], item["step"].eps_out)
        for kind, key, items in corpora for item in items if item["step"] is not None
    ]
    detail = (f"{len(instances)} generator certificates, {len(bad_certs)} failing verification; "
              f"{len(rows)} construction steps")
    if rows:
        _, _, drops, eps_in, eps_out = zip(*rows)
        detail += (
            f", least gamma^2 drop {min(drops):.6f}, eps_in at most {max(eps_in):.3e}, "
            f"eps_out at most {max(eps_out):.3e}"
        )
    if bad_certs:
        detail += f"; first failing certificate on blocky-sum id {bad_certs[0]}"
    return not bad_certs and not raised and rows != [], detail + raised, {"step_rows": rows}


@_criterion(7, "end-to-end exactness", 900)
def criterion_7(config: RunConfig, ctx: SuiteContext):
    """Exact reconstruction everywhere; one construction level, never fewer terms."""
    corpora = ctx.corpora()
    raised = _raised_steps(corpora)
    bad = 0
    steps = 0
    rows = []
    for kind, key, items in corpora:
        for item in items:
            A, s, rep, step = item["matrix"], item["sum"], item["report"], item["step"]
            if not np.array_equal(s.evaluate(), A):
                bad += 1
            step_terms = 0
            if step is not None:
                steps += 1
                step_terms = len(step.blocky_part)
                if round_half_down(step.residual_factorization.product()).any():
                    bad += 1  # the construction needs a second level
                if len(s) > step_terms:
                    bad += 1
            g0 = rep.gamma_squared_trajectory[0]
            rows.append((kind, item[key], A.shape[0], A.shape[1], g0, step_terms, len(s), rep.bound_fit))
    detail = (
        f"512 boolean 3x3 + 50 blocky sums reconstructed exactly; {steps} construction steps "
        f"end in one level with at least decompose's terms: {bad} failures{raised}"
    )
    return bad == 0 and not raised and steps > 0, detail, {"term_rows": rows}


@_criterion(8, "oracle sandwich", 600)
def criterion_8(config: RunConfig, ctx: SuiteContext):
    """Brute-force oracle sandwiched under both constructive term counts."""
    bad = 0
    blocky_checked = 0
    for item in ctx.boolean3x3():
        A, s, oc = item["matrix"], item["sum"], item["oracle"]
        if oc is None or oc > len(s) or oc > peel_term_count(A):
            bad += 1
        check = is_blocky(A)
        if A.any() and check.blocky:
            blocky_checked += 1
            if oc != 1:
                bad += 1
    padded = np.zeros((3, 3), dtype=np.int64)
    padded[:2, :2] = [[1, 0], [1, 1]]
    if exact_block_complexity(padded) != 2:
        bad += 1
    detail = (
        f"512 oracle values <= both term counts; {blocky_checked} nonzero blocky matrices all "
        f"at complexity 1; padded witness at 2; {bad} violations"
    )
    return bad == 0, detail


@_criterion(10, "exact 3x3 complexity distribution", 300)
def criterion_10(config: RunConfig, ctx: SuiteContext):
    """Block complexity over all 512 boolean 3x3 matrices, read from the oracle pass.

    The reference n / (4 log2(2n)) is the proved high-probability lower
    bound for random n x n booleans; the minimum must reach its floor and
    the median the reference itself.
    """
    n = 3
    values = np.array([item["oracle"] for item in ctx.boolean3x3()])
    hist = {int(k): int(c) for k, c in zip(*np.unique(values, return_counts=True))}
    rep = {
        "n": n,
        "matrices": len(values),
        "histogram": hist,
        "min": int(values.min()),
        "median": float(np.median(values)),
        "max": int(values.max()),
        "reference": n / (4 * math.log2(2 * n)),
    }
    floor_ref = math.floor(rep["reference"])
    detail = (
        f"n={n}, all {rep['matrices']} matrices: histogram {hist}, min {rep['min']} >= "
        f"floor({rep['reference']:.3f}) = {floor_ref}, median {rep['median']} >= {rep['reference']:.3f}"
    )
    ok = rep["min"] >= floor_ref and rep["median"] >= rep["reference"]
    return ok, detail, {"distribution": rep}


@_criterion(11, "term-count floor", 600)
def criterion_11(config: RunConfig, ctx: SuiteContext):
    """Certified term-count floor sandwiched under the oracle and the term count.

    Runs on the 512 boolean 3x3 matrices and on one representative of each
    nonzero class of 4x4 booleans (``boolean_classes``); the 4x4 totals are
    also weighted by class size, which totals the floor and the oracle over
    all 65,535 nonzero 4x4 booleans, and the representatives' term counts.
    """
    bad = 0
    totals = {key: np.zeros(3, dtype=np.int64) for key in ("3x3", "4x4", "4x4 weighted")}
    for item in ctx.boolean3x3():
        A, s, oc = item["matrix"], item["sum"], item["oracle"]
        floor = term_count_floor(A, item["fac"].dual_bound)
        if oc is None or not floor <= oc <= len(s):
            bad += 1
            continue
        totals["3x3"] += (floor, oc, len(s))
    reps, sizes = boolean_classes(4)
    for A, size in zip(reps[1:], sizes[1:]):  # the zero matrix is first
        fac = gamma2_upper(A, config)
        floor, oc = term_count_floor(A, fac.dual_bound), exact_block_complexity(A)
        terms = len(decompose(A, fac=fac, config=config)[0])
        if oc is None or not floor <= oc <= terms:
            bad += 1
            continue
        totals["4x4"] += (floor, oc, terms)
        totals["4x4 weighted"] += size * np.array((floor, oc, terms))
    shown = {key: " <= ".join(map(str, row.tolist())) for key, row in totals.items()}
    detail = (
        f"floor <= oracle <= terms, totals {shown['3x3']} on 512 boolean 3x3; {shown['4x4']} on "
        f"{len(reps) - 1} nonzero 4x4 classes, {shown['4x4 weighted']} weighted by class size; "
        f"{bad} violations"
    )
    return bad == 0, detail, {"floor_oracle_terms": totals, "classes_4x4": len(reps) - 1}


def _write_tables(results: list[CriterionResult], out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = [
        {
            "number": r.number,
            "name": r.name,
            "passed": r.passed,
            "seconds": round(r.seconds, 3),
            "detail": r.detail,
        }
        for r in results
    ]
    (out_dir / "results.json").write_text(json.dumps(summary, indent=2) + "\n")
    for r in results:
        if "term_rows" in r.data:
            with open(out_dir / "terms_vs_size.tsv", "w") as fh:
                fh.write("kind\tid\tm\tn\tgamma0_squared\tconstruction_terms\tterms\tbound_fit\n")
                for row in r.data["term_rows"]:
                    fh.write("\t".join(str(v) for v in row) + "\n")
        if "density_rows" in r.data:
            with open(out_dir / "density_margins.tsv", "w") as fh:
                fh.write("trial\tcolumns\tworst_harmonic_slack\tworst_count_margin\n")
                for row in r.data["density_rows"]:
                    fh.write("\t".join(str(v) for v in row) + "\n")
        if "distribution" in r.data:
            (out_dir / "random_complexity.json").write_text(
                json.dumps(r.data["distribution"], indent=2) + "\n"
            )


def run_suite(
    config: RunConfig | None = None,
    selection: list[int] | None = None,
    out_dir: str | Path | None = None,
    echo=print,
) -> tuple[int, list[CriterionResult]]:
    """Run the battery (or a selection); returns (exit_code, results).

    A selection naming an unknown criterion raises ValueError before any criterion runs.
    """
    config = config or DEFAULT_CONFIG
    ctx = SuiteContext(config)
    chosen = selection if selection is not None else sorted(CRITERIA)
    unknown = [k for k in chosen if k not in CRITERIA]
    if unknown:
        raise ValueError(f"unknown criterion {unknown[0]}; valid: {sorted(CRITERIA)}")
    results = []
    for k in chosen:
        res = CRITERIA[k](config, ctx)
        results.append(res)
        if echo:
            echo(res.line)
    if out_dir is not None:
        _write_tables(results, Path(out_dir))
    failing = [r for r in results if not r.passed]
    if failing and echo:
        echo("failing criteria: " + ", ".join(f"{r.number} ({r.name})" for r in failing))
    return (1 if failing else 0), results
