"""Command-line surface: norms, dimensions, partitions, decomposition, suite.

Every subcommand is deterministic given its flags; randomness is seeded
explicitly and no global state is consulted.  BLAS backends inside numpy
honor the usual thread-count environment variables (OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS), which change speed, never results; no other environment
configuration exists — semantics flow through flags.  The thread count is
left at numpy's default, which can be far slower on small matrices when
other work shares the cores: on a loaded 2-core x86-64 VM one 128x152 @
152x128 product took 3.76 ms with the default and 0.13 ms with
OPENBLAS_NUM_THREADS=1 or OMP_NUM_THREADS=1.  On a shared machine, set one
of them to 1 before starting the command.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .config import RunConfig
from .factorize import gamma2_bracket, gamma2_upper, verify_factorization
from .formats import (
    dump_decomposition,
    dump_factorization,
    dump_matrix,
    dump_report,
    load_decomposition,
    load_factorization,
    load_int_matrix,
    load_matrix,
)
from .generators import KINDS, GeneratorSpec, generate
from .littlestone import DEFAULT_BUDGET, BudgetExceeded, ldim, ldim_alpha
from .partition import DENSITY_DELTAS, greedy_partition
from .pipeline import ORACLE_MAX_L, check_entry_cap, decompose, exact_block_complexity
from .suite import run_suite

__all__ = ["main"]


# RunConfig field -> (flag, help).  Defaults and types come from RunConfig.
_RUN_FLAGS = {
    "seed": ("--seed", "seed of the random trials"),
    "tol": ("--tol", "certificate residual tolerance, an absolute bound on max|A - UV|"),
}


def _add_run_flags(p: argparse.ArgumentParser, fields) -> None:
    for name in fields:
        flag, text = _RUN_FLAGS[name]
        default = getattr(RunConfig, name)
        p.add_argument(flag, dest=name, type=type(default), default=default,
                       metavar=flag[2:].upper().replace("-", "_"), help=f"{text} (default %(default)s)")


def _budget(text: str) -> int:
    """The ``--budget`` of ``ldim`` and ``ldim-alpha``: a node budget of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return value


def _run_config(args) -> RunConfig:
    """The validated RunConfig of the run flags this subcommand declares."""
    names = [f.name for f in dataclasses.fields(RunConfig)]
    return RunConfig(**{name: getattr(args, name) for name in names if hasattr(args, name)})


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blockydecomp",
        description="Decompose bounded-norm integer matrices into signed sums of blocky matrices.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma2", help="two-sided factorization-norm estimate")
    p.add_argument("--input", required=True)
    _add_run_flags(p, ("tol",))
    p.add_argument("--out", help="write the upper-bound factorization to this JSON file")

    budget_help = "dimension-recursion node budget (default %(default)s)"
    p = sub.add_parser("ldim", help="exact mistake-tree dimension of a sign matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET, help=budget_help)

    p = sub.add_parser("ldim-alpha", help="exact weighted mistake-tree dimension")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET, help=budget_help)

    p = sub.add_parser("partition", help="greedy column partition and its density-cap check")
    p.add_argument("--input", required=True)

    p = sub.add_parser("decompose", help="full signed blocky decomposition")
    p.add_argument("--input", required=True)
    p.add_argument("--factorization", help="JSON certificate; computed when omitted")
    p.add_argument("--gamma", type=float, help="refuse if the certificate norm exceeds this")
    _add_run_flags(p, ("tol",))
    p.add_argument("--out", required=True, help="decomposition JSON output path")
    p.add_argument("--report", required=True, help="report JSON output path")

    p = sub.add_parser("verify", help="re-evaluate a decomposition against a matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--decomp", required=True)

    p = sub.add_parser("oracle", help="exact block complexity by exhaustive search")
    p.add_argument("--input", required=True)
    p.add_argument("--max-l", type=int, default=ORACLE_MAX_L,
                   help=f"term-count cap of the search, at most {ORACLE_MAX_L} (default %(default)s)")

    p = sub.add_parser("gen", help="generate a test matrix (optionally with certificate)")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--terms", type=int, default=3, help="term count for random-blocky-sum")
    p.add_argument("--support", default="", help="comma-separated subset of Z_n for convolution-cyclic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--sum", dest="sum_path", help="also write the generating blocky sum")
    p.add_argument("--cert", help="also write the exact factorization certificate")

    p = sub.add_parser("suite", help="run the acceptance battery")
    _add_run_flags(p, ("seed", "tol"))
    p.add_argument("--select", default="", help="comma-separated criterion numbers (default: all)")
    p.add_argument("--out-dir", help="write results.json and data tables here")
    return ap


def _cmd_gamma2(args) -> int:
    config = _run_config(args)
    A = np.asarray(load_matrix(args.input), dtype=np.float64)
    bracket = gamma2_bracket(A, config)
    fac = bracket.upper_witness
    status = f"certifying at tol {config.tol:g}"
    if not verify_factorization(A, fac, config.tol).ok:
        # tol bounds the residual absolutely; its size against the entries is printed beside it.
        relative = fac.residual / float(np.abs(A).max())
        status = f"NOT {status}, an absolute bound; {relative:.1e} of max|A|"
    print(f"lower bound: {bracket.lower:.9g} via {bracket.lower_witness}")
    print(f"upper bound: {fac.gamma:.9g} (residual {fac.residual:.3e}, {status})")
    if args.out:
        dump_factorization(fac, args.out)
        print(f"factorization written to {args.out}")
    return 0


def _cmd_ldim(args) -> int:
    A = load_matrix(args.input)
    print(ldim(np.asarray(A, dtype=np.float64), budget=args.budget))
    return 0


def _cmd_ldim_alpha(args) -> int:
    A = load_matrix(args.input)
    print(ldim_alpha(np.asarray(A, dtype=np.float64), args.alpha, budget=args.budget))
    return 0


def _cmd_partition(args) -> int:
    arr = load_int_matrix(args.input)
    keep = arr.any(axis=0)
    if not keep.all():
        dropped = int((~keep).sum())
        print(f"stripping {dropped} all-zero column(s)")
        arr = arr[:, keep]
    if not arr.shape[1]:
        print("empty partition: 0 classes")
        return 0
    gp = greedy_partition(arr)
    for i, cls in enumerate(gp.classes):
        print(f"class {i}: (x={cls.row}, b={cls.value}, size={len(cls.columns)}, members={list(cls.columns)})")
    print(f"density table (columns: delta={DENSITY_DELTAS}, cap=(ln {arr.shape[1]}+1)/delta)")
    table = gp.density_table()  # len(DENSITY_DELTAS) consecutive rows per (x, b)
    violations = 0
    for k in range(0, len(table), len(DENSITY_DELTAS)):
        group = table[k : k + len(DENSITY_DELTAS)]
        counts = [r["count"] for r in group]
        if not any(counts):
            continue
        print(f"  x={group[0]['row']} b={group[0]['value']}: counts={counts}")
        violations += sum(r["count"] > r["ceiling"] + 1e-9 for r in group)
    print(f"density bound check: {violations} violations")
    return 0 if violations == 0 else 1


def _cmd_decompose(args) -> int:
    config = _run_config(args)
    A = load_int_matrix(args.input)
    check_entry_cap(A)
    if args.factorization:
        fac = load_factorization(args.factorization)
    else:
        fac = gamma2_upper(A, config)
    if args.gamma is not None and fac.gamma > args.gamma:
        print(
            f"error: certificate norm {fac.gamma:.6f} exceeds the requested bound {args.gamma:.6f}",
            file=sys.stderr,
        )
        return 2
    s, report = decompose(A, fac=fac, config=config)
    gamma0 = report.gamma_squared_trajectory[0] ** 0.5
    dump_decomposition(s, args.out)
    dump_report(report.to_json_dict(), args.report)
    print(
        f"decomposed exactly into {len(s)} signed blocky terms by column dedupe and peel "
        f"(gamma {gamma0:.6f}); wrote {args.out} and {args.report}"
    )
    return 0


def _cmd_verify(args) -> int:
    A = load_int_matrix(args.input)
    s = load_decomposition(args.decomp)
    if s.shape != A.shape:
        print(f"shape mismatch: decomposition {s.shape} vs matrix {A.shape}", file=sys.stderr)
        return 1
    rebuilt = s.evaluate()
    if np.array_equal(rebuilt, A):
        print(f"ok: {len(s)} terms re-evaluate exactly to the {A.shape[0]}x{A.shape[1]} input")
        return 0
    diff = np.argwhere(rebuilt != A)
    x, y = (int(v) for v in diff[0])
    print(
        f"MISMATCH at ({x},{y}): expected {int(A[x, y])}, got {int(rebuilt[x, y])} "
        f"({diff.shape[0]} differing entries)",
        file=sys.stderr,
    )
    return 1


def _cmd_oracle(args) -> int:
    A = load_int_matrix(args.input)
    v = exact_block_complexity(A, args.max_l)
    print(f"exceeds {args.max_l}" if v is None else v)
    return 0


def _cmd_gen(args) -> int:
    support = tuple(int(s) for s in args.support.split(",") if s != "")
    spec = GeneratorSpec(
        kind=args.kind,
        n=args.n,
        m=args.m,
        density=args.density,
        term_count=args.terms,
        support=support,
    )
    inst = generate(spec, seed=args.seed)
    dump_matrix(inst.matrix, args.out, fmt=args.format)
    print(f"wrote {inst.matrix.shape[0]}x{inst.matrix.shape[1]} {args.kind} matrix to {args.out}")
    if args.sum_path:
        if inst.blocky_sum is None:
            print("error: --sum is only available for random-blocky-sum", file=sys.stderr)
            return 2
        dump_decomposition(inst.blocky_sum, args.sum_path)
        print(f"wrote generating sum ({len(inst.blocky_sum)} terms) to {args.sum_path}")
    if args.cert:
        if inst.certificate is None:
            print("error: --cert is only available for random-blocky-sum", file=sys.stderr)
            return 2
        dump_factorization(inst.certificate, args.cert)
        print(f"wrote certificate (gamma {inst.certificate.gamma:g}) to {args.cert}")
    return 0


def _cmd_suite(args) -> int:
    selection = None
    if args.select:
        selection = [int(s) for s in args.select.split(",") if s != ""]
    code, _ = run_suite(_run_config(args), selection=selection, out_dir=args.out_dir)
    return code


_HANDLERS = {
    "gamma2": _cmd_gamma2,
    "ldim": _cmd_ldim,
    "ldim-alpha": _cmd_ldim_alpha,
    "partition": _cmd_partition,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
    "suite": _cmd_suite,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error and 0 after --help
        return exc.code
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
