"""Seeded inputs and the op of each benchmark workload.

The seed is an argument of the benchmark only: the package sees nothing but
the generated matrices (and, on ``certified-blocky``, their certificates).
Each corpus is stratified so that two seeds give inputs of the same make-up
and the per-seed figures differ little.

* ``tiny-exhaustive``: the 511 nonzero 3x3 boolean matrices, grouped into
  their classes under row/column permutation and transposition.  The seed
  shuffles each class and takes every ``TINY_STRIDE``-th matrix of the
  class-sorted list from a seeded offset, so every class keeps its share.
* ``dense-solve``: two sign, two boolean and two {-1,0,1} matrices at
  every size in ``DENSE_SIZES``, entries drawn from the seed.
* ``certified-blocky``: one ``random-blocky-sum`` instance for every
  (size, generating L) pair in ``BLOCKY_GRID``, drawn with the fixed
  generator seed ``100 * size + L`` together with the exact certificate the
  generator attaches.  The seed permutes each instance's rows and columns
  (and its certificate with them).  New structures per seed moved a run's
  throughput by up to 25%, more than a run can average out; a permutation
  leaves the structure, the term count and the work alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("tiny-exhaustive", "dense-solve", "certified-blocky")

TINY_STRIDE = 10
DENSE_SIZES = (8, 12, 16, 20, 24, 28, 32)
DENSE_KINDS = ("sign", "boolean", "ternary")
BLOCKY_GRID = tuple((n, L) for n in (64, 80, 96, 112, 128) for L in (4, 6, 8))


@dataclass(frozen=True, eq=False)
class Item:
    """One input of a workload; ``key`` names it in results and digests."""

    key: str
    matrix: np.ndarray
    certificate: object = None  # GammaFactorization on certified-blocky
    generating_terms: int | None = None


@dataclass(eq=False)
class Outcome:
    """What one op returned."""

    terms: object  # SignedBlockySum
    report: object  # PipelineReport
    bracket: object = None  # NormBracket on the solver workloads
    oracle: int | None = None  # exact complexity on tiny-exhaustive


def _tiny_matrix(code: int) -> np.ndarray:
    return ((code >> np.arange(9)) & 1).reshape(3, 3).astype(np.int64)


def _tiny_class(A: np.ndarray) -> tuple:
    """Smallest flattening over row/column permutations and transposition."""
    perms = list(itertools.permutations(range(3)))
    return min(
        tuple(B.ravel())
        for p in perms
        for q in perms
        for B in (A[np.ix_(p, q)], A[np.ix_(p, q)].T)
    )


def _tiny(api, seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 3])
    codes = np.arange(1, 512)
    rank = rng.permutation(codes.size)
    classes = [_tiny_class(_tiny_matrix(int(c))) for c in codes]
    ordered = sorted(range(codes.size), key=lambda i: (classes[i], rank[i]))
    picked = ordered[int(rng.integers(TINY_STRIDE)) :: TINY_STRIDE]
    picked = [picked[i] for i in rng.permutation(len(picked))]
    return [Item(key=f"tiny:{int(codes[i]):03d}", matrix=_tiny_matrix(int(codes[i]))) for i in picked]


def _dense_matrix(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        if kind == "sign":
            A = rng.choice(np.array([-1, 1]), size=(n, n))
        elif kind == "boolean":
            A = rng.integers(0, 2, size=(n, n))
        else:
            A = rng.integers(-1, 2, size=(n, n))
        if A.any():
            return A.astype(np.int64)


def _dense(api, seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 32])
    items = [
        Item(key=f"dense:{kind}:{n}:{copy}", matrix=_dense_matrix(kind, n, rng))
        for n in DENSE_SIZES
        for kind in DENSE_KINDS
        for copy in range(2)
    ]
    return [items[i] for i in rng.permutation(len(items))]


def _blocky_item(api, n: int, L: int, rng: np.random.Generator | None = None) -> Item:
    inst = api.generate(api.GeneratorSpec("random-blocky-sum", n=n, term_count=L), seed=100 * n + L)
    A, cert = np.asarray(inst.matrix), inst.certificate
    if rng is not None:
        rows, cols = rng.permutation(n), rng.permutation(n)
        A = A[np.ix_(rows, cols)]
        cert = api.GammaFactorization(
            U=cert.U[rows], V=cert.V[:, cols], gamma=cert.gamma, residual=cert.residual
        )
    return Item(key=f"blocky:{n}:L{L}", matrix=A, certificate=cert, generating_terms=L)


def _blocky(api, seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 512])
    items = [_blocky_item(api, n, L, rng) for n, L in BLOCKY_GRID]
    return [items[i] for i in rng.permutation(len(items))]


def build_corpus(api, workload: str, seed: int) -> list[Item]:
    """The workload's inputs for ``seed``, in the order the ops run them."""
    build = {"tiny-exhaustive": _tiny, "dense-solve": _dense, "certified-blocky": _blocky}
    return build[workload](api, seed)


def warmup_item(api, workload: str) -> Item:
    """A small fixed input that runs every code path of the op once."""
    if workload == "tiny-exhaustive":
        return Item(key="warmup", matrix=np.array([[1, 0, 0], [1, 1, 0], [0, 1, 1]]))
    if workload == "dense-solve":
        return Item(key="warmup", matrix=_dense_matrix("sign", 6, np.random.default_rng(6)))
    return _blocky_item(api, 16, 3)


def run_op(api, workload: str, item: Item) -> Outcome:
    """The op: bracket then decompose on the solver workloads (plus the oracle
    on tiny inputs); decompose with the generated certificate on blocky sums.

    The package is reached through ``api`` attributes at call time, so the
    traced run's wrappers see every call.
    """
    if workload == "certified-blocky":
        terms, report = api.decompose(item.matrix, fac=item.certificate)
        return Outcome(terms=terms, report=report)
    bracket = api.gamma2_bracket(item.matrix)
    terms, report = api.decompose(item.matrix, fac=bracket.upper_witness)
    oracle = api.exact_block_complexity(item.matrix) if workload == "tiny-exhaustive" else None
    return Outcome(terms=terms, report=report, bracket=bracket, oracle=oracle)
