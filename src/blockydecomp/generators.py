"""Deterministic test-matrix generators, with exact certificates where possible.

Five kinds: plain random boolean matrices, random signed blocky sums (the
only kind that also returns the generating sum and an exact factorization
certificate), circulant convolution matrices over a cyclic group, and the
identity / all-ones anchors.  Each matrix is a read-only int64 array.
Every draw is keyed by (spec, seed) through ``numpy.random.default_rng``
seed sequences, so runs are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import BlockyMatrix, SignedBlockySum, _canonical, _freeze
from .factorize import GammaFactorization, factorization_from_blocky_sum

__all__ = ["GeneratorSpec", "GeneratedInstance", "generate", "random_blocky_matrix", "KINDS"]

KINDS = ("random-boolean", "random-blocky-sum", "convolution-cyclic", "identity", "all-ones")


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: a kind plus its parameters.

    ``n`` is the column count (and row count unless ``m`` is given);
    ``density`` applies to random-boolean; ``term_count`` to
    random-blocky-sum; ``support`` (subset of Z_n) to convolution-cyclic,
    whose matrix is f((x - y) mod n) for the indicator f of the support.
    """

    kind: str
    n: int
    m: int | None = None
    density: float = 0.5
    term_count: int = 3
    support: tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; expected one of {KINDS}")
        if self.n < 1 or (self.m is not None and self.m < 1):
            raise ValueError("matrix dimensions must be positive")
        if self.kind == "random-boolean" and not (0.0 <= self.density <= 1.0):
            raise ValueError(f"density must lie in [0, 1], got {self.density}")
        if self.kind == "random-blocky-sum" and self.term_count < 0:
            raise ValueError(f"term count must be nonnegative, got {self.term_count}")
        if self.kind == "convolution-cyclic":
            bad = [s for s in self.support if not (0 <= s < self.n)]
            if bad:
                raise ValueError(f"support entries {bad} outside Z_{self.n}")

    @property
    def rows(self) -> int:
        return self.n if self.m is None else self.m


@dataclass(frozen=True, eq=False)
class GeneratedInstance:
    """A generated matrix (a read-only int64 array) and, for blocky sums, its sum and certificate."""

    matrix: np.ndarray
    blocky_sum: SignedBlockySum | None = None
    certificate: GammaFactorization | None = None


def random_blocky_matrix(m: int, n: int, rng: np.random.Generator) -> BlockyMatrix:
    """A uniform-ish nonzero blocky matrix: disjoint random rectangles.

    Draws k rectangle slots, splits a row permutation and a column
    permutation into k contiguous chunks each, and pairs them up; chunk
    disjointness makes the result blocky by construction.  Each row and
    column is labelled with its chunk directly, then ids are renumbered by
    first row.
    """
    k_max = max(1, min(m, n) // 2 + 1)
    k = int(rng.integers(1, k_max + 1))
    rows = rng.permutation(m)
    cols = rng.permutation(n)
    row_cuts = np.sort(rng.choice(np.arange(1, m), size=min(k - 1, m - 1), replace=False)) if k > 1 and m > 1 else np.array([], dtype=int)
    col_cuts = np.sort(rng.choice(np.arange(1, n), size=min(k - 1, n - 1), replace=False)) if k > 1 and n > 1 else np.array([], dtype=int)
    pairs = min(row_cuts.size, col_cuts.size) + 1
    keep = int(rng.integers(1, pairs + 1))
    # chunk i of each permutation is rectangle i; chunks from ``keep`` on are unused
    row_block = np.empty(m, dtype=np.int64)
    row_block[rows] = np.searchsorted(row_cuts, np.arange(m), side="right")
    col_block = np.empty(n, dtype=np.int64)
    col_block[cols] = np.searchsorted(col_cuts, np.arange(n), side="right")
    row_block[row_block >= keep] = -1
    col_block[col_block >= keep] = -1
    return BlockyMatrix.from_labels((m, n), *_canonical(row_block, col_block))


def generate(spec: GeneratorSpec, seed: int = 0) -> GeneratedInstance:
    """Deterministic instance for (spec, seed); blocky sums carry certificates."""
    m, n = spec.rows, spec.n
    if spec.kind == "identity":
        return GeneratedInstance(matrix=_freeze(np.eye(m, n, dtype=np.int64)))
    if spec.kind == "all-ones":
        return GeneratedInstance(matrix=_freeze(np.ones((m, n), dtype=np.int64)))
    if spec.kind == "convolution-cyclic":
        f = np.zeros(n, dtype=np.int64)
        f[list(spec.support)] = 1
        return GeneratedInstance(matrix=_freeze(f[(np.arange(m)[:, None] - np.arange(n)) % n]))
    if spec.kind == "random-boolean":
        rng = np.random.default_rng([seed, 0xB001])
        entries = (rng.random((m, n)) < spec.density).astype(np.int64)
        return GeneratedInstance(matrix=_freeze(entries))
    # random-blocky-sum
    rng = np.random.default_rng([seed, 0xB10C])
    terms = tuple(
        (int(rng.choice([-1, 1])), random_blocky_matrix(m, n, rng))
        for _ in range(spec.term_count)
    )
    s = SignedBlockySum(shape=(m, n), terms=terms)
    cert = factorization_from_blocky_sum(s)
    return GeneratedInstance(matrix=_freeze(s.evaluate()), blocky_sum=s, certificate=cert)
