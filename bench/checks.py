"""The benchmark's own output checks, the dedupe+peel baseline and digests.

Everything here runs outside the timed ops.  Package functions are bound
when ``Checker`` is built, before the traced run installs its wrappers, so
checking adds no spans.
"""

from __future__ import annotations

import hashlib

import numpy as np


def evaluate_terms(terms) -> np.ndarray:
    """Dense value of a signed blocky sum, rebuilt from its rectangle lists."""
    out = np.zeros(terms.shape, dtype=np.int64)
    for sign, term in terms.terms:
        for rows, cols in term.rectangles:
            out[np.ix_(rows, cols)] += sign
    return out


def _canonical_terms(terms) -> str:
    return ";".join(
        f"{sign}:" + "|".join(f"{','.join(map(str, r))}/{','.join(map(str, c))}" for r, c in term.rectangles)
        for sign, term in terms.terms
    )


def outcome_digest(outcome) -> str:
    """Hash of the canonical terms and every gamma the op produced.

    Floats enter as ``float.hex``, so equal digests mean bit-identical outputs.
    """
    parts = [
        _canonical_terms(outcome.terms),
        ",".join(float(g).hex() for g in outcome.report.gamma_squared_trajectory),
        str(len(outcome.report.levels)),
    ]
    if outcome.bracket is not None:
        parts.append(f"{float(outcome.bracket.lower).hex()},{float(outcome.bracket.upper).hex()}")
    if outcome.oracle is not None:
        parts.append(str(outcome.oracle))
    return hashlib.sha256("#".join(parts).encode()).hexdigest()


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


class Checker:
    def __init__(self, api):
        self.is_blocky = api.is_blocky
        self.verify_factorization = api.verify_factorization
        self.greedy_l1_decompose = api.greedy_l1_decompose
        self.BlockyMatrix = api.BlockyMatrix
        self.SignedBlockySum = api.SignedBlockySum

    def problems(self, item, outcome) -> list[str]:
        """Every way the op's output is wrong; empty when it is right."""
        A = item.matrix
        out = []
        if not np.array_equal(evaluate_terms(outcome.terms), A):
            out.append("sum does not evaluate to the input")
        for i, (_, term) in enumerate(outcome.terms.terms):
            if not self.is_blocky(term.to_dense()):
                out.append(f"term {i} is not blocky")
        if outcome.report.total_terms != len(outcome.terms):
            out.append("report term count differs from the sum")
        b = outcome.bracket
        if b is not None:
            if not b.lower <= b.upper:
                out.append(f"bracket lower {b.lower!r} above upper {b.upper!r}")
            if not self.verify_factorization(A.astype(np.float64), b.upper_witness):
                out.append("bracket witness fails verify_factorization")
        if outcome.oracle is not None and not 1 <= outcome.oracle <= len(outcome.terms):
            out.append(f"oracle value {outcome.oracle} outside [1, {len(outcome.terms)}]")
        return out

    def baseline(self, matrix):
        """Dedupe+peel: drop zero columns, peel the distinct columns with
        ``greedy_l1_decompose``, lift each rectangle back to its member columns.
        """
        A = np.asarray(matrix, dtype=np.int64)
        m, n = A.shape
        nz = np.flatnonzero(A.any(axis=0))
        distinct, inverse = np.unique(A[:, nz], axis=1, return_inverse=True)
        inverse = inverse.reshape(-1)
        members = [nz[inverse == k] for k in range(distinct.shape[1])]
        small = self.greedy_l1_decompose(distinct)
        terms = []
        for sign, term in small.terms:
            rects = tuple(
                (rows, tuple(int(y) for y in np.sort(np.concatenate([members[k] for k in cols]))))
                for rows, cols in term.rectangles
            )
            terms.append((sign, self.BlockyMatrix(shape=(m, n), rectangles=rects)))
        lifted = self.SignedBlockySum(shape=(m, n), terms=tuple(terms))
        if not np.array_equal(evaluate_terms(lifted), A):
            raise AssertionError("dedupe+peel baseline does not evaluate to its input")
        return lifted
