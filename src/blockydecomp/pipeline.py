"""Norm-decrement construction, the ``decompose`` driver and the exact oracle.

``norm_decrement_step`` is the paper's construction, one level of it: given a
real matrix with a norm-``gamma`` factorization certificate whose entries are
all eps-close to integers, it splits off a signed blocky sum accounting for
the integer part of a structured piece A', and returns a residual
factorization (same U, new right factor) whose columns all lost at least 1/8
in squared norm.  It checks its own bounds: the gamma^2 drop, eps_out <=
2 eps, rounding additivity of A = A' + (A - A'), that the residual product
rounds like A - A', and that its eps grows at most threefold.

``decompose`` checks the certificate the same way the construction needs it,
then takes the direct path: it deduplicates the nonzero columns exactly,
peels the distinct-column matrix into raw label tables (``_peel_tables``,
the kernel of ``greedy_l1_decompose``), lifts each rectangle back to its
member columns and validates the lifted tables once.  When the construction
ends after one level, as it does on every input measured, each distinct
nonzero column is the value of at least one of its cells; the peel's term
count is the largest positive plus the largest negative row sum, so peeling
the cells never gives fewer terms than peeling the distinct columns.
``exact_block_complexity`` is the desk-scale brute-force oracle the test
battery measures both against.

The step's inner loop, on the columns where the rounded matrix is nonzero:
greedy-partition those columns by the rounded values, stabilize each class
onto one near-integer grid value per row (window 1/4, so columns surviving
a class share a single integer per row), average the surviving right-factor
columns, and keep the columns whose vectors move markedly closer to that
average.  Rows paired with the class's defining nonzero integer keep an
inner product of at least 1/2 with the average, which is what makes the
squared column norms of the residual drop by the fixed 1/8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .core import (
    SignedBlockySum,
    _freeze,
    _group_rows,
    _int_array_with_range,
    as_int_array,
    as_real_array,
    round_half_down,
)
from .factorize import GammaFactorization, gamma2_upper, verify_factorization
from .littlestone import bucket_stabilize
from .partition import _peel_tables, _peel_term_count, greedy_partition, subtract_average

# bench/spans.py wraps this binding by name; the chain itself peels with _peel_tables.
from .partition import greedy_l1_decompose  # noqa: F401

__all__ = [
    "RoundingDriftError",
    "ReconstructionError",
    "DecrementStep",
    "PipelineReport",
    "norm_decrement_step",
    "decompose",
    "exact_block_complexity",
    "term_count_floor",
    "MAX_DECOMPOSE_ENTRY",
    "check_entry_cap",
]


# Every signed blocky sum for A has at least max|A| terms, and the unit peel
# does one round per unit of a row's l1 norm, so larger entries imply output
# and work the pipeline cannot deliver in reasonable time.
MAX_DECOMPOSE_ENTRY = 4096


def check_entry_cap(A: np.ndarray) -> None:
    """Raise ValueError when an entry of the integer matrix exceeds ``MAX_DECOMPOSE_ENTRY``.

    Callers run it before any solver or peel work on the matrix.
    """
    # as_int_array rejects -2**63, so |A| cannot wrap; max/min skip the abs temporary.
    _check_entry_range(A.max(), A.min())


def _check_entry_range(top: int, bottom: int) -> None:
    """``check_entry_cap`` on an integer matrix's largest and smallest entries."""
    if top > MAX_DECOMPOSE_ENTRY or bottom < -MAX_DECOMPOSE_ENTRY:
        raise ValueError(
            f"an entry exceeds the decomposition limit of {MAX_DECOMPOSE_ENTRY} in magnitude; "
            "a signed blocky sum needs at least max|A| terms"
        )


class RoundingDriftError(RuntimeError):
    """A value scheduled for rounding drifted outside the safe quarter-window."""


class ReconstructionError(RuntimeError):
    """The assembled signed blocky sum failed to reproduce its target exactly."""


@dataclass(frozen=True, eq=False)
class DecrementStep:
    """One level of the construction.

    ``a_prime`` is the structured part (classwise-constant on the captured
    columns, untouched on columns where the rounding is zero);
    ``residual_factorization`` certifies A - a_prime with the same left factor
    and strictly shorter right-factor columns; ``blocky_part`` evaluates
    exactly to the rounding of ``a_prime``; ``eps_out`` measures how far
    ``a_prime`` sits from integrality (at most twice the incoming eps, plus
    roundoff).  ``diagnostics`` records per-round class sizes; ``certified``
    is False when any stabilization took a budget fallback.
    """

    a_prime: np.ndarray
    residual_factorization: GammaFactorization
    blocky_part: SignedBlockySum
    eps_out: float
    diagnostics: tuple
    certified: bool

    def __post_init__(self):
        object.__setattr__(self, "a_prime", _freeze(np.asarray(self.a_prime)))


def _nearest_int_dist(values: np.ndarray) -> np.ndarray:
    return np.abs(values - np.round(values))


def _lift(signs, rows, cols, group_of: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand label tables over grouped columns to tables over their member columns.

    ``group_of[y]`` is the column of ``cols`` that column y belongs to, or
    -1 for a column in no group.  Signs and row labels are kept, and column
    y takes its group's column labels: one fancy index into ``cols`` with a
    column of -1 appended for ungrouped columns.  Rows are untouched, so the
    ids stay canonical; the caller validates the result.
    """
    padded = np.concatenate([cols, np.full((cols.shape[0], 1), -1, dtype=cols.dtype)], axis=1)
    return signs, rows, padded[:, group_of]


def norm_decrement_step(
    matrix,
    fac: GammaFactorization,
    eps: float,
    config: RunConfig | None = None,
) -> DecrementStep:
    """Split one blocky layer off an eps-almost-integer matrix.

    Requires the certificate to reproduce the matrix within ``config.tol``,
    eps < 1/4, and a nonzero rounding; the stabilizer's exact dimension
    recursions run at ``bucket_stabilize``'s default budget.  Aborts with
    RoundingDriftError if any grid value chosen for rounding is farther than
    1/4 + eps (plus slack) from an integer, which signals that the
    almost-integer certificate no longer holds.  Raises ReconstructionError
    when rounding is not additive over A = A' + (A - A') or the residual
    product rounds differently from A - A', and AssertionError when a proved
    bound fails: the 1/8 drop in gamma^2, eps_out <= 2 eps, or a residual
    product more than 3 eps from the integers.
    """
    config = config or DEFAULT_CONFIG
    A = as_real_array(matrix)
    m, n = A.shape
    if fac.shape != (m, n):
        raise ValueError(f"factorization shape {fac.shape} does not match matrix {A.shape}")
    if not (0 <= eps < 0.25):
        raise ValueError(f"eps must lie in [0, 1/4), got {eps}")
    resid = float(np.abs(A - fac.product()).max(initial=0.0))
    if resid > config.tol:
        raise ValueError(f"factorization residual {resid:.3e} exceeds tol {config.tol:.3e}")
    A_Z = round_half_down(A)
    if not A_Z.any():
        raise ValueError("rounded matrix is zero; nothing to decrement")
    measured_eps = float(np.abs(A - A_Z).max())
    if measured_eps > eps + 1e-12:
        raise ValueError(
            f"matrix is only {measured_eps:.3e}-almost-integer, above certified eps {eps:.3e}"
        )
    U, V = fac.U, fac.V
    gamma = fac.gamma
    eps1 = max(eps, 2.0**-30) / (10 * gamma)

    a_prime = A.copy()
    v_prime = np.zeros_like(V)  # zero residual columns where A_Z is zero
    active = np.flatnonzero(A_Z.any(axis=0))
    cell_values: list[np.ndarray] = []  # integer column per captured class cell
    cell_of = np.full(n, -1, dtype=np.int64)  # the cell each captured column belongs to
    rounds = []
    certified = True
    while active.size:
        part = greedy_partition(A_Z[:, active])
        round_cells = []
        captured_here: list[np.ndarray] = []
        for cls in part.classes:
            S = active[list(cls.columns)]
            stab = bucket_stabilize(A[:, S], alpha=0.125, eps=eps1)
            certified = certified and stab.certified
            S1 = S[list(stab.columns)]
            g = stab.row_values
            drift = float(_nearest_int_dist(g).max())
            if drift > 0.25 + eps + 1e-9:
                raise RoundingDriftError(
                    f"grid value at distance {drift:.6f} from the integers "
                    f"(allowed {0.25 + eps:.6f}); eps certificate violated"
                )
            g_int = round_half_down(g)
            v_hat = V[:, S1].mean(axis=1)
            anchor = abs(float(U[cls.row] @ v_hat))
            if anchor < 0.5 - 1e-9:
                raise RoundingDriftError(
                    f"class anchor inner product {anchor:.6f} fell below 1/2; "
                    "eps certificate violated"
                )
            split = subtract_average(V[:, S1].T, gamma)
            S2 = S1[list(split.kept)]
            a_prime[:, S2] = (U @ split.average)[:, None]
            v_prime[:, S2] = V[:, S2] - split.average[:, None]
            cell_of[S2] = len(cell_values)
            cell_values.append(g_int)
            captured_here.append(S2)
            round_cells.append(
                {"size": int(S.size), "stabilized": int(S1.size), "kept": int(S2.size)}
            )
        captured = np.concatenate(captured_here)
        rounds.append(
            {
                "classes": round_cells,
                "captured": int(captured.size),
                "remaining": int(active.size - captured.size),
            }
        )
        active = np.setdiff1d(active, captured, assume_unique=True)

    res_cols_sq = np.einsum("ij,ij->j", v_prime, v_prime)
    worst = float(res_cols_sq.max(initial=0.0))
    if worst > gamma * gamma - 0.125 + 1e-9:
        raise AssertionError(
            f"residual column norm^2 {worst:.9f} exceeds gamma^2 - 1/8 = "
            f"{gamma * gamma - 0.125:.9f}"
        )
    gamma_next = math.sqrt(worst) * (1 + 5e-16)
    remainder = A - a_prime
    res_product = U @ v_prime
    res_fac = GammaFactorization(
        U=U,
        V=v_prime,
        gamma=gamma_next,
        residual=float(np.abs(remainder - res_product).max(initial=0.0)),
    )
    if not np.array_equal(A_Z, round_half_down(a_prime) + round_half_down(remainder)):
        raise ReconstructionError("rounding additivity failed: drift outside the safe window")
    if not np.array_equal(round_half_down(res_product), round_half_down(remainder)):
        raise ReconstructionError("residual product rounds differently from the remainder")
    eps_res = float(_nearest_int_dist(res_product).max(initial=0.0))
    if eps_res > 3 * eps + 1e-9:
        raise AssertionError(f"residual eps {eps_res:.3e} above 3x incoming {eps:.3e}")

    # Blocky accounting happens on the compressed cell matrix (one column per
    # captured class), then rectangles are expanded back to member columns.
    blocky_part = SignedBlockySum.from_label_tables(
        (m, n), *_lift(*_peel_tables(np.stack(cell_values, axis=1)), cell_of)
    )
    if not np.array_equal(blocky_part.evaluate(), round_half_down(a_prime)):
        raise ReconstructionError("blocky layer does not match the rounded structured part")

    eps_out = float(_nearest_int_dist(a_prime).max(initial=0.0))
    if eps_out > 2 * eps + 1e-9:
        raise AssertionError(
            f"structured part drifted to {eps_out:.3e} from integrality, "
            f"above twice the incoming eps {eps:.3e}"
        )
    return DecrementStep(
        a_prime=a_prime,
        residual_factorization=res_fac,
        blocky_part=blocky_part,
        eps_out=eps_out,
        diagnostics=tuple(rounds),
        certified=certified,
    )


@dataclass(frozen=True, eq=False)
class PipelineReport:
    """Per-level summaries plus the trajectories the term-count bound rides on.

    ``decompose`` runs no levels: ``levels`` is empty, and the trajectories
    hold one entry each, the certificate's gamma^2 and the eps of its product.

    ``bound_fit`` is total terms divided by ln(min(m, n))^2, the shape of the
    proved asymptotic bound; it is None for single-row/column inputs where
    that denominator vanishes.
    """

    levels: tuple
    total_terms: int
    gamma_squared_trajectory: tuple
    eps_trajectory: tuple
    bound_fit: float | None

    def to_json_dict(self) -> dict:
        return {
            "levels": list(self.levels),
            "totalTerms": self.total_terms,
            "gammaSquaredTrajectory": list(self.gamma_squared_trajectory),
            "epsTrajectory": list(self.eps_trajectory),
            "boundFit": self.bound_fit,
        }


def decompose(
    matrix,
    fac: GammaFactorization | None = None,
    config: RunConfig | None = None,
) -> tuple[SignedBlockySum, PipelineReport]:
    """Full signed blocky decomposition of an integer matrix, verified exactly.

    Uses the supplied factorization certificate (or computes one with
    ``gamma2_upper(matrix, config)``); a certificate that fails
    ``verify_factorization`` at ``config.tol`` is refused, and so is one
    whose product does not round to the input.  A looser certificate is
    accepted by raising ``config.tol``; the sum does not depend on it.  The
    product is multiplied out once, in ``verify_factorization``: where its
    residual is below 1/2 the product rounds to the input and that residual
    is the eps of the report; only a certificate accepted at a tol of 1/2 or
    more is multiplied out again for the rounding check.  The sum is then
    the dedupe+peel of the input: ``_peel_tables`` writes the distinct
    nonzero columns' terms into raw label tables, ``_lift`` expands
    the column labels to the columns equal to each with one fancy index, and
    ``SignedBlockySum.from_label_tables`` validates the result, once.  It
    never has more terms than a construction that ends after one
    ``norm_decrement_step``.  The returned sum is checked entry-for-entry
    against the input with ``SignedBlockySum.evaluate``; a mismatch raises
    ReconstructionError with a witness entry.  Inputs with an entry of
    magnitude above ``MAX_DECOMPOSE_ENTRY`` raise ValueError at once.

    Allocation: the int64 input is neither copied nor converted to float64.
    Past the solver, the arrays of A's size are the one float64 product,
    on which ``verify_factorization`` measures the residual in place; one
    int16 copy of A's columns, whose bytes key the dedupe and from which
    the distinct columns are taken (one m x k int16 copy, which the peel
    scans once for its nonzero cells); and ``evaluate``'s 2*m*n counts,
    whose first half is its result.  The rest is sized by the nonzero
    cells of the distinct columns and their units, by the label tables, or
    by the rectangles' cells.

    The report's ``levels`` is empty, and its trajectories hold only the
    certificate's gamma^2 and eps.
    """
    config = config or DEFAULT_CONFIG
    A, top, bottom = _int_array_with_range(matrix)
    _check_entry_range(top, bottom)
    m, n = A.shape
    if fac is None:
        fac = gamma2_upper(A, config)
    report = verify_factorization(A, fac, config.tol)
    if not report.ok:
        raise ValueError(
            f"factorization does not certify the input at tol {config.tol:.3e} "
            f"(row norm {report.max_row_norm:.9f}, column norm {report.max_col_norm:.9f} "
            f"vs gamma {fac.gamma:.9f}, residual {report.residual:.3e})"
        )

    # Where the product is within 1/2 of A everywhere it rounds to A, and the
    # report's residual is already its largest distance to the integers.
    eps0 = report.residual
    if not eps0 < 0.5:
        product = fac.product()
        if not np.array_equal(round_half_down(product), A):
            raise ValueError("certificate product does not round to the input matrix")
        eps0 = float(_nearest_int_dist(product).max(initial=0.0))

    # Exact column dedupe: one distinct nonzero column per group, in order of
    # first occurrence, peeled once and lifted back to every member column.
    # Entries are capped at MAX_DECOMPOSE_ENTRY, so int16 bytes compare like
    # int64 values, and the peel runs on the int16 columns.
    columns = np.ascontiguousarray(A.T, dtype=np.int16)
    first, group_of = _group_rows(columns, drop_zero=True)  # zero columns: group -1
    distinct = columns[first]  # 0 x m for the zero matrix
    # The peel reads the distinct columns in C order, so they ravel as a
    # view; its raw tables are freed once validation has copied them.
    total = SignedBlockySum.from_label_tables(
        (m, n), *_lift(*_peel_tables(np.ascontiguousarray(distinct.T)), group_of)
    )

    rebuilt = total.evaluate()
    if not np.array_equal(rebuilt, A):
        bad = np.argwhere(rebuilt != A)[0]
        x, y = int(bad[0]), int(bad[1])
        raise ReconstructionError(
            f"reconstruction mismatch at ({x}, {y}): expected {int(A[x, y])}, got {int(rebuilt[x, y])}"
        )
    min_side = min(m, n)
    denom = math.log(min_side) ** 2 if min_side >= 2 else 0.0
    bound_fit = (len(total) / denom) if denom > 0 else None
    report = PipelineReport(
        levels=(),
        total_terms=len(total),
        gamma_squared_trajectory=(fac.gamma * fac.gamma,),
        eps_trajectory=(eps0,),
        bound_fit=bound_fit,
    )
    return total, report


# ---------------------------------------------------------------------------
# Brute-force oracle


# The oracle's largest term count: the search is exhaustive, and its cost
# grows by a factor of the blocky library size per term.
ORACLE_MAX_L = 6


def _blocky_library(m: int, n: int) -> np.ndarray:
    """All nonzero boolean m×n blocky matrices as an int8 array (count, m, n)."""
    count = 1 << (m * n)
    codes = np.arange(count, dtype=np.uint32)
    bits = (codes[:, None] >> np.arange(m * n, dtype=np.uint32)[None, :]) & 1
    cand = bits.astype(np.int8).reshape(count, m, n)
    ok = np.ones(count, dtype=bool)
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(n):
                for l in range(k + 1, n):
                    quad = (
                        cand[:, i, k].astype(np.int16)
                        + cand[:, i, l]
                        + cand[:, j, k]
                        + cand[:, j, l]
                    )
                    ok &= quad != 3
    return cand[ok][1:]  # drop the zero matrix; it contributes nothing to a sum


@cache
def _oracle_tables(m: int, n: int) -> tuple[np.ndarray, frozenset[bytes], frozenset[bytes] | None]:
    """The oracle's search tables of shape (m, n), built on first use and shared by every call.

    ``signed`` holds every nonzero boolean blocky matrix and its negation
    (read-only int8, shape (count, m, n)); ``one_sums`` and ``pair_sums`` hold
    the int8 bytes of every sum of one, respectively two, of them.
    ``pair_sums`` is None where the pair table would exceed 2,000,000 sums.
    """
    lib = _blocky_library(m, n)
    signed = _freeze(np.concatenate([lib, -lib], axis=0).astype(np.int8))
    pair_sums = None
    if signed.shape[0] ** 2 <= 2_000_000:
        sums = signed[:, None, :, :] + signed[None, :, :, :]
        pair_sums = frozenset(s.tobytes() for s in sums.reshape(-1, m, n))
    return signed, frozenset(s.tobytes() for s in signed), pair_sums


def exact_block_complexity(matrix, l_max: int = ORACLE_MAX_L) -> int | None:
    """Minimum number of signed blocky terms summing to the matrix, or None.

    Exhaustive: enumerates every blocky matrix of the given shape and runs
    iterative-deepening search over signed sums, memoizing failed residuals.
    Restricted to m*n <= 16 and l_max <= ``ORACLE_MAX_L`` by precondition.
    None means the complexity exceeds l_max; that is answered without search
    when some entry exceeds l_max in magnitude, since each signed blocky
    term moves an entry by at most 1.
    """
    A = as_int_array(matrix)
    m, n = A.shape
    if m * n > 16:
        raise ValueError(f"oracle limited to m*n <= 16 entries, got {m}x{n}")
    if not (0 <= l_max <= ORACLE_MAX_L):
        raise ValueError(f"l_max must lie in [0, {ORACLE_MAX_L}], got {l_max}")
    if not A.any():
        return 0
    if np.abs(A).max() > l_max:
        return None
    signed, one_sums, pair_sums = _oracle_tables(m, n)

    ub = _peel_term_count(A)
    top = min(l_max, ub)
    fails: set[tuple[bytes, int]] = set()

    def reachable(R: np.ndarray, k: int) -> bool:
        if not R.any():
            return True
        if k <= 0 or np.abs(R).max() > k:
            return False
        key = (R.tobytes(), k)
        if key in fails:
            return False
        raw = R.astype(np.int8).tobytes()
        if k == 1:
            hit = raw in one_sums
        elif k == 2:
            # "at most two terms": one exact term also qualifies
            if pair_sums is not None:
                hit = raw in one_sums or raw in pair_sums
            else:
                hit = raw in one_sums or any(
                    (R - B).astype(np.int8).tobytes() in one_sums for B in signed
                )
        else:
            hit = any(reachable(R - B, k - 1) for B in signed)
        if not hit:
            fails.add(key)
        return hit

    # reachable() is exact, and the greedy witness guarantees a hit by k = ub,
    # so falling through means the complexity genuinely exceeds l_max.
    for k in range(1, top + 1):
        if reachable(A, k):
            return k
    return None


def term_count_floor(matrix, lower: float) -> int:
    """Fewest terms any signed blocky sum for the matrix can have, given a norm lower bound.

    Each term moves an entry by at most 1, so a sum needs max|A| terms.  A
    blocky matrix is a contractive Schur multiplier, so its factorization
    norm is at most 1, and the norm is subadditive: a sum of L terms has norm
    at most L, so L ≥ ``lower`` for any lower bound on the norm of A, such
    as ``gamma2_bracket(A).lower``.  The floor is therefore
    max(max|A|, ⌈lower − 1e-9·max(1, lower)⌉); the slack keeps a numerical
    bound that lands a rounding error above an integer from adding a term.
    """
    A = as_int_array(matrix)
    top = int(np.abs(A).max(initial=0))
    return max(top, math.ceil(lower - 1e-9 * max(1.0, lower)))
