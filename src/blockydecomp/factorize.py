"""Norm-bounded factorizations: certificates, solver, and lower bounds.

A factorization certificate writes A = U @ V with every row of U of unit
Euclidean norm (or less) and every column of V of norm at most ``gamma``;
the least achievable gamma is the factorization norm of A.  This module

* checks such certificates (``verify_factorization``),
* searches for good ones numerically (``gamma2_upper``),
* derives unconditional lower bounds from the max entry and, for sign
  matrices, from the exact mistake-tree dimension (``gamma2_lower``),
* brackets the norm between the better of those and the solver's dual
  bound, and the solver's certificate (``gamma2_bracket``), and
* builds exact certificates for signed blocky sums
  (``factorization_from_blocky_sum``).

The norm does not change when a row or column is repeated or a zero one
added: a certificate of the remaining matrix becomes one of the whole by
copying rows of U and columns of V, and the whole contains the rest as a
submatrix.  So the solver works on the distinct nonzero core, the first of
each set of equal nonzero rows and then of equal nonzero columns, and
copies its factors back (``gamma2_upper``).

The solver ascends a concave reweighting of the trace norm: for row/column
weight vectors u, v on the probability simplex, the trace norm of
diag(sqrt(u)) @ A @ diag(sqrt(v)) is a lower bound on the factorization
norm (its dual value), the maximizing weights make it tight, and each SVD of
the weighted matrix yields both the next weights and a concrete factorization
whose measured gamma upper-bounds the norm.  The plain step is a fixed-point
reweighting (each row's or column's new weight is its share of the dual
value; the optimum is a fixed point) floored by a 1e-9 mix of the uniform
weights, which by concavity costs at most 1e-9 relative.  It converges
linearly, and slowly near the optimum, so the ascent runs it inside a
guarded SQUAREM cycle (Varadhan and Roland, Scand. J. Stat. 2008): two plain
steps, one extrapolated point along them, and a third SVD there that is kept
only when its dual value is no lower (``_ascend_weights``).  On full-rank
cores whose smaller side is at least 10 and whose Jacobian is cheap beside
the SVD (square cores up to 25²), Newton steps on the log-weights come
first: the SVD already taken gives the Jacobian of the fixed-point
condition, one linear solve gives the step, and a Newton point is kept
only when its dual value does not fall and its gap shrinks 4×; otherwise
the SQUAREM cycle takes over from the last kept point.  The dual value
is jointly concave, so one start reaches the optimum: a single ascent from
each row's and column's share of the squared entries runs until its best
certificate is within 1e-7·max(1, dual) of its best dual value, or
``_MAX_SVDS`` (10,000) SVDs.  It runs on the core scaled by a power of two
to max|A| in [1, 2), where that gap is relative and no square overflows.  On
the 511 nonzero 3×3 booleans, the 84 dense 8²–32² matrices of the bench
seeds 1 and 9001 and 54 low-rank blocky sums of 16²–32² that takes
2,010, 963 and 11,522 SVDs, at most 12, 147 and 1,486 per input (1,422 and
11,551 on the dense matrices and sums without the Newton steps), and
every gap closes.  Solved whole, with only zero rows and columns dropped,
the three sets took 3,088, 966 and 10,848 SVDs, at most 14, 147 and 984,
and at most 95, 3,605 and 4,587 with plain steps from the uniform
weights.  Any weights on the simplex give a valid dual value and any
positive weights a valid certificate, so the start, the Newton steps and
the extrapolation change how fast the bounds tighten, never whether they
hold.  Only the SVD of the best certificate is
kept.  Where its balanced factors miss A by more than ``tol``, a
least-squares refit drives the residual to roundoff, on one side and on
the other only when the first falls short (``_refit``); elsewhere, on all
the booleans and dense inputs above and 22 of the 54 sums, the factors are
kept as they are, with a residual at most ``tol``.  The best dual, less a
floating-point margin, is kept on the certificate as a lower bound
(``_solve_core``).  A core of one row or one column needs no ascent: its
norm is its largest entry magnitude, with a closed-form certificate.
Plain alternating least squares over (U, V) turned out to stall at
non-optimal balanced factorizations on invertible inputs, so the weight
ascent drives the search and least squares only fixes the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_CONFIG, RunConfig
from .core import SignedBlockySum, _freeze, _group_rows, as_real_array
from .littlestone import BudgetExceeded, DEFAULT_BUDGET, ldim
from .littlestone import ldim_alpha  # noqa: F401  unused; bench/spans.py patches factorize.ldim_alpha by name

__all__ = [
    "GammaFactorization",
    "VerificationReport",
    "NormBracket",
    "verify_factorization",
    "gamma2_upper",
    "gamma2_lower",
    "gamma2_bracket",
    "factorization_from_blocky_sum",
]


@dataclass(frozen=True, eq=False)
class GammaFactorization:
    """A = U @ V with unit-capped row norms in U and gamma-capped column norms in V.

    ``residual`` is the measured max-entry deviation ``‖A - U@V‖_max`` against
    the matrix the factorization was produced for.  The inner dimension is
    ``U.shape[1]``; solver outputs keep it at most ``min(rows, cols)``, while
    exact blocky-sum certificates use one inner coordinate per rectangle and
    can exceed that, so no cap is enforced here.  ``dual_bound`` is a lower
    bound on the factorization norm of that same matrix, proved while the
    certificate was produced (``gamma2_upper`` stores its best dual value
    less a floating-point margin); 0.0, the trivial bound, when none was.

    ``max_row_norm`` and ``max_col_norm`` are the largest Euclidean row norm
    of U and column norm of V (0.0 when empty), measured once, when the
    caps are checked at construction, and kept: ``verify_factorization``
    reads them instead of measuring again.
    """

    U: np.ndarray
    V: np.ndarray
    gamma: float
    residual: float
    dual_bound: float = 0.0
    max_row_norm: float = field(init=False, repr=False)
    max_col_norm: float = field(init=False, repr=False)

    def __post_init__(self):
        U = np.asarray(self.U, dtype=np.float64)
        V = np.asarray(self.V, dtype=np.float64)
        if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[0]:
            raise ValueError("U and V must be 2-d with matching inner dimension")
        if not (np.isfinite(U).all() and np.isfinite(V).all()):
            raise ValueError("U and V entries must be finite")
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be a finite nonnegative real")
        if not (self.residual >= 0 and math.isfinite(self.residual)):
            raise ValueError("residual must be a finite nonnegative real")
        if not (self.dual_bound >= 0 and math.isfinite(self.dual_bound)):
            raise ValueError("dual_bound must be a finite nonnegative real")
        slack = 1e-6 * max(1.0, self.gamma)
        row_norm, col_norm = _max_row_norm(U), _max_col_norm(V)
        if row_norm > 1 + slack:
            raise ValueError("a row of U exceeds unit norm")
        if col_norm > self.gamma + slack:
            raise ValueError("a column of V exceeds the gamma cap")
        object.__setattr__(self, "max_row_norm", row_norm)
        object.__setattr__(self, "max_col_norm", col_norm)
        object.__setattr__(self, "U", _freeze(U))
        object.__setattr__(self, "V", _freeze(V))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "residual", float(self.residual))
        object.__setattr__(self, "dual_bound", float(self.dual_bound))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.U.shape[0], self.V.shape[1])

    @property
    def inner_dim(self) -> int:
        return self.U.shape[1]

    def product(self) -> np.ndarray:
        return self.U @ self.V

    def certifies(self, tol: float = RunConfig.tol) -> bool:
        return self.residual <= tol


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    max_row_norm: float
    max_col_norm: float
    residual: float
    gamma: float
    tol: float

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True, eq=False)
class NormBracket:
    """Two-sided estimate: lower ≤ factorization norm ≤ upper.

    ``lower_witness`` names the source of ``lower``: "max-entry" and
    "sqrt-Littlestone" are exact, "dual" is the solver's numerical bound
    with the floating-point margin of ``_solve_core``.  A lower bound above
    the upper one by more than 1e-6 relative is refused, at every scale.
    """

    lower: float
    upper: float
    lower_witness: str
    upper_witness: GammaFactorization

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError("lower bound must be nonnegative")
        if self.lower > self.upper * (1 + 1e-6):
            raise ValueError(
                f"inconsistent bracket: lower {self.lower:.9g} > upper {self.upper:.9g}"
            )


# The smallest normal float: squares below it have lost precision.
_TINY = np.finfo(np.float64).tiny
# The largest float: a norm above it has no certificate in floats.
_HUGE = np.finfo(np.float64).max


def _max_norm(X: np.ndarray, subscripts: str) -> float:
    """Largest Euclidean norm of X's rows ("ij,ij->i") or columns ("ij,ij->j").

    Where the largest square overflows or leaves the normal range, X is
    measured again scaled by a power of two so that max|X| lies in [1/2, 1),
    which is exact; the norm is then scaled back.
    """
    sq = float(np.einsum(subscripts, X, X).max(initial=0.0))
    if _TINY <= sq < math.inf:
        return float(np.sqrt(sq))
    top = float(np.abs(X).max(initial=0.0))
    if top == 0.0:
        return 0.0
    shift = math.frexp(top)[1]
    Y = np.ldexp(X, -shift)
    return math.ldexp(float(np.sqrt(np.einsum(subscripts, Y, Y).max())), shift)


def _max_row_norm(U: np.ndarray) -> float:
    return _max_norm(U, "ij,ij->i")


def _max_col_norm(V: np.ndarray) -> float:
    return _max_norm(V, "ij,ij->j")


def verify_factorization(
    matrix, fac: GammaFactorization, tol: float = RunConfig.tol
) -> VerificationReport:
    """Check a certificate against a matrix; the report carries the measured maxima.

    The report is ok when the largest row norm of U is at most 1 + ``tol``,
    the largest column norm of V at most ``fac.gamma`` + ``tol`` and
    max|A − UV| at most ``tol``: ``tol`` is an absolute bound, the same at
    every scale of the entries.  The norm maxima are the ones the
    certificate measured at construction (``GammaFactorization``).

    Integer and boolean arrays are used as they are, and other input as a
    validated float64 array (``as_real_array``).  The residual is measured
    in place on the one ``fac.product()``: subtracting an integer matrix
    from it converts each entry as ``astype(np.float64)`` would, so every
    dtype gives the same report, and for an integer array the product is
    the only m x n array allocated.
    """
    A = np.asarray(matrix)
    if A.dtype.kind not in "biu" or A.ndim != 2 or not A.size:
        A = as_real_array(A)  # floats, and the shape errors for every dtype
    if fac.shape != A.shape:
        raise ValueError(f"factorization shape {fac.shape} does not match matrix {A.shape}")
    row_norm, col_norm = fac.max_row_norm, fac.max_col_norm
    diff = fac.product()
    np.abs(np.subtract(A, diff, out=diff), out=diff)
    resid = float(diff.max(initial=0.0))
    ok = row_norm <= 1 + tol and col_norm <= fac.gamma + tol and resid <= tol
    return VerificationReport(
        ok=ok,
        max_row_norm=row_norm,
        max_col_norm=col_norm,
        residual=resid,
        gamma=fac.gamma,
        tol=float(tol),
    )


# Cap on the SVDs of one weight ascent, Newton and extrapolated points
# included; the Newton solves take no SVD and are not counted.  The ascent
# stops once its certificate is within 1e-7 relative of its dual bound: on
# 511 3×3 booleans, 84 dense 8²–32² matrices and 54 blocky sums of 16²–32²
# that takes at most 1,486 SVDs (at most 25 on the dense matrices within the
# Newton window, 12²–24²), so the cap is reached only where the gap never
# closes.
_MAX_SVDS = 10_000

# The Newton phase's window and guards, measured in ``_ascend_weights``.
_NEWTON_MIN_SIDE = 10
_NEWTON_FLOPS = 52
_NEWTON_RANK = 1e-8
_NEWTON_MAX_STEP = 2.0
_NEWTON_SHRINK = 4.0
# Pair columns of Z built at a time in ``_log_share_jacobian``, so its
# temporaries hold 64·(m+n) floats rather than k(k+1)/2·(m+n).
_PAIR_CHUNK = 64


def _in_newton_window(m: int, n: int, sig: np.ndarray) -> bool:
    """Whether an m x n core whose first SVD has singular values ``sig`` takes Newton steps."""
    k = min(m, n)
    return (
        k >= _NEWTON_MIN_SIDE
        and (m + n) ** 2 * k * (k + 1) // 2 <= _NEWTON_FLOPS * m * n * k
        and sig[-1] > _NEWTON_RANK * sig[0]
    )


def _log_share_jacobian(P: np.ndarray, sig: np.ndarray, Qt: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Jacobian of log p − log x in the log-weights log x, from the SVD P Σ Qᵀ at x.

    With X the (m+n)×k stack of P and Q, Z the columns X[:,k]∘X[:,l] for
    k ≤ l and w_kl = σ_kσ_l/(σ_k+σ_l) (doubled for k < l, 0 where
    σ_k+σ_l = 0), it is D_p⁻¹(S∘Z diag(w) Zᵀ), S being −1 on the u–u and v–v
    blocks and +1 off them.  Z is built ``_PAIR_CHUNK`` pair columns at a time.
    """
    m, k = P.shape
    X = np.concatenate((P.T, Qt), axis=1)  # row l: the l-th left and right singular vectors
    first, second = np.tri(k, dtype=bool).T.nonzero()  # the pairs k ≤ l, as np.triu_indices
    total = sig[first] + sig[second]
    w = np.divide(sig[first] * sig[second], total, out=np.zeros(total.size), where=total > 0)
    w[first < second] *= 2
    M = np.zeros((X.shape[1], X.shape[1]))
    for c in range(0, w.size, _PAIR_CHUNK):
        cut = slice(c, c + _PAIR_CHUNK)
        Z = X[first[cut]] * X[second[cut]]
        M += Z.T @ (w[cut, None] * Z)
    M[:m, :m] *= -1
    M[m:, m:] *= -1
    M /= p[:, None]
    return M


def _newton_step(x: np.ndarray, p: np.ndarray, P: np.ndarray, sig: np.ndarray, Qt: np.ndarray):
    """Log-weight step δ that makes log p − log x constant on each side, or None.

    Solves the linearization J δ − c_side = log x − log p with Σδ = 0 on each
    side, J from ``_log_share_jacobian``; None where the solve is singular
    or a step exceeds ``_NEWTON_MAX_STEP``.
    """
    m, size = P.shape[0], x.size
    K = np.zeros((size + 2, size + 2))
    K[:size, :size] = _log_share_jacobian(P, sig, Qt, p)
    K[:m, size] = K[m:size, size + 1] = -1.0
    K[size, :m] = K[size + 1, m:size] = 1.0
    rhs = np.zeros(size + 2)
    rhs[:size] = np.log(x / p)
    try:
        delta = np.linalg.solve(K, rhs)[:size]
    except np.linalg.LinAlgError:
        return None
    return delta if np.abs(delta).max() <= _NEWTON_MAX_STEP else None  # NaN fails too


def _ascend_weights(A: np.ndarray, max_svds: int):
    """Fixed-point reweighting ascent from the row/column energy, with Newton steps and SQUAREM.

    Each SVD of the weighted matrix D_u^½ A D_v^½ = P Σ Qᵀ gives the dual
    value f(u, v) = Σσ, and the balanced factors L = D_u^-½ P Σ^½,
    R = Σ^½ Qᵀ D_v^-½ give supergradients gu = ((P∘P) σ) / u and
    gv = (σ (Qᵀ∘Qᵀ)) / v (squared row norms of L and column norms of R) and
    a certificate √(max gu · max gv).  The plain step T is
    u ← u ⊙ gu / f = (P∘P) σ / f: as Σ uᵢguᵢ = f, row i's new weight is its
    share of ‖P Σ^½‖²_F, with no step size, and the optimum, where every
    supported row has guᵢ = f, is a fixed point.  Then
    u ← (1 − 1e-9)u + 1e-9/m, and likewise for v with n: without this floor
    weights fall to 1e-17 and below on low-rank inputs and L, R lose all
    accuracy.  As f is the minimum over XY = A of
    ½(Σ uᵢ‖xᵢ‖² + Σ vⱼ‖yⱼ‖²), it is jointly concave, so the mix loses at
    most 1e-9 relative of f, inside the 1e-7 stop gap.  The step works on
    the stacked x = (u, v) and p = ((P∘P)σ, σ(Qᵀ∘Qᵀ)), which two
    ``np.matmul`` calls write into one buffer: one square root gives both
    sides' scalings, one division p/x both supergradients, one
    ``np.maximum.reduceat`` both their maxima, and one ``np.add.reduceat``
    both halves' sums.  Those sums are sequential, not pairwise; their
    roundings stay inside the ms + ns of the dual margin in ``_solve_core``.

    T is a monotone map of MM type and converges linearly, so it runs inside
    a guarded SQUAREM cycle on x.  From x0 and
    x1 = T(x0), a cycle steps x2 = T(x1), sets r = x1 − x0,
    w = x2 − 2x1 + x0, α = max(‖r‖/‖w‖, 1) and x′ = x0 + 2αr + α²w (α = 1
    gives x′ = x2), clips x′ at 1e-20 and renormalizes u and v separately,
    and steps x″ = T(x′).  The next cycle starts from (x′, x″) when
    f(x′) ≥ f(x1), otherwise from (x1, x2).  The clip only keeps x′ positive:
    x′ takes no uniform floor, since flooring it as T does left the gap of
    one low-rank 24² sum open by 1.0e-7 relative, while the floor of T(x′)
    restores the 1e-9 mix before any further step.  The clip is not
    smaller: at 1e-300, max gu · max gv overflowed.  Every SVD, the
    one at x′ included, updates the best dual value and certificate and
    counts against ``max_svds``; simplex weights always give a valid dual
    value and positive weights a valid certificate, so the extrapolation
    never weakens either bound.

    Newton steps come first on a core in the window: smaller side k at
    least ``_NEWTON_MIN_SIDE``, the Jacobian's (m+n)²·k(k+1)/2 flops at most
    ``_NEWTON_FLOPS``·m·n·k (square cores up to 25²), and a first SVD of
    full rank, σ_min > ``_NEWTON_RANK``·σ_max.  At the optimum
    log p − log x is constant on each side.  From the last kept SVD, one
    (m+n+2)² solve of that condition's linearization, with Σδ = 0 on each
    side, gives a log-weight step δ (``_newton_step``; the Jacobian comes
    from the same SVD, ``_log_share_jacobian``).  The Newton point
    floored_share(x·exp δ) costs one SVD like any other point and counts
    against ``max_svds``.  It is kept only when its dual value is no lower
    and its gap (certificate less dual value) is at most a
    ``_NEWTON_SHRINK``-th of the kept point's.  Otherwise, or where the
    solve is singular or some |δᵢ| exceeds ``_NEWTON_MAX_STEP``, the
    SQUAREM cycle takes over from the last kept point x and T(x).  Newton
    converges quadratically where it runs: 3 or 4 Newton points close the
    gap of 45 of the bench's 48 dense 12²–24² cores (of the other three,
    two are rank-deficient, and one asks for a first log-step of 2.4),
    the dense sets' SVDs fall from 652 and 773 to 417 and 549,
    and ``gamma2_upper`` takes 15–19% less time on them (one BLAS thread,
    2-core x86-64 VM).  Smaller cores save too few SVDs to pay for the
    solve: on the bench's twelve 8² cores it cut 444 SVDs to 416, within
    the timing's spread.  The flop cap bounds the Jacobian beside the SVD,
    as it grows as (m+n)²k² against the SVD's m·n·k: at 25² one Newton step
    (Jacobian and solve) took 76 µs against 60 µs for the SVD.  The bench's
    28² and 32² cores lie outside the cap; forced into the window, they
    measured 19–24% faster, so the cap is conservative.  The rank test
    keeps out low-rank cores such as the blocky sums, where the solve is
    wasted: without it, the first Newton step of each of 18 census sums of
    16² asked for a log-step above 2.

    The start is each row's and column's share of ‖A‖²_F, u ∝ Σⱼ Aᵢⱼ² and
    v ∝ Σᵢ Aᵢⱼ², floored like T so no weight is 0; on 0/±1 matrices that is
    each line's share of the nonzeros, and where all lines weigh the same
    (all-ones, the identity) it is the uniform start, up to the floor's
    rounding.  It is closer to the optimum than the uniform weights: the
    ascent without the Newton steps needs 24% fewer SVDs on the 511
    booleans, about 5% fewer on the bench's dense inputs and 4% fewer on
    54 low-rank blocky sums.  A is
    squared as it is: ``_solve_core`` passes a core with max|A| in [1, 2),
    where no square overflows.

    The ascent stops once the best certificate is within the 1e-7 gap of the
    largest dual value seen, or after ``max_svds`` SVDs.  Only the SVD of
    the best certificate is kept; returns its factors ``(L, R)`` and the
    largest dual value.
    """
    m, n = A.shape
    halves = np.array([0, m])  # where u and v start in the stacked weights
    half_of = np.repeat([0, 1], (m, n))
    floor = np.repeat([1e-9 / m, 1e-9 / n], (m, n))
    p = np.empty(m + n)  # each step's ((P∘P)σ, σ(Qᵀ∘Qᵀ)); floored_share copies it
    best_cert, best_dual, best, svds = math.inf, 0.0, None, 0

    def floored_share(p):
        # Each entry's share of its half of p, mixed with 1e-9 of the uniform weights.
        return (1 - 1e-9) * (p / np.add.reduceat(p, halves)[half_of]) + floor

    def step(x):
        # One SVD at the stacked weights x = (u, v): the dual value, the
        # certificate's gap above it, T(x), and the SVD.
        nonlocal best_cert, best_dual, best, svds
        s = np.sqrt(x)
        P, sig, Qt = np.linalg.svd(s[:m, None] * A * s[m:], full_matrices=False)
        svds += 1
        f_val = float(sig.sum())
        best_dual = max(best_dual, f_val)
        np.matmul(P * P, sig, out=p[:m])
        np.matmul(sig, Qt * Qt, out=p[m:])
        gu, gv = np.maximum.reduceat(p / x, halves)
        cert = math.sqrt(gu * gv)
        if cert < best_cert:
            best_cert, best = cert, (P, sig, Qt, s)
        return f_val, cert - f_val, floored_share(p), (P, sig, Qt)

    def done():
        return svds >= max_svds or best_cert - best_dual <= 1e-7 * max(1.0, best_dual)

    energy = A * A
    x0 = floored_share(np.concatenate((energy.sum(axis=1), energy.sum(axis=0))))
    f0, gap0, x1, svd = step(x0)
    if _in_newton_window(m, n, svd[1]):
        while not done():
            delta = _newton_step(x0, p, *svd)
            if delta is None:
                break
            xn = floored_share(x0 * np.exp(delta))
            fn, gapn, xn1, svdn = step(xn)
            if not (fn >= f0 and _NEWTON_SHRINK * gapn <= gap0):
                break
            x0, x1, f0, gap0, svd = xn, xn1, fn, gapn, svdn
    while not done():
        f1, _, x2, _ = step(x1)
        if done():
            break
        r, w = x1 - x0, x2 - 2 * x1 + x0
        norm_w = math.sqrt(w @ w)
        alpha = max(math.sqrt(r @ r) / norm_w, 1.0) if norm_w > 0 else 1.0
        xp = np.maximum(x0 + 2 * alpha * r + alpha**2 * w, 1e-20)
        xp /= np.add.reduceat(xp, halves)[half_of]
        fp, _, xpp, _ = step(xp)
        x0, x1 = (xp, xpp) if fp >= f1 else (x1, x2)
    P, sig, Qt, s = best
    s_half = np.sqrt(sig)
    return (P * s_half) / s[:m, None], (s_half[:, None] * Qt) / s[m:], best_dual


def _refit(A: np.ndarray, L: np.ndarray, R: np.ndarray, tol: float):
    """Drive ‖A − LR‖_max to roundoff with one exact least-squares refit.

    ``_solve_core`` calls it only where the ascent's factors miss ``tol``.

    Two candidates: L refit against the ascent's R (L′ = lstsq(Rᵀ, Aᵀ)ᵀ) and
    R refit against its L (R′ = lstsq(L, A)).  The L-refit comes first and is
    returned alone when it certifies (residual ≤ ``tol``) at a γ no more
    than 1e-9 relative above the unrefit factors' γ, which is the ascent's
    best certificate: once the ascent has closed its 1e-7 gap, no
    certificate can be smaller by more than that gap.  Otherwise neither
    one alone suffices: at tol 1e-12, on an 8×6 product of {-1, 0, 1}
    matrices of rank 3 the R-refit returns γ 370× the dual, and on its
    transpose the L-refit is 5.7e-5 relative above it.  So both are
    scored, the certifying candidate of smaller γ is kept, and with none
    the one of smaller residual.
    """

    def scored(X, Y):
        return float(np.abs(A - X @ Y).max()), _max_row_norm(X) * _max_col_norm(Y), X, Y

    first = scored(np.linalg.lstsq(R.T, A.T, rcond=None)[0].T, R)
    if first[0] <= tol and first[1] <= (1 + 1e-9) * _max_row_norm(L) * _max_col_norm(R):
        return first[2], first[3]
    candidates = (first, scored(L, np.linalg.lstsq(L, A, rcond=None)[0]))
    certifying = [c for c in candidates if c[0] <= tol]
    if certifying:
        _, _, X, Y = min(certifying, key=lambda c: c[1])
    else:
        _, _, X, Y = min(candidates, key=lambda c: c[0])
    return X, Y


def _solve_core(A: np.ndarray, config: RunConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Factors ``(L, R)`` of a core with no zero row or column, and a lower bound.

    A core of one row or one column has norm max|a|, attained by L = [[1]],
    R = the row, or L = the column / max|a|, R = [[max|a|]]; max|a| is also
    its exact lower bound.  Any other core is first divided by the power
    of two s with max|a|/s in [1, 2), which is exact: the ascent's squares
    then neither overflow nor leave the normal range, and as its norm is at
    least 1 its stop gap of 1e-7·max(1, dual) is relative, also for a core
    whose entries are near 1e-150.  The scaled core runs one ascent from
    the row/column energy (``_ascend_weights``, at most ``_MAX_SVDS``
    SVDs).  Only where the ascent's factors miss the scaled core by more
    than ``config.tol``/s does the refit (``_refit``) run; that test
    compares exponents, so it holds for every s, also where
    ``config.tol``/s would overflow at subnormal scale.  R and the bound are
    multiplied back by s.  The bound is the ascent's best dual
    value f less a margin for floating point: the computed singular values
    are, by Weyl's inequality, each within the spectral norm of the rounding in
    forming the weighted matrix (three roundings per entry) and of the SVD's
    backward error (taken as ms*ns roundings of sigma_max) of the exact ones,
    and the sum and the weight normalization (sequential half sums) add
    t + ms + ns roundings more; sigma_max <= f.  So the bound subtracts
    4*t*(ms*ns + ms + ns)*eps*f, under 1e-9 relative up to 64 x 64, far
    inside the 1e-7 stop gap.  Multiplied back into the subnormal range it
    is rounded toward zero, which no relative margin would cover.  A core
    whose bound, multiplied back, would exceed the largest float raises
    ValueError: its norm has no certificate in floats.
    """
    ms, ns = A.shape
    top = float(np.abs(A).max())
    if min(ms, ns) == 1:
        if ms == 1:
            return np.ones((1, 1)), A, top
        return A / top, np.full((1, 1), top), top

    shift = math.frexp(top)[1] - 1
    A = np.ldexp(A, -shift)
    L, R, dual = _ascend_weights(A, _MAX_SVDS)
    margin = 4 * min(ms, ns) * (ms * ns + ms + ns) * np.finfo(np.float64).eps * dual
    if _exceeds(float(np.abs(A - L @ R).max()), config.tol, shift):
        L, R = _refit(A, L, R, math.ldexp(config.tol, -shift))
    lower = max(0.0, dual - margin)
    if _exceeds(lower, _HUGE, shift):
        raise ValueError(
            f"the factorization norm exceeds the largest float, {_HUGE:.6g}; scale the matrix down"
        )
    bound = math.ldexp(lower, shift)
    if math.ldexp(bound, -shift) > lower:  # rounded up into the subnormal range
        bound = math.nextafter(bound, 0.0)
    return L, np.ldexp(R, shift), bound


def _exceeds(resid: float, tol: float, shift: int) -> bool:
    """Whether resid·2**shift > tol, compared exactly on the exponents, so it never overflows."""
    (r, er), (t, et) = math.frexp(resid), math.frexp(tol)
    return resid > 0 and (er + shift, r) > (et, t)


def _embed(
    A_full: np.ndarray, row_group: np.ndarray, col_group: np.ndarray, L, R, dual_bound: float
) -> GammaFactorization:
    """Rescale core factors so rows of U are unit-capped, re-embed, and measure.

    Row x of U is row ``row_group[x]`` of L and column y of V is column
    ``col_group[y]`` of R; group -1, a zero row or column, takes an
    appended zero row or column.
    """
    s = _max_row_norm(L)
    if s > 0:
        L = L / s
        R = R * s
    t = L.shape[1]
    U_out = np.concatenate((L, np.zeros((1, t)))).take(row_group, axis=0)
    V_out = np.concatenate((R, np.zeros((t, 1))), axis=1).take(col_group, axis=1)
    # Outward-rounded measurement: the certificate claim is "norm ≤ gamma",
    # so roundoff in the norm computation must never undercut the true value.
    gamma = _max_row_norm(U_out) * _max_col_norm(V_out) * (1 + 5e-16)
    resid = float(np.abs(A_full - U_out @ V_out).max())
    return GammaFactorization(
        U=U_out, V=V_out, gamma=gamma, residual=resid, dual_bound=dual_bound
    )


def gamma2_upper(matrix, config: RunConfig | None = None) -> GammaFactorization:
    """Numerical upper bound on the factorization norm, as a checked certificate.

    Solves the distinct nonzero core: the first of each set of nonzero rows
    with equal bytes, in row order, and likewise of the columns
    (``core._group_rows``, one pass per side that also drops the zero rows
    and columns; -0.0 counts as 0.0).  A matrix with no repeated nonzero
    row or column has its nonzero core solved as it is.  A core of one row
    or one column, such as that of a matrix whose nonzero rows are all
    equal, gets its closed-form certificate (gamma = max|entry|) and takes
    no SVD.  Any other core runs one weight ascent from the row/column
    energy (``_ascend_weights``, at most ``_MAX_SVDS`` SVDs) and keeps its
    best certificate's factors, or refits them where their residual exceeds
    ``config.tol`` (``_refit``): the residual is at most ``config.tol``, not
    always roundoff.  Either way the factors are rescaled so rows of U are
    unit-capped and re-embedded (``_embed``): each row of U is a copy of
    its group's row, each column of V of its group's column, and zero rows
    and columns stay zero.  The copies leave the norm maxima, gamma and the
    residual those of the core, and ``dual_bound``, the core's lower bound
    (see ``_solve_core``), bounds the matrix's norm too, as the core is one
    of its submatrices.  The inner dimension is min(rows, cols) of the
    distinct nonzero core.  No random numbers are drawn.  A result whose
    residual still exceeds ``config.tol`` is returned as-is
    (non-certifying); callers decide.
    """
    config = config or DEFAULT_CONFIG
    A_full = as_real_array(matrix)
    m, n = A_full.shape
    plain = A_full + 0.0  # -0.0 becomes 0.0, so zero lines have all-zero bytes
    row_first, row_group = _group_rows(plain, drop_zero=True)
    if not row_first.size:
        return GammaFactorization(U=np.zeros((m, 0)), V=np.zeros((0, n)), gamma=0.0, residual=0.0)
    col_first, col_group = _group_rows(plain.T, drop_zero=True)
    A = A_full.take(row_first, axis=0).take(col_first, axis=1)
    return _embed(A_full, row_group, col_group, *_solve_core(A, config))


def gamma2_lower(matrix, budget: int = DEFAULT_BUDGET) -> tuple[float, str]:
    """Best exact lower bound on the factorization norm, with its source tag.

    The bound is max|A| ("max-entry"), raised for sign matrices to the square
    root of the exact mistake-tree dimension ("sqrt-Littlestone") when that
    recursion fits in ``budget`` node visits; otherwise it is skipped, so the
    function always returns.

    The weighted-dimension bound alpha*sqrt(d)/(2(M+1)) - 1, with M = max|A|
    and d the threshold-split dimension at gap alpha <= 1, is not computed:
    it cannot beat M on any input with fewer than 2**21 distinct columns.
    For d >= 1 some split separates two entries by alpha, so M >= alpha/2,
    and the candidate exceeds M only when alpha*sqrt(d) > 2(M+1)**2, that is
    sqrt(d) > 2/alpha + 2 + alpha/2 >= 4.5, so d >= 21.  A split tree of
    depth d needs 2**d distinct columns at its leaves, so d <= log2(#distinct
    columns).
    """
    A = as_real_array(matrix)
    top = float(np.abs(A).max(initial=0.0))
    if np.all(np.abs(A) == 1):
        try:
            root = math.sqrt(ldim(A, budget=budget))
        except BudgetExceeded:
            root = 0.0
        if root > top:
            return root, "sqrt-Littlestone"
    return top, "max-entry"


def gamma2_bracket(matrix, config: RunConfig | None = None) -> NormBracket:
    """Two-sided estimate: the better of the exact and the dual lower bounds,
    and the solver certificate.

    The lower side is max(max|A|, sqrt-Littlestone on sign matrices, dual):
    ``gamma2_lower``'s exact bound unless the certificate's ``dual_bound``
    is strictly larger, in which case it is tagged "dual".  The exact bounds
    stay as a cross-check; the dual bound is numerical, with the margin
    stated in ``_solve_core``.

    The exact bound is computed only when it could win.  A mistake tree's
    leaves are distinct columns, so sqrt-Littlestone is at most
    √⌊log2 n⌋ on n columns, and a dual above both that and max|A| is the
    lower bound whatever ``gamma2_lower`` returns; then ``ldim`` is not
    run, and the bracket is the one it would have been.
    """
    config = config or DEFAULT_CONFIG
    A = as_real_array(matrix)
    upper = gamma2_upper(A, config)
    exact_ceiling = max(float(np.abs(A).max()), math.sqrt(A.shape[1].bit_length() - 1))
    if upper.dual_bound > exact_ceiling:
        lower, witness = upper.dual_bound, "dual"
    else:
        lower, witness = gamma2_lower(A)
    if upper.dual_bound > lower:
        lower, witness = upper.dual_bound, "dual"
    return NormBracket(
        lower=lower, upper=upper.gamma, lower_witness=witness, upper_witness=upper
    )


def factorization_from_blocky_sum(decomp: SignedBlockySum) -> GammaFactorization:
    """Exact certificate for the dense value of a signed blocky sum.

    Each rectangle (S, T) of term i contributes one inner coordinate carrying
    sign_i * indicator(S) x indicator(T), term by term and within a term in
    rectangle id order.  U and V are one comparison each of the label
    tables, taken a row per coordinate, against the coordinates' ids.
    Scaling rows by 1/sqrt(terms) and columns by sqrt(terms) caps row norms
    at 1 and column norms at the term count, so gamma ≤ len(decomp).  With
    zero terms this is the empty certificate of the zero matrix.
    """
    m, n = decomp.shape
    signs, rb, cb = decomp.label_tables
    L = signs.size
    if L == 0:
        return GammaFactorization(U=np.zeros((m, 0)), V=np.zeros((0, n)), gamma=0.0, residual=0.0)
    r = 1.0 / math.sqrt(L)
    c = math.sqrt(L)
    counts = decomp._rect_counts
    term = np.repeat(np.arange(L), counts)  # inner coordinate -> (term, rectangle id)
    ids = np.arange(term.size) - np.repeat(np.cumsum(counts) - counts, counts)
    U = np.where(np.take(rb.T, term, axis=1) == ids, r, 0.0)
    V = np.where(cb[term] == ids[:, None], (signs[term] * c)[:, None], 0.0)
    target = decomp.evaluate().astype(np.float64)
    resid = float(np.abs(target - U @ V).max(initial=0.0))
    return GammaFactorization(U=U, V=V, gamma=float(L), residual=resid)
