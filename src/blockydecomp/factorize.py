"""Norm-bounded factorizations: certificates, solver, and lower bounds.

A factorization certificate writes A = U @ V with every row of U of unit
Euclidean norm (or less) and every column of V of norm at most ``gamma``;
the least achievable gamma is the factorization norm of A.  This module

* checks such certificates (``verify_factorization``),
* searches for good ones numerically (``gamma2_upper``),
* derives unconditional lower bounds from the max entry and from exact
  mistake-tree dimensions (``gamma2_lower``),
* brackets the norm between the better of those and the solver's dual
  bound, and the solver's certificate (``gamma2_bracket``), and
* builds exact certificates for signed blocky sums
  (``factorization_from_blocky_sum``).

The solver ascends a concave reweighting of the trace norm: for row/column
weight vectors u, v on the probability simplex, the trace norm of
diag(sqrt(u)) @ A @ diag(sqrt(v)) is a lower bound on the factorization
norm (its dual value), the maximizing weights make it tight, and each SVD of
the weighted matrix yields both the next weights and a concrete factorization
whose measured gamma upper-bounds the norm.  The step is a fixed-point
reweighting (each row's or column's new weight is its share of the dual
value; the optimum is a fixed point) floored by a 1e-9 mix of the uniform
weights, which by concavity costs at most 1e-9 relative (``_ascend_weights``).
The dual value is jointly concave, so one start can reach the optimum: the
uniform start ascends alone first, and when its polished certificate is
within the gap tolerance of its own dual bound it is proved optimal to that
tolerance and kept.  Only otherwise do the random restarts run: the uniform
start and the random starts ascend from scratch as one batch, one stacked
SVD per iteration, and a per-restart stop mask drops a restart once its own
gap closes or it goes stale, so every restart follows exactly the iterates
it would follow alone (``_solve_core``).  An ascent stops as soon as the
best certificate of any of its starts is within the gap tolerance of the
best dual value of any of them, and the best dual, less a floating-point
margin, is kept on the certificate as a lower bound.  A core of one row or
one column needs no ascent: its norm is its largest entry magnitude, with a
closed-form certificate.  Plain alternating least squares over (U, V)
turned out to stall at non-optimal balanced factorizations on invertible
inputs, so the weight ascent drives the search and least squares polishes
the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .config import RunConfig
from .core import SignedBlockySum, _freeze, as_real_array
from .littlestone import BudgetExceeded, DEFAULT_BUDGET, ldim, ldim_alpha

__all__ = [
    "GammaFactorization",
    "VerificationReport",
    "NormBracket",
    "verify_factorization",
    "gamma2_upper",
    "gamma2_lower",
    "gamma2_bracket",
    "factorization_from_blocky_sum",
    "LOWER_BOUND_ALPHA_GRID",
]

LOWER_BOUND_ALPHA_GRID = (0.125, 0.25, 0.5, 1.0)


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
    """

    U: np.ndarray
    V: np.ndarray
    gamma: float
    residual: float
    dual_bound: float = 0.0

    def __post_init__(self):
        U = np.asarray(self.U, dtype=np.float64)
        V = np.asarray(self.V, dtype=np.float64)
        if U.ndim != 2 or V.ndim != 2 or U.shape[1] != V.shape[0]:
            raise ValueError("U and V must be 2-d with matching inner dimension")
        if not (self.gamma >= 0 and math.isfinite(self.gamma)):
            raise ValueError("gamma must be a finite nonnegative real")
        if not (self.residual >= 0 and math.isfinite(self.residual)):
            raise ValueError("residual must be a finite nonnegative real")
        if not (self.dual_bound >= 0 and math.isfinite(self.dual_bound)):
            raise ValueError("dual_bound must be a finite nonnegative real")
        slack = 1e-6 * max(1.0, self.gamma)
        if U.size and _max_row_norm(U) > 1 + slack:
            raise ValueError("a row of U exceeds unit norm")
        if V.size and _max_col_norm(V) > self.gamma + slack:
            raise ValueError("a column of V exceeds the gamma cap")
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

    ``lower_witness`` names the source of ``lower``: "max-entry",
    "sqrt-Littlestone" and "weighted-Littlestone" are exact, "dual" is the
    solver's numerical bound with the floating-point margin of
    ``_ascend_and_polish``.
    """

    lower: float
    upper: float
    lower_witness: str
    upper_witness: GammaFactorization

    def __post_init__(self):
        if self.lower < 0:
            raise ValueError("lower bound must be nonnegative")
        if self.lower > self.upper + 1e-6 * max(1.0, self.upper):
            raise ValueError(
                f"inconsistent bracket: lower {self.lower:.9g} > upper {self.upper:.9g}"
            )


def _max_row_norm(U: np.ndarray) -> float:
    if U.shape[0] == 0:
        return 0.0
    return float(np.sqrt(np.einsum("ij,ij->i", U, U).max(initial=0.0)))


def _max_col_norm(V: np.ndarray) -> float:
    if V.shape[1] == 0:
        return 0.0
    return float(np.sqrt(np.einsum("ij,ij->j", V, V).max(initial=0.0)))


def verify_factorization(
    matrix, fac: GammaFactorization, tol: float = RunConfig.tol
) -> VerificationReport:
    """Check a certificate against a matrix; the report carries the measured maxima."""
    A = as_real_array(matrix)
    if fac.shape != A.shape:
        raise ValueError(f"factorization shape {fac.shape} does not match matrix {A.shape}")
    row_norm = _max_row_norm(fac.U)
    col_norm = _max_col_norm(fac.V)
    resid = float(np.abs(A - fac.product()).max(initial=0.0))
    ok = row_norm <= 1 + tol and col_norm <= fac.gamma + tol and resid <= tol
    return VerificationReport(
        ok=ok,
        max_row_norm=row_norm,
        max_col_norm=col_norm,
        residual=resid,
        gamma=fac.gamma,
        tol=float(tol),
    )


def _ascend_weights(A: np.ndarray, u: np.ndarray, v: np.ndarray, iterations: int):
    """Fixed-point reweighting ascent from a stack of starts, all advanced together.

    The start weights ``u`` are ``(R, m)`` and ``v`` are ``(R, n)``: one row
    per restart.  Each iteration SVDs the stack of weighted matrices
    D_u^½ A D_v^½ = P Σ Qᵀ of the restarts still active in one call; per
    restart, Σσ is its dual value f(u, v), and the balanced factors
    L = D_u^-½ P Σ^½, R = Σ^½ Qᵀ D_v^-½ give supergradients gu, gv (squared
    row norms of L, column norms of R) and a certificate √(max gu·max gv).
    The step is u ← u ⊙ gu / f: as Σ uᵢguᵢ = f, row i's new weight is its
    share of ‖P Σ^½‖²_F, with no step size, and the optimum, where every
    supported row has guᵢ = f, is a fixed point.  Then u ← (1 − 1e-9)u +
    1e-9/m, and likewise for v with n: without this floor weights fall to
    1e-17 and below on low-rank inputs and L, R lose all accuracy.  As f is the
    minimum over XY = A of ½(Σ uᵢ‖xᵢ‖² + Σ vⱼ‖yⱼ‖²), it is jointly concave,
    so the mix loses at most 1e-9 relative of f, inside the 1e-7 stop gap.
    A restart leaves the active set on that gap between its certificate and
    its own dual value, or after 60 stale iterations; the arithmetic per
    restart is the same as ascending it alone.  The whole batch ends once
    the best certificate is within the same gap of the largest dual value
    seen over all restarts and iterations.  Returns ``(best_cert, best_L,
    best_R, best_dual)``, the first three with one entry per restart.
    """
    n_starts, m = u.shape
    n = v.shape[1]
    t = min(m, n)
    best_cert = np.full(n_starts, math.inf)
    best_L = np.zeros((n_starts, m, t))
    best_R = np.zeros((n_starts, t, n))
    best_dual = 0.0
    stale = np.zeros(n_starts, dtype=np.int64)
    active = np.arange(n_starts)
    for _ in range(iterations):
        su, sv = np.sqrt(u), np.sqrt(v)
        W = su[:, :, None] * A[None, :, :] * sv[:, None, :]
        P, sig, Qt = np.linalg.svd(W, full_matrices=False)
        f_val = sig.sum(axis=1)
        best_dual = max(best_dual, float(f_val.max()))
        s_half = np.sqrt(sig)
        L = (P * s_half[:, None, :]) / su[:, :, None]
        R = (s_half[:, :, None] * Qt) / sv[:, None, :]
        gu = np.einsum("rij,rij->ri", L, L)
        gv = np.einsum("rij,rij->rj", R, R)
        cert = np.sqrt(gu.max(axis=1) * gv.max(axis=1))
        improved = cert < best_cert[active] - 1e-12
        won = active[improved]
        best_cert[won] = cert[improved]
        best_L[won] = L[improved]
        best_R[won] = R[improved]
        if best_cert.min() - best_dual <= 1e-7 * max(1.0, best_dual):
            break
        stale = np.where(improved, 0, stale + 1)
        done = (cert - f_val <= 1e-7 * np.maximum(1.0, f_val)) | (stale >= 60)
        if done.any():
            keep = ~done
            active, stale, u, v = active[keep], stale[keep], u[keep], v[keep]
            gu, gv = gu[keep], gv[keep]
            if active.size == 0:
                break
        u = u * gu
        u = (1 - 1e-9) * (u / u.sum(axis=1, keepdims=True)) + 1e-9 / m
        v = v * gv
        v = (1 - 1e-9) * (v / v.sum(axis=1, keepdims=True)) + 1e-9 / n
    return best_cert, best_L, best_R, best_dual


def _ascend_and_polish(A: np.ndarray, u0: np.ndarray, v0: np.ndarray, config: RunConfig):
    """Polished factors ``(L, R)`` and a dual bound from one ascent over the starts.

    Keeps the first start, in index order, achieving the smallest
    certificate (1e-12 slack), and polishes its residual.  The bound is the
    best dual value f of the ascent less a margin for floating point: the
    computed singular values are, by Weyl's inequality, each within the
    spectral norm of the rounding in forming the weighted matrix (three
    roundings per entry) and of the SVD's backward error (taken as ms*ns
    roundings of sigma_max) of the exact ones, and the sum and the weight
    normalization add t + ms + ns roundings more; sigma_max <= f.  So the
    bound subtracts 4*t*(ms*ns + ms + ns)*eps*f, under 1e-9 relative up to
    64 x 64, far inside the 1e-7 stop gap.
    """
    ms, ns = A.shape
    t = min(ms, ns)
    certs, Ls, Rs, dual = _ascend_weights(A, u0, v0, config.max_iter)
    best_gamma = math.inf
    winner = 0
    for r, cert in enumerate(certs):
        if cert < best_gamma - 1e-12:
            best_gamma, winner = cert, r

    # Residual polish: alternating exact least squares keeps the factors near
    # the optimum found above while driving ‖A - LR‖_max to roundoff.
    L, R = Ls[winner].copy(), Rs[winner].copy()
    candidates = [(float(np.abs(A - L @ R).max()), _max_row_norm(L) * _max_col_norm(R), L, R)]
    for _ in range(3):
        R = np.linalg.lstsq(L, A, rcond=None)[0]
        L = np.linalg.lstsq(R.T, A.T, rcond=None)[0].T
        resid = float(np.abs(A - L @ R).max())
        candidates.append((resid, _max_row_norm(L) * _max_col_norm(R), L, R))
        if resid <= config.tol:
            break
    # Prefer a certifying candidate of minimal gamma; with none, minimal residual.
    certifying = [c for c in candidates if c[0] <= config.tol]
    pool = certifying if certifying else candidates
    _, _, L, R = min(pool, key=lambda c: (c[1], c[0]))
    margin = 4 * t * (ms * ns + ms + ns) * np.finfo(np.float64).eps * dual
    return L, R, max(0.0, dual - margin)


def _solve_core(A: np.ndarray, config: RunConfig, embed) -> GammaFactorization:
    """The certificate of a core with no zero row or column.

    ``embed(L, R, bound)`` turns core factors and a lower bound into the
    reported certificate.  A core of one row or one column has norm max|a|,
    attained by L = [[1]], R = the row, or L = the column / max|a|,
    R = [[max|a|]]; max|a| is also its exact lower bound.  Any other core
    first ascends the uniform start alone (``_ascend_and_polish``).  That
    certificate, as reported, is kept when it certifies (residual ≤
    ``config.tol``) and gamma − dual_bound ≤ 1e-7 · max(1, dual_bound),
    which proves it optimal to that gap.  Otherwise the uniform start and
    ``config.restarts`` random starts seeded by ``config.seed`` ascend
    again from scratch as one batch, whose certificate is returned as it
    is; so a solve makes at most 2 · ``config.max_iter`` stacked SVDs.
    With no random starts that batch is the uniform start again, and the
    first certificate is returned whatever its gap.
    """
    ms, ns = A.shape
    if min(ms, ns) == 1:
        top = float(np.abs(A).max())
        if ms == 1:
            return embed(np.ones((1, 1)), A, top)
        return embed(A / top, np.full((1, 1), top), top)

    u0 = np.full((config.restarts + 1, ms), 1.0 / ms)
    v0 = np.full((config.restarts + 1, ns), 1.0 / ns)
    fac = embed(*_ascend_and_polish(A, u0[:1], v0[:1], config))
    bound = fac.dual_bound
    if config.restarts == 0 or (
        fac.certifies(config.tol) and fac.gamma - bound <= 1e-7 * max(1.0, bound)
    ):
        return fac
    for r in range(1, config.restarts + 1):
        rng = np.random.default_rng([config.seed, r])
        u0[r] = rng.exponential(size=ms)
        u0[r] /= u0[r].sum()
        v0[r] = rng.exponential(size=ns)
        v0[r] /= v0[r].sum()
    return embed(*_ascend_and_polish(A, u0, v0, config))


def _embed(
    A_full: np.ndarray, rows_keep: np.ndarray, cols_keep: np.ndarray, L, R, dual_bound: float
) -> GammaFactorization:
    """Rescale core factors so rows of U are unit-capped, re-embed, and measure."""
    s = _max_row_norm(L)
    if s > 0:
        L = L / s
        R = R * s
    # Re-embed into the original frame; the dropped zero rows/columns stay zero.
    m, n = A_full.shape
    t = L.shape[1]
    U_out = np.zeros((m, t))
    V_out = np.zeros((t, n))
    U_out[rows_keep] = L
    V_out[:, cols_keep] = R
    # Outward-rounded measurement: the certificate claim is "norm ≤ gamma",
    # so roundoff in the norm computation must never undercut the true value.
    gamma = _max_row_norm(U_out) * _max_col_norm(V_out) * (1 + 5e-16)
    resid = float(np.abs(A_full - U_out @ V_out).max())
    return GammaFactorization(
        U=U_out, V=V_out, gamma=gamma, residual=resid, dual_bound=dual_bound
    )


def gamma2_upper(matrix, config: RunConfig | None = None) -> GammaFactorization:
    """Numerical upper bound on the factorization norm, as a checked certificate.

    Drops zero rows and columns.  A core of one row or one column gets its
    closed-form certificate (gamma = max|entry|).  Any other core runs the
    weight ascent (see ``_ascend_weights``, at most ``config.max_iter``
    iterations per ascent) from the uniform start alone, and only when that
    leaves the gap between the polished certificate and its dual bound open
    does it ascend again from the uniform start plus ``config.restarts``
    random starts seeded by ``config.seed``, all together (see
    ``_solve_core``).  An ascent keeps the first start, in index order,
    achieving the smallest measured gamma (1e-12 slack), then polishes the
    residual with up to three alternating exact least-squares solves.
    Either way the factors are rescaled so rows of U are unit-capped and
    re-embedded; the inner dimension is min(rows, cols) of the nonzero core,
    and ``dual_bound`` carries the core's lower bound (see
    ``_ascend_and_polish``).  A result whose residual still exceeds
    ``config.tol`` is returned as-is (non-certifying); callers decide.
    """
    config = config or RunConfig()
    A_full = as_real_array(matrix)
    m, n = A_full.shape
    rows_keep = np.flatnonzero(np.abs(A_full).sum(axis=1))
    cols_keep = np.flatnonzero(np.abs(A_full).sum(axis=0))
    if rows_keep.size == 0 or cols_keep.size == 0:
        return GammaFactorization(U=np.zeros((m, 0)), V=np.zeros((0, n)), gamma=0.0, residual=0.0)
    A = A_full[np.ix_(rows_keep, cols_keep)]
    return _solve_core(A, config, partial(_embed, A_full, rows_keep, cols_keep))


def gamma2_lower(matrix, budget: int = DEFAULT_BUDGET) -> tuple[float, str]:
    """Best available lower bound on the factorization norm, with its source tag.

    Combines the max-entry bound, sqrt of the exact mistake-tree dimension for
    sign matrices, and the weighted-dimension bound
    alpha*sqrt(d_alpha)/(2(maxEntry+1)) - 1 over a fixed alpha grid.  Exact
    recursions that blow the node budget are skipped (the cheaper bounds are
    kept), so the function always returns.
    """
    A = as_real_array(matrix)
    best = float(np.abs(A).max(initial=0.0))
    tag = "max-entry"
    if A.size == 0 or not A.any():
        return best, tag
    M = best
    if np.all(np.abs(A) == 1):
        try:
            d = ldim(A, budget=budget)
            cand = math.sqrt(d)
            if cand > best:
                best, tag = cand, "sqrt-Littlestone"
        except BudgetExceeded:
            pass
    for alpha in LOWER_BOUND_ALPHA_GRID:
        try:
            d = ldim_alpha(A, alpha, budget=budget)
        except BudgetExceeded:
            continue
        cand = alpha * math.sqrt(d) / (2 * (M + 1)) - 1
        if cand > best:
            best, tag = cand, "weighted-Littlestone"
    return best, tag


def gamma2_bracket(matrix, config: RunConfig | None = None) -> NormBracket:
    """Two-sided estimate: the better of the exact and the dual lower bounds,
    and the solver certificate.

    The lower side is ``gamma2_lower``'s bound unless the certificate's
    ``dual_bound`` is strictly larger, in which case it is tagged "dual".
    The exact bounds stay as a cross-check; the dual bound is numerical,
    with the margin stated in ``_ascend_and_polish``.
    """
    config = config or RunConfig()
    upper = gamma2_upper(matrix, config)
    lower, witness = gamma2_lower(matrix, budget=config.littlestone_budget)
    if upper.dual_bound > lower:
        lower, witness = upper.dual_bound, "dual"
    return NormBracket(
        lower=lower, upper=upper.gamma, lower_witness=witness, upper_witness=upper
    )


def factorization_from_blocky_sum(decomp: SignedBlockySum) -> GammaFactorization:
    """Exact certificate for the dense value of a signed blocky sum.

    Each rectangle (S, T) of term i contributes one inner coordinate carrying
    sign_i * indicator(S) x indicator(T), term by term and within a term in
    rectangle id order; a term's block of U columns and V rows is one
    comparison of its labels against its ids.  Scaling rows by 1/sqrt(terms) and
    columns by sqrt(terms) caps row norms at 1 and column norms at the term
    count, so gamma ≤ len(decomp).  With zero terms this is the empty
    certificate of the zero matrix.
    """
    m, n = decomp.shape
    L = len(decomp.terms)
    if L == 0:
        return GammaFactorization(U=np.zeros((m, 0)), V=np.zeros((0, n)), gamma=0.0, residual=0.0)
    r = 1.0 / math.sqrt(L)
    c = math.sqrt(L)
    blocks_U: list[np.ndarray] = []
    blocks_V: list[np.ndarray] = []
    for sign, term in decomp.terms:
        ids = np.arange(term.count)
        blocks_U.append(np.where(term.row_block[:, None] == ids, r, 0.0))
        blocks_V.append(np.where(ids[:, None] == term.col_block, sign * c, 0.0))
    U = np.hstack(blocks_U)
    V = np.vstack(blocks_V)
    target = decomp.evaluate().astype(np.float64)
    resid = float(np.abs(target - U @ V).max(initial=0.0))
    return GammaFactorization(U=U, V=V, gamma=float(L), residual=resid)
