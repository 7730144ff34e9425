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

The solver ascends a concave reweighting of the trace norm: for row/column
weight vectors u, v on the probability simplex, the trace norm of
diag(sqrt(u)) @ A @ diag(sqrt(v)) is a lower bound on the factorization
norm (its dual value), the maximizing weights make it tight, and each SVD of
the weighted matrix yields both the next weights and a concrete factorization
whose measured gamma upper-bounds the norm.  The step is a fixed-point
reweighting (each row's or column's new weight is its share of the dual
value; the optimum is a fixed point) floored by a 1e-9 mix of the uniform
weights, which by concavity costs at most 1e-9 relative (``_ascend_weights``).
The dual value is jointly concave, so one start reaches the optimum: a
single ascent from the uniform weights runs until its best certificate is
within 1e-7·max(1, dual) of its best dual value, or ``max_iter`` SVDs.  On
the 511 nonzero 3×3 booleans, the 84 dense 8²–32² matrices of the bench
seeds 1 and 9001 and 54 low-rank blocky sums of 16²–32² that takes at most
95, 3,605 and 4,587 iterations, and every gap closes.  Only the SVD of the
best certificate is kept; its balanced factors get one two-sided
least-squares refit that drives the residual to roundoff (``_refit``), and
the best dual, less a floating-point margin, is kept on the certificate as a
lower bound (``_solve_core``).  A core of one row or one column needs no
ascent: its norm is its largest entry magnitude, with a closed-form
certificate.  Plain alternating least squares over (U, V) turned out to
stall at non-optimal balanced factorizations on invertible inputs, so the
weight ascent drives the search and least squares only fixes the residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .core import SignedBlockySum, _freeze, as_real_array
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

    ``lower_witness`` names the source of ``lower``: "max-entry" and
    "sqrt-Littlestone" are exact, "dual" is the solver's numerical bound
    with the floating-point margin of ``_solve_core``.
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


def _ascend_weights(A: np.ndarray, iterations: int):
    """Fixed-point reweighting ascent from the uniform weights.

    Each iteration SVDs the weighted matrix D_u^½ A D_v^½ = P Σ Qᵀ.  Its
    trace norm Σσ is the dual value f(u, v), and the balanced factors
    L = D_u^-½ P Σ^½, R = Σ^½ Qᵀ D_v^-½ give supergradients
    gu = ((P∘P) σ) / u and gv = (σ (Qᵀ∘Qᵀ)) / v (squared row norms of L and
    column norms of R) and a certificate √(max gu · max gv).  The step is
    u ← u ⊙ gu / f = (P∘P) σ / f: as Σ uᵢguᵢ = f, row i's new weight is
    its share of ‖P Σ^½‖²_F, with no step size, and the optimum, where
    every supported row has guᵢ = f, is a fixed point.  Then u ← (1 − 1e-9)u + 1e-9/m, and
    likewise for v with n: without this floor weights fall to 1e-17 and
    below on low-rank inputs and L, R lose all accuracy.  As f is the
    minimum over XY = A of ½(Σ uᵢ‖xᵢ‖² + Σ vⱼ‖yⱼ‖²), it is jointly concave,
    so the mix loses at most 1e-9 relative of f, inside the 1e-7 stop gap.
    The ascent stops once the best certificate is within that gap of the
    largest dual value seen, or after ``iterations`` SVDs.  Only the SVD of
    the best certificate is kept; returns its factors ``(L, R)`` and the
    largest dual value.
    """
    m, n = A.shape
    u = np.full(m, 1.0 / m)
    v = np.full(n, 1.0 / n)
    best_cert = math.inf
    best_dual = 0.0
    for _ in range(iterations):
        su, sv = np.sqrt(u), np.sqrt(v)
        P, sig, Qt = np.linalg.svd(su[:, None] * A * sv, full_matrices=False)
        f_val = float(sig.sum())
        best_dual = max(best_dual, f_val)
        pu = (P * P) @ sig
        pv = sig @ (Qt * Qt)
        gu, gv = pu / u, pv / v
        cert = math.sqrt(gu.max() * gv.max())
        if cert < best_cert:
            best_cert, best = cert, (P, sig, Qt, su, sv)
        if best_cert - best_dual <= 1e-7 * max(1.0, best_dual):
            break
        u = (1 - 1e-9) * (pu / pu.sum()) + 1e-9 / m
        v = (1 - 1e-9) * (pv / pv.sum()) + 1e-9 / n
    P, sig, Qt, su, sv = best
    s_half = np.sqrt(sig)
    return (P * s_half) / su[:, None], (s_half[:, None] * Qt) / sv, best_dual


def _refit(A: np.ndarray, L: np.ndarray, R: np.ndarray, tol: float):
    """Drive ‖A − LR‖_max to roundoff with one exact least-squares refit.

    Two candidates: L refit against the ascent's R (L′ = lstsq(Rᵀ, Aᵀ)ᵀ) and
    R refit against its L (R′ = lstsq(L, A)).  Neither one alone suffices:
    on one 16² sum of 4 blocky terms the L-refit leaves a 9.9e-6 gap to the
    dual, and on one 24² sum of 3 the R-refit returns γ 43× the dual.  So
    the certifying candidate (residual ≤ ``tol``) of smaller γ is kept, and
    with none the one of smaller residual.
    """
    pairs = (
        (np.linalg.lstsq(R.T, A.T, rcond=None)[0].T, R),
        (L, np.linalg.lstsq(L, A, rcond=None)[0]),
    )
    scored = [(float(np.abs(A - X @ Y).max()), _max_row_norm(X) * _max_col_norm(Y), X, Y)
              for X, Y in pairs]
    certifying = [c for c in scored if c[0] <= tol]
    if certifying:
        _, _, X, Y = min(certifying, key=lambda c: c[1])
    else:
        _, _, X, Y = min(scored, key=lambda c: c[0])
    return X, Y


def _solve_core(A: np.ndarray, config: RunConfig) -> tuple[np.ndarray, np.ndarray, float]:
    """Factors ``(L, R)`` of a core with no zero row or column, and a lower bound.

    A core of one row or one column has norm max|a|, attained by L = [[1]],
    R = the row, or L = the column / max|a|, R = [[max|a|]]; max|a| is also
    its exact lower bound.  Any other core runs one ascent from the uniform
    weights (``_ascend_weights``, at most ``config.max_iter`` SVDs) and the
    two-sided refit (``_refit``).  The bound is the ascent's best dual value
    f less a margin for floating point: the computed singular values are, by
    Weyl's inequality, each within the spectral norm of the rounding in
    forming the weighted matrix (three roundings per entry) and of the SVD's
    backward error (taken as ms*ns roundings of sigma_max) of the exact ones,
    and the sum and the weight normalization add t + ms + ns roundings more;
    sigma_max <= f.  So the bound subtracts 4*t*(ms*ns + ms + ns)*eps*f,
    under 1e-9 relative up to 64 x 64, far inside the 1e-7 stop gap.
    """
    ms, ns = A.shape
    if min(ms, ns) == 1:
        top = float(np.abs(A).max())
        if ms == 1:
            return np.ones((1, 1)), A, top
        return A / top, np.full((1, 1), top), top

    L, R, dual = _ascend_weights(A, config.max_iter)
    margin = 4 * min(ms, ns) * (ms * ns + ms + ns) * np.finfo(np.float64).eps * dual
    return (*_refit(A, L, R, config.tol), max(0.0, dual - margin))


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
    closed-form certificate (gamma = max|entry|).  Any other core runs one
    weight ascent from the uniform weights (``_ascend_weights``, at most
    ``config.max_iter`` SVDs) and refits the residual of its best
    certificate (``_refit``).  Either way the factors are rescaled so rows
    of U are unit-capped and re-embedded; the inner dimension is min(rows,
    cols) of the nonzero core, and ``dual_bound`` carries the core's lower
    bound (see ``_solve_core``).  No random numbers are drawn.  A result
    whose residual still exceeds ``config.tol`` is returned as-is
    (non-certifying); callers decide.
    """
    config = config or RunConfig()
    A_full = as_real_array(matrix)
    m, n = A_full.shape
    rows_keep = np.flatnonzero(np.abs(A_full).sum(axis=1))
    cols_keep = np.flatnonzero(np.abs(A_full).sum(axis=0))
    if rows_keep.size == 0 or cols_keep.size == 0:
        return GammaFactorization(U=np.zeros((m, 0)), V=np.zeros((0, n)), gamma=0.0, residual=0.0)
    A = A_full[np.ix_(rows_keep, cols_keep)]
    return _embed(A_full, rows_keep, cols_keep, *_solve_core(A, config))


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
