"""Factorization-norm solver, certificates, and exact lower bounds."""

import hashlib
import itertools
import math

import numpy as np
import pytest

from blockydecomp import factorize, littlestone
from blockydecomp.config import RunConfig
from blockydecomp.core import BlockyMatrix, SignedBlockySum
from blockydecomp.factorize import (
    GammaFactorization,
    NormBracket,
    factorization_from_blocky_sum,
    gamma2_bracket,
    gamma2_lower,
    gamma2_upper,
    verify_factorization,
)
from blockydecomp.generators import GeneratorSpec, generate
from blockydecomp.partition import greedy_l1_decompose

CORNER = [[1, 0], [1, 1]]  # known norm 2/sqrt(3)


# ---------------------------------------------------------------------------
# Solver anchors


def test_corner_matrix_window():
    fac = gamma2_upper(CORNER)
    assert fac.certifies()
    assert 1.15470 <= fac.gamma <= 1.15570
    assert fac.gamma == pytest.approx(2 / math.sqrt(3), abs=1e-3)


def test_identity_and_all_ones_hit_one():
    for A in (np.eye(3), np.ones((4, 4))):
        fac = gamma2_upper(A)
        assert fac.certifies()
        assert 1.0 <= fac.gamma <= 1.0 + 1e-6


def test_hadamard_sqrt_two():
    fac = gamma2_upper([[1, 1], [1, -1]])
    assert fac.certifies()
    assert fac.gamma == pytest.approx(math.sqrt(2), abs=1e-6)


def test_zero_matrix_empty_certificate():
    fac = gamma2_upper(np.zeros((2, 3)))
    assert fac.gamma == 0.0 and fac.shape == (2, 3) and fac.inner_dim == 0
    assert np.array_equal(fac.product(), np.zeros((2, 3)))
    assert verify_factorization(np.zeros((2, 3)), fac).ok
    # -0.0 is zero too, though its bytes are not.
    assert gamma2_upper(-np.zeros((2, 3))).inner_dim == 0


def test_zero_rows_and_columns_are_reembedded():
    A = np.zeros((3, 4))
    A[0, 1] = 1.0
    A[2, 3] = -1.0
    fac = gamma2_upper(A)
    assert fac.certifies() and fac.shape == (3, 4)
    assert 1.0 <= fac.gamma <= 1.0 + 1e-6  # disjoint singletons factor like an identity


def _line_map(rng, k):
    # Each of 0..k-1 at least once, some repeated, in ascending order, so
    # first occurrences keep their order, with two -1s (a zero line) spliced in.
    lines = np.sort(np.concatenate((np.arange(k), rng.integers(0, k, size=k))))
    return np.insert(lines, rng.integers(0, lines.size + 1, size=2), -1)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["boolean", "sign", "ternary", "real"])
def test_repeated_and_zero_lines_copy_the_core_certificate(kind, seed):
    # Repeating rows and columns and adding zero ones leaves the distinct
    # nonzero core, and its order, as they are, so the certificate is the
    # base matrix's, bit for bit, with rows of U and columns of V copied.
    # The zero lines hold -0.0, whose bytes are not zero.  The 12×11 real
    # base lies in the Newton window.
    rng = np.random.default_rng([seed, 28])
    shape = [(4, 5), (6, 3), (12, 11)][seed]
    B = {
        "boolean": lambda: rng.integers(0, 2, size=shape),
        "sign": lambda: rng.choice([-1, 1], size=shape),
        "ternary": lambda: rng.integers(-1, 2, size=shape),
        "real": lambda: rng.standard_normal(shape),
    }[kind]().astype(np.float64)
    rows, cols = _line_map(rng, shape[0]), _line_map(rng, shape[1])
    A = np.pad(B, ((0, 1), (0, 1)), constant_values=-0.0)[rows][:, cols]  # line -1: the zero line
    base, fac = gamma2_upper(B), gamma2_upper(A)
    bits = [(f.gamma.hex(), f.residual.hex(), f.dual_bound.hex()) for f in (base, fac)]
    assert bits[0] == bits[1]
    assert np.array_equal(fac.U, np.pad(base.U, ((0, 1), (0, 0)))[rows])
    assert np.array_equal(fac.V, np.pad(base.V, ((0, 0), (0, 1)))[:, cols])
    assert verify_factorization(A, fac).ok


def test_determinism():
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0]])
    f1 = gamma2_upper(A)
    f2 = gamma2_upper(A, RunConfig(seed=7))
    assert f1.gamma == f2.gamma
    assert np.array_equal(f1.U, f2.U) and np.array_equal(f1.V, f2.V)


def test_submatrix_never_much_harder():
    rng = np.random.default_rng(41)
    for _ in range(8):
        A = rng.integers(-2, 3, size=(4, 6)).astype(float)
        g_full = gamma2_upper(A).gamma
        rows = np.sort(rng.permutation(4)[:3])
        cols = np.sort(rng.permutation(6)[:4])
        g_sub = gamma2_upper(A[np.ix_(rows, cols)]).gamma
        assert g_sub <= g_full + 1e-4


# ---------------------------------------------------------------------------
# Golden outputs: the solver's certificates are pinned bit for bit, so any
# change to the ascent that is not bit-identical fails here.  Recorded with
# numpy 2.4.6 (OpenBLAS) on x86-64; another LAPACK build may round differently.

GOLDEN_INPUTS = {
    "corner": CORNER,
    "eye3": np.eye(3),
    "ones3": np.ones((3, 3)),
    "hadamard2": [[1, 1], [1, -1]],
    "sign8": np.random.default_rng(8).choice([-1, 1], size=(8, 8)),  # column 7 repeats column 3
    # An 8×8 sign matrix with no repeated row or column, whose ascent runs
    # on the whole matrix; it has no golden of its own.
    "sign8-distinct": np.random.default_rng(10).choice([-1, 1], size=(8, 8)),
    "ternary16": np.random.default_rng(16).integers(-1, 2, size=(16, 16)),
    "row1x5": [[1, -2, 0, 3, 1]],
    "col5x1": [[2], [0], [-1], [1], [1]],
    "rows3x2": [[1, 2], [1, 2], [1, 2]],  # one distinct row, repeated
}

# name -> (float.hex(gamma), float.hex(residual), sha256 of U bytes + V bytes)
GOLDEN = {
    "corner": ("0x1.279a7459a1e54p+0", "0x1.0000000000000p-53", "9dbda16862695bdd900409a836db07b4c875a12231f363a4cd8cdcabd5495cca"),
    "eye3": ("0x1.0000000000002p+0", "0x0.0p+0", "08d94fcf4e14c682e988305422e5563f5c7fc2f7dec91824379bd8352a7c7994"),
    "ones3": ("0x1.0000000000002p+0", "0x0.0p+0", "961e76f1c44f5ce8d5761ea1aa65e20225642a79548cbe995da4644fae5f8c11"),
    "hadamard2": ("0x1.6a09e667f3bd0p+0", "0x1.0000000000000p-52", "d6fd7328baf060ac8f0f9d7dc2994bd792ca6e1ad334decfc2b89155b529fd94"),
    "sign8": ("0x1.3207212cf6d58p+1", "0x1.e000000000000p-49", "1e34306072924f740411f4dd6460afd5b805c83e0593214d2ff2932fa51a782c"),
    "ternary16": ("0x1.74b17c24a7117p+1", "0x1.6000000000000p-48", "72063a9bb529d02aa1bd4e4d47be9e501b4126b4c3a331d68c5b03a4ec57eb9d"),
    "row1x5": ("0x1.8000000000003p+1", "0x0.0p+0", "45dea68417d6160128c3edc24989201b9f3281d787bd83a522dc46d7174358e3"),
    "col5x1": ("0x1.0000000000002p+1", "0x0.0p+0", "781e75eb1a446192d73c5b534525733d9aa9ec7c9caf7d1ff080e7286537e0cd"),
}

# The goldens above that changed when the refit began to run only where
# the ascent's factors miss tol and the step's half sums became sequential,
# as they were before (always refit, pairwise sums).  The new certificate
# may differ by at most the 1e-7 stop gap.
GOLDEN_ALWAYS_REFIT = {
    "corner": ("0x1.279a7459a1e53p+0", "0x1.6d40436b098dcp-53", "dd76c3731ddb60953a81f6cb334a4127684967226539b84c2500c3ac801b9749"),
    "ones3": ("0x1.0000000000001p+0", "0x1.0000000000000p-50", "bca61a27adf074548eb76719ec9c44b2517cbd74355817d7ced7afdfd0fe68ea"),
    "hadamard2": ("0x1.6a09e667f3bcfp+0", "0x0.0p+0", "0adce254676c983a51f8fb67451a55516cadc2746227956615f05494319951f4"),
    "sign8": ("0x1.320721757a634p+1", "0x1.a000000000000p-49", "0cc9e0cec371336b1b10033f4e11fcbdc96c3ed11b55a76add82723665ca28eb"),
    "ternary16": ("0x1.74b17db0d9a5fp+1", "0x1.a000000000000p-49", "413bfc48b3497dfc00b2031414d1482787ecab47bd6887830486ba1c207926c3"),
}

# The goldens above that changed when the ascent began with Newton steps on
# the log-weights, as they were before.  The new certificate may differ by
# at most the 1e-7 stop gap.
GOLDEN_BEFORE_NEWTON = {
    "ternary16": ("0x1.74b17db0d9a76p+1", "0x1.5000000000000p-48", "54a9b7c03b3995b5b906b855c78e29d93fd315c16d3face10f6ce346943b5ca3"),
}

# The goldens above that changed when the solver began to run on the
# distinct nonzero core, dropping repeated rows and columns as well as zero
# ones, as they were before.  ones3's core is one entry, with a closed-form
# certificate; sign8's is its 8×7 distinct columns.  The new certificate
# may differ by at most the 1e-7 stop gap.
GOLDEN_BEFORE_DEDUPE = {
    "ones3": ("0x1.0000000000004p+0", "0x1.8000000000000p-51", "ec0078429a5e2a4a23f8bb3b9642e74c1c7b04587c93524f7799121f1efd072b"),
    "sign8": ("0x1.320721757a622p+1", "0x1.0000000000000p-49", "fea7e780a1b7f4b3f9fb8dec51007fb20542738a7f7da165aa2a34049c37006c"),
}

# The goldens above that changed when the ascent's start moved from the
# uniform weights to the row/column energy, as they were before.  The new
# certificate may differ by at most the 1e-7 stop gap.
GOLDEN_UNIFORM_START = {
    "corner": ("0x1.279a7465c94bap+0", "0x1.8000000000000p-52", "109d412097081339ba293d741ed82e25a9b17b396eea1e9f91c5bada3dd1101d"),
    "ones3": ("0x1.0000000000002p+0", "0x0.0p+0", "91765af9c3360695201a96044cfdebe55a1712e935aeb06b2ce1e141250d94e3"),
    "ternary16": ("0x1.74b17c6e325dep+1", "0x1.a91fb7f41bd9fp-49", "915eaa721aa68446d1bdcf2c404b4cac913c3784487484ee105dc642cd103195"),
}


# name -> float.hex(gamma) of the exponential-step ascent without the global
# stop, when each of 17 starts ascended until its own gap closed or it went
# stale.  The single fixed-point ascent with its early stop may only return a
# slightly larger certificate, within the 1e-7 stop gap.
GAMMA_WITHOUT_GLOBAL_STOP = {
    "corner": "0x1.279a7622e9704p+0",
    "eye3": "0x1.0000000000002p+0",
    "ones3": "0x1.0000000000002p+0",
    "hadamard2": "0x1.6a09e667f3bd0p+0",
    "sign8": "0x1.3207229bbb4a5p+1",
    "ternary16": "0x1.74b17e698d63dp+1",
    "row1x5": "0x1.8000000000003p+1",
    "col5x1": "0x1.0000000000002p+1",
}


# name -> float.hex(gamma) of the plain fixed-point ascent, one floored step
# per SVD with no extrapolation.  The accelerated ascent stops at the same
# 1e-7 gap and may return a slightly different certificate, but never one
# above this by more than that gap.
GAMMA_PLAIN_STEP = {
    "corner": "0x1.279a75e463e9bp+0",
    "eye3": "0x1.0000000000002p+0",
    "ones3": "0x1.0000000000002p+0",
    "hadamard2": "0x1.6a09e667f3bcfp+0",
    "sign8": "0x1.3207228e52898p+1",
    "ternary16": "0x1.74b17e5ba233ap+1",
    "row1x5": "0x1.8000000000003p+1",
    "col5x1": "0x1.0000000000002p+1",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_certificates(name):
    A = GOLDEN_INPUTS[name]
    fac = gamma2_upper(A)
    digest = hashlib.sha256(fac.U.tobytes() + fac.V.tobytes()).hexdigest()
    assert (float.hex(fac.gamma), float.hex(fac.residual), digest) == GOLDEN[name]
    assert fac.gamma <= float.fromhex(GAMMA_WITHOUT_GLOBAL_STOP[name]) * (1 + 1e-7)
    assert fac.gamma <= float.fromhex(GAMMA_PLAIN_STEP[name]) * (1 + 1e-7)
    for table in (GOLDEN_UNIFORM_START, GOLDEN_ALWAYS_REFIT, GOLDEN_BEFORE_NEWTON, GOLDEN_BEFORE_DEDUPE):
        if name in table:
            before = float.fromhex(table[name][0])
            assert abs(fac.gamma - before) <= 1e-7 * before
    assert verify_factorization(A, fac).ok


@pytest.mark.parametrize(
    "name, tol, max_svds, gamma_hex, before_hex",
    [
        pytest.param("row1x5", 1e-9, 10_000, GOLDEN["row1x5"][0], GOLDEN["row1x5"][0], id="row1x5-config0-0x1.8000000000003p+1"),
        pytest.param("col5x1", 1e-9, 10_000, GOLDEN["col5x1"][0], GOLDEN["col5x1"][0], id="col5x1-config1-0x1.0000000000002p+1"),
        # Corner's energy start is its optimum, so one SVD closes the gap and
        # the cuts return the converged certificate.  Each id keeps the pin
        # the case was written with, so the test names stay: the uniform
        # start's certificates after one and two SVDs for corner, which the
        # energy start undercuts, and ones3's from the uniform start.
        # before_hex is the pin from before the refit became conditional and
        # the half sums sequential; the new pin is within 1e-7 of it.  Since
        # the solver runs on the distinct core, ones3 takes the closed form
        # and sign8 runs on its 8×7 core.  sign8's ascents cut at one and two
        # SVDs moved to sign8-distinct, whose whole matrix is its core; a cut
        # ascent on another core stops elsewhere, so their before_hex is the
        # new pin.
        pytest.param("corner", 1e-9, 2, "0x1.279a7459a1e54p+0", "0x1.279a7459a1e53p+0", id="corner-config2-0x1.37f2790b82f5ap+0"),
        pytest.param("sign8", 1e-300, 10_000, "0x1.3207212cf6d52p+1", "0x1.320721757a638p+1", id="sign8-config3-0x1.320721757a638p+1"),
        pytest.param("corner", 1e-9, 1, "0x1.279a7459a1e54p+0", "0x1.279a7459a1e53p+0", id="corner-config4-0x1.5775c544ff264p+0"),
        pytest.param("sign8-distinct", 1e-9, 1, "0x1.5354c724594bep+1", "0x1.5354c724594bep+1", id="sign8-config5-0x1.5061c8ae0e2f5p+1"),
        pytest.param("ones3", 1e-9, 10_000, GOLDEN["ones3"][0], "0x1.0000000000001p+0", id="ones3-config6-0x1.0000000000002p+0"),
        pytest.param("sign8-distinct", 1e-9, 2, "0x1.4607d3fafb45cp+1", "0x1.4607d3fafb45cp+1", id="sign8-config7-0x1.42dad9481dbadp+1"),
    ],
)
def test_batched_ascent_edge_cases(monkeypatch, name, tol, max_svds, gamma_hex, before_hex):
    # Closed forms, ascents cut at one or two SVDs (plain steps, before any
    # extrapolation), and a tolerance no refit meets, where the refit of
    # smaller residual is returned.
    assert factorize._MAX_SVDS == 10_000  # the cases at 10_000 run uncut
    monkeypatch.setattr(factorize, "_MAX_SVDS", max_svds)
    A = GOLDEN_INPUTS[name]
    fac = gamma2_upper(A, RunConfig(tol=tol))
    assert verify_factorization(A, fac).ok
    assert float.hex(fac.gamma) == gamma_hex
    before = float.fromhex(before_hex)
    assert abs(fac.gamma - before) <= 1e-7 * before


def _count_linalg(monkeypatch, name="svd"):
    # Records the shape of the first argument of every np.linalg.<name> call.
    calls = []
    real = getattr(np.linalg, name)

    def counted(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return real(*args, **kwargs)

    monkeypatch.setattr(factorize.np.linalg, name, counted)
    return calls


def test_one_stacked_svd_per_ascent_iteration(monkeypatch):
    # One ascent, one 2-d SVD per step; the cap counts the SVDs at
    # extrapolated weights too.  sign8-distinct needs 11 SVDs uncapped
    # (corner, used here before, now closes at its first, and sign8 runs on
    # its 8×7 distinct core).
    calls = _count_linalg(monkeypatch)
    monkeypatch.setattr(factorize, "_MAX_SVDS", 5)
    gamma2_upper(GOLDEN_INPUTS["sign8-distinct"])
    assert calls == [(8, 8)] * 5


def test_uniform_start_closing_at_once_costs_one_svd(monkeypatch):
    # A rank-one sign pattern, whose energy start is the uniform start,
    # closes the gap on its first SVD.  Its rows are v and −v: a longer one
    # repeats a row, and ones3, used here before, has a 1×1 distinct core.
    calls = _count_linalg(monkeypatch)
    fac = gamma2_upper([[1, -1], [-1, 1]])
    assert calls == [(2, 2)]
    assert fac.gamma - fac.dual_bound <= 1e-7


def _shares(A, log_x):
    # p = ((P∘P)σ, σ(Qᵀ∘Qᵀ)) at the stacked weights x = exp(log_x), and the SVD.
    m = A.shape[0]
    s = np.exp(log_x / 2)
    P, sig, Qt = np.linalg.svd(s[:m, None] * A * s[m:], full_matrices=False)
    return np.concatenate(((P * P) @ sig, sig @ (Qt * Qt))), (P, sig, Qt)


@pytest.mark.parametrize(
    "shape, rank", [((7, 7), 7), ((9, 5), 5), ((5, 9), 5), ((8, 8), 2)], ids=["square", "tall", "wide", "rank2"]
)
def test_newton_jacobian_matches_finite_differences(shape, rank):
    # D_p⁻¹(S∘Z diag(w) Zᵀ) is the Jacobian of log p − log x in log x:
    # central differences of log p, less the identity, agree with it to
    # 1.3e-10-2.9e-10 on the full-rank inputs and 1.2e-9 on the rank-2 one.
    rng = np.random.default_rng(sum(shape) + rank)
    m, n = shape
    A = rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))
    log_x = 0.3 * rng.standard_normal(m + n)
    p, svd = _shares(A, log_x)
    jacobian = factorize._log_share_jacobian(*svd, p)
    h = 1e-5
    diff = np.column_stack(
        [np.log(_shares(A, log_x + e)[0] / _shares(A, log_x - e)[0]) / (2 * h) for e in np.eye(m + n) * h]
    )
    assert np.abs(jacobian + np.eye(m + n) - diff).max() < 1e-8


def test_newton_step_solves_without_svd_or_lstsq(monkeypatch):
    # The solver tests count np.linalg.svd and np.linalg.lstsq calls, so the step
    # makes neither: one np.linalg.solve gives δ with Σδ = 0 on each side,
    # and log p − log x, which is constant on each side at the optimum,
    # spreads far less at x·exp(δ) than at x (0.021 against 0.39 here).
    A = np.asarray(GOLDEN_INPUTS["ternary16"], dtype=np.float64)
    m, n = A.shape
    log_x = np.log(np.repeat([1 / m, 1 / n], (m, n)))

    def spread(log_x):
        r = np.log(_shares(A, log_x)[0]) - log_x
        return max(np.ptp(r[:m]), np.ptp(r[m:]))

    p, svd = _shares(A, log_x)
    svds, lstsqs = _count_linalg(monkeypatch), _count_linalg(monkeypatch, "lstsq")
    delta = factorize._newton_step(np.exp(log_x), p, *svd)
    assert svds == [] and lstsqs == []
    assert abs(delta[:m].sum()) < 1e-12 and abs(delta[m:].sum()) < 1e-12
    monkeypatch.undo()
    assert spread(log_x + delta) < 0.1 * spread(log_x)


def _count_newton_steps(monkeypatch):
    # Records the weights each Newton step starts from.
    starts = []
    real = factorize._newton_step
    monkeypatch.setattr(factorize, "_newton_step", lambda x, *a: starts.append(x) or real(x, *a))
    return starts


@pytest.mark.parametrize(
    "A, svds_without_newton",
    [
        (GOLDEN_INPUTS["ternary16"], 14),
        ([[1, 1, 0], [0, 1, 1], [1, 0, 0]], 12),
        (GOLDEN_INPUTS["sign8-distinct"], 11),
        (np.random.default_rng(32).choice([-1, 1], size=(32, 32)), 9),
    ],
    ids=["ternary16", "boolean3", "sign8", "sign32"],
)
def test_newton_phase_runs_only_in_its_window(monkeypatch, A, svds_without_newton):
    # The 16×16 core lies in the window (smaller side at least 10, Jacobian
    # flops at most 52·m·n·k, a full-rank first SVD): it keeps Newton
    # points, so a second step starts from one, and takes 4 SVDs instead of
    # 14.  The 3×3, 8×8 and 32×32 cores lie outside it and make the SVDs
    # of the SQUAREM ascent alone.  The id sign8 keeps its name; its input
    # is sign8-distinct, as sign8 itself now runs on an 8×7 core.
    calls = _count_linalg(monkeypatch)
    starts = _count_newton_steps(monkeypatch)
    fac = gamma2_upper(A)
    assert verify_factorization(A, fac).ok
    if np.shape(A) == (16, 16):
        assert len(starts) >= 2 and len(calls) < svds_without_newton
    else:
        assert starts == [] and len(calls) == svds_without_newton


def test_a_rejected_newton_point_hands_over_to_squarem(monkeypatch):
    # The Newton step reversed gives a point whose dual value falls: it
    # costs its one SVD and is dropped, and the SQUAREM cycle runs from the
    # last kept point, the start, exactly as the ascent without Newton
    # steps did: the same certificate bit for bit, with one SVD more.
    real = factorize._newton_step
    starts = []
    monkeypatch.setattr(factorize, "_newton_step", lambda x, *a: starts.append(x) or -real(x, *a))
    calls = _count_linalg(monkeypatch)
    fac = gamma2_upper(GOLDEN_INPUTS["ternary16"])
    digest = hashlib.sha256(fac.U.tobytes() + fac.V.tobytes()).hexdigest()
    assert (float.hex(fac.gamma), float.hex(fac.residual), digest) == GOLDEN_BEFORE_NEWTON["ternary16"]
    assert len(starts) == 1 and len(calls) == 14 + 1


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_max_iter_caps_the_svds_of_a_newton_path_solve(monkeypatch, cap):
    # Each Newton point costs one SVD, counted like any other against the
    # ascent's cap: ternary16 closes its gap at 4 uncapped, and every cap
    # below is met exactly.
    calls = _count_linalg(monkeypatch)
    starts = _count_newton_steps(monkeypatch)
    monkeypatch.setattr(factorize, "_MAX_SVDS", cap)
    A = GOLDEN_INPUTS["ternary16"]
    fac = gamma2_upper(A)
    assert calls == [(16, 16)] * cap
    assert len(starts) == cap - 1
    assert verify_factorization(A, fac).ok


@pytest.mark.parametrize(
    "A, svds",
    [([[1, 0, 1], [0, 1, 1], [1, 1, 0]], 1), (np.eye(3), 1), (CORNER, 1)],
    ids=["triangle", "eye3", "corner"],
)
def test_batch_stops_on_the_global_dual_gap(monkeypatch, A, svds):
    # The ascent closes the gap of all three at its first SVD.  Corner took
    # 7 from the uniform start; its row/column energy, (1/3, 2/3) and
    # (2/3, 1/3), is already optimal.
    calls = _count_linalg(monkeypatch)
    fac = gamma2_upper(A)
    assert len(calls) == svds
    assert verify_factorization(A, fac).ok
    assert fac.gamma - fac.dual_bound <= 1e-7 * max(1.0, fac.dual_bound)


@pytest.mark.parametrize("name", ["row1x5", "col5x1", "ones3", "rows3x2"])
def test_one_row_or_column_core_is_closed_form(monkeypatch, name):
    # ones3 and rows3x2 reach the closed form through their distinct core:
    # one entry and one row.  The norms are exactly max|a|; only the
    # outward rounding of the stated gamma lies above it.
    calls = _count_linalg(monkeypatch)
    A = np.asarray(GOLDEN_INPUTS[name], dtype=np.float64)
    fac = gamma2_upper(A)
    assert calls == []
    top = float(np.abs(A).max())
    assert verify_factorization(A, fac).ok and fac.residual == 0.0
    assert fac.max_row_norm * fac.max_col_norm == top
    assert top <= fac.gamma <= top * (1 + 1e-15)
    assert fac.dual_bound == top
    # The dual ties the exact max-entry bound, and the bracket keeps the exact tag.
    assert gamma2_bracket(A).lower_witness == "max-entry"


@pytest.mark.parametrize("n, L, seed", [(16, 3, 0), (16, 4, 0), (24, 4, 2)])
def test_solver_certificate_near_dual_on_low_rank_blocky_sums(n, L, seed):
    # Low-rank inputs: without the uniform floor weights fell to 1e-17 and
    # below, the winner's factors missed A and the polish returned a valid
    # certificate thousands of times above the dual (2228 against 2.0 on the
    # first case).
    inst = generate(GeneratorSpec("random-blocky-sum", n=n, term_count=L), seed=seed)
    A = np.asarray(inst.matrix)
    fac = gamma2_upper(A)
    assert verify_factorization(A, fac).ok
    assert fac.gamma <= (1 + 1e-6) * fac.dual_bound


@pytest.mark.parametrize(
    "n, L, seed, gamma_hex",
    [(16, 4, 0, "0x1.247443ce407c4p+1"), (24, 4, 2, "0x1.33e3ccd4b256ap+1")],
)
def test_open_gap_falls_back_to_the_batch_of_all_starts(monkeypatch, n, L, seed, gamma_hex):
    # On these low-rank sums the uniform start, cut by a 60-stale rule, once
    # left the gap open, and a fallback batch of the uniform and 16 random
    # starts certified gamma_hex.  The single ascent needs no fallback: it
    # closes the gap alone, with one 2-d SVD per step of the distinct
    # nonzero core's shape (16×15 and 20×22), and its certificate is no
    # larger than the batch's.
    inst = generate(GeneratorSpec("random-blocky-sum", n=n, term_count=L), seed=seed)
    A = np.asarray(inst.matrix)
    core_shape = tuple(len(np.unique(M[M.any(axis=1)], axis=0)) for M in (A, A.T))
    calls = _count_linalg(monkeypatch)
    fac = gamma2_upper(A)
    assert 0 < len(calls) <= factorize._MAX_SVDS
    assert calls == [core_shape] * len(calls)
    assert verify_factorization(A, fac).ok
    assert fac.gamma - fac.dual_bound <= 1e-7 * max(1.0, fac.dual_bound)
    assert fac.gamma <= float.fromhex(gamma_hex)


def _dense_bench_inputs(seed):
    # The 42 dense inputs of the benchmark at ``seed``: two sign, two boolean
    # and two {-1, 0, 1} matrices per size, drawn in this order (the
    # benchmark then shuffles them).
    rng = np.random.default_rng([seed, 32])
    draw = {
        "sign": lambda n: rng.choice(np.array([-1, 1]), size=(n, n)),
        "boolean": lambda n: rng.integers(0, 2, size=(n, n)),
        "ternary": lambda n: rng.integers(-1, 2, size=(n, n)),
    }
    out = []
    for n in (8, 12, 16, 20, 24, 28, 32):
        for kind in ("sign", "boolean", "ternary"):
            for _ in range(2):
                A = draw[kind](n)
                while not A.any():
                    A = draw[kind](n)
                out.append(A)
    return out


def _census_sums():
    # 54 low-rank blocky sums: n in {16, 24, 32}, 3, 4 or 6 terms, seeds 0-5.
    return [
        np.asarray(generate(GeneratorSpec("random-blocky-sum", n=n, term_count=L), seed=seed).matrix)
        for n in (16, 24, 32)
        for L in (3, 4, 6)
        for seed in range(6)
    ]


INPUT_SETS = {
    "booleans": lambda: [((code >> np.arange(9)) & 1).reshape(3, 3) for code in range(1, 512)],
    "dense-1": lambda: _dense_bench_inputs(1),
    "dense-9001": lambda: _dense_bench_inputs(9001),
    "census": _census_sums,
}


@pytest.mark.parametrize("name", sorted(INPUT_SETS))
def test_uniform_start_closes_the_gap_on_every_input_set(monkeypatch, name):
    # One ascent closes the 1e-7 gap on every input (at most 14, 60, 147
    # and 984 SVDs on the four sets, with or without the Newton phase; 15,
    # 71, 149 and 1,022 from the uniform start).
    calls = _count_linalg(monkeypatch)
    for k, A in enumerate(INPUT_SETS[name]()):
        calls.clear()
        fac = gamma2_upper(A)
        assert verify_factorization(A, fac).ok, k
        assert fac.gamma - fac.dual_bound <= 1e-7 * max(1.0, fac.dual_bound), k
        assert len(calls) <= factorize._MAX_SVDS, k
        assert all(len(shape) == 2 for shape in calls), k


# name -> cap on the SVDs of all solves of the set.  The ascent makes
# 3,088, 417, 549 and 10,848 from the row/column energy with its Newton
# phase, 3,088, 652, 773 and 10,877 without it (4,051, 688, 811 and 11,223
# from the uniform start without it).  The caps sit well below the 16,516,
# 3,022, 6,478 and 56,260 of plain steps alone, so losing the extrapolation
# fails here, and the dense caps below the counts without the Newton phase,
# so losing that fails too.
SVD_BUDGET = {"booleans": 5_000, "dense-1": 500, "dense-9001": 650, "census": 14_000}


@pytest.mark.parametrize("name", sorted(INPUT_SETS))
def test_svd_budget_per_input_set(monkeypatch, name):
    calls = _count_linalg(monkeypatch)
    for A in INPUT_SETS[name]():
        gamma2_upper(A)
    assert len(calls) <= SVD_BUDGET[name]


@pytest.mark.parametrize(
    "transpose, side", [pytest.param(True, 0, id="16-4-3-0"), pytest.param(False, 1, id="24-4-4-1")]
)
def test_two_sided_refit_closes_where_one_side_does_not(monkeypatch, transpose, side):
    # The refit runs only where the ascent's factors miss tol, which at the
    # default tol they do on no booleans or dense inputs and on 32 of the 54
    # census sums.  At tol 1e-12 they miss it on 43 sums, but on their
    # distinct cores, where the solver runs, one refit alone always comes
    # within 1e-6 of the dual.  So the cases run on an 8×6 product of {-1, 0, 1}
    # matrices of rank 3 with no repeated or zero row or column, and its
    # transpose (the ids name the census sums they ran on before).
    # Refitting only L (side 0) gives gamma 5.7e-5 relative above the dual
    # on the transpose, and refitting only R (side 1) 370 times the dual on
    # the product; the certifying refit of smaller gamma closes both.  The
    # L-refit comes first, so the transpose needs both least-squares solves
    # and the product only one.
    config = RunConfig(tol=1e-12)
    rng = np.random.default_rng(518)
    A = (rng.integers(-1, 2, size=(8, 3)) @ rng.integers(-1, 2, size=(3, 6))).astype(np.float64)
    A = A.T if transpose else A
    assert all(len(np.unique(M[M.any(axis=1)], axis=0)) == len(M) for M in (A, A.T))  # its own core
    # The ascent runs on the core scaled to max|A| in [1, 2), as in _solve_core.
    shift = math.frexp(float(np.abs(A).max()))[1] - 1
    core = np.ldexp(A, -shift)
    L_, R_, dual = factorize._ascend_weights(core, factorize._MAX_SVDS)
    assert factorize._exceeds(float(np.abs(core - L_ @ R_).max()), config.tol, shift)
    one_side = [
        (np.linalg.lstsq(R_.T, core.T, rcond=None)[0].T, R_),
        (L_, np.linalg.lstsq(L_, core, rcond=None)[0]),
    ][side]
    assert factorize._max_row_norm(one_side[0]) * factorize._max_col_norm(one_side[1]) > dual * (1 + 1e-6)
    calls = _count_linalg(monkeypatch, "lstsq")
    fac = gamma2_upper(A, config)
    assert len(calls) == (2 if side == 0 else 1)
    assert verify_factorization(A, fac, config.tol).ok
    assert fac.gamma - fac.dual_bound <= 1e-7 * max(1.0, fac.dual_bound)


@pytest.mark.parametrize("name", sorted(INPUT_SETS))
def test_bracket_runs_ldim_only_where_it_could_win(monkeypatch, name):
    # gamma2_bracket skips gamma2_lower when the dual exceeds both max|A| and
    # sqrt(floor(log2 n)), which bounds sqrt-Littlestone; the bracket must be
    # the one that always runs it.  No dense sign input runs ldim, and no
    # booleans or dense input needs a least-squares refit: the ascent's own
    # factors certify.
    ldims = []
    monkeypatch.setattr(factorize, "ldim", lambda *a, **k: ldims.append(a) or littlestone.ldim(*a, **k))
    lstsqs = _count_linalg(monkeypatch, "lstsq")
    for k, A in enumerate(INPUT_SETS[name]()):
        for calls in (ldims, lstsqs):
            calls.clear()
        bracket = gamma2_bracket(A)
        if name.startswith("dense"):
            assert ldims == [], k
        assert len(lstsqs) == 0 or name == "census", k
        assert len(lstsqs) <= 2, k
        lower, witness = gamma2_lower(A)
        if bracket.upper_witness.dual_bound > lower:
            lower, witness = bracket.upper_witness.dual_bound, "dual"
        assert (bracket.lower, bracket.lower_witness) == (lower, witness), k


@pytest.mark.parametrize(
    "scales",
    [(1e-150, 1e-150, 1e150, 1e150), (1.0, 1.0, 1.0, 1e-150), (1e155,) * 4, (1e-150,) * 4],
)
def test_rows_of_extreme_magnitude_still_certify(scales):
    # Rows 300 orders of magnitude apart: the small rows' energy underflows
    # to 0 and their start weight is the 1e-9 floor.  Uniform scales far
    # from 1: squares of 1e155 overflow, and at 1e-150 an absolute stop gap
    # would end the ascent far from the norm.  The solve raises no
    # floating-point warning (warnings fail the tests), certifies at the
    # matrix's scale and closes its gap relative to the norm.
    B = np.array([[1, 0, -1, 1, 0], [0, 1, 1, 0, -1], [1, 1, 0, -1, 1], [-1, 0, 1, 1, 1]])
    A = np.asarray(scales)[:, None] * B
    fac = gamma2_upper(A)
    assert fac.residual <= RunConfig.tol * max(1.0, float(np.abs(A).max()))
    assert fac.gamma - fac.dual_bound <= 1e-7 * fac.dual_bound


def test_a_norm_above_the_largest_float_is_refused():
    # The 8x8 Sylvester-Hadamard matrix has norm sqrt(8): times 6e307 that
    # is 1.70e308, still a float, and times 1e308 it is 2.83e308, which no
    # certificate can state; that raises ValueError, not OverflowError.
    H = np.array([[(-1) ** bin(i & j).count("1") for j in range(8)] for i in range(8)])
    fac = gamma2_upper(H * 6e307)
    assert fac.gamma == pytest.approx(math.sqrt(8) * 6e307, rel=1e-6)
    for solve in (gamma2_upper, gamma2_bracket):
        with pytest.raises(ValueError, match="exceeds the largest float"):
            solve(H * 1e308)


@pytest.mark.parametrize("x", [1e-315, 1e-320, 5e-324])
def test_subnormal_scale_certifies_with_the_dual_below_the_norm(x):
    # The core is scaled up by 2**1040 and more, where tol scaled alike
    # overflowed, and the dual multiplied back into the subnormal range
    # rounded above the norm 2/sqrt(3)·x at 1e-315.
    A = np.array([[x, 0.0], [x, x]])
    fac = gamma2_upper(A)
    assert verify_factorization(A, fac).ok
    assert 0 < fac.dual_bound <= fac.gamma
    # Both are whole multiples of the least subnormal 2**-1074.
    assert math.ldexp(fac.dual_bound, 1074) <= 2 / math.sqrt(3) * math.ldexp(A[0, 0], 1074)
    bracket = gamma2_bracket(A)
    assert bracket.lower <= bracket.upper


def test_bracket_refuses_an_inverted_bracket_below_norm_one():
    # The slack is 1e-6 relative, not 1e-6 absolute below norm 1.
    fac = gamma2_upper(CORNER)
    with pytest.raises(ValueError, match="inconsistent"):
        NormBracket(lower=1e-3 + 5e-7, upper=1e-3, lower_witness="dual", upper_witness=fac)
    NormBracket(lower=1e-3 * (1 + 1e-7), upper=1e-3, lower_witness="dual", upper_witness=fac)


# ---------------------------------------------------------------------------
# Certificate container + verification


def test_constructor_refuses_non_finite_factors():
    with pytest.raises(ValueError, match="finite"):
        GammaFactorization(U=[[1.0, 0.0], [0.0, float("nan")]], V=np.eye(2), gamma=1.0, residual=0.0)
    with pytest.raises(ValueError, match="finite"):
        GammaFactorization(U=np.eye(2), V=[[float("inf"), 0.0], [0.0, 1.0]], gamma=1.0, residual=0.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        GammaFactorization(U=[[1.2]], V=[[1.0]], gamma=5.0, residual=0.0)
    with pytest.raises(ValueError):
        GammaFactorization(U=[[1.0]], V=[[2.0]], gamma=1.0, residual=0.0)
    with pytest.raises(ValueError):
        GammaFactorization(U=np.ones((1, 2)), V=np.ones((1, 1)), gamma=9.0, residual=0.0)
    with pytest.raises(ValueError):
        GammaFactorization(U=[[1.0]], V=[[1.0]], gamma=-1.0, residual=0.0)
    with pytest.raises(ValueError):
        GammaFactorization(U=[[1.0]], V=[[1.0]], gamma=1.0, residual=float("nan"))


def test_verify_accepts_exact():
    fac = GammaFactorization(U=[[1.0]], V=[[1.0]], gamma=1.0, residual=0.0)
    rep = verify_factorization([[1]], fac)
    assert rep.ok and bool(rep)
    assert rep.max_row_norm == 1.0 and rep.max_col_norm == 1.0 and rep.residual == 0.0


def test_verify_rejects_wrong_product():
    fac = GammaFactorization(U=[[1.0]], V=[[1.0]], gamma=1.0, residual=0.0)
    rep = verify_factorization([[2]], fac)
    assert not rep and rep.residual == 1.0


def test_verify_is_stricter_than_construction():
    # The container allows a relative 1e-6 slack; verification at tol=1e-9
    # must still flag a column that overshoots the claimed gamma.
    fac = GammaFactorization(U=[[1.0]], V=[[2.0000002]], gamma=2.0, residual=0.0)
    rep = verify_factorization([[2.0000002]], fac)
    assert not rep.ok and rep.max_col_norm > rep.gamma + rep.tol


def test_verify_shape_mismatch():
    fac = GammaFactorization(U=[[1.0]], V=[[1.0]], gamma=1.0, residual=0.0)
    with pytest.raises(ValueError):
        verify_factorization([[1, 0]], fac)


def test_verify_reads_integer_boolean_and_float_forms_alike():
    # Integer and boolean matrices are subtracted from the product as they
    # are, converting each entry as astype(float64) would: the reports are
    # equal and the residual bit-identical, also past 2**53, where int64
    # entries round on conversion.
    A = np.array([[1, 0, 1, 1], [1, 1, 0, 1], [0, 1, 1, 0]])
    fac = gamma2_upper(A)
    assert fac.residual > 0  # a roundoff residual, so bit-identity is tested
    forms = [A, A.astype(bool), A.astype(np.int8), A.astype(np.uint16), A.astype(np.float64), A.tolist()]
    reports = [verify_factorization(M, fac) for M in forms]
    assert all(r == reports[0] for r in reports)
    assert {r.residual.hex() for r in reports} == {reports[0].residual.hex()}
    big = np.array([[2**53 + 1, 3], [5, 2**62]])
    ones = GammaFactorization(U=np.eye(2), V=np.ones((2, 2)), gamma=math.sqrt(2), residual=0.0)
    exact, rounded = verify_factorization(big, ones), verify_factorization(big.astype(np.float64), ones)
    assert exact == rounded and exact.residual.hex() == rounded.residual.hex()


def test_verify_refuses_malformed_matrices_of_every_dtype():
    fac = GammaFactorization(U=np.eye(2), V=np.ones((2, 3)), gamma=math.sqrt(2), residual=0.0)
    empty = GammaFactorization(U=np.zeros((0, 1)), V=np.ones((1, 3)), gamma=1.0, residual=0.0)
    for dtype in (np.int64, bool, np.float64):
        with pytest.raises(ValueError, match="does not match"):
            verify_factorization(np.ones((3, 2), dtype=dtype), fac)
        with pytest.raises(ValueError, match="2-dimensional"):
            verify_factorization(np.ones(3, dtype=dtype), fac)
        with pytest.raises(ValueError, match="at least one row"):
            verify_factorization(np.ones((0, 3), dtype=dtype), empty)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            verify_factorization([[1.0, bad, 0.0], [0.0, 1.0, 1.0]], fac)


def test_verify_leaves_the_certificate_unchanged():
    # The residual is measured in place on the product, never on U or V.
    A = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    fac = gamma2_upper(A)
    U, V = fac.U.copy(), fac.V.copy()
    for M in (A, A.astype(np.float64)):
        verify_factorization(M, fac)
        assert np.array_equal(fac.U, U) and np.array_equal(fac.V, V)
        assert not fac.U.flags.writeable and not fac.V.flags.writeable


# ---------------------------------------------------------------------------
# Lower bounds


def test_lower_bound_max_entry():
    val, tag = gamma2_lower(CORNER)
    assert val == 1.0 and tag == "max-entry"


def test_lower_bound_zero_matrix():
    val, tag = gamma2_lower(np.zeros((2, 2)))
    assert val == 0.0 and tag == "max-entry"


def test_lower_bound_sqrt_dimension():
    arr = np.array(list(itertools.product([-1, 1], repeat=4))).T
    val, tag = gamma2_lower(arr)
    assert val == 2.0 and tag == "sqrt-Littlestone"


def test_lower_bound_budget_degrades_gracefully():
    arr = np.array(list(itertools.product([-1, 1], repeat=4))).T
    val, tag = gamma2_lower(arr, budget=3)
    assert val == 1.0 and tag == "max-entry"


def test_lower_bound_runs_no_weighted_dimension(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gamma2_lower ran ldim_alpha")

    monkeypatch.setattr(factorize, "ldim_alpha", refuse)
    monkeypatch.setattr(littlestone, "ldim_alpha", refuse)
    assert gamma2_lower([[0.5, -2.0, 1.0], [3.0, 1.0, -1.0]]) == (3.0, "max-entry")
    assert gamma2_lower([[1, -1], [-1, 1]]) == (1.0, "max-entry")


def test_bracket_sandwich_random():
    rng = np.random.default_rng(42)
    for _ in range(8):
        A = rng.integers(-2, 3, size=(3, 5))
        br = gamma2_bracket(A)
        assert br.lower <= br.upper + 1e-6 * max(1.0, br.upper)
        assert br.lower_witness in ("max-entry", "sqrt-Littlestone", "dual")
        assert verify_factorization(A, br.upper_witness, tol=1e-6).ok


def test_bracket_dual_beats_max_entry_on_a_blocky_sum():
    # A 32 x 32 sum of 4 random blocky terms with max|entry| = 2: the exact
    # bounds stop at max-entry, the solver's dual value reaches about 2.66.
    inst = generate(GeneratorSpec("random-blocky-sum", n=32, term_count=4), seed=3204)
    A = np.asarray(inst.matrix)
    br = gamma2_bracket(A)
    assert gamma2_lower(A) == (2.0, "max-entry")
    assert br.lower_witness == "dual"
    assert 2.0 < br.lower < br.upper <= inst.certificate.gamma


# ---------------------------------------------------------------------------
# Exact certificates from blocky sums


def test_from_blocky_single_term():
    b = BlockyMatrix(shape=(2, 3), rectangles=(((0, 1), (0, 2)),))
    s = SignedBlockySum(shape=(2, 3), terms=((1, b),))
    fac = factorization_from_blocky_sum(s)
    assert fac.gamma == 1.0 and fac.residual == 0.0
    assert np.array_equal(fac.product(), s.evaluate())


def test_from_blocky_empty_sum():
    s = SignedBlockySum(shape=(2, 2), terms=())
    fac = factorization_from_blocky_sum(s)
    assert fac.gamma == 0.0 and fac.inner_dim == 0


def test_from_blocky_random_sums_verify():
    rng = np.random.default_rng(43)
    for _ in range(15):
        arr = rng.integers(-3, 4, size=(4, 5))
        s = greedy_l1_decompose(arr)
        fac = factorization_from_blocky_sum(s)
        assert fac.gamma == len(s.terms)
        assert fac.residual <= 1e-12
        rep = verify_factorization(arr.astype(float), fac, tol=1e-9)
        assert rep.ok
        assert rep.max_row_norm <= 1 + 1e-9
        assert rep.max_col_norm <= len(s.terms) + 1e-9


def test_from_blocky_inner_dim_counts_rectangles():
    b1 = BlockyMatrix(shape=(2, 2), rectangles=(((0,), (0,)), ((1,), (1,))))
    b2 = BlockyMatrix(shape=(2, 2), rectangles=(((0,), (1,)),))
    s = SignedBlockySum(shape=(2, 2), terms=((1, b1), (-1, b2)))
    fac = factorization_from_blocky_sum(s)
    assert fac.inner_dim == 3
    assert np.array_equal(fac.product(), s.evaluate())


# (n, L) -> float.hex(gamma), sha256 of U and of V bytes, float.hex(residual)
# of generate(random-blocky-sum, n, L, seed=7n + L)'s certificate, recorded
# with the per-term build that the table comparison replaced
BLOCKY_CERTIFICATES = {
    (8, 2): (
        "0x1.0000000000000p+1",
        "69a2a499438764a001c1cdd6ec175f89c4c8b85d0d7c39ec59d4943c70e36968",
        "10c5b3fba47b9b9b0c4665ce5eb8bc18372b2bc6f706e5cbd52b95d220a5100d",
        "0x1.765753908cd20p-56",
    ),
    (24, 4): (
        "0x1.0000000000000p+2",
        "d963750a673d877a14b633f639c770afa77cbc5d2519a0390643955826f479e3",
        "f451a8f137d078f135d3c32dc60ae08ed4b1816b012a946f9fc6d45a5c9bb6af",
        "0x0.0p+0",
    ),
    (40, 6): (
        "0x1.8000000000000p+2",
        "ebf9c7838c9277db45e3b321c30c876b2065fb7892793979383bad070d81334d",
        "381a756dd834867550a6c57c890ac99f3524eb12d8b16bf0ccf73ba73e746654",
        "0x1.c9140b86c4948p-55",
    ),
    (64, 8): (
        "0x1.0000000000000p+3",
        "8dfbd96b6c453e2c93daf0f3afb58643ac12f5d4327d31032d97894743b894eb",
        "604fd19953268d636d47188a9f9f4abd5eb6c5b8ea270a9a7872b8ed91b908b5",
        "0x1.765753908cd20p-56",
    ),
}


@pytest.mark.parametrize("n, L", sorted(BLOCKY_CERTIFICATES))
def test_from_blocky_certificates_pinned(monkeypatch, n, L):
    s = generate(GeneratorSpec(kind="random-blocky-sum", n=n, term_count=L), seed=7 * n + L).blocky_sum
    s = SignedBlockySum.from_label_tables(s.shape, *s.label_tables)  # no terms view built yet

    def refuse(*args):
        raise AssertionError("term objects built")

    monkeypatch.setattr(BlockyMatrix, "_of_tables", classmethod(refuse))
    fac = factorization_from_blocky_sum(s)
    got = (
        float.hex(fac.gamma),
        hashlib.sha256(fac.U.tobytes()).hexdigest(),
        hashlib.sha256(fac.V.tobytes()).hexdigest(),
        float.hex(fac.residual),
    )
    assert got == BLOCKY_CERTIFICATES[(n, L)]
