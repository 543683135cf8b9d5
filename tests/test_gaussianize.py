import dataclasses
import math

import numpy as np
import pytest
from scipy import special, stats
from scipy.linalg import cho_factor, cho_solve

from lsequiv import gaussianize
from lsequiv._linalg import (
    DENSE_N_MAX,
    band_cholesky,
    band_extremes,
    band_to_dense,
    dense_to_band,
    least_squares,
    sym_inv,
    sym_inv_sqrt,
)
from lsequiv.basis_cov import CovarianceMatrix, build_basis, build_theta
from lsequiv.errors import (
    AccuracyError,
    ConfigurationError,
    LocalizationError,
    PreconditionError,
    RangeError,
    SingularMatrixError,
)
from lsequiv.gaussianize import (
    MODEL_IDS,
    ExperimentState,
    LocalizationConfig,
    _loglik_differences,
    build_localized_C,
    chi2_cdf,
    gaussian_summaries,
    goe_sample,
    likelihood_affinity_check,
    neumann_residual,
    neumann_residual_bound,
    rejection_attempts,
    sample_experiment,
    sample_truncated_noise,
    sp_perturbation_check,
)
from lsequiv.rng import make_rng
from lsequiv.spectral import random_density

from oracles import dense_mats

N = 32
BASIS = build_basis(N, 1, 1)
DENSITY = random_density(1, 1, make_rng(2, stream=30), s=11.0, L=5.0, rho_star=0.5)
THETA = build_theta(DENSITY, N)
LOC = LocalizationConfig(beta=1.0, gamma=3.0)
STATE = ExperimentState.build(BASIS, LOC, theta=THETA, rng=make_rng(0, stream=41))


def test_acceptance_probability_closed_form():
    assert LOC.acceptance_probability(6) == pytest.approx(stats.chi2.cdf(9.0, 6), rel=1e-12)


def test_acceptance_probability_matches_chdtr_on_the_schedule():
    # the schedule's (gamma / beta)^2 = K log log(n + e^2), K = 1..91: the
    # finite Poisson sums against scipy's chdtr
    for n in (8, 64, 512, 4096, 2**16, 2**20):
        slow = math.log(math.log(n + math.e**2))
        for k in range(1, 92):
            cfg = LocalizationConfig(beta=math.sqrt(k * slow), gamma=k * slow)
            want = special.chdtr(k, (cfg.gamma / cfg.beta) ** 2)
            assert abs(cfg.acceptance_probability(k) / want - 1.0) <= 1e-14


def test_chi2_cdf_off_the_schedule():
    # below the mean the lower series keeps relative accuracy where 1 - Q
    # would cancel; far above it the cdf is 1
    for k, x in ((5, 1e-8), (6, 1e-8), (40, 3.0), (91, 60.0), (1, 0.3)):
        assert abs(chi2_cdf(k, x) / special.chdtr(k, x) - 1.0) <= 1e-13
    assert chi2_cdf(3, 0.0) == 0.0
    assert chi2_cdf(6, 9e24) == 1.0
    with pytest.raises(RangeError, match="needs k <= x / 2"):
        chi2_cdf(2000, 1500.0)


def test_truncated_noise_stays_in_ball():
    for seed in range(5):
        eta = sample_truncated_noise(LOC, 6, make_rng(seed, stream=40))
        assert eta.shape == (6,)
        assert np.linalg.norm(eta) <= LOC.gamma


def test_truncated_noise_rejects_hopeless_config():
    tight = LocalizationConfig(beta=10.0, gamma=0.001)
    with pytest.raises(ConfigurationError):
        sample_truncated_noise(tight, 5, make_rng(0, stream=40))


def test_truncated_noise_draws_first_accepted():
    got = sample_truncated_noise(LOC, 6, make_rng(7, stream=40))
    rng = make_rng(7, stream=40)
    for _ in range(1000):
        draw = LOC.beta * rng.standard_normal(6)
        if np.linalg.norm(draw) <= LOC.gamma:
            break
    np.testing.assert_array_equal(got, draw)


def test_rejection_attempts_cap():
    assert rejection_attempts(1.0) == 1
    # 2^-40 <= 1e-12 < 2^-39
    assert rejection_attempts(0.5) == 40


def test_truncated_noise_raises_past_the_attempt_cap():
    class NeverInside:
        calls = 0

        def standard_normal(self, k):
            self.calls += 1
            return np.full(k, 10.0)

    rng = NeverInside()
    with pytest.raises(LocalizationError, match="no truncated draw accepted"):
        sample_truncated_noise(LOC, 6, rng)
    reject = 1.0 - LOC.acceptance_probability(6)
    assert reject**rng.calls <= 1e-12 < reject ** (rng.calls - 1)


def test_build_localized_c_identities():
    alpha = BASIS.project(THETA.band)
    eta = sample_truncated_noise(LOC, BASIS.K, make_rng(1, stream=40))
    c_band, delta_band, _, _, b_band, _ = build_localized_C(alpha, eta, BASIS)
    c_mat, delta = band_to_dense(c_band), band_to_dense(delta_band)
    np.testing.assert_allclose(c_mat, BASIS.combine(alpha + eta), atol=1e-12)
    np.testing.assert_allclose(delta, c_mat - BASIS.combine(alpha), atol=1e-12)
    c_inv = np.linalg.inv(c_mat)
    np.testing.assert_allclose(band_to_dense(b_band), c_inv + c_inv @ delta @ c_inv, atol=1e-10)


def test_build_localized_c_guards():
    alpha = BASIS.project(THETA.band)
    with pytest.raises(LocalizationError):
        build_localized_C(np.zeros(BASIS.K), np.zeros(BASIS.K), BASIS)
    # positive definite but the relative perturbation blows past a contraction
    with pytest.raises(LocalizationError):
        build_localized_C(alpha, -0.999 * alpha, BASIS)


def test_state_build_consistency():
    np.testing.assert_allclose(STATE.alpha_theta, BASIS.project(THETA.band), atol=1e-12)
    c_theta, c_mat = band_to_dense(STATE.c_theta_band), band_to_dense(STATE.c_band)
    np.testing.assert_allclose(c_theta, BASIS.combine(STATE.alpha_theta), atol=1e-12)
    np.testing.assert_allclose(band_to_dense(STATE.delta_band), c_mat - c_theta, atol=1e-12)
    assert np.linalg.norm(STATE.eta_tilde) <= LOC.gamma
    # the drift identity ties the three summary pieces together
    np.testing.assert_allclose(
        STATE.d_vec, 0.5 * STATE.gamma @ STATE.alpha_theta, rtol=1e-8
    )


def test_state_dense_views_are_the_band_combinations():
    c_mat = BASIS.combine(STATE.alpha_theta + STATE.eta_tilde)
    np.testing.assert_array_equal(band_to_dense(STATE.c_theta_band), BASIS.combine(STATE.alpha_theta))
    np.testing.assert_array_equal(band_to_dense(STATE.c_band), c_mat)
    np.testing.assert_array_equal(band_to_dense(STATE.delta_band), c_mat - BASIS.combine(STATE.alpha_theta))


def test_state_holds_no_dense_array():
    # theta, C_theta, C, Delta and B are bands, the state's only form of them
    n = 256
    basis = build_basis(n, 1, 1)
    theta = build_theta(DENSITY, n)
    state = ExperimentState.build(basis, LOC, theta=theta, rng=make_rng(0))
    square = {
        f.name for f in dataclasses.fields(state) if np.shape(getattr(state, f.name)) == (n, n)
    }
    assert square == set()
    for name in ("theta_band", "c_theta_band", "c_band", "delta_band"):
        assert getattr(state, name).shape == (basis.k2 + 1, n)
    np.testing.assert_array_equal(state.theta_band, theta.band)
    assert state.b_band.shape[1] == n and len(state.b_band) < n / 4


def test_summaries_identity_block():
    # K = 1 window: M_0 = I/sqrt(n), so Gamma = 2 I and d = sqrt(n)
    n = 16
    basis1 = build_basis(n, 0, 0)
    alpha = np.array([math.sqrt(n)])
    _, _, inverse, _, _, extremes = build_localized_C(alpha, np.zeros(1), basis1)
    d, g_theta, g_mat = gaussian_summaries(inverse, basis1, alpha, extremes[1])
    np.testing.assert_allclose(g_mat, [[2.0]], atol=1e-12)
    np.testing.assert_allclose(g_theta, [[2.0]], atol=1e-12)
    np.testing.assert_allclose(_gamma_tilde(basis1, alpha), [[2.0]], atol=1e-12)
    np.testing.assert_allclose(d, [math.sqrt(n)], atol=1e-12)


def test_summaries_reject_inconsistent_alpha():
    n = 16
    basis1 = build_basis(n, 0, 0)
    eye_band = np.ones((1, n))
    inverse = (eye_band, np.zeros((1, n)))
    with pytest.raises(RuntimeError):
        gaussian_summaries(inverse, basis1, np.array([1.0]), (1.0, 1.0))


def test_goe_sample_variances():
    n, reps = 8, 3000
    rng = make_rng(1, stream=43)
    draws = np.array([goe_sample(n, rng) for _ in range(reps)])
    np.testing.assert_allclose(draws[:, 0, 0].var(), 2.0, rtol=0.1)
    np.testing.assert_allclose(draws[:, 0, 1].var(), 1.0, rtol=0.1)
    assert np.max(np.abs(draws[0] - draws[0].T)) == 0.0


@pytest.mark.parametrize("n, reps", [(8, 1), (8, 300), (5, 7)])
def test_goe_sample_block_equals_single_draws(n, reps):
    # one (reps, n^2 + n) normal block reads the stream as reps single draws
    block = goe_sample(n, make_rng(1, stream=43), reps=reps)
    rng = make_rng(1, stream=43)
    singles = np.stack([goe_sample(n, rng) for _ in range(reps)])
    assert block.shape == (reps, n, n) and goe_sample(n, rng).shape == (n, n)
    assert np.array_equal(block, singles)


def test_pilot_alpha_unbiased():
    reps = 2000
    rng = make_rng(7, stream=47)
    root = np.linalg.cholesky(band_to_dense(THETA.band))
    acc = np.zeros(BASIS.K)
    for _ in range(reps):
        # the pilot coefficients <x x^T, M_k> of one observation
        acc += BASIS.quad_form(root @ rng.standard_normal(N))
    target = BASIS.project(THETA.band)
    err = np.linalg.norm(acc / reps - target)
    assert err < 1.2  # seeded run lands near 0.9; per-component sd is about 11


@pytest.mark.parametrize("model_id", MODEL_IDS)
def test_sample_experiment_shapes(model_id):
    obs = sample_experiment(STATE, model_id, make_rng(6, stream=46))
    if model_id in ("J", "K"):
        assert obs.shape == (N, N)
        np.testing.assert_allclose(obs, obs.T, atol=1e-12)
    elif model_id in ("G", "H", "I", "L"):
        assert obs.shape == (BASIS.K,)
    else:
        assert obs.shape == (N,)


def test_sample_experiment_unknown_id():
    with pytest.raises(ConfigurationError):
        sample_experiment(STATE, "z", make_rng(0, stream=46))


def _model_moments(state, model_id):
    """(mean, covariance) of the vector model model_id, dense."""
    mean_h = 0.5 * state.gamma @ state.alpha_theta
    return {
        "A": (np.zeros(state.n), band_to_dense(state.theta_band)),
        "B": (np.zeros(state.n), band_to_dense(state.c_theta_band)),
        "D": (np.zeros(state.n), np.linalg.inv(band_to_dense(state.b_band))),
        "G": (state.d_vec, state.gamma_theta),
        "H": (mean_h, state.gamma),
        "I": (state.alpha_theta, 4.0 * np.linalg.inv(state.gamma)),
        "L": (state.alpha_theta, 4.0 * np.linalg.inv(state.gamma_tilde)),
    }[model_id]


VECTOR_MODELS = ("A", "B", "D", "G", "H", "I", "L")


def _correlated_band(n, seed):
    """Lower band storage of R R^T for R unit lower bidiagonal with
    subdiagonal entries in (0.5, 0.9): SPD, tridiagonal, far from diagonal."""
    u = make_rng(seed, stream=49).uniform(0.5, 0.9, n - 1)
    ab = np.zeros((2, n))
    ab[0] = 1.0
    ab[0, 1:] += u * u
    ab[1, :-1] = u
    return ab


@pytest.mark.parametrize("model_id", VECTOR_MODELS)
def test_sample_experiment_moments(model_id):
    # an n = 16 state whose covariances are strongly correlated, so that a
    # transposed or missing factor shows; Gamma_tilde follows C_theta
    n, reps = 16, 4000
    built = ExperimentState.build(
        build_basis(n, 1, 1), LOC, theta=build_theta(DENSITY, n), rng=make_rng(1, stream=48)
    )
    g = make_rng(2, stream=49).standard_normal((2, built.K, built.K))
    state = dataclasses.replace(
        built,
        theta_band=_correlated_band(n, 0),
        c_theta_band=_correlated_band(n, 1),
        b_band=_correlated_band(n, 2),
        gamma_theta=g[0] @ g[0].T + 0.1 * np.eye(built.K),
        gamma=g[1] @ g[1].T + 0.1 * np.eye(built.K),
    )
    mean, cov = _model_moments(state, model_id)
    # R draws whitened by the model's own law, y = R^-1 (x - mean) with
    # R R^T = cov, are iid N(0, I): each sample-mean entry has sd 1 / sqrt(R)
    # and each sample-covariance entry sd at most sqrt(2 / R); the bounds are
    # five of those sds
    rng = make_rng(9, stream=48)
    draws = np.stack([sample_experiment(state, model_id, rng) for _ in range(reps)])
    y = np.linalg.solve(np.linalg.cholesky(cov), (draws - mean).T).T
    assert np.max(np.abs(y.mean(axis=0))) <= 5.0 / math.sqrt(reps)
    assert np.max(np.abs(np.cov(y.T) - np.eye(len(mean)))) <= 5.0 * math.sqrt(2.0 / reps)


def test_sample_experiment_draws_vector_models_past_dense_limit():
    n = 2 * DENSE_N_MAX
    state = ExperimentState.build(
        build_basis(n, 1, 1), LOC, theta=build_theta(DENSITY, n), rng=make_rng(0, stream=41)
    )
    rng = make_rng(6, stream=46)
    for model_id in VECTOR_MODELS:
        obs = sample_experiment(state, model_id, rng)
        assert obs.shape == ((n,) if model_id in "ABD" else (state.K,))
        assert np.isfinite(obs).all()
    # J and K are n x n matrices
    for model_id in ("J", "K"):
        with pytest.raises(PreconditionError, match="dense matrix size"):
            sample_experiment(state, model_id, rng)


def test_sample_experiment_refuses_singular_gamma():
    # the last statistic with zero variance: Gamma is singular, and H and I,
    # drawn from its Cholesky factor, raise the typed error
    gamma = STATE.gamma.copy()
    gamma[-1] = gamma[:, -1] = 0.0
    singular = dataclasses.replace(STATE, gamma=gamma)
    for model_id in ("H", "I"):
        with pytest.raises(SingularMatrixError):
            sample_experiment(singular, model_id, make_rng(6, stream=46))


def test_likelihood_affinity_check_passes():
    chk = likelihood_affinity_check(STATE, 200, make_rng(3, stream=45))
    assert chk.check_id == "sufficiency.affine_loglik"
    assert chk.passed
    # the batched check agrees with the per-draw reference
    ref_lhs = _affinity_lhs_per_draw(STATE, 200, make_rng(3, stream=45))
    assert ref_lhs <= chk.tol
    assert abs(chk.lhs - ref_lhs) <= 1e-10


def _affinity_lhs_per_draw(state, reps, rng):
    """Reference: x = L z from the dense Cholesky factor of C, one draw at a
    time, and two LU solves per draw."""
    n, k_count = state.n, state.K
    c_mat = band_to_dense(state.c_band)
    chol = np.linalg.cholesky(c_mat)
    b_inv = sym_inv(band_to_dense(state.b_band))
    _, logdet_b = np.linalg.slogdet(b_inv)
    _, logdet_c = np.linalg.slogdet(c_mat)
    draws = np.empty((reps, k_count + 1))
    diffs = np.empty(reps)
    for r in range(reps):
        x = chol @ rng.standard_normal(n)
        # the sufficient statistic T_k = x^T C^{-1} M_k C^{-1} x
        draws[r, :k_count] = state.basis.quad_form(np.linalg.solve(c_mat, x))
        draws[r, k_count] = 1.0
        quad_b = float(x @ np.linalg.solve(b_inv, x))
        quad_c = float(x @ np.linalg.solve(c_mat, x))
        diffs[r] = -0.5 * (quad_b + logdet_b) + 0.5 * (quad_c + logdet_c)
    coef, *_ = np.linalg.lstsq(draws, diffs, rcond=None)
    resid = float(np.max(np.abs(diffs - draws @ coef)))
    slope_err = float(np.max(np.abs(coef[:k_count] + 0.5 * state.basis.project(state.delta_band))))
    return max(resid, slope_err)


def test_affinity_batched_draws_match_per_draw_stream():
    # the statistic rows of the batched draws against one dense-Cholesky
    # draw x = L z and one solve per draw, on the same stream
    reps = 50
    batched, _ = _loglik_differences(STATE, reps, make_rng(3, stream=45))
    rng = make_rng(3, stream=45)
    c_mat = band_to_dense(STATE.c_band)
    chol = np.linalg.cholesky(c_mat)
    xs = [chol @ rng.standard_normal(N) for _ in range(reps)]
    looped = np.array([STATE.basis.quad_form(np.linalg.solve(c_mat, x)) for x in xs])
    assert np.max(np.abs(batched[:, :-1] - looped)) <= 1e-10 * np.max(np.abs(looped))


def _loglik_differences_dense(state, reps, rng):
    """Reference: B^{-1} formed densely, then Cholesky solves against C and
    B^{-1} with every draw as a right-hand side."""
    c_mat, b_inv = band_to_dense(state.c_band), sym_inv(band_to_dense(state.b_band))
    _, logdet_b = np.linalg.slogdet(b_inv)
    _, logdet_c = np.linalg.slogdet(c_mat)
    xs = rng.standard_normal((reps, state.n)) @ np.linalg.cholesky(c_mat).T
    c_solved = cho_solve(cho_factor(c_mat), xs.T).T
    b_solved = cho_solve(cho_factor(b_inv), xs.T).T
    quad_b, quad_c = np.sum(xs * b_solved, axis=1), np.sum(xs * c_solved, axis=1)
    diffs = -0.5 * (quad_b + logdet_b) + 0.5 * (quad_c + logdet_c)
    return np.column_stack([state.basis.quad_form(c_solved), np.ones(reps)]), diffs


def test_loglik_differences_match_dense_cho_solve():
    draws, diffs = _loglik_differences(STATE, 200, make_rng(3, stream=45))
    want_draws, want = _loglik_differences_dense(STATE, 200, make_rng(3, stream=45))
    assert np.max(np.abs(diffs - want)) <= 1e-10 * np.max(np.abs(want))
    assert np.max(np.abs(draws - want_draws)) <= 1e-10 * np.max(np.abs(want_draws))


@pytest.fixture(scope="module")
def state_256():
    # a state at verify's n = 256, where 800 draws take four row blocks
    basis = build_basis(256, 1, 1)
    f = random_density(1, 1, make_rng(2, stream=30), s=11.0, L=5.0, rho_star=0.5)
    theta = build_theta(f, 256)
    return ExperimentState.build(basis, LOC, theta=theta, rng=make_rng(0, stream=41))


def _loglik_differences_one_block(state, reps, rng):
    """(z, [T, 1] rows, differences) by the single-block formula: one
    (reps, n) draw z, x = z L^T for the dense Cholesky factor L of C, and
    C^{-1} x by cho_solve on L."""
    chol = np.linalg.cholesky(band_to_dense(state.c_band))
    z = rng.standard_normal((reps, state.n))
    xs = z @ chol.T
    c_solved = cho_solve((chol, True), xs.T).T
    logdet_b = -2.0 * float(np.sum(np.log(band_cholesky(state.b_band)[0])))
    logdet_c = 2.0 * float(np.sum(np.log(np.diag(chol))))
    quad_b = np.sum(xs * (xs @ band_to_dense(state.b_band)), axis=1)
    quad_c = np.sum(z * z, axis=1)
    diffs = -0.5 * (quad_b + logdet_b) + 0.5 * (quad_c + logdet_c)
    return z, np.column_stack([state.basis.quad_form(c_solved), np.ones(reps)]), diffs


class _RecordingStream:
    """A generator that keeps every normal block it hands out."""

    def __init__(self, rng):
        self.rng, self.blocks = rng, []

    def standard_normal(self, size):
        self.blocks.append(self.rng.standard_normal(size))
        return self.blocks[-1]


@pytest.mark.parametrize("reps", [1, 255, 256, 800])
def test_loglik_differences_blocks_match_one_block(state_256, reps):
    stream = _RecordingStream(make_rng(0, stream=205))
    draws, diffs = _loglik_differences(state_256, reps, stream)
    z, want_draws, want = _loglik_differences_one_block(state_256, reps, make_rng(0, stream=205))
    assert len(stream.blocks) == -(-reps // (gaussianize._DRAW_BLOCK // 256))
    np.testing.assert_array_equal(np.concatenate(stream.blocks), z)
    assert np.max(np.abs(draws - want_draws)) <= 1e-12 * np.max(np.abs(want_draws))
    assert np.max(np.abs(diffs - want)) <= 1e-12 * np.max(np.abs(want))


def test_loglik_differences_memory_is_one_block(state_256, traced_peak):
    # four times the draws add only the (reps, K + 1) and (reps,) results
    peaks = [
        traced_peak(lambda: _loglik_differences(state_256, reps, make_rng(0, stream=205)))
        for reps in (800, 3200)
    ]
    assert peaks[1] - peaks[0] < 8 * gaussianize._DRAW_BLOCK


@pytest.mark.parametrize("field", ["c_band", "b_band"])
def test_affinity_check_rejects_non_positive_definite(field):
    # C or B negated is negative definite
    bad = dataclasses.replace(STATE, **{field: -getattr(STATE, field)})
    with pytest.raises(PreconditionError, match="positive definite"):
        likelihood_affinity_check(bad, 20, make_rng(3, stream=45))


def test_affinity_check_detects_wrong_slope():
    tampered = dataclasses.replace(STATE, delta_band=1.01 * STATE.delta_band)
    assert not likelihood_affinity_check(tampered, 200, make_rng(3, stream=45)).passed
    assert _affinity_lhs_per_draw(tampered, 200, make_rng(3, stream=45)) > 1e-8


def test_neumann_residual_below_series_bound():
    c_theta = band_to_dense(STATE.c_theta_band)
    resid = neumann_residual(c_theta, band_to_dense(STATE.b_band))
    c_rho = float(np.linalg.eigvalsh(c_theta)[0])
    sp_sq = float(np.sum(BASIS.spectral_norms() ** 2))
    bound = neumann_residual_bound(LOC.gamma, c_rho, sp_sq)
    assert 0.0 < resid <= bound


def test_neumann_bound_divergence():
    assert neumann_residual_bound(1.0, 1.0, 4.0) == math.inf


def test_sp_perturbation_check_small_and_skipped():
    rng = make_rng(0, stream=203)
    dim = 5
    base = rng.standard_normal((dim, dim))
    a = base @ base.T + dim * np.eye(dim)
    pert = rng.standard_normal((dim, dim))
    sym = pert + pert.T
    b = a + 0.05 * np.linalg.norm(a, 2) * sym / np.linalg.norm(sym, 2)
    chk = sp_perturbation_check(a, b)
    assert chk.check_id == "perturbation.whitened_inverse"
    assert chk.passed and not chk.skipped
    huge = sp_perturbation_check(np.eye(3), 3.0 * np.eye(3))
    assert huge.skipped and huge.passed


def test_sp_perturbation_check_error_types():
    # an indefinite first matrix is a precondition; a (near-)singular one,
    # positive definite or not, is singular
    with pytest.raises(PreconditionError, match="positive definite"):
        sp_perturbation_check(np.diag([-1.0, 1.0, 2.0]), np.eye(3))
    for w in ([1e-14, 1.0, 2.0], [0.0, 1.0, 2.0], [-1.0, 0.0, 1.0]):
        with pytest.raises(SingularMatrixError):
            sp_perturbation_check(np.diag(w), np.eye(3))


def test_least_squares_failure_is_typed():
    # a NaN stops lstsq's SVD from converging: AccuracyError, not LinAlgError
    with pytest.raises(AccuracyError, match="least squares"):
        least_squares(np.array([[np.nan, 1.0], [1.0, 2.0], [3.0, 4.0]]), np.ones(3))


def _gamma_tilde(basis, alpha):
    """ExperimentState.gamma_tilde of an in-span state with coefficients
    alpha; it reads C_theta alone, so the state's small noise does not enter."""
    cfg = LocalizationConfig(beta=1e-6, gamma=1e-5)
    theta = CovarianceMatrix(basis.band(alpha))
    return ExperimentState.build(basis, cfg, make_rng(0, stream=47), theta).gamma_tilde


def _dense_summaries(c_theta, c_mat, basis):
    """The stacked-matmul formulas through matrix square roots (oracle)."""
    w, v = np.linalg.eigh(c_theta)
    ci_sqrt, ct_sqrt, cti_sqrt = sym_inv_sqrt(c_mat), (v * np.sqrt(w)) @ v.T, sym_inv_sqrt(c_theta)
    k = basis.K

    def gram(stack):
        flat = stack.reshape(k, -1)
        return 2.0 * flat @ flat.T

    ci, mats = ci_sqrt @ ci_sqrt, dense_mats(basis)
    d_vec = np.einsum("kij,ij->k", mats, ci @ c_theta @ ci)
    gamma = gram(np.matmul(np.matmul(ci_sqrt, mats), ci_sqrt))
    half = np.matmul(ct_sqrt, np.matmul(ci, np.matmul(mats, ci)))
    gamma_theta = gram(np.matmul(half, ct_sqrt))
    gamma_tilde = gram(np.matmul(np.matmul(cti_sqrt, mats), cti_sqrt))
    return d_vec, gamma_theta, gamma, gamma_tilde


@pytest.mark.parametrize("k1,k2", [(0, 0), (0, 1), (1, 1), (2, 0), (3, 3)])
def test_summaries_match_dense_stacks(k1, k2):
    n = 40
    basis = build_basis(n, k1, k2)
    rng = make_rng(k1, stream=45 + k2)
    alpha = np.zeros(basis.K)
    alpha[0] = 30.0
    alpha[1:] = 0.5 * rng.standard_normal(basis.K - 1)
    eta = 0.3 * rng.standard_normal(basis.K)
    c_theta = basis.combine(alpha)
    c_mat = basis.combine(alpha + eta)
    assert not np.array_equal(c_theta, c_mat)
    _, _, inverse, _, _, extremes = build_localized_C(alpha, eta, basis)
    got = gaussian_summaries(inverse, basis, alpha, extremes[1])
    got += (_gamma_tilde(basis, alpha),)
    want = _dense_summaries(c_theta, c_mat, basis)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert float(np.max(np.abs(g - w)) / np.max(np.abs(w))) <= 1e-12
    for g in got[1:]:
        np.testing.assert_array_equal(g, g.T)


def test_summaries_match_dense_stacks_ill_conditioned():
    # C_theta = 5 (I + 0.998 Cos) has condition about 1e3: C^{-1} and
    # C_theta^{-1} take the exact dense path of band_function
    n = 64
    basis = build_basis(n, 1, 1)
    c_theta = np.diag(5.0 * (1.0 + 0.998 * np.cos(2.0 * math.pi * np.arange(n) / n)))
    alpha = basis.project(dense_to_band(c_theta, 0))
    eta = 1e-4 * make_rng(0, stream=46).standard_normal(basis.K)
    c_band, _, inverse, _, _, extremes = build_localized_C(alpha, eta, basis)
    assert len(inverse[0]) == n
    got = gaussian_summaries(inverse, basis, alpha, extremes[1])
    got += (_gamma_tilde(basis, alpha),)
    want = _dense_summaries(basis.combine(alpha), band_to_dense(c_band), basis)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert float(np.max(np.abs(g - w)) / np.max(np.abs(w))) <= 1e-12


def test_summaries_guards():
    n = 16
    basis1 = build_basis(n, 0, 0)
    eye_band = np.ones((1, n))
    inverse = (eye_band, np.zeros((1, n)))
    with pytest.raises(LocalizationError):
        gaussian_summaries(inverse, basis1, np.array([1.0]), (1.0, 1.0))
    indefinite = np.r_[-1.0, np.ones(n - 1)][None, :]
    with pytest.raises(SingularMatrixError):
        gaussian_summaries(inverse, basis1, np.array([1.0]), band_extremes(indefinite))


def test_gamma_tilde_is_formed_when_read():
    # 2 tr(C_theta^{-1} M_k C_theta^{-1} M_l) against the dense inverse, once
    state = ExperimentState.build(BASIS, LOC, theta=THETA, rng=make_rng(0, stream=41))
    assert "gamma_tilde" not in vars(state)
    half = np.matmul(np.linalg.inv(band_to_dense(state.c_theta_band)), dense_mats(BASIS))
    want = 2.0 * np.einsum("kij,lji->kl", half, half)
    got = state.gamma_tilde
    assert float(np.max(np.abs(got - want)) / np.max(np.abs(want))) <= 1e-12
    assert state.gamma_tilde is got
