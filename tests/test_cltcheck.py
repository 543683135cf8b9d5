import cmath
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lsequiv import cltcheck
from lsequiv._linalg import spectral_norm, sym_inv, sym_sqrt
from lsequiv.basis_cov import build_basis, build_theta
from lsequiv.cltcheck import (
    _ladder_tails,
    _lattice_density,
    _lattice_psi,
    _lattice_step,
    _truncation,
    RadialProfile,
    build_char_context,
    char_fn,
    char_fn_modulus,
    char_fn_standardized,
    context_from_state,
    edgeworth_build,
    edgeworth_radius,
    edgeworth_tv,
    fourier_tail_bound,
    fourier_tail_integral,
    invert_cf_1d,
    moment_diagnostics,
    remainder_bound,
    span_char_context,
    standardized_exp_series,
    standardized_log_characteristic,
    tv_oracle,
)
from lsequiv.errors import PreconditionError, RangeError, SingularMatrixError
from lsequiv.gaussianize import ExperimentState, LocalizationConfig
from lsequiv.harness import RunConfig, config_density
from lsequiv.rng import make_rng
from lsequiv.spectral import default_grid, random_density

N = 64


def _identity_context(n, k2):
    """C_theta = C = I for the window (0, k2), in closed form: I = sqrt(n) M_0."""
    basis = build_basis(n, 0, k2)
    alpha = basis.project(np.ones((1, n)))
    return span_char_context(alpha, alpha, basis)


CTX = _identity_context(N, 0)
# the K = 1 oracle's default x grid
K1_GRID = np.arange(-20.0, 20.0 + 0.001, 0.002)


def test_mu_scale_invariant():
    # for the identity window both unit and 2 pi scalings give mu = 1/sqrt(2n),
    # in closed form (CTX) and from the dense build (scaled)
    scaled = build_char_context(
        2.0 * math.pi * np.eye(N), 2.0 * math.pi * np.eye(N), build_basis(N, 0, 0)
    )
    assert CTX.mu == pytest.approx(1.0 / math.sqrt(2.0 * N), rel=1e-12)
    assert scaled.mu == pytest.approx(1.0 / math.sqrt(2.0 * N), rel=1e-12)


@pytest.mark.parametrize("t", [0.3, 1.1, 2.7])
def test_quadratic_law_chi_square_cf(t):
    # identity window: the summary is a standardized chi-square with n terms
    root = math.sqrt(2.0 * N)
    expected = (1.0 - 2j * t / root) ** (-N / 2.0) * cmath.exp(-1j * t * math.sqrt(N / 2.0))
    got = char_fn_standardized(np.array([t]), CTX)
    assert abs(got - expected) <= 1e-12


def _cumulant_series(t, ctx, lmax):
    """Partial sum (l = 3..lmax) of the trace series

        log char_fn_standardized(t) + |t|^2 / 2 = (1/2) sum_l (2i)^l tr[(sum_k t_k D_k)^l] / l,

    which converges for |sum t_k D_k|_sp < 1/2.
    """
    w = ctx.pencil_eigs(ctx.gamma_inv_sqrt @ t)
    return complex(sum(0.5 * (2j) ** ell * np.sum(w**ell) / ell for ell in range(3, lmax + 1)))


def test_log_branch_and_series_consistency():
    t = np.array([0.4])
    log_val = standardized_log_characteristic(t, CTX)
    assert abs(cmath.exp(log_val) - char_fn_standardized(t, CTX)) <= 1e-12
    partial = _cumulant_series(t, CTX, 40)
    assert abs(partial - (log_val + 0.5 * float(t @ t))) <= 1e-12
    assert abs(cmath.exp(partial) - standardized_exp_series(t, CTX)) <= 1e-12


def test_series_partial_sums_monotone_refinement():
    t = np.array([0.6])
    target = standardized_log_characteristic(t, CTX) + 0.5 * float(t @ t)
    errs = [abs(_cumulant_series(t, CTX, lmax) - target) for lmax in (3, 6, 12)]
    assert errs[0] > errs[1] > errs[2]


def test_radial_profile_matches_cf():
    u = np.array([1.0])
    prof = RadialProfile(CTX, u)
    r = 1.3
    assert abs(prof.abs_psi(r) - abs(char_fn_standardized(r * u, CTX))) <= 1e-13
    assert char_fn_modulus(r * u, CTX) == pytest.approx(abs(char_fn(r * u, CTX)), abs=1e-14)


def test_moment_diagnostics_identity_window():
    md = moment_diagnostics(CTX)
    assert md["mu"] == pytest.approx(CTX.mu, rel=0)
    # third cumulant of the standardized chi-square is sqrt(8/n)
    assert md["max_abs_third_cumulant"] == pytest.approx(math.sqrt(8.0 / N), rel=1e-10)


def test_third_order_coefficient_exact():
    exp = edgeworth_build(CTX, 4)
    assert sorted(exp.nu) == [(3,), (4,)]
    kappa3 = 8.0 * N / (2.0 * N) ** 1.5
    assert exp.nu[(3,)] == pytest.approx(-1j * kappa3 / 6.0, abs=1e-12)


COEFF_CASES = [(256, (0, 0), 8), (1024, (0, 0), 8), (256, (0, 1), 5)]


@pytest.mark.parametrize("n,window,q", COEFF_CASES)
def test_coefficient_bounds_hold(n, window, q):
    ctx = build_char_context(np.eye(n), np.eye(n), build_basis(n, *window))
    exp = edgeworth_build(ctx, q)
    for m, coef in exp.nu.items():
        assert abs(coef) <= exp.coefficient_bound(m)


def test_validity_radius_matches_rate():
    exp = edgeworth_build(CTX, 4)
    assert exp.validity_radius == pytest.approx(edgeworth_radius(4, 1, CTX.mu), rel=0)


def test_remainder_within_bound_inside_region():
    exp = edgeworth_build(CTX, 4)
    radius = exp.validity_radius
    rng = make_rng(123, stream=50)
    for i in range(20):
        u = rng.standard_normal(1)
        u /= np.linalg.norm(u)
        t = (0.05 + 0.9 * i / 19.0) * radius * u
        diff = abs(
            complex(char_fn_standardized(t, CTX)) * math.exp(0.5 * float(t @ t))
            - exp.poly_eval(t)
        )
        # 1e-12 absolute floor covers cf evaluation noise at tiny remainders
        assert diff <= remainder_bound(t, exp) + 1e-12


def test_remainder_bound_rejects_outside_region():
    exp = edgeworth_build(CTX, 4)
    with pytest.raises(RangeError):
        remainder_bound(np.array([1.0001 * exp.validity_radius]), exp)


def test_edgeworth_guards():
    with pytest.raises(PreconditionError):
        edgeworth_build(CTX, 1)


def test_tail_integral_below_bound():
    chk = fourier_tail_integral(5.0, CTX)
    assert chk.check_id == "fourier-tail-R5"
    assert not chk.skipped
    assert chk.lhs <= chk.rhs
    assert chk.rhs == pytest.approx(fourier_tail_bound(5.0, CTX), rel=0)


def test_tail_integral_skipped_when_not_integrable():
    ctx = build_char_context(np.eye(16), np.eye(16), build_basis(16, 0, 1))
    chk = fourier_tail_integral(5.0, ctx)
    assert chk.skipped and chk.passed
    assert chk.ref == "tail-integrability"


def _tail_quad(ctx, R, n_angles=64):
    """2 w sum_u int_R^inf |psi*(r u)| r^{K-1} dr, one tight quad per direction."""
    if ctx.K == 1:
        dirs, weight = np.ones((1, 1)), 1.0
    else:
        dirs, weight = _angles(n_angles), math.pi / n_angles
    total = 0.0
    for u in dirs:
        profile = RadialProfile(ctx, u)
        integrand = lambda r: float(profile.abs_psi(np.array([r]))[0]) * r ** (ctx.K - 1)
        val, _ = quad(integrand, R, np.inf, epsabs=0.0, epsrel=1e-13, limit=500)
        total += val
    return 2.0 * weight * total


@pytest.mark.parametrize(
    "n,window,R",
    [(64, (0, 0), 5.0), (256, (0, 0), 20.0), (1024, (0, 0), 5.0), (64, (0, 1), 5.0), (64, (0, 1), 10.0)],
)
def test_tail_integral_matches_quad_oracle(n, window, R):
    ctx = build_char_context(np.eye(n), np.eye(n), build_basis(n, *window))
    chk = fourier_tail_integral(R, ctx)
    assert not chk.skipped
    want = _tail_quad(ctx, R)
    assert abs(chk.lhs - want) <= 1e-12 * want


@pytest.mark.parametrize("R", [0.0, -1.0, math.inf, math.nan])
def test_tail_integral_rejects_radius_off_the_ladder(R):
    with pytest.raises(PreconditionError, match="tail radius"):
        fourier_tail_integral(R, CTX)


def test_tv_oracle_chi_square_value():
    tv, details = tv_oracle(CTX, details=True)
    # quadrature of |chi2_64 standardized - normal| / 2 gives 0.0448425615
    assert tv == pytest.approx(0.0448425615, abs=1e-7)
    assert details["truncation"] > 0.0
    assert details["tail_bound"] is not None


def _gaussian_cf(w):
    """The N(0, I_K) characteristic function at a (..., K) frequency array."""
    return np.exp(-0.5 * np.sum(w * w, axis=-1))


def test_tv_oracle_gaussian_override_null():
    ctx2 = build_char_context(np.eye(N), np.eye(N), build_basis(N, 0, 1))
    tv = tv_oracle(ctx2, cf_override=_gaussian_cf)
    assert tv <= 1e-6


# a K = 3 context (no driver builds one), built directly from a joint spectrum
THREE = cltcheck.CharFnContext(
    n=N, d_vec=np.zeros(3), gamma_theta=np.eye(3), gamma_inv_sqrt=np.eye(3),
    mu=0.05, joint=make_rng(3, stream=63).standard_normal((3, N)) / math.sqrt(2.0 * N),
)


def test_tv_oracle_guards():
    small = build_char_context(np.eye(8), np.eye(8), build_basis(8, 0, 1))
    with pytest.raises(RangeError):
        tv_oracle(small)
    with pytest.raises(PreconditionError, match="K <= 2"):
        tv_oracle(THREE)


def test_k_guards_of_edgeworth_tv_and_tail_integral():
    # mu^{-2} = 400 clears the tail check's integrability margin 8K + 16
    with pytest.raises(PreconditionError, match="K <= 2"):
        edgeworth_tv(THREE)
    with pytest.raises(PreconditionError, match="K <= 2"):
        fourier_tail_integral(5.0, THREE)


def test_tv_against_shifted_gaussian_closed_form():
    # TV(N(0,1), N(1,1)) = 2 Phi(1/2) - 1, through the K = 1 lattice oracle;
    # on the oracle's grid the sum of |phi(x - 1) - phi(x)| dx / 2 is closer
    shifted = lambda w: np.exp(1j * w[..., 0] - 0.5 * w[..., 0] ** 2)
    tv = tv_oracle(CTX, cf_override=shifted)
    assert tv == pytest.approx(0.3829249225480262, abs=1e-6)
    phi = lambda x: np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    assert abs(tv - 0.5 * np.sum(np.abs(phi(K1_GRID - 1.0) - phi(K1_GRID))) * 0.002) <= 1e-12


def test_invert_cf_recovers_normal_density():
    xs = np.array([0.0, 1.0])
    dens = invert_cf_1d(np.exp(-0.5 * (0.1 * np.arange(301)) ** 2), 0.1, xs)
    expected = np.exp(-0.5 * xs**2) / math.sqrt(2.0 * math.pi)
    np.testing.assert_allclose(dens, expected, atol=1e-12)


def _lattice_sum_direct(psi_half, dw, x):
    """Reference: (dw / pi) Re[psi_0 / 2 + sum_{a >= 1} psi_a exp(-i x a dw)]
    at each x, one O(N_x M) kernel in row chunks."""
    weights = psi_half * (dw / math.pi)
    weights[0] *= 0.5
    w = dw * np.arange(len(psi_half))
    out = np.empty_like(x)
    for lo in range(0, len(x), 1000):
        kernel = np.exp(-1j * np.multiply.outer(x[lo : lo + 1000], w))
        out[lo : lo + 1000] = (kernel @ weights).real
    return out


@pytest.mark.parametrize(
    "grid", [K1_GRID, np.arange(1232) * 0.013 - 7.9], ids=["default-grid", "ragged-blocks"]
)
def test_invert_cf_matches_direct_sum(grid):
    # the blocked product against the direct sum, on the K = 1 lattice of
    # the n = 64 chi-square law; neither grid length is a multiple of its
    # block length ceil(sqrt(len))
    assert len(K1_GRID) == 20001 and len(grid) % (math.isqrt(len(grid) - 1) + 1) != 0
    dw = _lattice_step(20.0, CTX.mu)
    M = math.ceil(_truncation(CTX, 1e-8) / dw)
    psi = _lattice_psi(CTX, None, dw, M)[M:]
    assert np.max(np.abs(invert_cf_1d(psi, dw, grid) - _lattice_sum_direct(psi, dw, grid))) <= 1e-13


def test_invert_cf_grid_guards():
    psi = np.exp(-0.5 * (0.1 * np.arange(301)) ** 2)
    one = invert_cf_1d(psi, 0.1, np.array([0.5]))
    assert one.shape == (1,)
    assert abs(one[0] - _lattice_sum_direct(psi, 0.1, np.array([0.5]))[0]) <= 1e-13
    with pytest.raises(PreconditionError):
        invert_cf_1d(psi, 0.1, np.array([0.0, 1.0, 3.0]))
    with pytest.raises(PreconditionError):
        invert_cf_1d(psi, 0.1, np.array([0.0, np.nan]))


def test_context_from_state_matches_direct_build():
    # the state's span coefficients against its dense covariances; a window
    # with k1 > 0 has no closed form
    state = _state(32, 0, 1)
    ctx = context_from_state(state)
    direct = build_char_context(state.c_theta, state.c_mat, state.basis)
    assert ctx.mu == pytest.approx(direct.mu, rel=1e-12)
    np.testing.assert_allclose(ctx.d_vec, direct.d_vec, rtol=1e-12, atol=0)
    with pytest.raises(PreconditionError, match="k1 = 0 and k2 <= 1"):
        context_from_state(_state(32, 1, 1))


# ---------------------------------------------------------------------------
# closed-form context, real-arithmetic psi, lattice oracle and truncation,
# each against the dense or per-direction computation it replaced


def _dense_oracle(c_theta, c_mat, basis):
    """The dense build the closed form replaced: A_k = H^T M_k H with
    H = C^{-1} C_theta^{1/2}, d_k = tr A_k, Gamma_theta = [2 tr(A_k A_l)],
    its inverse square root, and mu = |C_theta| |C^{-1}|^2 |Gamma^{-1/2}|
    sqrt(sum_k |M_k|^2), each from its own decomposition."""
    half = sym_inv(c_mat) @ sym_sqrt(c_theta)
    a_stack = np.matmul(half.T, np.matmul(basis.mats, half))
    a_stack = 0.5 * (a_stack + np.transpose(a_stack, (0, 2, 1)))
    flat = a_stack.reshape(len(a_stack), -1)
    gamma_theta = 2.0 * (flat @ flat.T)
    w, v = np.linalg.eigh(0.5 * (gamma_theta + gamma_theta.T))
    gamma_inv_sqrt = (v / np.sqrt(w)) @ v.T
    mu = (
        spectral_norm(c_theta)
        * spectral_norm(sym_inv(c_mat)) ** 2
        * spectral_norm(gamma_inv_sqrt)
        * math.sqrt(np.sum(basis.spectral_norms() ** 2))
    )
    return SimpleNamespace(
        a_stack=a_stack,
        d_vec=np.trace(a_stack, axis1=1, axis2=2),
        gamma_theta=gamma_theta,
        gamma_inv_sqrt=gamma_inv_sqrt,
        mu=mu,
    )


def _tv_decay_alpha(n, k2):
    """(basis, span coefficients of C = C_theta) as run_tv_decay builds them."""
    basis = build_basis(n, 0, k2)
    f = config_density(RunConfig(n_grid=(n,), k1=0, k2=k2), k1=0, k2=k2)
    return basis, basis.project(build_theta(f, n, default_grid()).band)


def _tv_decay_context(n, k2):
    """The context run_tv_decay builds: C = C_theta in the window (0, k2)."""
    basis, alpha = _tv_decay_alpha(n, k2)
    return span_char_context(alpha, alpha, basis)


def _state(n, k1, k2):
    """A localization state, where C_theta and C differ."""
    basis = build_basis(n, k1, k2)
    theta = build_theta(random_density(k1, k2, make_rng(2, stream=30)), n)
    state = ExperimentState.build(
        basis, LocalizationConfig(beta=1.0, gamma=3.0), theta=theta, rng=make_rng(0, stream=41)
    )
    assert not np.array_equal(state.c_theta, state.c_mat)
    return state


def _angles(count):
    phis = (np.arange(count) + 0.5) * np.pi / count
    return np.array([[math.cos(phi), math.sin(phi)] for phi in phis])


@pytest.fixture(scope="module")
def tvk2_ctx():
    # the tvdecay --n 512 context of the K = 2 window (0, 1)
    return _tv_decay_context(512, 1)


def _assert_joint_matches_eigvalsh(ctx, dense, dirs):
    # each standardized direction's closed-form spectrum against an eigvalsh
    # of the dense oracle's pencil
    for u in dirs:
        want = np.linalg.eigvalsh(np.tensordot(dense.gamma_inv_sqrt @ u, dense.a_stack, axes=(0, 0)))
        got = ctx.pencil_eigs(ctx.gamma_inv_sqrt @ u)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_joint_spectrum_matches_eigvalsh_tv_decay_k2(tvk2_ctx):
    basis, alpha = _tv_decay_alpha(512, 1)
    c_mat = basis.combine(alpha)
    _assert_joint_matches_eigvalsh(tvk2_ctx, _dense_oracle(c_mat, c_mat, basis), _angles(180))


@pytest.mark.parametrize("k2,dirs", [(1, _angles(24)), (0, np.array([[1.0], [-1.0], [0.37]]))])
def test_joint_spectrum_matches_eigvalsh_state_context(k2, dirs):
    state = _state(64, 0, k2)
    dense = _dense_oracle(state.c_theta, state.c_mat, state.basis)
    _assert_joint_matches_eigvalsh(context_from_state(state), dense, dirs)


def _span_case(n, k2, case):
    """(basis, alpha_theta, alpha_c) in the window (0, k2): C = C_theta
    ("same"), C a span perturbation of C_theta ("differ"), or C_theta and
    C = alpha_theta + eta_tilde of a localization state ("chain")."""
    if case == "chain":
        basis = build_basis(n, 0, k2)
        theta = build_theta(random_density(0, k2, make_rng(2, stream=30)), n)
        state = ExperimentState.build(
            basis, LocalizationConfig(beta=1.0, gamma=3.0), theta=theta, rng=make_rng(0, stream=41)
        )
        return basis, state.alpha_theta, state.alpha_theta + state.eta_tilde
    basis, alpha = _tv_decay_alpha(n, k2)
    if case == "same":
        return basis, alpha, alpha
    bump = np.zeros(basis.K)
    bump[-1] = 0.2 * alpha[0]
    return basis, alpha, 1.3 * alpha + bump


@pytest.mark.parametrize("case", ["same", "differ", "chain"])
@pytest.mark.parametrize("k2", [0, 1])
@pytest.mark.parametrize("n", [16, 64, 256, 1024])
def test_closed_form_context_matches_dense_build(n, k2, case):
    # from the span coefficients, and from the dense covariances through
    # build_char_context, against the dense oracle
    basis, alpha_theta, alpha_c = _span_case(n, k2, case)
    c_theta, c_mat = basis.combine(alpha_theta), basis.combine(alpha_c)
    dense = _dense_oracle(c_theta, c_mat, basis)
    assert case == "same" or not np.array_equal(alpha_theta, alpha_c)

    def rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    spectra = np.stack([np.linalg.eigvalsh(a) for a in dense.a_stack])
    for ctx in (span_char_context(alpha_theta, alpha_c, basis), build_char_context(c_theta, c_mat, basis)):
        assert rel(np.sort(ctx.joint, axis=1), spectra) <= 1e-12
        assert rel(ctx.d_vec, dense.d_vec) <= 1e-12
        assert rel(ctx.gamma_theta, dense.gamma_theta) <= 1e-12
        assert rel(ctx.gamma_inv_sqrt, dense.gamma_inv_sqrt) <= 1e-12
        assert ctx.mu == pytest.approx(dense.mu, rel=1e-12)


def test_closed_form_context_guards():
    basis = build_basis(32, 0, 1)
    alpha = basis.project(np.ones((1, 32)))
    with pytest.raises(PreconditionError, match="k1 = 0 and k2 <= 1"):
        span_char_context(np.ones(6), np.ones(6), build_basis(32, 1, 1))
    # C_theta = I - 0.6 J is indefinite: the error guarded_eig raises in the dense build
    flip = basis.project(np.array([np.ones(32), np.r_[np.full(31, -0.6), 0.0]]))
    with pytest.raises(SingularMatrixError, match="not positive definite"):
        span_char_context(flip, alpha, basis)
    with pytest.raises(SingularMatrixError, match="not positive definite"):
        build_char_context(basis.combine(flip), np.eye(32), basis)


def test_closed_form_context_rejects_bad_span_coefficients():
    # a NaN coefficient reaches the spectrum guard; a wrong length is typed
    basis = build_basis(32, 0, 1)
    alpha = basis.project(np.ones((1, 32)))
    for bad in (np.array([math.nan, 0.0]), np.array([alpha[0], math.inf])):
        with pytest.raises(SingularMatrixError):
            span_char_context(bad, alpha, basis)
        with pytest.raises(SingularMatrixError):
            span_char_context(alpha, bad, basis)
    for bad in (alpha[:1], np.r_[alpha, 0.0], alpha[None]):
        with pytest.raises(PreconditionError, match="shape"):
            span_char_context(bad, alpha, basis)
        with pytest.raises(PreconditionError, match="shape"):
            span_char_context(alpha, bad, basis)


def test_dense_entry_rejects_off_span_asymmetric_and_wide_windows():
    n = 32
    basis = build_basis(n, 0, 1)
    eye = np.eye(n)
    # a band of half-width 2, a half-width 1 band that is not I and J, and
    # an asymmetric matrix, each as either covariance
    wide = eye + 0.1 * (np.eye(n, k=2) + np.eye(n, k=-2))
    ramp = eye + np.diag(np.linspace(0.0, 0.5, n))
    skew = eye + 0.01 * np.eye(n, k=1)
    for bad, match in ((wide, "outside half-width 1"), (ramp, "not in the span"), (skew, "not symmetric")):
        with pytest.raises(PreconditionError, match=match):
            build_char_context(bad, eye, basis)
        with pytest.raises(PreconditionError, match=match):
            build_char_context(eye, bad, basis)
    with pytest.raises(PreconditionError, match="basis dimension"):
        build_char_context(np.eye(n + 1), eye, basis)
    # windows with K > 2, on covariances in their span
    for window in ((1, 0), (0, 2), (1, 5)):
        with pytest.raises(PreconditionError, match="k1 = 0 and k2 <= 1"):
            build_char_context(eye, eye, build_basis(n, *window))


@pytest.mark.parametrize("same", [False, True])
def test_char_context_matches_separate_decompositions(same):
    # oracle: a square root and an inverse of each covariance, and eigvalsh norms
    state = _state(32, 0, 1)
    c_theta = state.c_mat if same else state.c_theta
    ctx = build_char_context(c_theta, state.c_mat, state.basis)
    dense = _dense_oracle(c_theta, state.c_mat, state.basis)
    spectra = np.stack([np.linalg.eigvalsh(a) for a in dense.a_stack])
    np.testing.assert_allclose(np.sort(ctx.joint, axis=1), spectra, rtol=0, atol=1e-12 * np.max(np.abs(spectra)))
    assert ctx.mu == pytest.approx(dense.mu, rel=1e-12)


def _psi_per_direction(ctx, w):
    """psi* at each frequency of a (..., K) array, from the pencil spectrum
    of its own direction and a complex log."""
    v = w @ ctx.gamma_inv_sqrt.T
    lam = np.array([ctx.pencil_eigs(x) for x in v.reshape(-1, ctx.K)]).reshape(v.shape[:-1] + (-1,))
    return np.exp(-0.5 * np.sum(np.log(1.0 - 2j * lam), axis=-1) - 1j * (v @ ctx.d_vec))


@pytest.mark.parametrize("dense", [False, True], ids=["joint", "dense"])
def test_lattice_psi_k1_matches_per_direction_oracle(dense, monkeypatch):
    # the K = 1 half from the joint row of the state's context, built from
    # its span coefficients or its dense covariances, with no pencil solve,
    # against a complex log per radius, on both halves of the lattice
    state = _state(64, 0, 0)
    ctx = build_char_context(state.c_theta, state.c_mat, state.basis) if dense else context_from_state(state)
    solves = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(1) or eigvalsh(a))
    dw, M = 0.3, 70
    got = _lattice_psi(ctx, None, dw, M)
    assert solves == []
    want = _psi_per_direction(ctx, dw * np.arange(-M, M + 1)[:, None])
    assert got.shape == (2 * M + 1,) and got[M] == 1.0
    assert np.max(np.abs(got - want)) <= 1e-13
    assert np.max(np.abs(got - _lattice_psi(ctx, lambda w: _psi_per_direction(ctx, w), dw, M))) <= 1e-13


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_tv_oracle_k1_exact_chi_square_law(n):
    # the identity window's law is the standardized chi-square(n): against
    # its closed-form density on the oracle's grid
    want = _tv_on_grid(_chi_square_density(n, K1_GRID))
    assert abs(tv_oracle(_identity_context(n, 0)) - want) <= 3e-9


# tv_oracle(tvk2_ctx) of the lattice oracle; test_tv_oracle_exact_chi_square_law
# is the evidence for its accuracy (within 1e-9 of a closed-form law)
TVK2_REFERENCE = 0.030873272859508957
# its tracemalloc peak over tv_oracle(tvk2_ctx) (numpy 2.4.6, scipy 1.17.1):
# 5,149,812 bytes in 18 runs of this test alone, by hash seed, and 5,149,928
# within this module; pinned at the largest, so no seed fails
TVK2_REFERENCE_PEAK = 5_149_928


def test_tv_oracle_k2_matches_reference(tvk2_ctx):
    assert abs(tv_oracle(tvk2_ctx) - TVK2_REFERENCE) <= 1e-10 * TVK2_REFERENCE


def test_tv_oracle_k2_memory_peak(tvk2_ctx, traced_peak):
    assert tvk2_ctx.joint is not None
    assert traced_peak(lambda: tv_oracle(tvk2_ctx)) <= TVK2_REFERENCE_PEAK


# the K = 2 oracle's default x grid, and a K = 2 context with mu >= 1/sqrt(120)
K2_GRID = np.arange(-8.0, 8.0 + 0.02, 0.04)
CTX2 = _identity_context(N, 1)


def _tv_on_grid(dens):
    """(1/2) sum |dens - phi_K| dx^K on the oracle's default grid, K = dens.ndim."""
    if dens.ndim == 1:
        ref, dx = np.exp(-(K1_GRID**2) / 2.0) / np.sqrt(2.0 * np.pi), 0.002
    else:
        ref, dx = np.exp(-np.add.outer(K2_GRID**2, K2_GRID**2) / 2.0) / (2.0 * np.pi), 0.04
    return 0.5 * np.sum(np.abs(dens - ref)) * dx**dens.ndim


def _chi_square_pair_cf(dof):
    """(..., 2) frequencies -> CF of two independent standardized chi-square(dof)."""
    a = 1.0 / math.sqrt(2.0 * dof)

    def cf(w):
        return np.exp(np.sum(-1j * dof * a * w - 0.5 * dof * np.log(1.0 - 2j * a * w), axis=-1))

    return cf


def _chi_square_density(dof, y):
    """Density of (chi-square(dof) - dof) / sqrt(2 dof) at y, in closed form."""
    scale = math.sqrt(2.0 * dof)
    x = dof + scale * y
    pos = x > 0.0
    log_f = (dof / 2.0 - 1.0) * np.log(x[pos]) - x[pos] / 2.0
    out = np.zeros_like(y)
    out[pos] = scale * np.exp(log_f - dof / 2.0 * math.log(2.0) - math.lgamma(dof / 2.0))
    return out


def test_tv_oracle_exact_chi_square_law():
    # lam_j = 1/sqrt(120) <= mu: the law the lattice step's aliasing bound covers
    assert 1.0 / math.sqrt(120.0) <= CTX2.mu
    marginal = _chi_square_density(60, K2_GRID)
    want = _tv_on_grid(np.outer(marginal, marginal))
    assert want > 0.05
    assert abs(tv_oracle(CTX2, cf_override=_chi_square_pair_cf(60)) - want) <= 1e-9


def test_tv_oracle_k2_gaussian_override_null_is_exact():
    assert tv_oracle(CTX2, cf_override=_gaussian_cf) <= 1e-12


@pytest.mark.parametrize("K", [1, 2])
def test_tv_oracle_converged_in_step_and_box(K, tvk2_ctx):
    # the tvdecay --n 512 context of the window (0, K - 1)
    ctx = _tv_decay_context(512, 0) if K == 1 else tvk2_ctx
    grid, x_max = (K1_GRID, 20.0) if K == 1 else (K2_GRID, 8.0)
    tv, info = tv_oracle(ctx, details=True)
    T, dw = info["truncation"], _lattice_step(x_max, ctx.mu)
    assert _tv_on_grid(_lattice_density(ctx, None, T, dw, grid)) == tv
    assert abs(_tv_on_grid(_lattice_density(ctx, None, T, dw / 2.0, grid)) - tv) <= 1e-12
    assert abs(_tv_on_grid(_lattice_density(ctx, None, 1.5 * T, dw, grid)) - tv) <= 1e-9


def test_lattice_psi_joint_rows_match_per_ray_oracle():
    # the joint rows against a complex log at each frequency, through a
    # cf_override (the upper half) and directly on the whole lattice
    ctx = _tv_decay_context(64, 1)
    dw, M = 0.3, 12
    got = _lattice_psi(ctx, None, dw, M)
    w = dw * np.arange(-M, M + 1)
    direct = _psi_per_direction(ctx, np.stack(np.meshgrid(w, w, indexing="ij"), axis=-1))
    assert np.max(np.abs(got - direct)) <= 1e-13
    want = _lattice_psi(ctx, lambda w: _psi_per_direction(ctx, w), dw, M)
    assert np.max(np.abs(got - want)) <= 1e-13
    assert got[M, M] == 1.0


def test_lattice_density_matches_direct_sum(tvk2_ctx):
    # (dw / 2 pi)^2 Re sum_{a, b} psi*(dw (a, b)) exp(-i dw (a x_1 + b x_2)) at a few points
    dw, T = 0.3, 9.0
    M = math.ceil(T / dw)
    psi = _lattice_psi(tvk2_ctx, None, dw, M)
    grid = np.array([-7.5, -1.0, 0.0, 0.35, 4.0])
    got = _lattice_density(tvk2_ctx, None, T, dw, grid)
    w = dw * np.arange(-M, M + 1)
    for i, x1 in enumerate(grid):
        for j, x2 in enumerate(grid):
            kernel = np.exp(-1j * np.add.outer(w * x1, w * x2))
            want = (dw / (2.0 * math.pi)) ** 2 * np.sum(psi * kernel).real
            assert abs(got[i, j] - want) <= 1e-15


def test_tv_oracle_k2_solves_no_pencil_and_inverts_no_slice(tvk2_ctx, monkeypatch):
    calls = []

    def counted(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(cltcheck, "invert_cf_1d", counted("invert_cf_1d", invert_cf_1d))
    # the counters count: K = 1 inverts one slice
    tv_oracle(CTX)
    assert calls == ["invert_cf_1d"]
    calls.clear()
    tv_oracle(tvk2_ctx)
    assert calls == []


def test_tv_oracle_k2_rejects_lattice_above_cap(traced_peak):
    # mu^{-2} = 16.4, just above 8K: the majorant's tail falls like T^{-2.2},
    # so its T is in the ten thousands and M far past the cap, for the
    # context and for any cf_override (which gets the same T); the same
    # holds at K = 1 for the chi-square(6) law (mu^{-2} = 12, T = 29,927)
    narrow, k1 = _identity_context(25, 1), _identity_context(6, 0)
    assert 16.0 < narrow.mu ** -2.0 < 17.0

    def never(w):
        raise AssertionError("the lattice was evaluated")

    # each refused before the lattice is allocated; the last at half-width
    # 2049, one past the cap
    def refuse_all():
        cases = ((narrow, None), (narrow, never), (k1, None), (k1, never))
        for ctx, override in cases:
            with pytest.raises(RangeError, match="lattice half-width"):
                tv_oracle(ctx, cf_override=override)
        with pytest.raises(RangeError, match="lattice half-width 2049 "):
            _lattice_density(CTX2, never, 2048.5 * 0.25, 0.25, K2_GRID)
        with pytest.raises(RangeError, match="lattice half-width 16385 "):
            _lattice_density(CTX, never, 16384.5 * 0.25, 0.25, K1_GRID)

    assert traced_peak(refuse_all) < 100_000
    # chi-square(8) is inside the K = 1 cap, at M = 8416, and keeps its value
    eight = _identity_context(8, 0)
    tv, info = tv_oracle(eight, details=True)
    assert math.ceil(info["truncation"] / _lattice_step(20.0, eight.mu)) == 8416
    assert abs(tv - 0.13436587126956) <= 1e-9


BAD_ORACLE_ARGUMENTS = {
    "dx=0": lambda ctx: tv_oracle(ctx, dx=0.0),
    "dx=-0.04": lambda ctx: tv_oracle(ctx, dx=-0.04),
    "x_max=nan": lambda ctx: tv_oracle(ctx, x_max=math.nan),
    "x_max=-1": lambda ctx: tv_oracle(ctx, x_max=-1.0),
    "x_max=inf": lambda ctx: tv_oracle(ctx, x_max=math.inf),
    "tol_tail=0": lambda ctx: tv_oracle(ctx, tol_tail=0.0),
    "tol_tail=-1e-8": lambda ctx: tv_oracle(ctx, tol_tail=-1e-8),
    "tol_tail=nan": lambda ctx: tv_oracle(ctx, tol_tail=math.nan),
    # only the tail check takes directions; a numpy zero passes the
    # integer-type check and must still fail the range check
    "n_angles=0": lambda ctx: fourier_tail_integral(5.0, ctx, n_angles=np.int64(0)),
    "tail n_angles=0": lambda ctx: fourier_tail_integral(5.0, ctx, n_angles=0),
    "n_angles=2.5": lambda ctx: fourier_tail_integral(5.0, ctx, n_angles=2.5),
}


@pytest.mark.parametrize("K", [1, 2])
@pytest.mark.parametrize("case", sorted(BAD_ORACLE_ARGUMENTS))
def test_bad_oracle_arguments_raise_precondition_error(K, case):
    with pytest.raises(PreconditionError):
        BAD_ORACLE_ARGUMENTS[case](CTX if K == 1 else CTX2)


# ---------------------------------------------------------------------------
# the psi* majorant behind fourier_tail_bound and the truncation


def _majorant(r, mu):
    """m(r) = (1 + 4 r^2 mu^2)^{-1/(8 mu^2)}."""
    return (1.0 + 4.0 * r * r * mu * mu) ** (-1.0 / (8.0 * mu * mu))


def _shift_band(n, diag, off):
    """diag I + off J in lower band storage."""
    return np.array([np.full(n, diag), np.r_[np.full(n - 1, off), 0.0]])


def _assert_majorant_dominates(ctx, angle, radii):
    # the tail's constant mu_tail (the joint spectrum's column norms) is at
    # most mu, so its majorant is the tighter one
    u = np.array([1.0]) if ctx.K == 1 else np.array([math.cos(angle), math.sin(angle)])
    got = RadialProfile(ctx, u).abs_psi(radii)
    assert ctx.mu_tail <= ctx.mu
    assert np.all(got <= _majorant(radii, ctx.mu_tail) * (1.0 + 1e-12))


radii_st = st.lists(st.floats(0.0, 60.0), min_size=1, max_size=8).map(np.array)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(16, 300),
    k2=st.integers(0, 1),
    theta=st.tuples(st.floats(0.2, 5.0), st.floats(-0.45, 0.45)),
    cov=st.tuples(st.floats(0.2, 5.0), st.floats(-0.45, 0.45)),
    angle=st.floats(0.0, 2.0 * math.pi),
    radii=radii_st,
)
def test_majorant_dominates_psi_in_span(n, k2, theta, cov, angle, radii):
    # C_theta = a (I + b J) and C = c (I + d J), |b|, |d| < 1/2 (positive definite)
    basis = build_basis(n, 0, k2)
    alpha_theta = basis.project(theta[0] * _shift_band(n, 1.0, theta[1]))
    alpha_c = basis.project(cov[0] * _shift_band(n, 1.0, cov[1]))
    _assert_majorant_dominates(span_char_context(alpha_theta, alpha_c, basis), angle, radii)


@pytest.mark.parametrize("n", [16, 64, 1024])
def test_majorant_is_exact_for_in_span_chi_square(n):
    # every |lam_j| = mu: |psi*| = m, to 1e-13 relative where m >= 1e-10 (the
    # radii a 1e-8 truncation reaches)
    basis = build_basis(n, 0, 0)
    alpha = basis.project(_shift_band(n, 2.5, 0.0))
    ctx = span_char_context(alpha, 0.7 * alpha, basis)
    r = np.linspace(0.0, 40.0, 4001)
    want = _majorant(r, ctx.mu)
    r, want = r[want >= 1e-10], want[want >= 1e-10]
    got = RadialProfile(ctx, np.array([1.0])).abs_psi(r)
    assert np.max(np.abs(got / want - 1.0)) <= 1e-13


def test_tail_bound_is_the_majorant_tail():
    # against a quad of |S^{K-1}| int_R^inf m(r) r^{K-1} dr at mu_tail, with
    # the 1e-10 allowance
    for ctx in (CTX, CTX2, _tv_decay_context(512, 1)):
        sphere = 2.0 if ctx.K == 1 else 2.0 * math.pi
        for R in (2.0, 6.0, 13.5):
            want, _ = quad(
                lambda r: _majorant(r, ctx.mu_tail) * r ** (ctx.K - 1),
                R, np.inf, epsabs=0.0, epsrel=1e-13, limit=500,
            )
            got = fourier_tail_bound(R, ctx)
            assert abs(got / (1.0 + 1e-10) - sphere * want) <= 1e-11 * sphere * want


def test_edgeworth_tv_k2_matches_k1_closed_form_on_a_rank_one_tensor():
    # kappa = a u (x) u (x) u gives sum kappa He = a He_3(u . x): the K = 2 sum
    # on the oracle grid meets the K = 1 closed form, for any unit u
    lam = np.linspace(-0.02, 0.05, 64)
    for angle in (0.0, 0.4, 2.0):
        u = np.array([math.cos(angle), math.sin(angle)])
        ctx2 = cltcheck.CharFnContext(
            n=64, d_vec=np.zeros(2), gamma_theta=np.eye(2), gamma_inv_sqrt=np.eye(2),
            mu=0.1, joint=np.outer(u, lam),
        )
        ctx1 = cltcheck.CharFnContext(
            n=64, d_vec=np.zeros(1), gamma_theta=np.eye(1), gamma_inv_sqrt=np.eye(1),
            mu=0.1, joint=lam[None],
        )
        assert edgeworth_tv(ctx2) == pytest.approx(edgeworth_tv(ctx1), rel=1e-3)


def _edgeworth_tv_einsum(ctx):
    """Reference: the Hermite sum on the full 2-d grid by einsum."""
    kappa = moment_diagnostics(ctx)["third_cumulant"]
    grid = np.arange(-8.0, 8.0 + 0.02, 0.04)
    x = np.stack(np.meshgrid(grid, grid, indexing="ij"))
    poly = np.einsum("abc,aij,bij,cij->ij", kappa, x, x, x)
    poly -= 3.0 * np.einsum("aac,cij->ij", kappa, x)
    phi = np.exp(-np.add.outer(grid**2, grid**2) / 2.0) / (2.0 * np.pi)
    return float(np.sum(phi * np.abs(poly)) * 0.04 * 0.04 / 12.0)


def test_edgeworth_tv_k2_matches_einsum_oracle(tvk2_ctx):
    # the separable sum of 1-d powers against the four-operand einsum, on the
    # tvdecay contexts and a random joint spectrum
    joint = make_rng(5, stream=62).standard_normal((2, 40))
    rand = cltcheck.CharFnContext(
        n=40, d_vec=np.zeros(2), gamma_theta=np.eye(2), gamma_inv_sqrt=np.eye(2),
        mu=1.0, joint=joint / math.sqrt(40.0),
    )
    for ctx in (tvk2_ctx, _tv_decay_context(64, 1), rand):
        want = _edgeworth_tv_einsum(ctx)
        assert abs(edgeworth_tv(ctx) - want) <= 1e-13 * want


def _truncation_quad(modulus, tol_tail=1e-8):
    """The scalar ladder search: quad out to infinity at each T in turn."""
    T = 4.0
    for _ in range(40):
        tail, _ = quad(lambda r: float(modulus(np.array([r]))[0]), T, np.inf, limit=200)
        if tail <= tol_tail:
            return T
        T *= 1.5
    raise RangeError("no usable T")


def _profile_moduli(ctx, dirs):
    profiles = [RadialProfile(ctx, u) for u in dirs]
    if ctx.K == 1:
        return [profile.abs_psi for profile in profiles]
    return [lambda r, p=profile: p.abs_psi(r) * r for profile in profiles]


def _gaussian_moduli(K, count):
    return [lambda r: np.exp(-0.5 * r**2) * r ** (K - 1)] * count


# (moduli, context or None)
TRUNCATION_CASES = {
    "chi-square-64": lambda: (_profile_moduli(CTX, [np.array([1.0])]), CTX),
    "tv-decay-k1-256": lambda: (
        _profile_moduli(_tv_decay_context(256, 0), [np.array([1.0])]),
        _tv_decay_context(256, 0),
    ),
    "gaussian-null-k1": lambda: (_gaussian_moduli(1, 1), None),
    "gaussian-null-k2": lambda: (_gaussian_moduli(2, 180), None),
    # slow power-law decay reaches deep into the ladder (below p = 4 quad
    # itself reports the tail as slowly convergent and is not an oracle)
    "power-law": lambda: (
        [lambda r, p=p: (1.0 + r * r / 8.0) ** (-p / 2.0) for p in (4.5, 6.0, 9.0)],
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(TRUNCATION_CASES))
def test_batched_truncation_matches_quad(case):
    # the first ladder radius where the Gauss-Legendre ladder of the tail
    # check falls below 1e-8, against a scalar quad search per direction
    moduli, ctx = TRUNCATION_CASES[case]()
    tails = _ladder_tails(lambda r: np.stack([m(r) for m in moduli]), 40)
    assert np.all((tails <= 1e-8).any(axis=1))
    numeric = [_truncation_quad(m) for m in moduli]
    assert list(4.0 * 1.5 ** np.argmax(tails <= 1e-8, axis=1)) == numeric
    if ctx is not None:
        # the majorant's T is never below the T that |psi*| itself needs, and
        # equals it for an in-span K = 1 law, where |psi*| is the majorant
        assert _truncation(ctx, 1e-8) >= max(numeric)
        assert ctx.K == 2 or _truncation(ctx, 1e-8) == numeric[0]


@pytest.mark.parametrize("n, want", [(64, 45.5625), (128, 13.5), (256, 9.0), (512, 9.0)])
def test_tv_decay_k2_truncation_from_the_column_norm_majorant(n, want):
    # mu_tail = max_j |Lambda_{:,j}|_2 is the largest |eigenvalue| over all
    # directions (met along Lambda_{:,j} itself), below mu at K = 2; its T is
    # never below the T of a ladder search over 180 directions of |psi*|
    ctx = _tv_decay_context(n, 1)
    lam = ctx.gamma_inv_sqrt @ ctx.joint
    u = lam[:, np.argmax(np.linalg.norm(lam, axis=0))]
    u /= np.linalg.norm(u)
    eigs = ctx.pencil_eigs(ctx.gamma_inv_sqrt @ u)
    assert np.max(np.abs(eigs)) == pytest.approx(ctx.mu_tail, rel=1e-12)
    assert ctx.mu_tail < 0.9 * ctx.mu
    moduli = _profile_moduli(ctx, _angles(180))
    tails = _ladder_tails(lambda r: np.stack([m(r) for m in moduli]), 40)
    assert _truncation(ctx, 1e-8) == want >= np.max(4.0 * 1.5 ** np.argmax(tails <= 1e-8, axis=1))


def test_batched_truncation_matches_quad_tv_decay_k2(tvk2_ctx):
    # the majorant picks the T of a numeric search over 180 directions
    moduli = _profile_moduli(tvk2_ctx, _angles(180))
    assert _truncation(tvk2_ctx, 1e-8) == max(_truncation_quad(m) for m in moduli) == 9.0


def test_ladder_tails_match_quad():
    powers = (4.5, 9.0)
    moduli = lambda r: np.stack([(1.0 + r * r / 8.0) ** (-p / 2.0) for p in powers])
    # the default start (the truncation search) and the tail check's start R
    for start, tails in ((4.0, _ladder_tails(moduli, 4)), (7.5, _ladder_tails(moduli, 4, start=7.5))):
        for row, p in zip(tails, powers):
            for j in range(4):
                want, _ = quad(
                    lambda r: (1.0 + r * r / 8.0) ** (-p / 2.0),
                    start * 1.5**j, np.inf, epsabs=0.0, epsrel=1e-13, limit=500,
                )
                assert abs(row[j] - want) <= 1e-10 * want


def test_batched_truncation_rejects_slow_tail():
    # mu^{-2} = 7.9 <= 4K: the majorant is not integrable; mu^{-2} = 8.5: its
    # tail at the last ladder radius 4 * 1.5^39 is still 13
    for n in (12, 13):
        ctx = _identity_context(n, 1)
        assert 7.0 < ctx.mu ** -2.0 < 9.0
        with pytest.raises(RangeError, match="no usable T"):
            _truncation(ctx, 1e-8)
