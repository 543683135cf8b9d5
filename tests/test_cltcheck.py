import cmath
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from lsequiv._linalg import spectral_norm, sym_inv, sym_sqrt
from lsequiv.basis_cov import build_basis, build_theta
from lsequiv.cltcheck import (
    _choose_truncation,
    _k2_density,
    _ladder_tails,
    _orbits,
    _psi_star_stack,
    _series_terms,
    _spline_table,
    RadialProfile,
    build_char_context,
    char_fn,
    char_fn_modulus,
    char_fn_standardized,
    context_from_state,
    edgeworth_build,
    edgeworth_radius,
    fourier_tail_bound,
    fourier_tail_integral,
    invert_cf_1d,
    moment_diagnostics,
    remainder_bound,
    standardized_exp_series,
    standardized_log_characteristic,
    tv_against_gaussian_1d,
    tv_oracle,
)
from lsequiv.errors import PreconditionError, RangeError, TermBudgetError
from lsequiv.gaussianize import ExperimentState, LocalizationConfig
from lsequiv.harness import RunConfig, config_density
from lsequiv.rng import make_rng
from lsequiv.spectral import default_grid, random_density

N = 64
CTX = build_char_context(np.eye(N), np.eye(N), build_basis(N, 0, 0))


def test_mu_scale_invariant():
    # for the identity window both unit and 2 pi scalings give mu = 1/sqrt(2n)
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
    assert abs(prof.psi_star(r) - char_fn_standardized(r * u, CTX)) <= 1e-13
    assert abs(prof.abs_psi(r) - abs(char_fn_standardized(r * u, CTX))) <= 1e-13
    assert char_fn_modulus(r * u, CTX) == pytest.approx(abs(char_fn(r * u, CTX)), abs=1e-14)


def test_moment_diagnostics_identity_window():
    md = moment_diagnostics(CTX)
    assert md["mu"] == pytest.approx(CTX.mu, rel=0)
    # third cumulant of the standardized chi-square is sqrt(8/n)
    assert md["max_abs_third_cumulant"] == pytest.approx(math.sqrt(8.0 / N), rel=1e-10)


def test_third_order_coefficient_exact():
    exp = edgeworth_build(CTX, 4, seed=0)
    assert sorted(exp.nu) == [(3,), (4,)]
    kappa3 = 8.0 * N / (2.0 * N) ** 1.5
    assert exp.nu[(3,)] == pytest.approx(-1j * kappa3 / 6.0, abs=1e-12)


COEFF_CASES = [(256, (0, 0), 8), (1024, (0, 0), 8), (256, (0, 1), 5)]


@pytest.mark.parametrize("n,window,q", COEFF_CASES)
def test_coefficient_bounds_hold(n, window, q):
    ctx = build_char_context(np.eye(n), np.eye(n), build_basis(n, *window))
    exp = edgeworth_build(ctx, q, seed=0)
    for m, coef in exp.nu.items():
        assert abs(coef) <= exp.coefficient_bound(m)


def test_validity_radius_matches_rate():
    exp = edgeworth_build(CTX, 4, seed=0)
    assert exp.validity_radius == pytest.approx(edgeworth_radius(4, 1, CTX.mu), rel=0)


def test_remainder_within_bound_inside_region():
    exp = edgeworth_build(CTX, 4, seed=0)
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
    exp = edgeworth_build(CTX, 4, seed=0)
    with pytest.raises(RangeError):
        remainder_bound(np.array([1.0001 * exp.validity_radius]), exp)


def test_edgeworth_guards():
    with pytest.raises(PreconditionError):
        edgeworth_build(CTX, 1)
    wide = build_char_context(np.eye(64), np.eye(64), build_basis(64, 1, 5))
    with pytest.raises(TermBudgetError):
        edgeworth_build(wide, 8)


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


def test_tv_oracle_gaussian_override_null():
    ctx2 = build_char_context(np.eye(N), np.eye(N), build_basis(N, 0, 1))
    tv = tv_oracle(ctx2, cf_override=lambda r, u: np.exp(-0.5 * r**2))
    assert tv <= 1e-6


def test_tv_oracle_guards():
    small = build_char_context(np.eye(8), np.eye(8), build_basis(8, 0, 1))
    with pytest.raises(RangeError):
        tv_oracle(small)
    three = build_char_context(np.eye(N), np.eye(N), build_basis(N, 1, 0))
    with pytest.raises(PreconditionError):
        tv_oracle(three)


def test_tv_against_shifted_gaussian_closed_form():
    # TV(N(0,1), N(1,1)) = 2 Phi(1/2) - 1
    psi = lambda t: np.exp(1j * t - 0.5 * t**2)
    tv = tv_against_gaussian_1d(psi, 40.0)
    assert tv == pytest.approx(0.3829249225480262, abs=1e-6)


def test_invert_cf_recovers_normal_density():
    xs = np.array([0.0, 1.0])
    dens = invert_cf_1d(lambda u: np.exp(-0.5 * u * u), 30.0, xs)
    expected = np.exp(-0.5 * xs**2) / math.sqrt(2.0 * math.pi)
    np.testing.assert_allclose(dens, expected, atol=1e-12)


def _invert_cf_direct(psi, T, x):
    """Reference: the O(N_x N_t) Fourier sum with the same Simpson weights."""
    steps = max(2 * int(np.ceil(T / 0.02)), 64)
    tgrid = np.linspace(0.0, T, steps + 1)
    w = np.ones(steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (T / steps) / 3.0
    weighted = np.asarray(psi(tgrid), dtype=complex) * w
    out = np.empty_like(x)
    for lo in range(0, len(x), 1000):
        kernel = np.exp(-1j * np.multiply.outer(x[lo : lo + 1000], tgrid))
        out[lo : lo + 1000] = (kernel @ weighted).real / np.pi
    return out


def test_invert_cf_chirp_z_matches_direct_sum_k1_grid():
    xs = np.arange(-20.0, 20.0 + 0.001, 0.002)
    assert len(xs) == 20001
    psi = RadialProfile(CTX, np.array([1.0])).psi_star
    gap = np.max(np.abs(invert_cf_1d(psi, 9.0, xs) - _invert_cf_direct(psi, 9.0, xs)))
    assert gap <= 1e-10


def test_invert_cf_chirp_z_matches_direct_sum_k2_slice_grid():
    # the filtered-slice grid of the K = 2 oracle at x_max = 8, dx = 0.04
    smax = 8.0 * math.sqrt(2.0) + 1.0
    sgrid = np.arange(-smax, smax + 0.01, 0.02)
    assert len(sgrid) == 1232
    ctx2 = build_char_context(np.eye(N), np.eye(N), build_basis(N, 0, 1))
    profile = RadialProfile(ctx2, np.array([math.cos(0.7), math.sin(0.7)]))
    psi = lambda r: profile.psi_star(r) * r
    gap = np.max(np.abs(invert_cf_1d(psi, 12.0, sgrid) - _invert_cf_direct(psi, 12.0, sgrid)))
    assert gap <= 1e-10


def test_invert_cf_grid_guards():
    psi = lambda u: np.exp(-0.5 * u * u)
    one = invert_cf_1d(psi, 30.0, np.array([0.5]))
    np.testing.assert_allclose(one, _invert_cf_direct(psi, 30.0, np.array([0.5])), atol=1e-12)
    with pytest.raises(PreconditionError):
        invert_cf_1d(psi, 30.0, np.array([0.0, 1.0, 3.0]))
    with pytest.raises(PreconditionError):
        invert_cf_1d(psi, 30.0, np.array([0.0, np.nan]))


def test_context_from_state_matches_direct_build():
    n = 32
    basis = build_basis(n, 1, 1)
    theta = build_theta(random_density(1, 1, make_rng(2, stream=30)), n)
    state = ExperimentState.build(
        basis, LocalizationConfig(beta=1.0, gamma=3.0), theta=theta, rng=make_rng(0, stream=41)
    )
    ctx = context_from_state(state)
    direct = build_char_context(state.c_theta, state.c_mat, basis)
    assert ctx.mu == pytest.approx(direct.mu, rel=0)
    np.testing.assert_allclose(ctx.d_vec, direct.d_vec, atol=0)


# ---------------------------------------------------------------------------
# shared pencil spectrum, real-arithmetic psi and batched truncation, each
# against the per-direction computation it replaced


def _tv_decay_context(n, k2):
    """The context run_tv_decay builds: C = C_theta in the window (0, k2)."""
    basis = build_basis(n, 0, k2)
    f = config_density(RunConfig(n_grid=(n,), k1=0, k2=k2), k1=0, k2=k2)
    c_mat = basis.combine(basis.project(build_theta(f, n, default_grid()).band))
    return build_char_context(c_mat, c_mat, basis)


def _state(n, k1, k2):
    """A localization state, where C_theta and C differ."""
    basis = build_basis(n, k1, k2)
    theta = build_theta(random_density(k1, k2, make_rng(2, stream=30)), n)
    state = ExperimentState.build(
        basis, LocalizationConfig(beta=1.0, gamma=3.0), theta=theta, rng=make_rng(0, stream=41)
    )
    assert not np.array_equal(state.c_theta, state.c_mat)
    return state


def _off_span_context(n=48):
    """K = 2 context whose C_theta is a random SPD matrix outside the span."""
    g = make_rng(7, stream=60).standard_normal((n, n)) / math.sqrt(n)
    return build_char_context(np.eye(n) + 0.1 * (g + g.T), np.eye(n), build_basis(n, 0, 1))


def _angles(count):
    phis = (np.arange(count) + 0.5) * np.pi / count
    return np.array([[math.cos(phi), math.sin(phi)] for phi in phis])


@pytest.fixture(scope="module")
def tvk2_ctx():
    # the tvdecay --n 512 context of the K = 2 window (0, 1)
    return _tv_decay_context(512, 1)


def _assert_joint_matches_eigvalsh(ctx, dirs):
    assert ctx.joint is not None
    for u in dirs:
        v = ctx.gamma_inv_sqrt @ u
        want = np.linalg.eigvalsh(ctx.pencil(v))
        assert np.max(np.abs(ctx.pencil_eigs(v) - want)) <= 1e-12 * np.max(np.abs(want))


def test_joint_spectrum_matches_eigvalsh_tv_decay_k2(tvk2_ctx):
    _assert_joint_matches_eigvalsh(tvk2_ctx, _angles(180))


@pytest.mark.parametrize("k2,dirs", [(1, _angles(24)), (0, np.array([[1.0], [-1.0], [0.37]]))])
def test_joint_spectrum_matches_eigvalsh_state_context(k2, dirs):
    _assert_joint_matches_eigvalsh(context_from_state(_state(64, 0, k2)), dirs)


@pytest.mark.parametrize("same", [False, True])
def test_char_context_matches_separate_decompositions(same):
    # oracle: a square root and an inverse of each covariance, and eigvalsh norms
    state = _state(32, 1, 1)
    c_theta = state.c_mat if same else state.c_theta
    ctx = build_char_context(c_theta, state.c_mat, state.basis)
    half = sym_inv(state.c_mat) @ sym_sqrt(c_theta)
    a_stack = np.matmul(half.T, np.matmul(state.basis.mats, half))
    a_stack = 0.5 * (a_stack + np.transpose(a_stack, (0, 2, 1)))
    np.testing.assert_allclose(ctx.a_stack, a_stack, rtol=0, atol=1e-12 * np.max(np.abs(a_stack)))
    mu = (
        spectral_norm(c_theta)
        * spectral_norm(sym_inv(state.c_mat)) ** 2
        * spectral_norm(ctx.gamma_inv_sqrt)
        * math.sqrt(np.sum(state.basis.spectral_norms() ** 2))
    )
    assert ctx.mu == pytest.approx(mu, rel=1e-12)


def _psi_per_direction(ctx, r, u):
    """psi* from a fresh eigensolve of the direction's pencil and a complex log."""
    v = ctx.gamma_inv_sqrt @ u
    lam = np.linalg.eigvalsh(ctx.pencil(v))
    z = 1.0 - 2j * np.multiply.outer(r, lam)
    return np.exp(-0.5 * np.sum(np.log(z), axis=-1) - 1j * r * float(v @ ctx.d_vec))


def test_off_span_target_solves_each_direction():
    ctx = _off_span_context()
    assert ctx.joint is None
    v = ctx.gamma_inv_sqrt @ np.array([0.6, -0.8])
    np.testing.assert_array_equal(ctx.pencil_eigs(v), np.linalg.eigvalsh(ctx.pencil(v)))
    tv = tv_oracle(ctx, n_angles=36)
    oracle = tv_oracle(ctx, n_angles=36, cf_override=lambda r, u: _psi_per_direction(ctx, r, u))
    assert abs(tv - oracle) <= 1e-12


def _disc_edges(lam_max, r_max):
    """Edges c_k -+ rho(c_k) of the series discs of _psi_star_stack that start
    below r_max, each centre a root of c - rho(c) = c_prev + rho(c_prev)."""
    rho = lambda c: math.sqrt(1.0 + 4.0 * (c * lam_max) ** 2) / (4.0 * lam_max)
    edges, c = [], 0.0
    while c - rho(c) < r_max:
        edges += [c - rho(c), c + rho(c)]
        e = c + rho(c)
        # 16 lam^2 (c - e)^2 = 1 + 4 c^2 lam^2, the root above e
        quadratic = [12.0 * lam_max**2, -32.0 * lam_max**2 * e, 16.0 * (lam_max * e) ** 2 - 1.0]
        c = max(np.roots(quadratic).real)
        assert abs(c - rho(c) - e) <= 1e-12 * e
    return np.array(edges)


def _assert_stack_matches_complex_log(ctx, dirs):
    profiles = [RadialProfile(ctx, u) for u in dirs]
    eigs = np.stack([profile.eigs for profile in profiles])
    shifts = np.array([profile.shift for profile in profiles])
    # radii on both sides of 2 r max|lam| = 1/2 for every row, and of every
    # disc edge of the stack's series; and their negatives
    seams = 0.25 / np.max(np.abs(eigs), axis=1)
    edges = _disc_edges(np.max(np.abs(eigs)), 60.0)
    assert len(edges) >= 6
    r = np.sort(np.concatenate([
        np.linspace(0.0, 1.5 * np.max(seams), 49), seams * (1.0 - 1e-9), seams * (1.0 + 1e-9)
    ]))
    assert np.all((r < seams[:, None]).any(axis=1) & (r > seams[:, None]).any(axis=1))
    r = np.concatenate([r, edges * (1.0 - 1e-9), edges * (1.0 + 1e-9)])
    r = np.concatenate([r, -r])
    got = _psi_star_stack(eigs, shifts, r)
    assert got.shape == (len(dirs), len(r))
    for row, u in zip(got, dirs):
        assert np.max(np.abs(row - _psi_per_direction(ctx, r, u))) <= 1e-13


def test_psi_star_matches_complex_log(tvk2_ctx):
    r = np.linspace(0.0, 20.0, 2001)
    cases = [(CTX, np.array([1.0])), (tvk2_ctx, _angles(180)[17]), (tvk2_ctx, _angles(180)[161])]
    for ctx, u in cases:
        profile = RadialProfile(ctx, u)
        want = _psi_per_direction(ctx, r, u)
        assert np.max(np.abs(profile.psi_star(r) - want)) <= 1e-13
        assert np.max(np.abs(profile.abs_psi(r) - np.abs(want))) <= 1e-13
    # the stacked kernel the K = 2 oracle calls, on every direction it uses
    _assert_stack_matches_complex_log(tvk2_ctx, _angles(180))
    off_span = _off_span_context()
    assert off_span.joint is None
    _assert_stack_matches_complex_log(off_span, _angles(36))


def test_psi_star_of_zero_spectrum_is_the_shift_phase():
    r = np.linspace(-30.0, 30.0, 61)
    shifts = np.array([0.3, -1.2])
    with np.errstate(all="raise"):
        got = _psi_star_stack(np.zeros((2, 5)), shifts, r)
    np.testing.assert_allclose(got, np.exp(-1j * np.multiply.outer(shifts, r)), rtol=0, atol=1e-15)


def test_series_terms_meet_remainder_bound():
    for n in (1, 48, 512, 2048):
        L = _series_terms(n)
        assert n * 2.0**-L / L <= 1e-16 < n * 2.0 ** -(L - 1) / (L - 1)


def test_psi_star_keeps_radius_shape():
    profile = RadialProfile(CTX, np.array([1.0]))
    r = np.linspace(0.0, 12.0, 12).reshape(3, 4)
    assert profile.psi_star(r).shape == (3, 4)
    assert abs(profile.psi_star(r)[1, 2] - profile.psi_star(r[1, 2])) <= 1e-15


def test_invert_cf_batch_rows_match_single_rows():
    ctx2 = build_char_context(np.eye(N), np.eye(N), build_basis(N, 0, 1))
    profiles = [RadialProfile(ctx2, u) for u in _angles(3)]
    sgrid = np.arange(-12.5, 12.51, 0.02)
    batch = invert_cf_1d(lambda r: np.stack([p.psi_star(r) * r for p in profiles]), 12.0, sgrid)
    assert batch.shape == (3, len(sgrid))
    for row, p in zip(batch, profiles):
        single = invert_cf_1d(lambda r: p.psi_star(r) * r, 12.0, sgrid)
        assert np.max(np.abs(row - single)) <= 1e-15


# tv_oracle(tvk2_ctx) of the per-direction implementation (one CubicSpline
# per direction, log1p/arctan at every radius) that the chunked one replaced
TVK2_REFERENCE = 0.03087332983406386
# its tracemalloc peak over tv_oracle(tvk2_ctx), smallest of three runs
# (numpy 2.4.6, scipy 1.17.1; the largest was 17,150,655 bytes)
TVK2_REFERENCE_PEAK = 17_088_107


def test_tv_oracle_k2_matches_reference(tvk2_ctx):
    assert abs(tv_oracle(tvk2_ctx) - TVK2_REFERENCE) <= 1e-10 * TVK2_REFERENCE


def test_tv_oracle_k2_memory_peak(tvk2_ctx):
    assert tvk2_ctx.joint is not None  # cached before tracing starts
    tracemalloc.start()
    try:
        tv_oracle(tvk2_ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= TVK2_REFERENCE_PEAK


def _density_per_direction(psi_rows, truncations, grid, x_max, dx):
    """The back-projection the orbit one replaced: chunks in direction order,
    and each direction's knot index and fraction from its own projection."""
    n_angles = len(truncations)
    smax = x_max * math.sqrt(2.0) + 1.0
    ds = dx / 2.0
    sgrid = np.arange(-smax, smax + ds / 2, ds)
    scaled = grid / ds
    accum = np.zeros((len(grid), len(grid)))
    for T in np.unique(truncations):
        group = np.flatnonzero(truncations == T)
        for lo in range(0, len(group), 20):
            rows = group[lo : lo + 20]
            filtered = invert_cf_1d(lambda r: psi_rows(rows, r) * r, T, sgrid)
            for u, coef in zip(_angles(n_angles)[rows], _spline_table(filtered)):
                knot_pos = np.add.outer(scaled * u[0] + smax / ds, scaled * u[1])
                knot = knot_pos.astype(np.intp)
                knot_pos -= knot
                val = coef[0][knot]
                for c in coef[1:]:
                    val = val * knot_pos + c[knot]
                accum += val
    return accum * (np.pi / n_angles) / (2.0 * np.pi)


@pytest.mark.parametrize(
    "n_angles,x_max,dx,sizes,split",
    [
        (180, 8.0, 0.04, {4}, False),
        # every third direction at a longer T: orbits split over T groups and chunks
        (180, 8.0, 0.04, {4}, True),
        (18, 8.0, 0.04, {4, 2}, False),  # direction 4 is at pi / 4: its quarter turn is its mirror
        (45, 8.0, 0.04, {2, 1}, False),  # odd: mirror pairs and pi / 2 alone
        (180, 1.0, 0.3, None, False),  # grid [-1, 1.1] is not its own mirror: orbits of one
    ],
)
def test_orbit_back_projection_matches_per_direction(tvk2_ctx, n_angles, x_max, dx, sizes, split):
    profiles = [RadialProfile(tvk2_ctx, u) for u in _angles(n_angles)]
    eigs = np.stack([profile.eigs for profile in profiles])
    shifts = np.array([profile.shift for profile in profiles])
    psi_rows = lambda rows, r: _psi_star_stack(eigs[rows], shifts[rows], r)
    truncations = _choose_truncation(
        lambda r: np.stack([profile.abs_psi(r) for profile in profiles]) * r, 1e-8
    )
    if split:
        truncations[::3] *= 1.5
    grid, dens = _k2_density(psi_rows, truncations, x_max, dx)
    if sizes is None:
        assert grid[0] != -grid[-1]
    else:
        np.testing.assert_array_equal(grid, -grid[::-1])
        base, view = _orbits(n_angles)
        assert set(np.bincount(base)[np.unique(base)]) == sizes
        assert np.all(view[np.unique(base)] == 0)
    want = _density_per_direction(psi_rows, truncations, grid, x_max, dx)
    assert np.max(np.abs(dens - want)) <= 1e-12 * np.max(np.abs(want))


def test_spline_table_matches_cubic_spline():
    rng = make_rng(11)
    ds = 0.02
    sgrid = -3.0 + ds * np.arange(301)
    smooth = np.exp(-0.5 * sgrid**2) * np.cos(3.0 * sgrid)
    rows = np.vstack([rng.standard_normal((3, len(sgrid))), smooth])
    # unit knots: scipy's not-a-knot table in the same units
    for y in (rows, rows[:, :4]):
        want = np.moveaxis(CubicSpline(np.arange(y.shape[1], dtype=float), y, axis=1).c, 2, 0)
        got = _spline_table(y)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # knots ds apart, as in the TV oracle: powers of s - s_i rescaled to the fraction
    want = CubicSpline(sgrid, smooth).c * (ds ** np.arange(3, -1, -1))[:, None]
    got = _spline_table(smooth[None])[0]
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_tv_oracle_k2_rejects_slice_grid_below_four_knots():
    ctx2 = build_char_context(np.eye(N), np.eye(N), build_basis(N, 0, 1))
    gaussian = lambda r, u: np.exp(-0.5 * r**2)
    # slice knot step ds = dx / 2 = 1 over [-smax, smax], smax = 0.1 sqrt(2) + 1: three knots
    with pytest.raises(PreconditionError, match="4 knots"):
        tv_oracle(ctx2, x_max=0.1, dx=2.0, cf_override=gaussian)


def test_tv_oracle_k2_rejects_projections_beyond_slice_grid():
    ctx2 = build_char_context(np.eye(N), np.eye(N), build_basis(N, 0, 1))
    gaussian = lambda r, u: np.exp(-0.5 * r**2)
    # grid [-1, 2]: projections reach 2 sqrt(2) > smax = sqrt(2) + 1
    with pytest.raises(PreconditionError, match="slice grid"):
        tv_oracle(ctx2, x_max=1.0, dx=3.0, cf_override=gaussian)


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


TRUNCATION_CASES = {
    "chi-square-64": lambda: _profile_moduli(CTX, [np.array([1.0])]),
    "tv-decay-k1-256": lambda: _profile_moduli(_tv_decay_context(256, 0), [np.array([1.0])]),
    "gaussian-null-k1": lambda: _gaussian_moduli(1, 1),
    "gaussian-null-k2": lambda: _gaussian_moduli(2, 180),
    "off-span-k2": lambda: _profile_moduli(_off_span_context(), _angles(36)),
    # slow power-law decay reaches deep into the ladder (below p = 4 quad
    # itself reports the tail as slowly convergent and is not an oracle)
    "power-law": lambda: [lambda r, p=p: (1.0 + r * r / 8.0) ** (-p / 2.0) for p in (4.5, 6.0, 9.0)],
}


@pytest.mark.parametrize("case", sorted(TRUNCATION_CASES))
def test_batched_truncation_matches_quad(case):
    moduli = TRUNCATION_CASES[case]()
    batched = _choose_truncation(lambda r: np.stack([m(r) for m in moduli]), 1e-8)
    assert list(batched) == [_truncation_quad(m) for m in moduli]


def test_batched_truncation_matches_quad_tv_decay_k2(tvk2_ctx):
    moduli = _profile_moduli(tvk2_ctx, _angles(180))
    batched = _choose_truncation(lambda r: np.stack([m(r) for m in moduli]), 1e-8)
    assert list(batched) == [_truncation_quad(m) for m in moduli]


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
    with pytest.raises(RangeError):
        _choose_truncation(lambda r: (1.0 + r)[None] ** -1.0, 1e-8)
