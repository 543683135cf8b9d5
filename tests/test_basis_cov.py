import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from lsequiv._linalg import DENSE_N_MAX, band_extremes, band_to_dense, check_symmetric, dense_to_band
from lsequiv.basis_cov import (
    CovarianceMatrix,
    abstract_rho,
    build_basis,
    build_theta,
    build_vartheta,
    class_c1,
    coeff_identity_check,
    density_coefficients,
    diagonal_gram,
    presmoothing_residual,
    theta_lipschitz_check,
    theta_spectral_check,
)
from lsequiv.errors import ConfigurationError, PreconditionError
from lsequiv.rng import make_rng
from lsequiv.spectral import (
    POS,
    BasisIndex,
    SpectralDensity,
    basis_norm,
    default_grid,
    random_density,
    random_transfer,
)

from oracles import dense_mats, dense_mchecks

TWO_PI = 2.0 * math.pi

BASIS = build_basis(32, 1, 1)
DENSITY = random_density(1, 1, make_rng(2, stream=30), s=11.0, L=5.0, rho_star=0.5)
DENSITY_SEEDS = list(range(5))


def test_build_basis_guards():
    with pytest.raises(PreconditionError):
        build_basis(16, 4, 4)
    with pytest.raises(ConfigurationError):
        BASIS.combine(np.zeros(BASIS.K + 1))
    with pytest.raises(ConfigurationError):
        BASIS.quad_form(np.zeros(BASIS.n + 1))


def test_raw_norm_closed_form():
    # squared Frobenius norm of a raw band matrix is 2 pi (n - j2)
    for k, idx in enumerate(BASIS.indices):
        raw = BASIS.raw_norms[k] * BASIS.mat(k)
        assert np.linalg.norm(raw) ** 2 == pytest.approx(TWO_PI * (32 - idx.j2), rel=1e-11)
        assert BASIS.raw_norms[k] == pytest.approx(math.sqrt(TWO_PI * (32 - idx.j2)), rel=1e-12)


def test_normalized_stack_orthonormal():
    flat = dense_mats(BASIS).reshape(BASIS.K, -1)
    np.testing.assert_allclose(flat @ flat.T, np.eye(BASIS.K), atol=1e-12)


def test_quad_form_matches_dense():
    x = make_rng(1, stream=30).standard_normal(32)
    dense = np.array([x @ m @ x for m in dense_mats(BASIS)])
    np.testing.assert_allclose(BASIS.quad_form(x), dense, atol=1e-12)


def test_project_combine_match_dense():
    rng = make_rng(1, stream=31)
    a = rng.standard_normal((32, 32))
    a = a + a.T
    v = BASIS.project(dense_to_band(a, len(a) - 1))
    np.testing.assert_allclose(v, [np.sum(a * m) for m in dense_mats(BASIS)], atol=1e-12)
    np.testing.assert_allclose(
        BASIS.combine(v), np.einsum("k,kij->ij", v, dense_mats(BASIS)), atol=1e-12
    )


def test_spectral_norms_match_dense():
    dense = np.array([np.linalg.norm(m, 2) for m in dense_mats(BASIS)])
    np.testing.assert_allclose(BASIS.spectral_norms(), dense, atol=1e-12)
    # row-sum bound on the raw matrices
    assert BASIS.spectral_norms().max() * BASIS.raw_norms.max() <= 2.0 * math.sqrt(TWO_PI)


def test_theta_constant_density_is_scaled_identity():
    f = SpectralDensity({BasisIndex(POS, 0, 0): 0.7 * math.sqrt(TWO_PI)}, 11.0, 5.0, 0.5)
    theta = build_theta(f, 8)
    assert theta.band.shape == (1, 8)
    np.testing.assert_allclose(band_to_dense(theta.band), TWO_PI * 0.7 * np.eye(8), rtol=1e-15, atol=0)


def test_callable_density_is_rejected():
    # a density is a SpectralDensity and a symbol a TransferFunction; a
    # callable is not integrated by quadrature but raises a typed error
    f = lambda t, x: 0.7 + 0.0 * t * x
    for build in (lambda: build_theta(f, 16), lambda: build_vartheta(f, 16)):
        with pytest.raises(PreconditionError, match="needs a"):
            build()
    with pytest.raises(PreconditionError, match="needs a SpectralDensity"):
        density_coefficients(f, BASIS)
    for values in (f, DENSITY.coeffs, np.ones((4, 4)), np.full((256, 256), "x")):
        with pytest.raises(PreconditionError, match="grid values"):
            default_grid().project(values, BASIS.indices)
    np.testing.assert_array_equal(
        default_grid().project(DENSITY, BASIS.indices), default_grid().project(DENSITY.on_grid(), BASIS.indices)
    )


@pytest.mark.parametrize("seed", DENSITY_SEEDS)
def test_theta_spectral_window(seed):
    f = random_density(2, 2, make_rng(seed, stream=32), s=11.0, L=5.0, rho_star=0.5)
    theta = build_theta(f, 48)
    checks = theta_spectral_check(theta, 0.5)
    assert [c.check_id for c in checks] == ["covariance.eig_lower", "covariance.eig_upper"]
    assert all(c.passed for c in checks)
    lo, hi = band_extremes(theta.band)
    assert lo >= TWO_PI * 0.5 - 0.5
    assert hi <= TWO_PI / 0.5 + 0.5


def test_density_coefficients_match_grid_projection():
    grid = default_grid()
    alpha = density_coefficients(DENSITY, BASIS)
    proj = grid.project(DENSITY.on_grid(), BASIS.indices)
    np.testing.assert_allclose(alpha, proj, atol=1e-12)


def test_coeff_identity_check_passes():
    checks = coeff_identity_check(DENSITY, BASIS)
    assert all(c.passed for c in checks)
    assert checks[0].check_id == "theta.coeff_shortcut"


def test_theta_lipschitz_check_passes():
    g = random_density(1, 1, make_rng(3, stream=30), s=11.0, L=5.0, rho_star=0.5)
    checks = theta_lipschitz_check(DENSITY, g, 32)
    assert [c.check_id for c in checks] == ["theta.lipschitz_sup", "theta.lipschitz_l2"]
    assert all(c.passed for c in checks)


def test_presmoothing_residual_decreases():
    errs = []
    for n in (32, 64, 128):
        basis = build_basis(n, 1, 1)
        rel = presmoothing_residual(build_theta(DENSITY, n), basis)
        assert rel > 0
        errs.append(rel)
    assert errs[0] > errs[1] > errs[2]
    with pytest.raises(ConfigurationError):
        presmoothing_residual(build_theta(DENSITY, 64), build_basis(32, 1, 1))


def test_vartheta_close_to_theta_and_shrinking():
    a = random_transfer(1, 1, make_rng(4, stream=30))
    f = a.to_spectral_density(11.0, 5.0, 0.5)
    gaps = []
    for n in (32, 64, 128):
        vt = band_to_dense(build_vartheta(a, n).band)
        np.testing.assert_allclose(vt, vt.T, atol=0)
        gaps.append(np.linalg.norm(vt - band_to_dense(build_theta(f, n).band), 2))
    assert gaps[0] > gaps[1] > gaps[2]


def _vartheta_loop(a, n):
    """The dense double loop that build_vartheta's band replaced, kept as an
    oracle: entry (s, s + d) sums 2 pi c_m(s/n) c_{m-d}((s+d)/n) over m,
    then the matrix is symmetrized."""
    c = a.components(np.arange(n) / n)
    k2 = c.shape[1] // 2
    out = np.zeros((n, n))
    s = np.arange(n)
    for d in range(-2 * k2, 2 * k2 + 1):
        rows = s[(s + d >= 0) & (s + d < n)]
        for m in range(max(-k2, d - k2), min(k2, d + k2) + 1):
            out[rows, rows + d] += TWO_PI * c[rows, m + k2] * c[rows + d, m - d + k2]
    return 0.5 * (out + out.T)


@pytest.mark.parametrize("n", [32, 128, 512])
def test_vartheta_band_matches_dense_loop(n):
    for k1, k2, seed, stream in [(2, 2, 5, 1), (1, 1, 4, 30), (3, 2, 7, 9), (0, 1, 1, 2)]:
        a = random_transfer(k1, k2, make_rng(seed, stream=stream))
        vt = build_vartheta(a, n)
        assert vt.band.shape == (2 * k2 + 1, n)
        np.testing.assert_allclose(band_to_dense(vt.band), _vartheta_loop(a, n), rtol=0, atol=1e-13)


def test_vartheta_band_past_dense_limit():
    # the symbol's band has half-width 2 k2 at any n; only the dense view is capped
    a = random_transfer(2, 2, make_rng(5, stream=1))
    n = 2 * DENSE_N_MAX
    vt = build_vartheta(a, n)
    assert vt.band.shape == (5, n) and np.all(np.isfinite(vt.band))
    with pytest.raises(PreconditionError, match="dense matrix size"):
        band_to_dense(vt.band)


def test_abstract_rho_band():
    # tighter end of the eigenvalue band [2 pi rho*, 2 pi / rho*], shrunk by 0.9
    assert abstract_rho(0.5) == pytest.approx(0.9 * 0.5 / TWO_PI, rel=1e-12)
    with pytest.raises(ConfigurationError):
        abstract_rho(0.0)


def test_class_c1_monotone_in_l():
    assert class_c1(11.0, 5.0) > class_c1(11.0, 1.0) > 0.0


def _class_c1_dense(s, L, cutoff):
    """Reference: the lattice sum over one full meshgrid of the quarter plane
    [0, cutoff]^2, as class_c1 at (partial sum, partial sum + radial tail)."""
    j = np.arange(0, cutoff + 1, dtype=float)
    jj, kk = np.meshgrid(j, j, indexing="ij")
    w = jj * jj + kk * kk
    w[0, 0] = np.inf
    lattice = float(np.sum(w ** (1.0 - s)))
    tail = (math.pi / 2.0) * cutoff ** (4.0 - 2.0 * s) / (2.0 * s - 4.0)
    scale = 2.0 * math.sqrt(TWO_PI) * math.sqrt(L)
    return scale * math.sqrt(lattice), scale * math.sqrt(lattice + tail)


@pytest.mark.parametrize("s", [2.2, 2.5, 4.0, 11.0])
def test_class_c1_closed_form_matches_dense(s):
    # near s = 2 the sum converges slowly: the closed form lies between the
    # partial sum to 700 and that sum plus its radial tail (4 ulp slack);
    # further out the two agree to 1e-12 relative
    partial, with_tail = _class_c1_dense(s, 5.0, 700)
    got = class_c1(s, 5.0)
    slack = 4.0 * np.finfo(float).eps
    if s < 3.0:
        assert partial * (1.0 - slack) <= got <= with_tail * (1.0 + slack)
    else:
        assert got == pytest.approx(with_tail, rel=1e-12)


@pytest.mark.parametrize("s", [2.2, 2.5, 4.0, 11.0])
def test_class_c1_matches_scipy_zeta(s):
    # the Euler-Maclaurin Hurwitz zeta against scipy.special.zeta in the
    # closed form zeta(sigma) beta(sigma) + zeta(2 sigma), sigma = s - 1
    sigma = s - 1.0
    beta = 4.0**-sigma * (special.zeta(sigma, 0.25) - special.zeta(sigma, 0.75))
    lattice = special.zeta(sigma) * beta + special.zeta(2.0 * sigma)
    want = 2.0 * math.sqrt(TWO_PI) * math.sqrt(5.0) * math.sqrt(lattice)
    assert abs(class_c1(s, 5.0) / want - 1.0) <= 1e-14


def test_class_c1_rejects_s_at_most_two():
    for s in (2.0, 1.5):
        with pytest.raises(ConfigurationError):
            class_c1(s, 5.0)


def test_basis_proximity_small():
    # max_k Frobenius distance between the two normalized families
    assert 0.0 < np.max(BASIS.mcheck_gaps()) < 1.0


def test_covariance_spectral_check_ids():
    # eigenvalues 4 and 5 against [2 pi rho* - 0.5, 2 pi / rho* + 0.5]
    cov = CovarianceMatrix(np.array([[4.0, 5.0]]))
    checks = theta_spectral_check(cov, 0.5)
    assert [c.check_id for c in checks] == ["covariance.eig_lower", "covariance.eig_upper"]
    assert [(c.lhs, c.rhs) for c in checks] == [(TWO_PI * 0.5 - 0.5, 4.0), (5.0, TWO_PI / 0.5 + 0.5)]
    assert all(c.passed for c in checks)
    bad = theta_spectral_check(cov, 0.9)
    assert not bad[0].passed and bad[1].passed


ORACLE_WINDOWS = [(0, 0), (0, 1), (1, 1), (2, 0), (3, 3)]


def _max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("k1,k2", ORACLE_WINDOWS)
def test_trace_gram_matches_dense(k1, k2):
    n = 40
    basis = build_basis(n, k1, k2)
    s = make_rng(k1, stream=32 + k2).standard_normal((n, n))
    s = s + s.T
    # tr(S M_a S M_b) = <P_a, P_b^T> with P_k = S M_k
    p = s @ dense_mats(basis)
    want = 2.0 * p.reshape(basis.K, -1) @ np.transpose(p, (0, 2, 1)).reshape(basis.K, -1).T
    # a full S is read dense; a narrow one, for small K, by band products
    got = basis.trace_gram(dense_to_band(s, n - 1))
    assert _max_rel(got, want) <= 1e-12
    np.testing.assert_array_equal(got, got.T)
    # a narrow band S: only the diagonals within reach are read
    narrow = dense_to_band(s, n - 1)[:3]
    p = band_to_dense(narrow) @ dense_mats(basis)
    want = 2.0 * p.reshape(basis.K, -1) @ np.transpose(p, (0, 2, 1)).reshape(basis.K, -1).T
    assert _max_rel(basis.trace_gram(narrow), want) <= 1e-12


def _symmetric_band(n, width, seed):
    """Lower band storage of a random symmetric matrix of half-width width."""
    ab = make_rng(seed, stream=34).standard_normal((width + 1, n))
    for j in range(1, width + 1):
        ab[j, n - j :] = 0.0
    return ab


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    window=st.sampled_from(ORACLE_WINDOWS + [(1, 2)]),
    n=st.sampled_from([33, 64, 200]),
    width=st.sampled_from([0, 1, 5, 17, -1]),
    seed=st.integers(0, 2**16),
)
def test_trace_gram_matches_dense_formula(window, n, width, seed):
    # Hadamard diagonals of a band S (and the dense branch for a wide one)
    # against 2 tr(S M_k S M_l); width -1 is the full band, n - 1
    basis = build_basis(n, *window)
    sb = _symmetric_band(n, width % n, seed)
    s = band_to_dense(sb)
    half = np.matmul(s, dense_mats(basis))
    want = 2.0 * np.einsum("kij,lji->kl", half, half)
    got = basis.trace_gram(sb)
    assert _max_rel(got, want) <= 1e-12
    np.testing.assert_array_equal(got, got.T)


def test_trace_gram_of_a_long_band_holds_no_band_products(traced_peak):
    # n = 65536, half-width 19, K = 6: the K band products S M_k of half-width
    # 20 held at once, and their stack, took 265 MiB
    n = 65536
    basis = build_basis(n, 1, 1)
    sb = _symmetric_band(n, 19, 0)
    assert traced_peak(lambda: basis.trace_gram(sb)) < 128 * 2**20


@pytest.mark.parametrize("k1,k2", ORACLE_WINDOWS)
def test_band_operations_match_dense(k1, k2):
    n = 40
    basis = build_basis(n, k1, k2)
    rng = make_rng(k1, stream=33 + k2)
    mats = dense_mats(basis)
    a = rng.standard_normal((n, n))
    a = a + a.T
    np.testing.assert_allclose(basis.project(dense_to_band(a, n - 1)), np.einsum("kij,ij->k", mats, a), atol=1e-12)
    v = rng.standard_normal(basis.K)
    combined = basis.combine(v)
    np.testing.assert_allclose(combined, np.tensordot(v, mats, axes=1), atol=1e-12)
    np.testing.assert_array_equal(combined, combined.T)
    x = rng.standard_normal(n)
    np.testing.assert_allclose(basis.quad_form(x), [x @ m @ x for m in mats], atol=1e-12)
    np.testing.assert_allclose(
        basis.mcheck_gaps(), np.linalg.norm(dense_mchecks(basis) - mats, axis=(1, 2)), atol=1e-12
    )


@pytest.mark.parametrize("k1, k2", [(0, 0), (1, 1), (2, 0), (3, 3)])
def test_diagonal_gram_matches_dense(k1, k2):
    # the Grams of both families from their profiles against flat @ flat.T of
    # the dense stacks; a profile scaled by 1 + 1e-9 moves the Gram past the
    # 1e-10 tolerance of verify's band-gram and circulant-gram checks
    n = 64
    basis = build_basis(n, k1, k2)
    for profiles, stack in ((basis.bands, dense_mats(basis)), (basis.mcheck_profiles(), dense_mchecks(basis))):
        flat = stack.reshape(basis.K, -1)
        got = diagonal_gram(basis.offsets, profiles)
        assert np.max(np.abs(got - flat @ flat.T)) <= 1e-14
        assert np.max(np.abs(got - np.eye(basis.K))) <= 1e-10
        bent = profiles.copy()
        bent[-1] *= 1.0 + 1e-9
        assert np.max(np.abs(diagonal_gram(basis.offsets, bent) - np.eye(basis.K))) > 1e-10


def test_size_and_symmetry_guards_are_typed():
    # the bands have no size cap; a dense view past DENSE_N_MAX raises
    big = build_basis(DENSE_N_MAX + 1, 0, 0)
    assert big.band(np.ones(1)).shape == (1, DENSE_N_MAX + 1)
    with pytest.raises(PreconditionError):
        big.combine(np.ones(1))
    with pytest.raises(PreconditionError):
        check_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]), what="covariance")


NON_FINITE_ENTRIES = [
    [[1.0, math.nan], [math.nan, 1.0]],
    [[math.nan, 0.0], [0.0, 1.0]],
    [[1.0, math.inf], [math.inf, 1.0]],
    [[1.0, math.inf], [0.0, 1.0]],
    [[math.inf, 0.0], [0.0, 1.0]],
]


@pytest.mark.parametrize("entries", NON_FINITE_ENTRIES)
def test_covariance_rejects_non_finite_entries(entries):
    with pytest.raises(PreconditionError, match="not symmetric"):
        check_symmetric(np.array(entries), what="covariance")


@pytest.mark.parametrize("entries", NON_FINITE_ENTRIES)
def test_non_finite_covariance_raises_without_numpy_warning(entries):
    # the typed error is the whole report: no RuntimeWarning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="not symmetric"):
            check_symmetric(np.array(entries), what="covariance")


@pytest.mark.parametrize("k1,k2", ORACLE_WINDOWS)
def test_quad_form_block_matches_per_row(k1, k2):
    n, reps = 40, 9
    basis = build_basis(n, k1, k2)
    xs = make_rng(k1, stream=34 + k2).standard_normal((reps, n))
    block = basis.quad_form(xs)
    assert block.shape == (reps, basis.K)
    rows = np.array([basis.quad_form(x) for x in xs])
    assert _max_rel(block, rows) <= 1e-14
    want = np.einsum("ri,kij,rj->rk", xs, dense_mats(basis), xs)
    assert _max_rel(block, want) <= 1e-12
    with pytest.raises(ConfigurationError):
        basis.quad_form(np.zeros((2, 3, n)))


def _dense_theta(f, n):
    """theta(f) as the dense builder formed it, entry by entry from the span
    density's closed form."""
    out = np.zeros((n, n))
    for idx, c in f.coeffs.items():
        if c == 0.0:
            continue
        trig = np.cos if idx.parity == POS else np.sin
        xweight = math.pi * (2.0 if idx.j2 == 0 else 1.0)
        m = np.arange(n - idx.j2)
        vals = c * basis_norm(idx) * xweight * trig(TWO_PI * idx.j * m / n)
        out[m + idx.j2, m] += vals
        if idx.j2:
            out[m, m + idx.j2] += vals
    return out


@pytest.mark.parametrize("n", [8, 16, 77])
def test_theta_band_is_the_dense_theta(n):
    # the band holds exactly the entries the dense builder formed, of the
    # density's half-width
    f = random_density(3, 3, make_rng(n, stream=35), s=11.0, L=5.0, rho_star=0.5)
    cov = build_theta(f, n)
    assert len(cov.band) == 1 + max(idx.j2 for idx, c in f.coeffs.items() if c != 0.0)
    np.testing.assert_array_equal(band_to_dense(cov.band), _dense_theta(f, n))


def test_covariance_band_is_validated():
    # a dense covariance is not lower band storage: its trailing entries
    # ab[j, n - j:] are nonzero, so passing one where a band is due raises
    exact = build_theta(DENSITY, 16)
    np.testing.assert_array_equal(CovarianceMatrix(exact.band).band, exact.band)
    for bad in (band_to_dense(exact.band), np.ones(16), np.ones((17, 16)), np.full((1, 4), np.nan)):
        with pytest.raises(PreconditionError, match="covariance band"):
            CovarianceMatrix(bad)
