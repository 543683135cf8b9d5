"""The banded factorization core against its dense oracles.

Every banded path (basis bands, localization, pre-smoothing residual, GOE
comparison, wrapped bands) is compared with the dense formula it replaced,
at 1e-12 relative, on windows (0,0), (0,1), (1,1), (2,0) and (3,3); the
Gaussian summaries have the same oracle in test_gaussianize.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lsequiv import gaussianize, harness
from lsequiv._linalg import (
    band_cho_inv,
    band_cholesky,
    band_extremes,
    band_matmul,
    band_to_dense,
    band_width,
    dense_to_band,
    wrapped_band,
    wrapped_matmul,
    wrapped_to_dense,
)
from lsequiv.basis_cov import build_basis, build_theta, presmoothing_residual
from lsequiv.circulant import psi_inverse_real
from lsequiv.errors import LocalizationError, PreconditionError, RangeError, SingularMatrixError
from lsequiv.gaussianize import (
    ExperimentState,
    LocalizationConfig,
    build_localized_C,
    contraction_bound,
)
from lsequiv.harness import CHAIN_HEADER, RunConfig, run_equivalence_chain
from lsequiv.rng import make_rng
from lsequiv.spectral import random_density
from lsequiv.whitenoise import A_STAR, goe_connection

N = 40
WINDOWS = [(0, 0), (0, 1), (1, 1), (2, 0), (3, 3)]


def _rel(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _coeffs(basis, seed):
    """A well-conditioned in-span coefficient vector and a perturbation."""
    rng = make_rng(seed, stream=70 + basis.k2)
    alpha = np.zeros(basis.K)
    alpha[0] = 30.0
    alpha[1:] = 0.5 * rng.standard_normal(basis.K - 1)
    return alpha, 0.3 * rng.standard_normal(basis.K)


def _dense(basis, vec):
    return np.einsum("k,kij->ij", vec, basis.mats)


def _dense_inv_sqrt(a):
    w, v = np.linalg.eigh(a)
    return (v / np.sqrt(w)) @ v.T


def test_band_helpers_match_dense():
    rng = make_rng(0, stream=71)
    ab = rng.standard_normal((3, 12))
    ab[0] += 6.0
    ab[1, -1:] = ab[2, -2:] = 0.0
    dense = band_to_dense(ab)
    np.testing.assert_array_equal(dense, dense.T)
    np.testing.assert_array_equal(dense_to_band(dense, 2), ab)
    x = rng.standard_normal((12, 5))
    assert _rel(band_matmul(ab, x), dense @ x) <= 1e-14
    w = np.linalg.eigvalsh(dense)
    np.testing.assert_allclose(band_extremes(ab), (w[0], w[-1]), rtol=1e-13)
    assert _rel(band_cho_inv(band_cholesky(ab)), np.linalg.inv(dense)) <= 1e-13
    with pytest.raises(PreconditionError, match="outside half-width 1"):
        dense_to_band(dense, 1)


def _wrapped_case(n, width, seed):
    """(wrapped diagonals, dense matrix) of a random symmetric wrapped band of
    half-width width; the dense one is filled entry by entry."""
    rng = make_rng(seed, stream=76)
    wd = np.zeros((width + 1, n))
    a = np.zeros((n, n))
    i = np.arange(n)
    for j in range(width + 1):
        vals = rng.standard_normal(n)
        wd[j] = vals
        a[(i + j) % n, i] = vals
        a[i, (i + j) % n] = vals
    return wd, a


def _reorder(n):
    """Indices in the order 0, n-1, 1, n-2, ..."""
    return np.array([k // 2 if k % 2 == 0 else n - 1 - k // 2 for k in range(n)])


WRAPPED = dict(
    n=st.sampled_from([8, 33, 64]), width=st.integers(0, 3), seed=st.integers(0, 2**16)
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**WRAPPED)
def test_wrapped_band_is_reordered_plain_band(n, width, seed):
    wd, a = _wrapped_case(n, width, seed)
    np.testing.assert_array_equal(wrapped_to_dense(wd), a)
    ab = wrapped_band(wd)
    perm = _reorder(n)
    np.testing.assert_array_equal(ab, dense_to_band(a[np.ix_(perm, perm)], 2 * width))
    w = np.linalg.eigvalsh(a)
    lo, hi = band_extremes(ab)
    scale = np.max(np.abs(w))
    assert abs(lo - w[0]) <= 1e-12 * scale and abs(hi - w[-1]) <= 1e-12 * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**WRAPPED)
def test_wrapped_matmul_matches_dense(n, width, seed):
    wd, a = _wrapped_case(n, width, seed)
    x = make_rng(seed, stream=77).standard_normal((n, 5))
    assert _rel(wrapped_matmul(wd, x), a @ x) <= 1e-12


def test_wrapped_band_needs_room_to_wrap():
    with pytest.raises(PreconditionError, match="needs n > 4"):
        wrapped_band(np.zeros((3, 4)))


def test_band_cholesky_raises_typed_error():
    ab = np.array([[1.0, -1.0, 2.0]])
    with pytest.raises(SingularMatrixError, match="min eig = -1"):
        band_cholesky(ab)
    with pytest.raises(LocalizationError, match="C is not positive definite"):
        band_cholesky(ab, error=LocalizationError, what="C")


@pytest.mark.parametrize("k1,k2", WINDOWS)
def test_band_is_combine(k1, k2):
    basis = build_basis(N, k1, k2)
    alpha, eta = _coeffs(basis, 0)
    ab = basis.band(alpha + eta)
    assert ab.shape == (k2 + 1, N)
    np.testing.assert_array_equal(band_to_dense(ab), basis.combine(alpha + eta))
    assert _rel(basis.combine(alpha + eta), _dense(basis, alpha + eta)) <= 1e-12


@pytest.mark.parametrize("k1,k2", WINDOWS)
def test_build_localized_c_matches_dense(k1, k2):
    basis = build_basis(N, k1, k2)
    alpha, eta = _coeffs(basis, 1)
    c_band, delta_band, (c_inv, p), b_theta = build_localized_C(alpha, eta, basis)
    c_dense = _dense(basis, alpha + eta)
    delta_dense = c_dense - _dense(basis, alpha)
    c_inv_dense = np.linalg.inv(c_dense)
    p_dense = c_inv_dense @ delta_dense @ c_inv_dense
    assert c_band.shape == delta_band.shape == (k2 + 1, N)
    assert _rel(band_to_dense(c_band), c_dense) <= 1e-12
    assert _rel(band_to_dense(delta_band), delta_dense) <= 1e-12
    assert _rel(c_inv, c_inv_dense) <= 1e-12
    assert _rel(p, p_dense) <= 1e-12
    assert _rel(b_theta, c_inv_dense + p_dense) <= 1e-12
    np.testing.assert_array_equal(b_theta, b_theta.T)


@pytest.mark.parametrize("k1,k2", WINDOWS)
def test_presmoothing_residual_matches_dense(k1, k2):
    basis = build_basis(N, k1, k2)
    f = random_density(4, 4, make_rng(k1, stream=72 + k2))
    cov = build_theta(f, N)
    _, rel = presmoothing_residual(f, cov, basis)
    theta = cov.entries
    inv_sqrt = _dense_inv_sqrt(theta)
    resid = theta - _dense(basis, basis.project(theta))
    want = np.linalg.norm(inv_sqrt @ resid @ inv_sqrt)
    assert want > 1e-8
    assert abs(rel - want) <= 1e-12 * want


def test_presmoothing_residual_full_width_theta_matches_cholesky():
    # a callable density gives a quadrature theta with no zero diagonal
    n = 24
    basis = build_basis(n, 1, 1)

    def f(u, x):
        return np.exp(0.5 * np.cos(x) + 0.3 * u * np.sin(2.0 * x))

    cov = build_theta(f, n)
    _, rel = presmoothing_residual(f, cov, basis)
    theta = cov.entries
    assert band_width(theta) == n - 1
    chol = scipy.linalg.cholesky(theta, lower=True)
    resid = theta - _dense(basis, basis.project(theta))
    half = scipy.linalg.solve_triangular(chol, resid, lower=True)
    want = np.linalg.norm(scipy.linalg.solve_triangular(chol, half.T, lower=True))
    assert want > 1e-8
    assert abs(rel - want) <= 1e-12 * want


def test_presmoothing_residual_rejects_indefinite_theta():
    basis = build_basis(16, 1, 1)
    f = lambda u, x: -1.0 + 0.0 * u * x
    theta = build_theta(f, 16)
    with pytest.raises(RangeError, match="positive definite"):
        presmoothing_residual(f, theta, basis)


def _goe_oracle(state, w):
    """(kl, b1, b2, b3) from the dense formulas the banded ones replaced."""
    w_dense = wrapped_to_dense(w)
    basis = state.basis
    delta_check = np.tensordot(state.eta_tilde, basis.mcheck, axes=(0, 0))
    w, v = np.linalg.eigh(state.c_mat)
    ci_sqrt = (v / np.sqrt(w)) @ v.T
    wv, vv = np.linalg.eigh(w_dense / math.sqrt(A_STAR))
    abs_w = (vv * np.abs(wv)) @ vv.T
    gap = abs_w @ delta_check @ abs_w - ci_sqrt @ state.delta @ ci_sqrt
    root_gap_sq = np.linalg.norm(abs_w - ci_sqrt) ** 2
    w_sp_sq = np.max(np.abs(np.linalg.eigvalsh(w_dense))) ** 2
    dc_sp_sq = np.max(np.abs(np.linalg.eigvalsh(delta_check))) ** 2
    d_sp_sq = np.max(np.abs(np.linalg.eigvalsh(state.delta))) ** 2
    dict_sq = np.linalg.norm(delta_check - state.delta) ** 2
    return (
        np.linalg.norm(gap) ** 2 / 4.0,
        3.0 / A_STAR * root_gap_sq * dc_sp_sq * w_sp_sq,
        3.0 / A_STAR / w[0] * dict_sq * w_sp_sq,
        3.0 / w[0] * d_sp_sq * root_gap_sq,
    )


def _goe_case(k1, k2, n=N, w_spread=0.1):
    """A localized state and a W = sum_k c_k Mcheck_k with c_0 = 2."""
    basis = build_basis(n, k1, k2)
    alpha, _ = _coeffs(basis, 3)
    state = ExperimentState.build(
        basis, LocalizationConfig(beta=0.3, gamma=3.0), alpha_theta=alpha,
        rng=make_rng(3, stream=73 + k2),
    )
    rng = make_rng(4, stream=74)
    w_coeffs = w_spread * rng.standard_normal(basis.K)
    w_coeffs[0] = 2.0
    return state, psi_inverse_real(n, basis.indices, w_coeffs)


def _check_goe_against_oracle(comp, state, w):
    kl, b1, b2, b3 = _goe_oracle(state, w)
    assert comp.kl == pytest.approx(kl, rel=1e-12)
    assert comp.b1 == pytest.approx(b1, rel=1e-12)
    assert comp.b2 == pytest.approx(b2, rel=1e-12)
    assert comp.b3 == pytest.approx(b3, rel=1e-12)
    assert comp.bound_check.passed


@pytest.mark.parametrize("k1,k2", WINDOWS)
def test_goe_connection_matches_dense(k1, k2):
    state, w = _goe_case(k1, k2)
    _check_goe_against_oracle(goe_connection(state, w), state, w)


def _counting(monkeypatch, *names):
    """Replace numpy.linalg functions by wrappers that log their calls."""
    calls = []
    for name in names:
        real = getattr(np.linalg, name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


@pytest.mark.parametrize("w_spread,pd", [(0.1, True), (3.0, False)])
def test_goe_connection_takes_dense_abs_only_for_indefinite_w(monkeypatch, w_spread, pd):
    state, w = _goe_case(2, 2, w_spread=w_spread)
    assert (np.linalg.eigvalsh(wrapped_to_dense(w))[0] > 0.0) == pd
    calls = _counting(monkeypatch, "eigh", "eigvalsh")
    comp = goe_connection(state, w)
    assert calls == ([] if pd else ["eigh"])
    monkeypatch.undo()
    _check_goe_against_oracle(comp, state, w)


def test_chain_row_goe_and_presmooth_run_no_dense_eig(monkeypatch):
    calls = _counting(monkeypatch, "eigh", "eigvalsh")
    seen = {}

    def traced(name):
        fn = getattr(harness, name)

        def wrapper(*args, **kwargs):
            before = len(calls)
            out = fn(*args, **kwargs)
            seen[name] = (args, len(calls) - before)
            return out

        monkeypatch.setattr(harness, name, wrapper)

    traced("goe_connection")
    traced("presmoothing_residual")
    _, rows = run_equivalence_chain(RunConfig(n_grid=(128,), replicates=10))
    row = dict(zip(CHAIN_HEADER, rows[0]))
    assert row["error"] == "" and row["goe_kl"] is not None and row["presmooth_rel"] is not None
    assert seen["goe_connection"][1] == seen["presmoothing_residual"][1] == 0
    assert np.linalg.eigvalsh(wrapped_to_dense(seen["goe_connection"][0][1]))[0] > 0.0


def test_goe_connection_memory_peak():
    # at most four n x n arrays live at once on the positive definite path
    n = 1024
    state, w = _goe_case(2, 2, n=n, w_spread=0.02)
    assert np.linalg.eigvalsh(wrapped_to_dense(w))[0] > 0.0
    tracemalloc.start()
    try:
        goe_connection(state, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * n * n * 8 + 2 * 2**20


def test_goe_connection_input_guards():
    basis = build_basis(N, 1, 1)
    alpha, _ = _coeffs(basis, 3)
    state = ExperimentState.build(
        basis, LocalizationConfig(beta=0.3, gamma=3.0), alpha_theta=alpha, rng=make_rng(3)
    )
    # W is held as k2 + 1 = 2 wrapped diagonals; a dense W is the wrong shape
    with pytest.raises(PreconditionError, match="W must be 2 wrapped diagonals of length 40"):
        goe_connection(state, np.eye(N))
    eye = np.zeros((2, N))
    eye[0] = 1.0
    with pytest.raises(SingularMatrixError, match="not positive definite"):
        goe_connection(dataclasses.replace(state, c_band=-state.c_band), eye)


def test_state_build_factors_c_once(monkeypatch):
    basis = build_basis(N, 1, 1)
    alpha, _ = _coeffs(basis, 6)
    factored = []

    def counting(ab, **kwargs):
        factored.append(kwargs.get("what"))
        return band_cholesky(ab, **kwargs)

    monkeypatch.setattr(gaussianize, "band_cholesky", counting)
    state = ExperimentState.build(
        basis, LocalizationConfig(beta=0.3, gamma=3.0), alpha_theta=alpha, rng=make_rng(6)
    )
    assert factored == ["localized C", "C_theta"]


def _diagonal_case(delta_scale):
    """Window (1, 0): C = 5 (I + 0.9 Cos) and Delta = delta_scale (I + Cos).

    Delta vanishes where C is smallest, so |Delta|_2 / min eig(C) =
    4 delta_scale overstates |C^{-1} Delta|_2 = 2 delta_scale / 9.5.
    """
    basis = build_basis(N, 1, 0)
    cos = np.diag(np.cos(2.0 * math.pi * np.arange(N) / N))
    c_vec = basis.project(5.0 * (np.eye(N) + 0.9 * cos))
    eta = basis.project(delta_scale * (np.eye(N) + cos))
    return basis, c_vec - eta, eta


def test_contraction_bound_falls_back_to_exact():
    basis, alpha, eta = _diagonal_case(2.5)
    c_band = basis.band(alpha + eta)
    bound = contraction_bound(c_band, c_band - basis.band(alpha))
    c_band, delta_band, _, _ = build_localized_C(alpha, eta, basis)
    exact = np.linalg.norm(np.linalg.solve(band_to_dense(c_band), band_to_dense(delta_band)), 2)
    assert bound == pytest.approx(10.0, rel=1e-12)
    assert exact == pytest.approx(5.0 / 9.5, rel=1e-12)


def test_contraction_fails_when_exact_norm_fails():
    basis, alpha, eta = _diagonal_case(6.0)
    with pytest.raises(LocalizationError, match="not a contraction"):
        build_localized_C(alpha, eta, basis)


def test_localized_c_not_pd_raises_localization_error():
    basis = build_basis(N, 1, 1)
    alpha, eta = _coeffs(basis, 5)
    with pytest.raises(LocalizationError, match="localized C is not positive definite"):
        build_localized_C(-alpha, eta, basis)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    window=st.sampled_from(WINDOWS),
    seed=st.integers(0, 2**16),
    level=st.floats(2.0, 40.0),
    spread=st.floats(0.0, 3.0),
    scale=st.floats(0.0, 5.0),
)
def test_contraction_bound_dominates_exact(window, seed, level, spread, scale):
    basis = build_basis(24, *window)
    rng = make_rng(seed, stream=75)
    alpha = spread * rng.standard_normal(basis.K)
    alpha[0] += level
    eta = scale * rng.standard_normal(basis.K)
    c_band = basis.band(alpha + eta)
    assume(band_extremes(c_band)[0] > 1e-3)
    bound = contraction_bound(c_band, c_band - basis.band(alpha))
    c_mat = band_to_dense(c_band)
    exact = np.linalg.norm(np.linalg.solve(c_mat, c_mat - basis.combine(alpha)), 2)
    assert bound >= exact * (1.0 - 1e-12)
