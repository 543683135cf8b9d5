"""The banded core against its dense oracles.

Every banded path (basis bands, Chebyshev band functions, band products,
localization, pre-smoothing residual, GOE comparison, wrapped bands) is
compared with the dense formula it replaced, at 1e-12 relative, on windows
(0,0), (0,1), (1,1), (2,0) and (3,3); the Gaussian summaries have the same
oracle in test_gaussianize.

Run as a script to print, for one default chain row at n = 512 and 1024,
the calls and wall milliseconds of each band kernel: each LAPACK routine
(dsbevx among them), band_function by power, the symmetric products
(band_sandwich), the trace of presmoothing (band_trace_square) and the
signed_band calls by caller:

    python tests/test_banded.py
"""

import math
import sys
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lsequiv import _linalg, basis_cov, gaussianize, harness, whitenoise
from lsequiv._linalg import (
    DENSE_N_MAX,
    band_cholesky,
    band_eigh,
    band_extremes,
    band_function,
    band_product,
    band_sandwich,
    band_to_dense,
    dense_signed,
    dense_to_band,
    lower_frob,
    signed_band,
    signed_to_dense,
    wrapped_band,
)
from lsequiv.basis_cov import CovarianceMatrix, build_basis, build_theta, presmoothing_residual
from lsequiv.circulant import psi_inverse_real
from lsequiv.errors import LocalizationError, PreconditionError, RangeError, SingularMatrixError
from lsequiv.gaussianize import (
    ExperimentState,
    LocalizationConfig,
    build_localized_C,
    contraction_bound,
)
from lsequiv.harness import CHAIN_HEADER, RunConfig, config_density, run_equivalence_chain
from lsequiv.rng import make_rng
from lsequiv.spectral import POS, BasisIndex, SpectralDensity, random_density
from lsequiv.whitenoise import A_STAR, goe_connection

from oracles import dense_mats, dense_mchecks

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
    return np.einsum("k,kij->ij", vec, dense_mats(basis))


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
    w = np.linalg.eigvalsh(dense)
    np.testing.assert_allclose(band_extremes(ab), (w[0], w[-1]), rtol=1e-13)
    assert _rel(band_to_dense(band_function(ab, -1.0)[0]), np.linalg.inv(dense)) <= 1e-13
    with pytest.raises(PreconditionError, match="outside half-width 1"):
        dense_to_band(dense, 1)


def _signed_band_gather(ab):
    """signed_band as one modulo gather, row -j = ab[j, (i - j) mod n]."""
    w, n = len(ab) - 1, ab.shape[1]
    j = np.arange(w, 0, -1)[:, None]
    return np.concatenate([ab[j, (np.arange(n) - j) % n], ab])


@pytest.mark.parametrize(
    "n,width,wrapped",
    [(1, 0, False), (40, 0, False), (40, 3, False), (17, 16, False), (33, 16, True), (64, 5, True), (6, 8, True)],
)
def test_signed_band_shifts_match_gather(n, width, wrapped):
    # narrow and full (w = n - 1) plain bands, wrapped diagonals (2w < n) and
    # rows past n - 1, which a Chebyshev band of band_function has at small n
    ab = make_rng(n, stream=77 + width).standard_normal((width + 1, n))
    if not wrapped:
        for j in range(1, width + 1):
            ab[j, n - j :] = 0.0
    got = signed_band(ab)
    assert got.shape == (2 * width + 1, n)
    np.testing.assert_array_equal(got, _signed_band_gather(ab))
    # band_function's recurrence mirrors only the rows it reads
    for rows in range(width + 1):
        np.testing.assert_array_equal(_linalg._mirrored(ab, rows), got[width - rows :])


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
    np.testing.assert_array_equal(band_to_dense(wd), a)
    ab = wrapped_band(wd)
    perm = _reorder(n)
    np.testing.assert_array_equal(ab, dense_to_band(a[np.ix_(perm, perm)], 2 * width))
    w = np.linalg.eigvalsh(a)
    lo, hi = band_extremes(ab)
    scale = np.max(np.abs(w))
    assert abs(lo - w[0]) <= 1e-12 * scale and abs(hi - w[-1]) <= 1e-12 * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(**WRAPPED)
def test_wrapped_band_product_matches_dense(n, width, seed):
    wd, a = _wrapped_case(n, width, seed)
    other, b = _wrapped_case(n, 1, seed + 1)
    got = band_product(signed_band(wd), signed_band(other))
    assert _rel(_signed_to_dense(got, wrapped=True), a @ b) <= 1e-12


def test_wrapped_band_needs_room_to_wrap():
    with pytest.raises(PreconditionError, match="needs n > 4"):
        wrapped_band(np.zeros((3, 4)))


def test_band_cholesky_raises_typed_error():
    ab = np.array([[1.0, -1.0, 2.0]])
    with pytest.raises(SingularMatrixError, match="min eig = -1"):
        band_cholesky(ab)
    with pytest.raises(LocalizationError, match="C is not positive definite"):
        band_cholesky(ab, error=LocalizationError, what="C")


def _spd_band(n, width, seed):
    """A random strictly diagonally dominant (so SPD) band, zero past row n."""
    rng = make_rng(seed, stream=79)
    ab = rng.standard_normal((width + 1, n))
    for j in range(1, width + 1):
        ab[j, n - j :] = 0.0
    ab[0] = np.abs(band_to_dense(ab)).sum(axis=1) + 0.1
    return ab


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(1, 300), width=st.integers(0, 6), seed=st.integers(0, 2**16))
def test_lapack_calls_match_scipy_wrappers_bitwise(n, width, seed):
    # the routines scipy's cholesky_banded, eig_banded and cho_solve call,
    # with the arguments they pass: the same bits
    ab = _spd_band(n, min(width, n - 1), seed)
    eig_banded = scipy.linalg.eig_banded
    np.testing.assert_array_equal(band_cholesky(ab), scipy.linalg.cholesky_banded(ab, lower=True))
    want = [
        float(eig_banded(ab, lower=True, eigvals_only=True, select="i", select_range=(k, k))[0])
        for k in (0, n - 1)
    ]
    assert band_extremes(ab) == tuple(want)
    w, v = band_eigh(ab)
    want_w, want_v = eig_banded(ab, lower=True)
    np.testing.assert_array_equal(w, want_w)
    np.testing.assert_array_equal(v, want_v)
    factor = np.linalg.cholesky(band_to_dense(ab))
    b = make_rng(seed, stream=80).standard_normal((n, 2))
    want = scipy.linalg.cho_solve((factor, True), b)
    np.testing.assert_array_equal(_linalg.chol_solve(factor, b), want)


def test_exact_band_inverse_matches_scipy_bitwise():
    # past the Chebyshev break-even band_function solves by dpbtrs on the
    # banded Cholesky factor, as cho_solve_banded did
    ab = _spd_band(50, 2, 3)
    # row 7 dominant by 1e-9 only: too ill-conditioned for a Chebyshev band
    ab[0, 7] = 1e-9 + np.abs(ab[1:, 7]).sum() + np.abs(ab[1, 6]) + np.abs(ab[2, 5])
    fab, degree, _ = band_function(ab, -1.0)
    assert degree == 0
    want = scipy.linalg.cho_solve_banded(
        (scipy.linalg.cholesky_banded(ab, lower=True), True), np.eye(50, order="F"), overwrite_b=True
    )
    np.testing.assert_array_equal(band_to_dense(fab), band_to_dense(dense_to_band(want, 49)))


def test_lapack_paths_refuse_non_finite_bands_and_illegal_arguments():
    ab = np.array([[2.0, 2.0, 2.0], [0.5, np.nan, 0.0]])
    calls = [
        ("matrix", band_cholesky),
        ("band", band_extremes),
        ("band", band_eigh),
        ("C_theta", lambda a: band_function(a, -1.0, extremes=(1.0, 3.0), what="C_theta")),
    ]
    for what, call in calls:
        with pytest.raises(PreconditionError, match=f"{what} has a non-finite entry"):
            call(ab)
    # a negative info names an illegal argument (here vu < vl): a bug, not a typed error
    with pytest.raises(RuntimeError, match="argument 11 of dsbevx"):
        _linalg._lapack("dsbevx", np.ones((1, 3)), 1.0, 0.0, 1, 1, compute_v=0, mmax=3, range=1, lower=1)


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
    c_band, delta_band, (c_inv, p), c_inv_sqrt, b_band, extremes = build_localized_C(alpha, eta, basis)
    c_dense = _dense(basis, alpha + eta)
    delta_dense = c_dense - _dense(basis, alpha)
    for (lo, hi), dense in zip(extremes, (c_dense, c_dense - delta_dense)):
        w = np.linalg.eigvalsh(dense)
        assert abs(lo - w[0]) <= 1e-12 * w[-1] and abs(hi - w[-1]) <= 1e-12 * w[-1]
    c_inv_dense = np.linalg.inv(c_dense)
    p_dense = c_inv_dense @ delta_dense @ c_inv_dense
    assert c_band.shape == delta_band.shape == (k2 + 1, N)
    assert _rel(band_to_dense(c_band), c_dense) <= 1e-12
    assert _rel(band_to_dense(delta_band), delta_dense) <= 1e-12
    assert _rel(band_to_dense(c_inv), c_inv_dense) <= 1e-12
    assert _rel(band_to_dense(c_inv_sqrt), _dense_inv_sqrt(c_dense)) <= 1e-12
    assert _rel(band_to_dense(p), p_dense) <= 1e-12
    assert _rel(band_to_dense(b_band), c_inv_dense + p_dense) <= 1e-12
    assert len(p) == len(b_band) == min(2 * (len(c_inv) - 1) + k2, N - 1) + 1


def _chain_c_band(n):
    """The localized C of the default chain row at n, drawn from its stream."""
    cfg = RunConfig(n_grid=(n,))
    sched = cfg.window(n)
    basis = build_basis(n, sched.k1, sched.k2)
    state = ExperimentState.build(
        basis, LocalizationConfig(beta=sched.beta, gamma=sched.gamma),
        theta=build_theta(config_density(cfg), n),
        rng=make_rng(cfg.seed, stream=11_000_000 + n),
    )
    return state.c_band


def _small_ill_conditioned_band():
    """A half-width 2 band at n = 24 with condition number about 20."""
    rng = make_rng(0, stream=78)
    ab = np.zeros((3, 24))
    ab[0] = 1.0 + np.linspace(0.0, 19.0, 24)
    ab[1, :23] = 0.3 * rng.standard_normal(23)
    ab[2, :22] = 0.3 * rng.standard_normal(22)
    return ab


def _small_wide_band():
    """A half-width 2 band at n = 24 with condition number about 1.06: its
    Chebyshev band is past n / 2 but below 4 sqrt(n)."""
    ab = 0.2 * _small_ill_conditioned_band()
    ab[0] = 10.0 + 0.02 * np.arange(24)
    return ab


@pytest.mark.parametrize("power", [-1.0, -0.5])
@pytest.mark.parametrize("case", ["chain-512", "wide", "ill-conditioned"])
def test_band_function_matches_eigh(case, power):
    # the wide band's late recurrence products fill past n - 1 (dense
    # matmuls); the ill-conditioned band would need a polynomial of half-width
    # past 4 sqrt(n), so it is given the exact function, half-width n - 1
    if case == "chain-512":
        ab = _chain_c_band(512)
    else:
        ab = _small_wide_band() if case == "wide" else _small_ill_conditioned_band()
    n, k2 = ab.shape[1], ab.shape[0] - 1
    fab, degree, bound = band_function(ab, power)
    w, v = np.linalg.eigh(band_to_dense(ab))
    want = (v * w**power) @ v.T
    assert _rel(band_to_dense(fab), want) <= 1e-12
    if case == "ill-conditioned":
        assert w[-1] / w[0] > 10.0 and degree == bound == 0 and fab.shape == (n, n)
    else:
        assert fab.shape == (degree * k2 + 1, n) and degree * k2 < 4.0 * math.sqrt(n)
        assert (case == "wide") == (2 * degree * k2 >= n)
        assert 0.0 < bound <= 1e-15 * w[0] ** power


def _mixed_path_band():
    """A half-width 2 band at n = 24 whose extremes, passed as (1, 1.1166),
    put C^{-1} on a Chebyshev band of degree 9 (half-width 18) and C^{-1/2}
    past 4 sqrt(n), on the exact path."""
    ab = 0.05 * _small_ill_conditioned_band()
    ab[0] = 1.03 + 0.002 * np.arange(24)
    return ab, (1.0, 1.1166)


@pytest.mark.parametrize("case", ["chain-512", "wide", "ill-conditioned", "mixed"])
def test_band_function_takes_a_tuple_of_powers(case):
    # one recurrence for both powers: each band, degree and bound is bitwise
    # what a call for that power alone returns, on the polynomial path, the
    # exact path (dpbtrs for -1, dsbevd for -1/2) and one of each
    extremes = None
    if case == "chain-512":
        ab = _chain_c_band(512)
    elif case == "mixed":
        ab, extremes = _mixed_path_band()
    else:
        ab = _small_wide_band() if case == "wide" else _small_ill_conditioned_band()
    powers = (-1.0, -0.5)
    both = band_function(ab, powers, extremes=extremes)
    assert len(both) == 2
    for power, (fab, degree, bound) in zip(powers, both):
        want_fab, want_degree, want_bound = band_function(ab, power, extremes=extremes)
        np.testing.assert_array_equal(fab, want_fab)
        assert (degree, bound) == (want_degree, want_bound)
        w, v = np.linalg.eigh(band_to_dense(ab))
        assert _rel(band_to_dense(fab), (v * w**power) @ v.T) <= 1e-12
    degrees = [degree for _, degree, _ in both]
    assert {"ill-conditioned": [0, 0], "mixed": [9, 0]}.get(case, degrees) == degrees
    assert (case in ("ill-conditioned", "mixed")) == (0 in degrees)


def test_band_function_rejects_indefinite_and_singular_input():
    ab = np.array([[1.0, -1.0, 2.0], [0.1, 0.1, 0.0]])
    with pytest.raises(SingularMatrixError, match="not positive definite"):
        band_function(ab, -1.0)
    with pytest.raises(SingularMatrixError, match="C is not positive definite"):
        band_function(np.array([[1.0, 0.0, 1.0]]), -0.5, what="C")
    # condition 1e10 is positive definite: the exact inverse, not an error
    fab, degree, _ = band_function(np.array([[1.0, 1e-10, 1.0]]), -1.0)
    np.testing.assert_allclose(band_to_dense(fab), np.diag([1.0, 1e10, 1.0]), rtol=1e-14)
    assert degree == 0


def test_band_function_exact_path_past_dense_limit_raises():
    # the exact A**power is an n x n array, so past DENSE_N_MAX it is refused
    # before any is formed
    ab = np.ones((1, 2 * DENSE_N_MAX))
    ab[0, 1] = 1e-10
    for power in (-1.0, -0.5):
        with pytest.raises(PreconditionError, match="dense matrix size"):
            band_function(ab, power, extremes=(1e-10, 1.0))


def _signed_to_dense(g, wrapped):
    """Dense matrix of signed storage; a plain band must be zero past its edges."""
    w, n = len(g) // 2, g.shape[1]
    out = np.zeros((n, n))
    i = np.arange(n)
    for s in range(-w, w + 1):
        if not wrapped:
            assert not np.any(g[w + s][(i + s < 0) | (i + s >= n)])
        np.add.at(out, ((i + s) % n, i), g[w + s])
    return out


def _plain_band(n, width, seed):
    ab = make_rng(seed, stream=79).standard_normal((width + 1, n))
    for j in range(width + 1):
        ab[j, n - j :] = 0.0
    return ab


@pytest.mark.parametrize(
    "widths,wrapped",
    [
        ((3, 1, 2), False),
        ((1, 3, 0), False),
        ((12, 9, 4), False),
        ((3, 2, 1), True),
        ((4, 4, 3), True),
        ((0, 4, 2), False),
    ],
)
def test_band_product_and_signed_frob_match_dense(widths, wrapped):
    # the products chain through a non-symmetric middle factor; ((12, 9, 4),
    # n = 20) fills past n - 1, so its products are dense matmuls, and
    # (4, 4, 3) wraps past n / 2.  The Frobenius norm and gap are read by
    # lower_frob from the symmetric A B C B A of band_sandwich
    n = 20

    def make(w, seed):
        return _wrapped_case(n, w, seed)[0] if wrapped else _plain_band(n, w, seed)

    bands = [make(w, seed) for seed, w in enumerate(widths)]
    a, b, c = (signed_band(ab) for ab in bands)
    dense = [_signed_to_dense(g, wrapped) for g in (a, b, c)]
    want = dense[0] @ dense[1] @ dense[2]
    for got in (band_product(band_product(a, b), c), band_product(a, band_product(b, c))):
        assert len(got) == 2 * min(sum(widths), n - 1) + 1
        assert _rel(_signed_to_dense(got, wrapped), want) <= 1e-13
    sym = band_sandwich(bands[0], bands[1], bands[2], bands[1])
    want = dense[0] @ dense[1] @ dense[2] @ dense[1] @ dense[0]
    assert lower_frob(sym, np.zeros((1, n))) == pytest.approx(np.linalg.norm(want), rel=1e-13)
    gap = np.linalg.norm(want - dense[0])
    assert lower_frob(sym, bands[0]) == pytest.approx(gap, rel=1e-13)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    wrapped=st.booleans(),
    ws=st.integers(0, 6),
    wm=st.integers(0, 6),
    n=st.integers(1, 40),
    seed=st.integers(0, 2**16),
)
# wrapped products whose rows s and s - n name one cyclic diagonal
# (2 (2 ws + wm) >= n), and plain ones past n - 1 (dense matmuls)
@example(wrapped=True, ws=3, wm=2, n=9, seed=0)
@example(wrapped=True, ws=6, wm=6, n=13, seed=1)
@example(wrapped=False, ws=4, wm=3, n=9, seed=2)
@example(wrapped=False, ws=6, wm=6, n=7, seed=3)
def test_band_sandwich_matches_dense_and_nested_products(wrapped, ws, wm, n, seed):
    # S and M symmetric, plain or wrapped, of half-width <= 6
    if wrapped:
        assume(n > 2 * max(ws, wm))
        (s_ab, s_dense), (m_ab, m_dense) = _wrapped_case(n, ws, seed), _wrapped_case(n, wm, seed + 1)
    else:
        assume(n > max(ws, wm))
        s_ab, m_ab = _plain_band(n, ws, seed), _plain_band(n, wm, seed + 1)
        s_dense, m_dense = band_to_dense(s_ab), band_to_dense(m_ab)
    s, m = signed_band(s_ab), signed_band(m_ab)
    got = band_sandwich(s_ab, m_ab)
    nested = band_product(band_product(s, m), s)
    np.testing.assert_array_equal(got, nested[len(nested) // 2 :])
    want = s_dense @ m_dense @ s_dense
    width = len(got) - 1
    assert width == min(2 * ws + wm, n - 1)
    assert _rel(band_to_dense(got), want) <= 1e-13
    if wrapped and 2 * width < n:
        # rows j are the wrapped diagonals A[(i + j) mod n, i]
        i = np.arange(n)
        lower = np.stack([want[(i + j) % n, i] for j in range(width + 1)])
        assert _rel(got, lower) <= 1e-13
    elif not wrapped:
        lower = np.stack([np.pad(np.diagonal(want, -j), (0, j)) for j in range(width + 1)])
        assert _rel(got, lower) <= 1e-13
    # |G - H|_F read from two lower halves
    other = band_sandwich(m_ab, s_ab)
    gap = np.linalg.norm(want - m_dense @ s_dense @ m_dense)
    assert lower_frob(got, other) == pytest.approx(gap, rel=1e-12, abs=1e-12 * np.linalg.norm(want))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 40), w=st.integers(0, 12), k2=st.integers(0, 6), seed=st.integers(0, 2**16))
def test_lower_rows_of_a_symmetric_product_read_its_mirrored_rows(n, w, k2, seed):
    # T X for symmetric T of half-width w >= k2, as band_function's recurrence
    # forms it: rows s >= 0 from T's lower half and k2 mirrored rows, bitwise
    # those of the full band product
    assume(k2 <= w and w + k2 < n)
    rng = make_rng(seed, stream=83)
    t = rng.standard_normal((w + 1, n))
    x = signed_band(rng.standard_normal((k2 + 1, n)))
    got = _linalg._diagonal_products(_linalg._mirrored(t, k2), x, lower=True)
    np.testing.assert_array_equal(got, band_product(signed_band(t), x)[w + k2 :])


def _band_dense(ab):
    """Dense matrix of lower band storage or wrapped diagonals, any half-width:
    row j adds A[(i + j) mod n, i] and, for j >= 1, its mirror."""
    n = ab.shape[1]
    out, i = np.zeros((n, n)), np.arange(n)
    for j, row in enumerate(ab):
        np.add.at(out, ((i + j) % n, i), row)
        if j:
            np.add.at(out, (i, (i + j) % n), row)
    return out


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 24),
    widths=st.tuples(st.integers(0, 30), st.integers(0, 30)),
    wrapped=st.tuples(st.booleans(), st.booleans()),
    seed=st.integers(0, 2**16),
)
# a plain band of half-width n - 1, wrapped ones with 2w = n and w >= n, and
# wrapped against plain (the dictionary gap Dcheck - Delta)
@example(n=9, widths=(8, 2), wrapped=(False, False), seed=0)
@example(n=8, widths=(4, 4), wrapped=(True, True), seed=1)
@example(n=5, widths=(7, 1), wrapped=(True, False), seed=2)
@example(n=33, widths=(3, 3), wrapped=(True, False), seed=3)
def test_lower_frob_matches_dense(n, widths, wrapped, seed):
    rng = make_rng(seed, stream=84)
    g, h = (
        rng.standard_normal((w + 1, n)) if wrap else _plain_band(n, min(w, n - 1), seed + k)
        for k, (w, wrap) in enumerate(zip(widths, wrapped))
    )
    want = np.linalg.norm(_band_dense(g) - _band_dense(h))
    scale = max(np.linalg.norm(_band_dense(g)), np.linalg.norm(_band_dense(h)))
    assert lower_frob(g, h) == pytest.approx(want, rel=1e-13, abs=1e-13 * scale)
    assert lower_frob(h, g) == lower_frob(g, h)


def test_band_function_mirrors_no_signed_band_per_step(monkeypatch):
    # the recurrence mirrors the k2 rows of T_k that T_k X reads: signed_band
    # runs once, on A, however high the degree
    n, k2 = 512, 2
    ab = make_rng(5, stream=85).standard_normal((k2 + 1, n))
    ab[0] = 8.0 + np.abs(ab[0])
    calls = []

    def counted(band):
        calls.append(band.shape)
        return signed_band(band)

    monkeypatch.setattr(_linalg, "signed_band", counted)
    inverse, degree, _ = band_function(ab, -1.0)
    assert degree >= 10 and calls == [ab.shape]
    monkeypatch.undo()
    assert _rel(band_to_dense(inverse), np.linalg.inv(band_to_dense(ab))) <= 1e-13


def _band_product_roll(a, b):
    """The np.roll form of band_product's banded branch."""
    wa, wb = a.shape[0] // 2, b.shape[0] // 2
    out = np.zeros((2 * (wa + wb) + 1, a.shape[1]))
    for t in range(-wb, wb + 1):
        term = np.roll(a, -t, axis=1)
        term *= b[wb + t]
        out[wb + t : wb + t + 2 * wa + 1] += term
    return out


@pytest.mark.parametrize("wa,wb,n", [(0, 0, 5), (2, 1, 9), (3, 3, 20), (4, 2, 7), (1, 3, 12)])
def test_band_product_matches_roll_form_bitwise(wa, wb, n):
    rng = make_rng(wa + 10 * wb, stream=81)
    a = rng.standard_normal((2 * wa + 1, n))
    b = rng.standard_normal((2 * wb + 1, n))
    np.testing.assert_array_equal(band_product(a, b), _band_product_roll(a, b))


@pytest.mark.parametrize("k1,k2", WINDOWS)
def test_presmoothing_residual_matches_dense(k1, k2):
    basis = build_basis(N, k1, k2)
    f = random_density(4, 4, make_rng(k1, stream=72 + k2), s=11.0, L=5.0, rho_star=0.5)
    cov = build_theta(f, N)
    rel = presmoothing_residual(cov, basis)
    theta = band_to_dense(cov.band)
    inv_sqrt = _dense_inv_sqrt(theta)
    resid = theta - _dense(basis, basis.project(cov.band))
    want = np.linalg.norm(inv_sqrt @ resid @ inv_sqrt)
    assert want > 1e-8
    assert abs(rel - want) <= 1e-12 * want


def test_presmoothing_residual_full_width_theta_matches_cholesky():
    # a span density with j2 up to n - 1 gives a theta with no zero diagonal
    n = 24
    basis = build_basis(n, 1, 1)
    f = random_density(1, n - 1, make_rng(24, stream=73), s=11.0, L=5.0, rho_star=0.5)
    cov = build_theta(f, n)
    rel = presmoothing_residual(cov, basis)
    theta = band_to_dense(cov.band)
    assert cov.band.shape == (n, n) and cov.band[-1, 0] != 0.0
    chol = scipy.linalg.cholesky(theta, lower=True)
    resid = theta - _dense(basis, basis.project(cov.band))
    half = scipy.linalg.solve_triangular(chol, resid, lower=True)
    want = np.linalg.norm(scipy.linalg.solve_triangular(chol, half.T, lower=True))
    assert want > 1e-8
    assert abs(rel - want) <= 1e-12 * want


def test_presmoothing_residual_rejects_indefinite_theta():
    basis = build_basis(16, 1, 1)
    f = SpectralDensity({BasisIndex(POS, 0, 0): -math.sqrt(2.0 * math.pi)}, 11.0, 5.0, 0.5)
    theta = build_theta(f, 16)
    with pytest.raises(RangeError, match="positive definite"):
        presmoothing_residual(theta, basis)


def _presmooth_oracle(theta, basis):
    """relErr by the dense Cholesky form: tr(theta^{-1} E theta^{-1} E)."""
    factor = scipy.linalg.cho_factor(theta, lower=True)
    resid = theta - basis.combine(basis.project(dense_to_band(theta, len(theta) - 1)))
    solved = scipy.linalg.cho_solve(factor, resid)
    return math.sqrt(np.einsum("ij,ji->", solved, solved))


ILL_CONDITIONED = dict(rho_star=1e-3, density_mean=0.5, density_amplitude=0.99)


@pytest.mark.parametrize(
    "n,case", [(64, "span"), (512, "span"), (2048, "span"), (64, "ill"), (128, "ill")]
)
def test_presmoothing_residual_matches_dense_cholesky(n, case, monkeypatch):
    # the chain's span density and a rho_star = 1e-3 density, whose theta
    # takes band_function's exact (degree 0, full band) inverse
    cfg = RunConfig(n_grid=(n,), **(ILL_CONDITIONED if case == "ill" else {}))
    f = config_density(cfg)
    sched = cfg.window(n)
    basis = build_basis(n, sched.k1, sched.k2)
    cov = build_theta(f, n)
    degrees = []

    def logged(*args, **kwargs):
        out = band_function(*args, **kwargs)
        degrees.append(out[1])
        return out

    monkeypatch.setattr(basis_cov, "band_function", logged)
    rel = presmoothing_residual(cov, basis)
    assert len(degrees) == 1 and (degrees[0] == 0) == (case == "ill")
    theta = band_to_dense(cov.band)
    want = _presmooth_oracle(theta, basis)
    assert want > 1e-8
    assert abs(rel - want) <= 1e-12 * want


def test_presmooth_and_abstract_pilot_stay_below_one_dense_array(traced_peak):
    n = 2048
    cfg = RunConfig(n_grid=(n,))
    sched = cfg.window(n)
    f, basis = config_density(cfg), build_basis(n, sched.k1, sched.k2)
    theta = build_theta(f, n)
    alpha = basis.project(theta.band)

    def run():
        presmoothing_residual(theta, basis)
        harness._abstract_pilot_risk(theta.band, alpha, basis, cfg.replicates, make_rng(0))

    assert traced_peak(run) < n * n * 8


def _dense_signed_loop(a):
    """dense_signed as one diagonal copy per row of signed storage (oracle)."""
    n = len(a)
    g = np.zeros((2 * n - 1, n))
    for s in range(1 - n, n):
        g[n - 1 + s, max(0, -s) : n - max(0, s)] = np.diagonal(a, -s)
    return g


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 70), width=st.integers(0, 150), seed=st.integers(0, 2**16))
def test_dense_conversions_match_loops(n, width, seed):
    # a band with 2w < n is scattered entry by entry, bitwise the per-diagonal
    # oracle; a wider one (w >= n too) sums the rows of one cyclic diagonal first
    rng = make_rng(seed, stream=82)
    g = rng.standard_normal((2 * width + 1, n))
    got, want = signed_to_dense(g), _signed_to_dense(g, wrapped=True)
    if 2 * width < n:
        np.testing.assert_array_equal(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    a = rng.standard_normal((n, n))
    np.testing.assert_array_equal(dense_signed(a), _dense_signed_loop(a))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
def test_dense_conversions_round_trip(n):
    a = make_rng(n, stream=80).standard_normal((n, n))
    np.testing.assert_array_equal(signed_to_dense(dense_signed(a)), a)
    sym = a + a.T
    for width in range(n):
        banded = np.where(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= width, sym, 0.0)
        ab = dense_to_band(banded, width)
        assert ab.shape == (width + 1, n)
        np.testing.assert_array_equal(band_to_dense(ab), banded)
        if width < n - 1:
            with pytest.raises(PreconditionError, match=f"outside half-width {width}"):
                dense_to_band(sym, width)


def _goe_oracle(state, w):
    """(kl, b1, b2, b3) from the dense formulas the banded ones replaced."""
    w_dense = band_to_dense(w)
    basis = state.basis
    delta_check = np.tensordot(state.eta_tilde, dense_mchecks(basis), axes=(0, 0))
    w, v = np.linalg.eigh(band_to_dense(state.c_band))
    ci_sqrt = (v / np.sqrt(w)) @ v.T
    wv, vv = np.linalg.eigh(w_dense / math.sqrt(A_STAR))
    abs_w = (vv * np.abs(wv)) @ vv.T
    delta = band_to_dense(state.delta_band)
    gap = abs_w @ delta_check @ abs_w - ci_sqrt @ delta @ ci_sqrt
    root_gap_sq = np.linalg.norm(abs_w - ci_sqrt) ** 2
    w_sp_sq = np.max(np.abs(np.linalg.eigvalsh(w_dense))) ** 2
    dc_sp_sq = np.max(np.abs(np.linalg.eigvalsh(delta_check))) ** 2
    d_sp_sq = np.max(np.abs(np.linalg.eigvalsh(delta))) ** 2
    dict_sq = np.linalg.norm(delta_check - delta) ** 2
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
        basis, LocalizationConfig(beta=0.3, gamma=3.0), theta=CovarianceMatrix(basis.band(alpha)),
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
    _check_goe_against_oracle(goe_connection(state, w, 3.0), state, w)


def test_goe_connection_matches_dense_ill_conditioned():
    # C near 5 (I + 0.998 Cos), condition about 1e3: x = sqrt(2 pi) C^{-1/2}
    # is exact and dense, and x Delta x a dense product
    n = 64
    basis = build_basis(n, 1, 1)
    c_theta = np.diag(5.0 * (1.0 + 0.998 * np.cos(2.0 * math.pi * np.arange(n) / n)))
    theta = CovarianceMatrix(dense_to_band(c_theta, 0))
    state = ExperimentState.build(
        basis, LocalizationConfig(beta=1e-4, gamma=1.0), theta=theta, rng=make_rng(8)
    )
    w_coeffs = 0.1 * make_rng(4, stream=74).standard_normal(basis.K)
    w_coeffs[0] = 2.0
    w = psi_inverse_real(n, basis.indices, w_coeffs)
    lo, hi = band_extremes(state.c_band)
    assert hi / lo > 500.0 and band_function(state.c_band, -0.5)[1] == 0
    _check_goe_against_oracle(goe_connection(state, w, 1.0), state, w)


def test_chain_row_of_an_ill_conditioned_density():
    # rho_star = 1e-3 admits a density whose C and C_theta are too
    # ill-conditioned for a Chebyshev band narrower than 4 sqrt(n): every band
    # function is exact at n = 64, and C_theta^{-1} at n = 128.  The row
    # matches the dense banded-Cholesky path to rounding
    cfg = RunConfig(
        n_grid=(64, 128), rho_star=1e-3, density_mean=0.5, density_amplitude=0.99, replicates=10
    )
    _, rows = run_equivalence_chain(cfg)
    pinned = [
        (64, 0.5472177452410412, 161.83184649425783, 1.9935844943532406),
        (128, 0.25564658767225357, 113.45138006867906, 0.6589511326593688),
    ]
    for row, (n, summary_kl, pilot, goe_kl) in zip(rows, pinned):
        row = dict(zip(CHAIN_HEADER, row))
        assert row["n"] == n and row["error"] == ""
        assert row["summary_kl"] == pytest.approx(summary_kl, rel=1e-10)
        assert row["pilot_risk_abstract"] == pytest.approx(pilot, rel=1e-10)
        assert row["goe_kl"] == pytest.approx(goe_kl, rel=1e-10)


@pytest.mark.parametrize("w_spread,pd", [(0.1, True), (3.0, False)])
def test_goe_connection_takes_dense_abs_only_for_indefinite_w(
    monkeypatch, linalg_calls, w_spread, pd
):
    state, w = _goe_case(2, 2, w_spread=w_spread)
    assert (np.linalg.eigvalsh(band_to_dense(w))[0] > 0.0) == pd
    calls = linalg_calls("eigh", "eigvalsh")
    comp = goe_connection(state, w, 3.0)
    assert [name for name, _ in calls] == ([] if pd else ["eigh"])
    monkeypatch.undo()
    _check_goe_against_oracle(comp, state, w)


def test_chain_row_goe_and_presmooth_run_no_dense_eig(monkeypatch, linalg_calls):
    calls = linalg_calls("eigh", "eigvalsh")
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
    assert np.linalg.eigvalsh(band_to_dense(seen["goe_connection"][0][1]))[0] > 0.0


def test_chain_row_takes_band_extremes_of_tridiagonal_bands_only(lapack_calls):
    # K = 6 (k2 = 1) at n = 1024: every extreme eigenvalue a chain row takes is
    # of a half-width-1 band; the O(n^2) dsbevx of reordered wrapped bands
    # belongs to the GOE bound, which the chain does not report.  Each band's
    # pair is taken once, two dsbevx calls: theta's in the presmoothing
    # residual, C's and C_theta's in the localization, and the summaries and
    # the GOE stage reuse C_theta's and C's.  Delta's norm is screened by its
    # row sums, with no dsbevx
    calls = lapack_calls()
    _, rows = run_equivalence_chain(RunConfig(n_grid=(1024,)))
    row = dict(zip(CHAIN_HEADER, rows[0]))
    assert row["K"] == 6 and row["error"] == "" and row["goe_kl"] is not None
    shapes = [shape for name, shape in calls if name == "dsbevx"]
    assert len(shapes) == 6 and set(shapes) == {(2, 1024)}


def test_goe_connection_memory_peak(traced_peak):
    # on the positive definite path the peak is a few signed bands of the
    # half-width of x Delta x, O(n w) and well under one n x n array: 2.50
    # of them (2.39 MB), x's lower band storage held beside band_sandwich's
    # signed copy of it; 2.29 when x was held signed only, 2.78 when both
    # halves of the products were formed
    n = 1024
    state, w = _goe_case(2, 2, n=n, w_spread=0.02)
    assert np.linalg.eigvalsh(band_to_dense(w))[0] > 0.0
    width = 2 * (len(state.c_inv_sqrt_band) - 1) + state.basis.k2
    peak = traced_peak(lambda: goe_connection(state, w, 3.0))
    assert peak <= 3 * (2 * width + 1) * n * 8 <= n * n * 8 / 2


def test_goe_connection_input_guards():
    basis = build_basis(N, 1, 1)
    alpha, _ = _coeffs(basis, 3)
    state = ExperimentState.build(
        basis, LocalizationConfig(beta=0.3, gamma=3.0), theta=CovarianceMatrix(basis.band(alpha)),
        rng=make_rng(3),
    )
    # W is held as k2 + 1 = 2 wrapped diagonals; a dense W is the wrong shape
    with pytest.raises(PreconditionError, match="W must be 2 wrapped diagonals of length 40"):
        goe_connection(state, np.eye(N), 3.0)
    # C^{-1/2} is formed with the state, so a negated C fails at build
    with pytest.raises(LocalizationError, match="localized C is not positive definite"):
        ExperimentState.build(
            basis, LocalizationConfig(beta=0.3, gamma=3.0),
            theta=CovarianceMatrix(basis.band(-alpha)), rng=make_rng(3),
        )


def test_state_build_takes_one_band_function_per_matrix(monkeypatch):
    basis = build_basis(N, 1, 1)
    alpha, _ = _coeffs(basis, 6)
    taken = []

    def counting(ab, power, **kwargs):
        taken.append((kwargs.get("what"), power))
        return band_function(ab, power, **kwargs)

    monkeypatch.setattr(gaussianize, "band_function", counting)
    state = ExperimentState.build(
        basis, LocalizationConfig(beta=0.3, gamma=3.0), theta=CovarianceMatrix(basis.band(alpha)),
        rng=make_rng(6),
    )
    # C^{-1} and C^{-1/2} from one recurrence
    assert taken == [("localized C", (-1.0, -0.5))]
    # Gamma_tilde takes C_theta^{-1} when it is read, once
    first = state.gamma_tilde
    assert state.gamma_tilde is first
    assert taken == [("localized C", (-1.0, -0.5)), ("C_theta", -1.0)]


def test_chain_row_takes_two_band_functions(monkeypatch):
    # theta^{-1} (presmoothing), and C^{-1} with C^{-1/2} (localization; the
    # GOE stage reads the state's C^{-1/2})
    taken = []

    def counting(ab, power, **kwargs):
        taken.append((kwargs.get("what"), power))
        return band_function(ab, power, **kwargs)

    for module in (basis_cov, gaussianize):
        monkeypatch.setattr(module, "band_function", counting)
    assert not hasattr(whitenoise, "band_function")
    header, rows = run_equivalence_chain(RunConfig(n_grid=(1024,)))
    assert rows[0][header.index("error")] == ""
    assert sorted(taken) == [("covariance", -1.0), ("localized C", (-1.0, -0.5))]


def _diagonal_case(delta_scale):
    """Window (1, 0): C = 5 (I + 0.9 Cos) and Delta = delta_scale (I + Cos).

    Delta vanishes where C is smallest, so |Delta|_2 / min eig(C) =
    4 delta_scale overstates |C^{-1} Delta|_2 = 2 delta_scale / 9.5.
    """
    basis = build_basis(N, 1, 0)
    cos = np.diag(np.cos(2.0 * math.pi * np.arange(N) / N))
    c_vec = basis.project(dense_to_band(5.0 * (np.eye(N) + 0.9 * cos), 0))
    eta = basis.project(dense_to_band(delta_scale * (np.eye(N) + cos), 0))
    return basis, c_vec - eta, eta


def test_contraction_bound_falls_back_to_exact():
    basis, alpha, eta = _diagonal_case(2.5)
    c_band = basis.band(alpha + eta)
    bound = contraction_bound(band_extremes(c_band)[0], c_band - basis.band(alpha))
    c_band, delta_band, _, _, _, _ = build_localized_C(alpha, eta, basis)
    exact = np.linalg.norm(np.linalg.solve(band_to_dense(c_band), band_to_dense(delta_band)), 2)
    assert bound == pytest.approx(10.0, rel=1e-12)
    assert exact == pytest.approx(5.0 / 9.5, rel=1e-12)


def test_contraction_fails_when_exact_norm_fails():
    basis, alpha, eta = _diagonal_case(6.0)
    with pytest.raises(LocalizationError, match="not a contraction"):
        build_localized_C(alpha, eta, basis)


def test_nearly_singular_c_fails_the_contraction_before_its_inverse(monkeypatch):
    # C = 5 (I + 0.9999 Cos), C_theta = 5 (I + 0.5 Cos): min eig(C) = 5e-4 is
    # below min eig(C_theta) / 2 = 1.25, so |C^{-1} Delta|_2 >= 2.5 / 5e-4 - 1
    # is known without the degree-2500 polynomial for C^{-1}
    basis = build_basis(N, 1, 0)
    cos = np.diag(np.cos(2.0 * math.pi * np.arange(N) / N))
    c_mat, c_theta = 5.0 * (np.eye(N) + 0.9999 * cos), 5.0 * (np.eye(N) + 0.5 * cos)
    alpha, eta = (basis.project(dense_to_band(a, 0)) for a in (c_theta, c_mat - c_theta))

    def refuse(*args, **kwargs):
        raise AssertionError("C^{-1} was formed")

    monkeypatch.setattr(gaussianize, "band_function", refuse)
    with pytest.raises(LocalizationError, match="not a contraction .* >= 5e\\+03"):
        build_localized_C(alpha, eta, basis)
    assert np.linalg.norm(np.linalg.solve(c_mat, c_mat - c_theta), 2) >= 4999.0


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
    c_lo = band_extremes(c_band)[0]
    assume(c_lo > 1e-3)
    bound = contraction_bound(c_lo, c_band - basis.band(alpha))
    c_mat = band_to_dense(c_band)
    exact = np.linalg.norm(np.linalg.solve(c_mat, c_mat - basis.combine(alpha)), 2)
    assert bound >= exact * (1.0 - 1e-12)


def _kernel_profile(n):
    """(row ms, {kernel: [calls, ms]}) of one default chain row at n, the
    kernels wrapped where the chain's modules call them, and signed_band,
    keyed by its caller, in _linalg and basis_cov too."""
    stats = {}

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = stats.setdefault(key(*args), [0, 0.0])
                entry[0] += 1
                entry[1] += 1e3 * (time.perf_counter() - started)

        return wrapper

    def caller(*args):
        # the frame that called the wrapper of signed_band
        frame = sys._getframe(2)
        return f"signed_band <- {frame.f_globals['__name__'].split('.')[-1]}.{frame.f_code.co_name}"

    patches = [
        (_linalg, "_lapack", lambda routine, *args: routine),
        (basis_cov, "band_function", lambda ab, power, *args: f"band_function {power}"),
        (gaussianize, "band_function", lambda ab, power, *args: f"band_function {power}"),
        (gaussianize, "band_sandwich", lambda *args: "band_sandwich"),
        (whitenoise, "band_sandwich", lambda *args: "band_sandwich"),
        (basis_cov, "band_trace_square", lambda *args: "band_trace_square"),
        (_linalg, "signed_band", caller),
        (basis_cov, "signed_band", caller),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in patches]
    for module, name, key in patches:
        setattr(module, name, timed(getattr(module, name), key))
    try:
        started = time.perf_counter()
        _, rows = run_equivalence_chain(RunConfig(n_grid=(n,)))
        row_ms = 1e3 * (time.perf_counter() - started)
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)
    assert dict(zip(CHAIN_HEADER, rows[0]))["error"] == ""
    return row_ms, stats


if __name__ == "__main__":
    run_equivalence_chain(RunConfig(n_grid=(512,)))  # first-call costs
    for n in (512, 1024):
        row_ms, stats = _kernel_profile(n)
        print(f"n = {n}: chain row {row_ms:.1f} ms")
        for key, (calls, ms) in sorted(stats.items()):
            print(f"  {key:42s} {calls:3d} calls {ms:8.2f} ms")
