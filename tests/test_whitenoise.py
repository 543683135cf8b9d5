import math

import numpy as np
import pytest

from lsequiv._linalg import band_to_dense, frob, spectral_norm, sym_abs, sym_inv_sqrt
from lsequiv.basis_cov import build_basis, build_theta
from lsequiv.circulant import psi_inverse_real
from lsequiv.errors import PreconditionError, RangeError
from lsequiv.gaussianize import ExperimentState, LocalizationConfig
from lsequiv.rng import make_rng
from lsequiv.spectral import (
    GRID_NODES,
    BasisIndex,
    basis_norm,
    default_grid,
    leading_indices,
    node_gap,
    random_density,
)
from lsequiv.whitenoise import (
    A_STAR,
    WhiteNoiseObservation,
    gamma_min_eig_check,
    gamma_variants,
    goe_connection,
    inv_sqrt_projection,
    localized_drift,
    noise_level,
    pilot_estimate,
    pilot_risk_row,
    simulate_wn,
    target_coefficients,
)

from oracles import dense_mats, dense_mchecks

GRID = default_grid()
N = 64
BASIS = build_basis(N, 1, 1)
DENSITY = random_density(1, 1, make_rng(3, stream=60), s=11.0, L=5.0, rho_star=0.5)
THETA = build_theta(DENSITY, N)
STATE = ExperimentState.build(
    BASIS, LocalizationConfig(beta=1.0, gamma=3.0), theta=THETA, rng=make_rng(0, stream=64)
)
ONES = np.ones((GRID_NODES, GRID_NODES // 2 + 1))


def test_noise_level_identity():
    # a_n sqrt(pi n) equals the fixed drift constant for every n
    for n in (16, 64, 1024):
        assert noise_level(n) * math.sqrt(math.pi * n) == pytest.approx(A_STAR, rel=1e-14)


def test_simulate_wn_statistics():
    obs = simulate_wn(DENSITY, N, rng=make_rng(0, stream=61))
    assert obs.indices == leading_indices(8)
    logf = np.log(DENSITY.on_grid())
    means = np.array([GRID.inner(logf, idx) for idx in obs.indices])
    reps = 600
    # rescaled coefficients sqrt(2 pi n) <phi_j, dX>
    scale = math.sqrt(2.0 * math.pi * N)
    vals = scale * np.array(
        [simulate_wn(DENSITY, N, rng=make_rng(s, stream=62)).values for s in range(reps)]
    )
    np.testing.assert_allclose(vals.mean(0), scale * means, atol=1.5)
    # the rescaled coefficients carry variance 8 pi^2 regardless of n
    np.testing.assert_allclose(vals.var(0), 8.0 * math.pi**2 * np.ones(8), rtol=0.25)


def test_target_coefficients_quadrature():
    indices = leading_indices(6)
    targ = target_coefficients(DENSITY, indices, N)
    proj = GRID.project(DENSITY.on_grid(), indices)
    expected = [proj[k] * math.sqrt(2.0 * math.pi * (N - idx.j2)) for k, idx in enumerate(indices)]
    np.testing.assert_allclose(targ, expected, rtol=1e-12)


def test_noiseless_in_span_recovery():
    # when log f lives in the observed span, the noiseless pilot is f
    indices = leading_indices(8)
    rng = make_rng(2, stream=63)
    coeffs = 0.05 * rng.standard_normal(8)
    f = np.exp(GRID.synthesize(indices, coeffs))
    obs = WhiteNoiseObservation(indices=indices, values=GRID.project(np.log(f), indices))
    np.testing.assert_allclose(pilot_estimate(obs), f, rtol=1e-12)


def test_pilot_risk_row_deterministic():
    row = pilot_risk_row(DENSITY, N, BASIS.indices, 30, seed=5)
    assert row == pilot_risk_row(DENSITY, N, BASIS.indices, 30, seed=5)
    assert row["n"] == N and row["K"] == BASIS.K and row["J"] == 8
    assert row["replicates"] == 30
    assert row["pass"] == (row["risk_mean"] <= row["risk_bound"])


def test_pilot_risk_row_matches_stacked_formula():
    # oracle: the former dense (J, nt*nx) and (K, nt*nx) basis stacks
    n, seed, reps = 256, 7, 40
    lead = leading_indices(int(math.ceil(math.sqrt(n))))
    logf = np.log(DENSITY.on_grid())
    means = np.array([GRID.inner(logf, idx) for idx in lead])
    draws = means + noise_level(n) * make_rng(seed, stream=n).standard_normal((reps, len(lead)))
    # row k: basis function k on the grid, from a synthesis of the k-th unit vector
    stack = GRID.synthesize(lead, np.eye(len(lead))).reshape(len(lead), -1)
    kstack = GRID.synthesize(BASIS.indices, np.eye(BASIS.K)).reshape(BASIS.K, -1)
    weights = np.outer(GRID.wt, GRID.wx).ravel()
    alpha_hat = math.sqrt(2.0 * math.pi * n) * (np.exp(draws @ stack) * weights) @ kstack.T
    target = target_coefficients(DENSITY, BASIS.indices, n)
    risk_mean = float(np.mean(np.sum((alpha_hat - target) ** 2, axis=1)))
    row = pilot_risk_row(DENSITY, n, BASIS.indices, reps, seed)
    assert row["risk_mean"] == pytest.approx(risk_mean, rel=1e-12)


def test_pilot_risk_row_memory_does_not_grow_with_replicates(traced_peak):
    # the replicates stream through one block of at most 2^16 trapezoid
    # nodes (0.5 MB); the stacked form held all of them, 213 MB at 400
    peaks = [
        traced_peak(lambda: pilot_risk_row(DENSITY, 256, BASIS.indices, reps, seed=1))
        for reps in (16, 400)
    ]
    assert peaks[1] <= 8e6
    assert abs(peaks[1] - peaks[0]) < 1e6


DRIFT_SIZES = (64, 128, 256)


def test_localized_drift_decay_and_sup_check():
    eta = STATE.eta_tilde
    gaps = []
    for n in DRIFT_SIZES:
        basis = build_basis(n, 1, 1)
        theta = build_theta(DENSITY, n)
        f_hat, sup_check = localized_drift(
            basis.project(theta.band), eta, n, basis.indices, 0.5, gamma=3.0
        )
        assert f_hat.shape == ONES.shape
        assert sup_check.check_id == "drift-sup-gap"
        assert sup_check.passed
        assert sup_check.rhs == pytest.approx(
            math.sqrt(basis.K) * 3.0 / (math.pi * math.sqrt(n)), rel=1e-12
        )
        gaps.append(sup_check.lhs)
    assert gaps[0] > gaps[1] > gaps[2]


def test_localized_drift_guards():
    with pytest.raises(RangeError):
        localized_drift(
            np.full(BASIS.K, 5.0), STATE.eta_tilde, N, BASIS.indices, 0.5, gamma=3.0
        )


def test_localized_drift_encloses_the_range_between_nodes():
    # f_n = 0.65 + 0.3 (normalized phi_(+,1,1)) has node extremes 0.35 and
    # 0.95; a lower bound rho*/2 between min - node_gap and min passes at every
    # node, but only the enclosure proves a range, so the check refuses it
    scale = 1.0 / math.sqrt(2.0 * math.pi * N)
    coeffs = np.zeros(BASIS.K)
    for k, amplitude in ((0, 0.65), (BASIS.indices.index(BasisIndex("+", 1, 1)), 0.3)):
        coeffs[k] = amplitude / basis_norm(BASIS.indices[k])
    nodes = GRID.synthesize(BASIS.indices, coeffs)
    gap = node_gap(dict(zip(BASIS.indices, coeffs)))
    assert gap > 0.0
    zero = np.zeros(BASIS.K)
    rho_star = 2.0 * (nodes.min() - 0.5 * gap)
    assert rho_star / 2.0 < nodes.min() and nodes.max() < 2.0 / rho_star
    with pytest.raises(RangeError, match="f_n leaves"):
        localized_drift(coeffs / scale, zero, N, BASIS.indices, rho_star, gamma=3.0)
    rho_star = 2.0 * (nodes.min() - 2.0 * gap)
    localized_drift(coeffs / scale, zero, N, BASIS.indices, rho_star, gamma=3.0)
    # the sup of the noise is its node maximum widened the same way
    _, sup_check = localized_drift(coeffs / scale, 0.01 * coeffs / scale, N, BASIS.indices, rho_star, gamma=3.0)
    noise = 0.01 * coeffs
    want = np.max(np.abs(GRID.synthesize(BASIS.indices, noise))) + node_gap(dict(zip(BASIS.indices, noise)))
    assert sup_check.lhs == pytest.approx(want, rel=1e-14)


def test_gamma_min_eig_check_constant_density():
    # Gamma is the identity for f_hat = 1
    chk = gamma_min_eig_check(ONES, leading_indices(6))
    assert chk.check_id == "gamma-min-eig"
    assert chk.passed
    assert chk.lhs == pytest.approx(1.0, rel=1e-12)
    assert chk.rhs == pytest.approx(1.0, rel=1e-12)


def test_gamma_min_eig_check_rejects_nonpositive_density():
    bad = np.zeros_like(ONES)
    with pytest.raises(RangeError):
        gamma_min_eig_check(bad, leading_indices(6))


def test_inv_sqrt_projection_constant():
    proj = inv_sqrt_projection(ONES, BASIS.indices)
    assert proj.coeffs[0] == pytest.approx(math.sqrt(2.0 * math.pi), rel=1e-12)
    np.testing.assert_allclose(proj.coeffs[1:], np.zeros(BASIS.K - 1), atol=1e-12)
    np.testing.assert_allclose(proj.values, ONES, rtol=0, atol=1e-12)


def test_gamma_variants_constant_density():
    proj = inv_sqrt_projection(ONES, BASIS.indices)
    checks = gamma_variants(proj, BASIS)
    ids = [c.check_id for c in checks]
    assert ids[: BASIS.K] == [f"circulant-defect-{j}" for j in range(BASIS.K)]
    assert ids[-1] == "circulant-defect-budget"
    assert all(c.passed for c in checks)


def test_gamma_variants_window_mismatch():
    proj = inv_sqrt_projection(ONES, leading_indices(8))
    with pytest.raises(PreconditionError):
        gamma_variants(proj, BASIS)


def test_goe_connection_bound_and_zero_case():
    fv = DENSITY.on_grid()
    proj = inv_sqrt_projection(fv, BASIS.indices)
    w = psi_inverse_real(N, proj.indices, proj.coeffs)
    comp = goe_connection(STATE, w, gamma=3.0)
    assert comp.kl > 0.0
    assert comp.bound_check.check_id == "goe-kl-bound"
    assert comp.bound_check.passed
    assert comp.dictionary_gap_check.check_id == "dictionary-gap"
    assert comp.dictionary_gap_check.passed
    assert comp.bound_sum == pytest.approx(comp.b1 + comp.b2 + comp.b3, rel=1e-12)
    # shrink the revealed perturbation to nothing and the divergence vanishes
    state0 = ExperimentState.build(
        BASIS, LocalizationConfig(beta=1e-12, gamma=3.0), theta=THETA, rng=make_rng(0, stream=64)
    )
    comp0 = goe_connection(state0, w, gamma=3.0)
    assert comp0.kl <= 1e-20


def _dense_stack_oracle(w):
    """(kl, b1, b2, b3, dictionary gap, its rhs at gamma = 3) with Dcheck and
    the dictionary gap straight from the (K, n, n) stacks."""
    w_dense = band_to_dense(w)

    delta_check = np.tensordot(STATE.eta_tilde, dense_mchecks(BASIS), axes=(0, 0))
    ci_sqrt = sym_inv_sqrt(band_to_dense(STATE.c_band))
    delta = band_to_dense(STATE.delta_band)
    abs_w = sym_abs(w_dense / math.sqrt(A_STAR))
    gap = abs_w @ delta_check @ abs_w - ci_sqrt @ delta @ ci_sqrt
    root_gap_sq = frob(abs_w - ci_sqrt) ** 2
    w_sp_sq = spectral_norm(w_dense) ** 2
    b1 = 3.0 / A_STAR * root_gap_sq * spectral_norm(delta_check) ** 2 * w_sp_sq
    # |C^{-1/2}|^2 from a separate eigvalsh of the square root
    cis_sp_sq = spectral_norm(ci_sqrt) ** 2
    b2 = 3.0 / A_STAR * cis_sp_sq * frob(delta_check - delta) ** 2 * w_sp_sq
    b3 = 3.0 * cis_sp_sq * spectral_norm(delta) ** 2 * root_gap_sq
    dict_lhs = frob(delta_check - delta) ** 2
    dict_rhs = 9.0 * np.sum((dense_mchecks(BASIS) - dense_mats(BASIS)) ** 2)
    return frob(gap) ** 2 / 4.0, b1, b2, b3, dict_lhs, dict_rhs


def _whitening_w():
    proj = inv_sqrt_projection(DENSITY.on_grid(), BASIS.indices)
    return psi_inverse_real(N, proj.indices, proj.coeffs)


def test_goe_connection_matches_dense_stacks():
    w = _whitening_w()
    comp = goe_connection(STATE, w, gamma=3.0)
    kl, b1, b2, b3, dict_lhs, dict_rhs = _dense_stack_oracle(w)
    assert comp.kl == pytest.approx(kl, rel=1e-12)
    assert comp.b1 == pytest.approx(b1, rel=1e-12)
    assert comp.b2 == pytest.approx(b2, rel=1e-12)
    assert comp.b3 == pytest.approx(b3, rel=1e-12)
    assert comp.dictionary_gap_check.lhs == pytest.approx(dict_lhs, rel=1e-12)
    assert comp.dictionary_gap_check.rhs == pytest.approx(dict_rhs, rel=1e-12)


def test_state_holds_c_inv_sqrt_of_its_c():
    # C^{-1/2}, formed with C^{-1} in one recurrence, against the dense oracle
    want = sym_inv_sqrt(band_to_dense(STATE.c_band))
    got = band_to_dense(STATE.c_inv_sqrt_band)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_goe_kl_alone_takes_no_wrapped_band_norm(lapack_calls):
    # kl needs C's extremes only, which the state took when it was built; the
    # norms of W and Dcheck (dsbevx on their reordered bands, half-width 2 k2)
    # are taken when the bound is read
    w = _whitening_w()
    calls = lapack_calls()
    comp = goe_connection(STATE, w, gamma=3.0)
    kl = comp.kl
    assert [name for name, _ in calls if name == "dsbevx"] == []
    check = comp.bound_check
    wrapped = (2 * BASIS.k2 + 1, N)
    assert [shape for name, shape in calls if name == "dsbevx"].count(wrapped) == 4
    want_kl, b1, b2, b3, _, _ = _dense_stack_oracle(w)
    assert kl == pytest.approx(want_kl, rel=1e-12)
    assert check.lhs == pytest.approx(4.0 * want_kl, rel=1e-12)
    assert check.rhs == pytest.approx(b1 + b2 + b3, rel=1e-12)
    assert check.passed
