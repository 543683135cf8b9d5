"""Walkthrough of the localized Gaussian reduction at one dimension.

Builds the frozen experiment state, reports the localization accounting,
verifies the drift identity, and samples every model in the chain.
"""

import numpy as np

from lsequiv._linalg import band_extremes, band_to_dense
from lsequiv.basis_cov import build_basis, build_theta
from lsequiv.gaussianize import (
    MODEL_IDS,
    ExperimentState,
    LocalizationConfig,
    neumann_residual,
    neumann_residual_bound,
    sample_experiment,
)
from lsequiv.harness import schedule
from lsequiv.rng import make_rng
from lsequiv.spectral import random_density


def main():
    n = 64
    sched = schedule(n)
    f = random_density(sched.k1, sched.k2, make_rng(4, stream=92), s=11.0, L=5.0, rho_star=0.5)
    basis = build_basis(n, sched.k1, sched.k2)
    theta = build_theta(f, n)
    loc = LocalizationConfig(beta=sched.beta, gamma=sched.gamma)

    print(f"n = {n}, window ({sched.k1}, {sched.k2}), K = {sched.K}")
    print(f"  acceptance probability  {loc.acceptance_probability(sched.K):.6f}")
    print(f"  truncation budget       {sched.K * loc.beta**2 / loc.gamma**2:.6f}")

    state = ExperimentState.build(basis, loc, theta=theta, rng=make_rng(0, stream=93))
    c_theta, c_mat, delta = (band_to_dense(b) for b in (state.c_theta_band, state.c_band, state.delta_band))
    info = {
        "eig_c_theta": list(band_extremes(state.c_theta_band)),
        "eig_c": list(state.c_extremes),
        "delta_frob": float(np.linalg.norm(delta)),
        "contraction": float(np.linalg.norm(np.linalg.solve(c_mat, delta), 2)),
        "eta_norm": float(np.linalg.norm(state.eta_tilde)),
    }
    print("\nfrozen state")
    for key, value in info.items():
        print(f"  {key:<14} {value}")

    drift_gap = np.linalg.norm(state.d_vec - 0.5 * state.gamma @ state.alpha_theta)
    print(f"  drift identity |d - Gamma alpha / 2| = {drift_gap:.3e}")

    resid = neumann_residual(c_theta, band_to_dense(state.b_band))
    c_rho = float(np.linalg.eigvalsh(c_theta)[0])
    sp_sq = float(np.sum(basis.spectral_norms() ** 2))
    bound = neumann_residual_bound(loc.gamma, c_rho, sp_sq)
    print(f"  inversion residual      {resid:.3e} (series bound {bound:.3e})")

    print("\none draw from each model")
    rng = make_rng(1, stream=94)
    for model_id in MODEL_IDS:
        draw = sample_experiment(state, model_id, rng)
        kind = "matrix" if draw.ndim == 2 else "vector"
        print(f"  {model_id}: {kind} shape {draw.shape}")


if __name__ == "__main__":
    main()
