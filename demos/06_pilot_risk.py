"""Pilot estimation risk in the bivariate white-noise experiment.

Simulates the log-density observation, shows one pilot reconstruction, and
reads the Monte Carlo risk study, the white-noise pilot columns of the
equivalence chain, against the fixed per-coefficient budget.
"""

import math

import numpy as np

from lsequiv.basis_cov import abstract_rho
from lsequiv.gaussianize import pilot_risk_bound
from lsequiv.harness import RunConfig, config_density, run_equivalence_chain
from lsequiv.rng import make_rng
from lsequiv.spectral import default_grid
from lsequiv.whitenoise import noise_level, pilot_estimate, simulate_wn, target_coefficients


def main():
    cfg = RunConfig()
    f = config_density(cfg)
    n = 256

    obs = simulate_wn(f, n, rng=make_rng(0, stream=95))
    targets = target_coefficients(f, obs.indices, n)
    # coefficients at localization scale: of the pilot, and of f itself
    grid, scale = default_grid(), math.sqrt(2.0 * math.pi * n)
    risk = float(np.sum((scale * grid.project(pilot_estimate(obs), obs.indices) - targets) ** 2))
    span_gap = float(np.sum((scale * grid.project(f, obs.indices) - targets) ** 2))
    print(f"white-noise observation at n = {n}")
    print(f"  noise level a_n         {noise_level(n):.6f}")
    print(f"  observed coefficients   {len(obs.values)}")
    print(f"  single-draw risk over all {len(obs.values)} coefficients: {risk:.1f}")
    print(f"  span gap                {span_gap:.4f}")
    print(f"  target norm             {float(np.linalg.norm(targets)):.4f}")

    rho = abstract_rho(cfg.rho_star)
    print(f"\nabstract-experiment budget: 4 K / rho^2 = {pilot_risk_bound(6, rho):.1f} at K = 6")

    print("\nMonte Carlo risk study over the scheduled K-window (budget 50 per coefficient)")
    header, rows = run_equivalence_chain(RunConfig(n_grid=(64, 256, 1024), replicates=200))
    columns = ["n", "K", "pilot_risk_wn", "risk_bound", "risk_pass"]
    print("  " + " ".join(f"{h:>13}" for h in columns))
    for row in rows:
        cells = [row[header.index(h)] for h in columns]
        print("  " + " ".join(f"{v:>13.4f}" if isinstance(v, float) else f"{v!s:>13}" for v in cells))


if __name__ == "__main__":
    main()
