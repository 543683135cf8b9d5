"""Comparing the whitened and circulant random-matrix shifts.

At each dimension the localized contamination induces two ensemble shifts,
one conjugated by the dense whitening matrix and one by its coefficient
counterpart.  Their exact Kullback-Leibler divergence shrinks along the
schedule and stays under the three-term bound.
"""

from lsequiv.basis_cov import build_basis, build_theta
from lsequiv.gaussianize import ExperimentState, LocalizationConfig
from lsequiv.harness import RunConfig, config_density, whitening_matrix
from lsequiv.rng import make_rng
from lsequiv.whitenoise import goe_connection


def main():
    cfg = RunConfig(n_grid=(128, 256, 512))
    f = config_density(cfg)
    fv = f.on_grid()

    print(f"  {'n':>5} {'K':>3} {'kl':>12} {'bound sum':>12} {'dict gap ok':>12}")
    for n in cfg.n_grid:
        sched = cfg.window(n)
        basis = build_basis(n, sched.k1, sched.k2)
        theta = build_theta(f, n)
        loc = LocalizationConfig(beta=sched.beta, gamma=sched.gamma)
        state = ExperimentState.build(
            basis, loc, theta=theta, rng=make_rng(cfg.seed, stream=11_000_000)
        )
        w = whitening_matrix(fv, basis)
        cmp = goe_connection(state, w, gamma=sched.gamma)
        gap_ok = cmp.dictionary_gap_check.passed
        print(
            f"  {n:>5} {basis.K:>3} {cmp.kl:>12.6f} {cmp.bound_sum:>12.6f} {str(gap_ok):>12}"
        )
    print("  same contamination draw at every n, so the decay is the dimension effect")


if __name__ == "__main__":
    main()
