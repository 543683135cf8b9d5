"""Covariance matrices of a class density and their band projections.

Builds the covariance at several dimensions, confirms the eigenvalue band
implied by the density range, and tracks two approximations: the banded
projection residual and the gap to a finite-order transfer covariance.
"""

import math

import numpy as np

from lsequiv._linalg import band_to_dense
from lsequiv.basis_cov import (
    build_basis,
    build_theta,
    build_vartheta,
    presmoothing_residual,
    theta_spectral_check,
)
from lsequiv.rng import make_rng
from lsequiv.spectral import random_density, random_transfer

RHO_STAR = 0.5


def main():
    f = random_density(2, 2, make_rng(3, stream=91), s=11.0, L=5.0, rho_star=RHO_STAR)
    lo_f, hi_f = f.range_on_grid()
    print(f"density range [{lo_f:.4f}, {hi_f:.4f}]; admissible band is 2 pi times that")

    print(f"\n  {'n':>5} {'min eig':>10} {'max eig':>10} {'band ok':>8} {'presmooth rel':>14}")
    for n in (32, 64, 128, 256):
        theta = build_theta(f, n)
        # the check allows 0.5 beyond each end of the reference band
        checks = theta_spectral_check(theta, RHO_STAR)
        lo, hi = checks[0].rhs, checks[1].lhs
        ok = all(c.passed for c in checks)
        rel = presmoothing_residual(theta, build_basis(n, 2, 2))
        print(f"  {n:>5} {lo:>10.5f} {hi:>10.5f} {str(ok):>8} {rel:>14.3e}")
    print(f"  reference band [{2 * math.pi * RHO_STAR:.5f}, {2 * math.pi / RHO_STAR:.5f}]")

    a = random_transfer(2, 2, make_rng(5, stream=1))
    ft = a.to_spectral_density(11.0, 5.0, RHO_STAR)
    print("\ntransfer covariance vs density covariance, spectral norm gap")
    print(f"  {'n':>5} {'gap':>12}")
    for n in (64, 128, 256):
        gap = np.linalg.norm(band_to_dense(build_vartheta(a, n).band) - band_to_dense(build_theta(ft, n).band), 2)
        print(f"  {n:>5} {gap:>12.3e}")


if __name__ == "__main__":
    main()
