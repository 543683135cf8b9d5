"""Tour of the tensor trigonometric system and the density class.

Prints the leading window, verifies orthonormality on the quadrature grid,
and draws one random member of the smooth bounded density class.
"""

import numpy as np

from lsequiv.rng import make_rng
from lsequiv.spectral import (
    basis_norm,
    default_grid,
    enumerate_indices,
    leading_indices,
    random_density,
)


def main():
    grid = default_grid()

    print("leading indices by weight j^2 + j'^2")
    print(f"  {'parity':>6} {'j':>3} {'j2':>3} {'weight':>7} {'normalizer':>11}")
    for idx in leading_indices(10):
        print(
            f"  {idx.parity:>6} {idx.j:>3} {idx.j2:>3} {idx.weight:>7}"
            f" {basis_norm(idx):>11.8f}"
        )

    window = enumerate_indices(2, 2)
    gram = np.array(
        [[grid.inner(grid.synthesize([a], [1.0]), b) for b in window] for a in window]
    )
    print(f"\nwindow (2, 2): {len(window)} functions")
    print(f"  max |Gram - I| on the grid = {np.max(np.abs(gram - np.eye(len(window)))):.3e}")

    f = random_density(2, 2, make_rng(0, stream=90), s=11.0, L=5.0, rho_star=0.5)
    lo, hi = f.range_on_grid()
    print("\nrandom class member")
    print(f"  coefficient window  ({max(idx.j for idx in f.coeffs)}, {max(idx.j2 for idx in f.coeffs)})")
    print(f"  mean level          {f.mean_level():.6f}")
    print(f"  range enclosure     [{lo:.6f}, {hi:.6f}]")
    print(f"  weighted coeff sum  {f.sobolev_sum():.6f}")
    for chk in f.check_membership():
        print(f"  {chk.check_id:<22} lhs={chk.lhs:.6f} rhs={chk.rhs:.6f} pass={chk.passed}")


if __name__ == "__main__":
    main()
