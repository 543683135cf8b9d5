"""Characteristic-function analysis of the standardized quadratic statistic.

In the single-function window the statistic is an affine chi-square, so
every quantity here has a closed form to compare against: the modulus
profile, the expansion coefficients, and the total-variation distance to
the Gaussian limit.
"""

import numpy as np

from lsequiv.basis_cov import build_basis
from lsequiv.cltcheck import (
    char_fn_standardized,
    edgeworth_build,
    moment_diagnostics,
    span_char_context,
    tv_oracle,
)
from lsequiv.harness import RunConfig, run_tv_decay


def main():
    n = 64
    basis = build_basis(n, 0, 0)
    alpha_eye = basis.project(np.ones((1, n)))  # the identity, sqrt(n) M_0
    ctx = span_char_context(alpha_eye, alpha_eye, basis)
    diag = moment_diagnostics(ctx)
    print(f"single-function window at n = {n}")
    print(f"  mu                      {diag['mu']:.8f}  (1 / sqrt(2n) = {1/np.sqrt(2*n):.8f})")
    print(f"  max third cumulant      {diag['max_abs_third_cumulant']:.8f}")

    t = np.array([0.7])
    law = (1.0 - 2.0j * t[0] / np.sqrt(2.0 * n)) ** (-n / 2.0) * np.exp(
        -1.0j * t[0] * np.sqrt(n / 2.0)
    )
    print(f"  cf vs chi-square law    {abs(char_fn_standardized(t, ctx) - law):.3e}")

    exp = edgeworth_build(ctx, 4)
    print("\nexpansion coefficients (degree: |coef| <= bound)")
    for m, coef in sorted(exp.nu.items()):
        print(f"  {m}: {abs(coef):.6f} <= {exp.coefficient_bound(m):.6f}")
    print(f"  validity radius         {exp.validity_radius:.4f}")

    tv, info = tv_oracle(ctx, details=True)
    print(f"\n  tv at n = {n}           {tv:.8f} (tail bound {info['tail_bound']:.2e})")

    print("\ntv decay along a dimension grid")
    header, rows = run_tv_decay(RunConfig(n_grid=(64, 128, 256, 512)))
    print(f"  {'n':>5} {'mu':>10} {'tv':>12} {'|tv - TV_1|':>12}")
    for row in rows:
        print(f"  {row[0]:>5} {row[2]:>10.6f} {row[3]:>12.8f} {row[6]:>12.3e}")


if __name__ == "__main__":
    main()
