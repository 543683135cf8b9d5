"""Bivariate Gaussian white-noise experiment and its localized chain.

The continuous observation dX = log f dt dx + 2 sqrt(pi/n) dW is carried
entirely through coefficient functionals against the orthonormal basis:
exact in law, with no time-discretization bias.  From the pilot density
estimate the chain proceeds through the localized drift, the covariance of
the sufficient statistic in coefficient space, the inverse-square-root
projection and its circulant counterpart, down to the
Gaussian-orthogonal-ensemble comparison.  Functionals are taken on the
package's one quadrature rule, the folded periodic trapezoid grid: at order
256 (spectral.default_grid), whose value arrays are the grid functions here
(the pilot density, f_hat, the projected inverse root), and, for the pilot
risk's exp projection (spectral.project_exp), at each replicate's least
certified order.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import (
    band_extremes,
    band_sandwich,
    band_to_dense,
    frob,
    guarded_eig,
    is_positive_definite,
    lower_frob,
    signed_band,
    signed_frob,
    signed_to_dense,
    sym_abs,
    wrapped_band,
)
from .circulant import (
    hom_defect,
    psi_forward,
    psi_inverse_real,
    real_expansion_to_element,
)
from .errors import PreconditionError, RangeError
from .report import CheckResult
from .rng import make_rng
from .spectral import default_grid, leading_indices, project_exp

TWO_PI = 2.0 * math.pi

# a_n * sqrt(pi n) = 2 pi exactly for a_n = 2 sqrt(pi / n)
A_STAR = TWO_PI

__all__ = [
    "A_STAR",
    "GoeComparison",
    "InvSqrtProjection",
    "WhiteNoiseObservation",
    "gamma_min_eig_check",
    "gamma_variants",
    "goe_connection",
    "inv_sqrt_projection",
    "localized_drift",
    "noise_level",
    "pilot_estimate",
    "pilot_risk_row",
    "simulate_wn",
    "target_coefficients",
]


def noise_level(n: int) -> float:
    """Noise scale a_n = 2 sqrt(pi / n) of the white-noise sheet."""
    return 2.0 * math.sqrt(math.pi / n)


# ---------------------------------------------------------------------------
# observation


@dataclass
class WhiteNoiseObservation:
    """Coefficient functionals of one white-noise draw.

    values[j] = <phi_j, log f> + a_n z_j with iid standard normal z;
    the indices walk the basis in frequency-shell order.
    """

    indices: list
    values: np.ndarray


def _wn_means(f, n):
    """The first J = ceil(sqrt(n)) indices, the drift <phi_j, log f> on them
    by quadrature, and the noise scale a_n."""
    grid = default_grid()
    lead = leading_indices(int(math.ceil(math.sqrt(n))))
    return lead, grid.project(np.log(grid._as_values(f)), lead), noise_level(n)


def simulate_wn(f, n, rng) -> WhiteNoiseObservation:
    """Draw the first ceil(sqrt(n)) coefficient functionals of the sheet.

    Orthonormality makes the noise part of the coefficient vector iid
    N(0, a_n^2) exactly; the drift part is <phi_j, log f> by quadrature.
    """
    lead, means, a_n = _wn_means(f, n)
    return WhiteNoiseObservation(indices=lead, values=means + a_n * rng.standard_normal(len(lead)))


# ---------------------------------------------------------------------------
# pilot estimator


def target_coefficients(f, indices, n):
    """Localization targets <f, phi_j> * |M_j raw|_F = <f, phi_j> sqrt(2 pi (n - j2))."""
    j2 = np.array([idx.j2 for idx in indices])
    return default_grid().project(f, indices) * np.sqrt(TWO_PI * (n - j2))


def pilot_estimate(obs) -> np.ndarray:
    """Pilot density on the grid: the exponentiated smoothed log-observation.

    The smoother keeps every observed coefficient.
    """
    return np.exp(default_grid().synthesize(obs.indices, obs.values))


# pilot risk budget per basis coefficient
RISK_BOUND_PER_K = 50.0


def pilot_risk_row(f, n, indices, replicates, seed):
    """One risk-study CSV row; the replicates stream through project_exp."""
    f = default_grid()._as_values(f)  # synthesized once for both projections
    lead, means, a_n = _wn_means(f, n)
    draws = means + a_n * make_rng(seed, stream=n).standard_normal((replicates, len(lead)))

    alpha_hat = math.sqrt(TWO_PI * n) * project_exp(lead, draws, indices)
    target = target_coefficients(f, indices, n)
    risks = np.sum((alpha_hat - target) ** 2, axis=1)
    risk_mean = float(np.mean(risks))
    K = len(indices)
    bound = RISK_BOUND_PER_K * K
    return {
        "n": n,
        "K": K,
        "J": len(lead),
        "replicates": replicates,
        "risk_mean": risk_mean,
        "risk_bound": bound,
        "pass": risk_mean <= bound,
    }


# ---------------------------------------------------------------------------
# localized drift


def localized_drift(alpha_theta, eta_tilde, n, indices, rho_star, gamma):
    """(f_hat, sup_check): the noisy span density and its noise check.

    f_n resynthesizes the localization targets at white-noise scale and
    f_hat adds the truncated noise; both must stay inside
    [rho*/2, 2/rho*].  f_hat is returned as grid values; sup_check bounds
    sup |f_n - f_hat| by sqrt(K) gamma / (pi sqrt(n)).
    """
    grid = default_grid()
    alpha_theta = np.asarray(alpha_theta, dtype=float)
    eta_tilde = np.asarray(eta_tilde, dtype=float)
    scale = 1.0 / math.sqrt(TWO_PI * n)
    fn_vals, noise_vals = grid.synthesize(indices, scale * np.stack([alpha_theta, eta_tilde]))
    fhat_vals = fn_vals + noise_vals
    lo, hi = rho_star / 2.0, 2.0 / rho_star
    for name, vals in (("f_n", fn_vals), ("f_hat", fhat_vals)):
        if vals.min() < lo or vals.max() > hi:
            raise RangeError(
                f"{name} leaves [{lo:.6g}, {hi:.6g}]: "
                f"range [{vals.min():.6g}, {vals.max():.6g}]"
            )
    sup_check = CheckResult(
        check_id="drift-sup-gap",
        ref="drift-noise-sup",
        lhs=float(np.max(np.abs(fn_vals - fhat_vals))),
        rhs=math.sqrt(len(indices)) * gamma / (math.pi * math.sqrt(n)),
    )
    return fhat_vals, sup_check


# ---------------------------------------------------------------------------
# sufficient statistic


def gamma_min_eig_check(f_hat, indices) -> CheckResult:
    """min eig(Gamma) >= 1 / sup(f_hat)^2, stated as rhs <= lhs flipped.

    Gamma, the covariance of the sufficient statistic Y, has entries
    int phi_j phi_j' / f_hat^2; f_hat must be positive and Gamma positive
    definite.
    """
    grid = default_grid()
    fvals = grid._as_values(f_hat)
    if fvals.min() <= 0.0:
        raise RangeError("density estimate must be positive")
    w, _ = guarded_eig(grid.weighted_gram(indices, fvals**-2.0), require_pd=True)
    return CheckResult(
        check_id="gamma-min-eig",
        ref="sufficient-covariance",
        lhs=float(1.0 / fvals.max() ** 2),
        rhs=float(w.min()),
        tol=1e-10,
    )


# ---------------------------------------------------------------------------
# inverse-square-root projection


@dataclass
class InvSqrtProjection:
    """Window projection of f_hat^{-1/2}: its coefficients on the window,
    and its values on the grid when they are read."""

    indices: list
    coeffs: np.ndarray

    @cached_property
    def values(self) -> np.ndarray:
        return default_grid().synthesize(self.indices, self.coeffs)


def inv_sqrt_projection(f_hat, indices):
    """Project f_hat^{-1/2} onto the index window."""
    grid = default_grid()
    fvals = grid._as_values(f_hat)
    if fvals.min() <= 0.0:
        raise RangeError("density estimate must be positive")
    return InvSqrtProjection(indices=list(indices), coeffs=grid.project(fvals**-0.5, indices))


# ---------------------------------------------------------------------------
# circulant product defects


# empirical headroom over the K^2/n^2 + K^4/n^4 defect budget
DEFECT_BUDGET_CONST = 200.0


def gamma_variants(projection, basis) -> list:
    """The circulant product-defect checks of the projected inverse root.

    W, the matrix counterpart of the projection w, conjugates each cyclic
    dictionary element M_j in exact coefficient algebra; delta_j is the
    function-space defect between W M_j W and w^2 phi_j, checked against the
    homomorphism defects of its two products, and the largest delta_j
    against the K^2/n^2 + K^4/n^4 budget.
    """
    if list(projection.indices) != list(basis.indices):
        raise PreconditionError("projection and basis must share one window")
    n = basis.n
    indices = basis.indices
    sup_w = float(np.max(np.abs(projection.values)))

    w_elem = real_expansion_to_element(n, indices, projection.coeffs)
    w_fn = psi_forward(w_elem)
    K = len(indices)
    delta_sq = np.empty(K)
    checks = []
    for j, idx in enumerate(indices):
        m = real_expansion_to_element(n, [idx], [1.0])
        mw = m * w_elem
        product = (w_fn * psi_forward(m)) * w_fn
        delta_sq[j] = (psi_forward(w_elem * mw) - product).l2n_sq
        _, b1 = hom_defect(w_elem, mw, convention="symmetric")
        _, b2 = hom_defect(m, w_elem, convention="symmetric")
        checks.append(
            CheckResult(
                check_id=f"circulant-defect-{j}",
                ref="product-defect",
                lhs=float(delta_sq[j]),
                rhs=float((math.sqrt(b1) + sup_w * math.sqrt(b2)) ** 2),
                tol=1e-12,
            )
        )
    budget = DEFECT_BUDGET_CONST * (K**2 / n**2 + K**4 / n**4)
    checks.append(
        CheckResult(
            check_id="circulant-defect-budget",
            ref="product-defect",
            lhs=float(np.max(delta_sq)),
            rhs=float(budget),
        )
    )
    return checks


# ---------------------------------------------------------------------------
# GOE comparison


@dataclass(eq=False)
class GoeComparison:
    """Exact divergence between the two ensemble shifts and its bound.

    kl is computed with the comparison.  The three-term bound b1 + b2 + b3,
    the spectral norms and the gaps it takes are computed on first read from
    the bands kept here, so a caller that reads only kl does not pay for the
    norms of W and Dcheck (dsbevx on reordered wrapped bands, O(n^2)).  W and
    Dcheck are wrapped diagonals, x = sqrt(2 pi) C^{-1/2} is in signed
    storage, and abs_w is the dense |W| of an indefinite W (None when W is
    positive definite, its own |W|).  gamma, the localization scale, sets
    the dictionary-gap bound gamma^2 sum_k |Mcheck_k - M_k|_F^2.
    """

    kl: float
    state: object
    gamma: float
    w: np.ndarray
    delta_check: np.ndarray
    x_signed: np.ndarray
    abs_w: np.ndarray | None
    c_lo: float

    @cached_property
    def w_sp(self) -> float:
        """|W|_2."""
        return max(abs(e) for e in band_extremes(wrapped_band(self.w)))

    @cached_property
    def delta_check_sp(self) -> float:
        """|Dcheck|_2."""
        return max(abs(e) for e in band_extremes(wrapped_band(self.delta_check)))

    @cached_property
    def delta_sp(self) -> float:
        """|Delta|_2."""
        return max(abs(e) for e in band_extremes(self.state.delta_band))

    @cached_property
    def dict_gap_sq(self) -> float:
        """|Dcheck - Delta|_F^2."""
        return signed_frob(signed_band(self.delta_check), signed_band(self.state.delta_band)) ** 2

    @cached_property
    def root_gap_sq(self) -> float:
        """| |W / sqrt(2 pi)| - C^{-1/2} |_F^2."""
        if self.abs_w is None:
            return signed_frob(signed_band(self.w), self.x_signed) ** 2 / A_STAR
        return frob(self.abs_w - signed_to_dense(self.x_signed)) ** 2 / A_STAR

    @cached_property
    def b1(self) -> float:
        return 3.0 / A_STAR * self.root_gap_sq * self.delta_check_sp**2 * self.w_sp**2

    @cached_property
    def b2(self) -> float:
        return 3.0 / A_STAR * (1.0 / self.c_lo) * self.dict_gap_sq * self.w_sp**2

    @cached_property
    def b3(self) -> float:
        return 3.0 * (1.0 / self.c_lo) * self.delta_sp**2 * self.root_gap_sq

    @cached_property
    def bound_sum(self) -> float:
        return self.b1 + self.b2 + self.b3

    @cached_property
    def bound_check(self) -> CheckResult:
        return CheckResult(
            check_id="goe-kl-bound",
            ref="ensemble-comparison",
            lhs=4.0 * self.kl,
            rhs=self.bound_sum,
            tol=1e-9 * max(1.0, self.bound_sum),
        )

    @cached_property
    def dictionary_gap_check(self) -> CheckResult:
        return CheckResult(
            check_id="dictionary-gap",
            ref="ensemble-comparison",
            lhs=self.dict_gap_sq,
            rhs=float(self.gamma**2 * np.sum(self.state.basis.mcheck_gaps() ** 2)),
        )


def goe_connection(state, w, gamma) -> GoeComparison:
    """Compare the circulant-shift ensemble with the whitened-shift one.

    kl is the exact Kullback-Leibler divergence
    | |W/sqrt(2 pi)| Dcheck |W/sqrt(2 pi)| - C^{-1/2} D C^{-1/2} |_F^2 / 4;
    b1 + b2 + b3 is its three-term upper bound, certified to dominate, taken
    when it is read (GoeComparison).  x = sqrt(2 pi) C^{-1/2} is the state's
    C^{-1/2}, band_function's polynomial in C from the recurrence that gave
    C^{-1} (exact and dense for a C too ill-conditioned for a band), and
    x Delta x is band_sandwich's lower half.  W and Dcheck are k2 + 1
    wrapped diagonals (see _linalg), as is every cyclic expansion on the
    window.  W is positive definite when the banded Cholesky factorization
    of its reordered band succeeds; then it is its own |W|, |W| Dcheck |W|
    is band_sandwich's lower half of wrapped bands, and the gap to x Delta x
    is read from the two lower halves entry by entry (lower_frob): no n x n
    array for a well-conditioned C.  Only an indefinite W takes |W| from a dense
    eigendecomposition, with a dense gap.  2 pi is folded into the scalars.
    gamma is the schedule's localization scale, read by the dictionary-gap
    check.
    """
    basis = state.basis
    n, k2 = basis.n, basis.k2
    w = np.asarray(w, dtype=float)
    if w.shape != (k2 + 1, n):
        raise PreconditionError(f"W must be {k2 + 1} wrapped diagonals of length {n}")
    w_pd = is_positive_definite(wrapped_band(w), "W")

    # Dcheck = sum_k eta_k Mcheck_k with Mcheck_k = sqrt(2 pi / n) mcheck_element(n, idx_k)
    scale = math.sqrt(TWO_PI / n)
    delta_check = psi_inverse_real(n, basis.indices, scale * state.eta_tilde)

    x_signed = signed_band(state.c_inv_sqrt_band)
    x_signed *= math.sqrt(A_STAR)
    whitened_delta = band_sandwich(x_signed, signed_band(state.delta_band))
    abs_w = None
    if w_pd:
        sandwich = band_sandwich(signed_band(w), signed_band(delta_check))
        gap = lower_frob(sandwich, whitened_delta)
    else:
        abs_w = sym_abs(band_to_dense(w))[0]
        gap = abs_w @ band_to_dense(delta_check) @ abs_w
        gap -= band_to_dense(whitened_delta)
        gap = frob(gap)
    return GoeComparison(
        kl=gap**2 / (4.0 * A_STAR**2),
        state=state,
        gamma=gamma,
        w=w,
        delta_check=delta_check,
        x_signed=x_signed,
        abs_w=abs_w,
        c_lo=state.c_extremes[0],
    )
