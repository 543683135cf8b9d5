"""Bivariate Gaussian white-noise experiment and its localized chain.

The continuous observation dX = log f dt dx + 2 sqrt(pi/n) dW is carried
entirely through coefficient functionals against the orthonormal basis:
exact in law, with no time-discretization bias.  From the pilot density
estimate the chain proceeds through the localized drift, the sufficient
statistic in coefficient space, inverse-square-root projections and
their circulant counterparts, down to the Gaussian-orthogonal-ensemble
comparison.  Functionals are taken on the package's one quadrature grid
(spectral.default_grid), and the grid functions here (the pilot density and
its log, f_n, f_hat, the projected inverse root) are plain arrays of values
on it.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import (
    _guard_spectrum,
    band_extremes,
    band_function,
    band_product,
    band_to_dense,
    frob,
    is_positive_definite,
    signed_band,
    signed_frob,
    signed_to_dense,
    sym_abs,
    sym_eig,
    sym_inv_sqrt,
    wrapped_band,
)
from .circulant import (
    CirculantElement,
    hom_defect,
    psi_forward,
    psi_inverse_real,
    real_expansion_to_element,
)
from .errors import PreconditionError, RangeError, SingularMatrixError
from .report import CheckResult
from .rng import make_rng
from .spectral import default_grid, leading_indices

TWO_PI = 2.0 * math.pi

# a_n * sqrt(pi n) = 2 pi exactly for a_n = 2 sqrt(pi / n)
A_STAR = TWO_PI
# normalization of the sufficient-statistic shift
Y_SHIFT_SCALE = 1.0 / (TWO_PI * math.sqrt(2.0))

__all__ = [
    "A_STAR",
    "GammaVariants",
    "GoeComparison",
    "InvSqrtProjection",
    "LocalizedDrift",
    "WhiteNoiseObservation",
    "WhiteNoisePilot",
    "Y_SHIFT_SCALE",
    "gamma_min_eig_check",
    "gamma_variants",
    "goe_connection",
    "inv_sqrt_projection",
    "localized_drift",
    "log_tail_functional",
    "noise_level",
    "pilot_estimate",
    "pilot_risk_row",
    "simulate_wn",
    "sufficient_Y",
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

    n: int
    indices: list
    values: np.ndarray
    noise: float

    @property
    def j_count(self) -> int:
        return len(self.indices)

    @property
    def alpha_tilde(self) -> np.ndarray:
        """Rescaled coefficients sqrt(2 pi n) <phi_j, dX>."""
        return math.sqrt(TWO_PI * self.n) * self.values


def simulate_wn(f, n, rng) -> WhiteNoiseObservation:
    """Draw the first ceil(sqrt(n)) coefficient functionals of the sheet.

    Orthonormality makes the noise part of the coefficient vector iid
    N(0, a_n^2) exactly; the drift part is <phi_j, log f> by quadrature.
    """
    grid = default_grid()
    j_count = int(math.ceil(math.sqrt(n)))
    indices = leading_indices(j_count)
    means = grid.project(np.log(grid._as_values(f)), indices)
    a_n = noise_level(n)
    values = means + a_n * rng.standard_normal(j_count)
    return WhiteNoiseObservation(n=n, indices=indices, values=values, noise=a_n)


# ---------------------------------------------------------------------------
# pilot estimator


def target_coefficients(f, indices, n):
    """Localization targets <f, phi_j> * |M_j raw|_F = <f, phi_j> sqrt(2 pi (n - j2))."""
    j2 = np.array([idx.j2 for idx in indices])
    return default_grid().project(f, indices) * np.sqrt(TWO_PI * (n - j2))


def log_tail_functional(f, j_count) -> float:
    """Energy of log f beyond the first j_count basis coefficients.

    Evaluated as |log f|_{L2}^2 minus the captured coefficient energy,
    avoiding any enumeration of the discarded tail.
    """
    grid = default_grid()
    logf = np.log(grid._as_values(f))
    total = grid.integrate(logf**2)
    captured = np.sum(grid.project(logf, leading_indices(j_count)) ** 2)
    return float(max(total - captured, 0.0))


@dataclass
class WhiteNoisePilot:
    """Pilot density estimate and its diagnostics; log_estimate and density
    are grid values."""

    n: int
    indices: list
    alpha_tilde: np.ndarray
    log_estimate: np.ndarray
    density: np.ndarray
    alpha_hat: np.ndarray
    alpha_target: np.ndarray
    span_targets: np.ndarray
    risk: float
    span_gap: float
    b_tail: float


def pilot_estimate(obs, f, indices) -> WhiteNoisePilot:
    """Exponentiate the smoothed log-observation and project back.

    The smoother keeps every observed coefficient; alpha_hat is reported
    on `indices` (the chain's basis indices), with risk diagnostics against
    the localization targets of the true density f.
    """
    grid = default_grid()
    n = obs.n
    scale = math.sqrt(TWO_PI * n)
    smooth = grid.synthesize(obs.indices, obs.values)
    density = np.exp(smooth)
    alpha_hat = scale * grid.project(density, indices)
    alpha_target = target_coefficients(f, indices, n)
    span_targets = scale * grid.project(f, indices)
    return WhiteNoisePilot(
        n=n,
        indices=list(indices),
        alpha_tilde=obs.alpha_tilde,
        log_estimate=smooth,
        density=density,
        alpha_hat=alpha_hat,
        alpha_target=alpha_target,
        span_targets=span_targets,
        risk=float(np.sum((alpha_hat - alpha_target) ** 2)),
        span_gap=float(np.sum((span_targets - alpha_target) ** 2)),
        b_tail=log_tail_functional(f, obs.j_count),
    )


# pilot risk budget per basis coefficient
RISK_BOUND_PER_K = 50.0


def pilot_risk_row(f, n, indices, replicates, seed):
    """One risk-study CSV row; the replicates stream through project_exp."""
    grid = default_grid()
    j_count = int(math.ceil(math.sqrt(n)))
    lead = leading_indices(j_count)
    means = grid.project(np.log(grid._as_values(f)), lead)
    a_n = noise_level(n)
    rng = make_rng(seed, stream=n)
    draws = means + a_n * rng.standard_normal((replicates, j_count))

    alpha_hat = math.sqrt(TWO_PI * n) * grid.project_exp(lead, draws, indices)
    target = target_coefficients(f, indices, n)
    risks = np.sum((alpha_hat - target) ** 2, axis=1)
    risk_mean = float(np.mean(risks))
    K = len(indices)
    bound = RISK_BOUND_PER_K * K
    return {
        "n": n,
        "K": K,
        "J": j_count,
        "replicates": replicates,
        "risk_mean": risk_mean,
        "risk_bound": bound,
        "pass": risk_mean <= bound,
    }


# ---------------------------------------------------------------------------
# localized drift


@dataclass
class LocalizedDrift:
    """Span density f_n, its noisy companion (both grid values), and
    equivalence functionals."""

    f_n: np.ndarray
    f_hat: np.ndarray
    equiv1: float
    equiv2: float
    sup_gap: float
    sup_check: CheckResult


def localized_drift(
    alpha_theta,
    eta_tilde,
    n,
    indices,
    rho_star,
    gamma,
    f,
) -> LocalizedDrift:
    """Build f_n and f_hat from localized coefficients and noise.

    f_n resynthesizes the localization targets at white-noise scale;
    f_hat adds the truncated noise.  Both must stay inside
    [rho*/2, 2/rho*]; equiv1 measures n/(4 pi) |log f - log f_n|^2 and
    equiv2 the second-order log-versus-linear gap between f_n and f_hat.
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
    gap = np.log(grid._as_values(f)) - np.log(fn_vals)
    equiv1 = float(n / (4.0 * math.pi) * grid.integrate(gap**2))
    ratio = fn_vals / fhat_vals
    second = np.log(ratio) - (ratio - 1.0)
    equiv2 = float(n / (4.0 * math.pi) * grid.integrate(second**2))

    sup_gap = float(np.max(np.abs(fn_vals - fhat_vals)))
    sup_check = CheckResult(
        check_id="drift-sup-gap",
        ref="drift-noise-sup",
        lhs=sup_gap,
        rhs=math.sqrt(len(indices)) * gamma / (math.pi * math.sqrt(n)),
    )
    return LocalizedDrift(
        f_n=fn_vals,
        f_hat=fhat_vals,
        equiv1=equiv1,
        equiv2=equiv2,
        sup_gap=sup_gap,
        sup_check=sup_check,
    )


# ---------------------------------------------------------------------------
# sufficient statistic


def sufficient_Y(f_hat, alpha_theta, indices, rng):
    """Draw the sufficient statistic Y ~ N(Gamma alpha / (2 pi sqrt 2), Gamma).

    Gamma has entries int phi_j phi_j' / f_hat^2; it must be positive
    definite, with minimum eigenvalue at least 1 / sup(f_hat)^2.
    """
    grid = default_grid()
    fvals = grid._as_values(f_hat)
    if fvals.min() <= 0.0:
        raise RangeError("density estimate must be positive")
    gamma_f = grid.weighted_gram(indices, fvals**-2.0)
    w, v = sym_eig(gamma_f)
    if w.min() <= 0.0:
        raise SingularMatrixError("coefficient covariance is not PD")
    _guard_spectrum(w, require_pd=True)
    mean = Y_SHIFT_SCALE * (gamma_f @ np.asarray(alpha_theta, dtype=float))
    y = mean + ((v * np.sqrt(w)) @ v.T) @ rng.standard_normal(len(indices))
    return y, gamma_f


def gamma_min_eig_check(gamma_f, f_hat) -> CheckResult:
    """min eig(Gamma) >= 1 / sup(f_hat)^2, stated as rhs <= lhs flipped."""
    fvals = default_grid()._as_values(f_hat)
    w, _ = sym_eig(gamma_f)
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
    """Window projection of f_hat^{-1/2} (values on the grid) with sup-norm
    diagnostics."""

    indices: list
    coeffs: np.ndarray
    values: np.ndarray
    sup_error: float
    sup_check: CheckResult


def inv_sqrt_projection(f_hat, indices, rho_star):
    """Project f_hat^{-1/2} onto the index window."""
    grid = default_grid()
    fvals = grid._as_values(f_hat)
    if fvals.min() <= 0.0:
        raise RangeError("density estimate must be positive")
    target = fvals**-0.5
    coeffs = grid.project(target, indices)
    values = grid.synthesize(indices, coeffs)
    sup_error = float(np.max(np.abs(values - target)))
    sup_check = CheckResult(
        check_id="inv-sqrt-sup",
        ref="inv-sqrt-projection",
        lhs=float(np.max(np.abs(values))),
        rhs=math.sqrt(3.0 / rho_star),
    )
    return InvSqrtProjection(
        indices=list(indices),
        coeffs=coeffs,
        values=values,
        sup_error=sup_error,
        sup_check=sup_check,
    )


# ---------------------------------------------------------------------------
# covariance geometry in circulant coordinates


@dataclass
class GammaVariants:
    """Quadrature and circulant versions of the coefficient covariance."""

    gamma_f: np.ndarray
    gamma_tilde: np.ndarray
    gamma_check: np.ndarray
    delta_sq: np.ndarray
    delta_sq_bounds: np.ndarray
    gram_gap: float
    w_elem: CirculantElement
    defect_checks: list


# empirical headroom over the K^2/n^2 + K^4/n^4 defect budget
DEFECT_BUDGET_CONST = 200.0


def gamma_variants(f_hat, projection, basis) -> GammaVariants:
    """Covariance variants and the circulant product-defect accounting.

    gamma_tilde replaces 1/f_hat^2 by the fourth power of the projected
    inverse root; gamma_check conjugates the cyclic dictionary by the
    matrix counterpart W of that projection, evaluated entirely in exact
    coefficient algebra.  delta_j is the function-space defect between
    the conjugated dictionary element and wtilde^2 phi_j.
    """
    grid = default_grid()
    if list(projection.indices) != list(basis.indices):
        raise PreconditionError("projection and basis must share one window")
    n = basis.n
    indices = basis.indices
    fvals = grid._as_values(f_hat)
    wvals = projection.values
    sup_w = float(np.max(np.abs(wvals)))

    gamma_f = grid.weighted_gram(indices, fvals**-2.0)
    gamma_tilde = grid.weighted_gram(indices, wvals**4.0)

    w_elem = real_expansion_to_element(n, indices, projection.coeffs)
    m_elems = [real_expansion_to_element(n, [idx], [1.0]) for idx in indices]

    m_w = [m * w_elem for m in m_elems]
    conjugated = [w_elem * mw for mw in m_w]
    K = len(indices)
    gamma_check = np.empty((K, K))
    for a in range(K):
        for b in range(a, K):
            val = (TWO_PI / n) * conjugated[a].inner(conjugated[b]).real
            gamma_check[a, b] = val
            gamma_check[b, a] = val

    w_fn = psi_forward(w_elem)
    delta_sq = np.empty(K)
    delta_sq_bounds = np.empty(K)
    checks = []
    for j, (m, mw, t) in enumerate(zip(m_elems, m_w, conjugated)):
        phi_fn = psi_forward(m)
        exact = psi_forward(t)
        product = (w_fn * phi_fn) * w_fn
        delta_sq[j] = (exact - product).l2n_sq
        _, b1 = hom_defect(w_elem, mw, convention="symmetric")
        _, b2 = hom_defect(m, w_elem, convention="symmetric")
        delta_sq_bounds[j] = (math.sqrt(b1) + sup_w * math.sqrt(b2)) ** 2
        checks.append(
            CheckResult(
                check_id=f"circulant-defect-{j}",
                ref="product-defect",
                lhs=float(delta_sq[j]),
                rhs=float(delta_sq_bounds[j]),
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

    inv_root = sym_inv_sqrt(gamma_f)
    gram_gap = float(frob(inv_root @ (gamma_f - gamma_tilde) @ inv_root) ** 2)
    return GammaVariants(
        gamma_f=gamma_f,
        gamma_tilde=gamma_tilde,
        gamma_check=gamma_check,
        delta_sq=delta_sq,
        delta_sq_bounds=delta_sq_bounds,
        gram_gap=gram_gap,
        w_elem=w_elem,
        defect_checks=checks,
    )


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
    when it is read (GoeComparison).  x = sqrt(2 pi) C^{-1/2} is
    band_function's polynomial in the state's C (exact and dense for a C too
    ill-conditioned for a band), x Delta x two band products.  W and Dcheck
    are k2 + 1 wrapped diagonals (see _linalg), as is every cyclic expansion
    on the window.  W is positive definite when the banded Cholesky
    factorization of its reordered band succeeds; then it is its own |W|,
    |W| Dcheck |W| two wrapped-band products, and the gap to x Delta x is
    formed entry by entry in signed storage: no n x n array for a
    well-conditioned C.  Only an indefinite W takes |W| from a dense
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

    c_extremes = state.c_extremes
    x_signed = signed_band(
        band_function(state.c_band, -0.5, extremes=c_extremes, what="localized C")[0]
    )
    x_signed *= math.sqrt(A_STAR)
    whitened_delta = band_product(band_product(x_signed, signed_band(state.delta_band)), x_signed)
    abs_w = None
    if w_pd:
        w_signed = signed_band(w)
        sandwich = band_product(band_product(w_signed, signed_band(delta_check)), w_signed)
        gap = signed_frob(sandwich, whitened_delta)
    else:
        abs_w = sym_abs(band_to_dense(w))[0]
        gap = abs_w @ band_to_dense(delta_check) @ abs_w
        gap -= signed_to_dense(whitened_delta)
        gap = frob(gap)
    return GoeComparison(
        kl=gap**2 / (4.0 * A_STAR**2),
        state=state,
        gamma=gamma,
        w=w,
        delta_check=delta_check,
        x_signed=x_signed,
        abs_w=abs_w,
        c_lo=c_extremes[0],
    )
