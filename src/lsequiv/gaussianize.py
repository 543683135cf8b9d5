"""Experiment chain from Gaussian vectors to Gaussian coefficient summaries.

The pipeline: a pilot quadratic-form estimate of the covariance coefficients,
a truncated-noise localization that turns the unknown covariance into a known
matrix C close to it, the sufficient statistic T built from C, and the
closed-form Gaussian summaries (d, Gamma variants) that T converges to.  GOE
perturbation experiments and the symmetric-perturbation inequality live here
too, since the equivalence chain passes through them.

The chain's pilot draws N(0, theta) and the likelihood affinity check N(0, C)
through the banded Cholesky factor (band_gaussian_blocks); the check's only
n x n array is B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._linalg import (
    SYM_RTOL,
    band_chol_solve_t,
    band_cholesky,
    band_extremes,
    band_function,
    band_sandwich,
    band_to_dense,
    check_symmetric,
    chol_solve,
    cholesky,
    frob,
    guarded_eig,
    least_squares,
    spectral_norm,
    sym_inv,
    sym_inv_sqrt,
)
from .basis_cov import BasisSystem
from .errors import (
    AccuracyError,
    ConfigurationError,
    LocalizationError,
    PreconditionError,
    RangeError,
    SingularMatrixError,
)
from .report import CheckResult

TWO_PI = 2.0 * math.pi


@dataclass
class LocalizationConfig:
    """Contamination scale and truncation radius."""

    beta: float
    gamma: float

    def __post_init__(self):
        if self.beta <= 0.0 or self.gamma <= 0.0:
            raise ConfigurationError("beta and gamma must be positive")

    def acceptance_probability(self, k: int) -> float:
        """P(|N(0, beta^2 I_K)| <= gamma), exact via the chi-square cdf."""
        if not math.isfinite(self.gamma):
            return 1.0
        return chi2_cdf(k, (self.gamma / self.beta) ** 2)


def chi2_cdf(k: int, x: float) -> float:
    """P(chi^2_k <= x) for a positive integer k and x >= 0.

    With z = x / 2, m = k // 2 and u_i = z^(i+f) / Gamma(i+f+1), f = (k mod 2) / 2,
    P = e^-z sum_{i >= m} u_i (the lower incomplete gamma series)
      = 1 - e^-z sum_{i < m} u_i, or erf(sqrt(z)) - e^-z sum_{i < m} u_i for odd k
    (the finite Poisson sum).  The finite sum is taken where x >= k, so
    P >= 1/2 roughly and 1 - Q loses no relative accuracy; below, the series,
    whose terms fall by z / (i + f + 1) < 1 from i = m on.  Past z = 700,
    where e^-z underflows, k <= z is needed, and then P = 1 to within 1e-90.
    """
    z, m = 0.5 * x, k // 2
    if z > 700.0:
        if k > z:
            raise RangeError(f"chi-square cdf at x = {x:.3g} needs k <= x / 2, got {k}")
        return 1.0
    # e^-z u_i, from e^-z u_0 = e^-z (1 for even k, z^(1/2) / Gamma(3/2) for odd k)
    term = math.exp(-z) * (2.0 * math.sqrt(z / math.pi) if k % 2 else 1.0)
    frac = 0.5 * (k % 2)
    head = 0.0
    for i in range(1, m + 1):
        head += term
        term *= z / (i + frac)
    if x >= k:
        return (math.erf(math.sqrt(z)) if k % 2 else 1.0) - head
    total = 0.0
    # terms fall at least geometrically from i = m; the bound is generous
    for i in range(m + 1, m + 64 + 10 * math.isqrt(int(z) + 1)):
        total += term
        if term <= 2.0**-56 * total:
            return total
        term *= z / (i + frac)
    raise AccuracyError(f"chi-square cdf series at k = {k}, x = {x:.17g} did not converge")


# rejected draws allowed before giving up: P(all rejected) <= this
REJECTION_FAILURE_PROB = 1e-12


def rejection_attempts(accept: float) -> int:
    """Draws needed so that all are rejected with probability at most
    REJECTION_FAILURE_PROB, at acceptance probability accept."""
    if accept >= 1.0:
        return 1
    return math.ceil(math.log(REJECTION_FAILURE_PROB) / math.log1p(-accept))


def sample_truncated_noise(cfg: LocalizationConfig, k: int, rng) -> np.ndarray:
    """Rejection draw of N(0, beta^2 I_k) conditioned on norm <= gamma.

    The number of draws is capped by rejection_attempts; past the cap the
    draw raises a localization error instead of looping on.
    """
    accept = cfg.acceptance_probability(k)
    if accept < 1e-6:
        raise ConfigurationError(
            f"truncation acceptance probability {accept:.3g} too small; "
            "raise gamma or lower beta"
        )
    attempts = rejection_attempts(accept)
    for _ in range(attempts):
        draw = cfg.beta * rng.standard_normal(k)
        if not math.isfinite(cfg.gamma) or float(np.linalg.norm(draw)) <= cfg.gamma:
            return draw
    raise LocalizationError(
        f"no truncated draw accepted in {attempts} attempts (acceptance {accept:.3g})"
    )


def contraction_bound(c_lo, delta_band) -> float:
    """max_i sum_l |Delta_il| / min eig(C), an upper bound on |C^{-1} Delta|_2.

    c_lo is min eig(C) and Delta is in lower band storage; infinite when
    c_lo <= 0.  The largest absolute row sum of the symmetric Delta
    (Gershgorin) is at least |Delta|_2 and costs O(n k2), no eigensolver.
    """
    rows = np.abs(delta_band)
    # row i holds |Delta[i + j, i]| and, below the diagonal, |Delta[i, i - j]|
    sums = rows.sum(axis=0)
    for j in range(1, len(rows)):
        sums[j:] += rows[j, : len(sums) - j]
    return float(sums.max()) / c_lo if c_lo > 0.0 else math.inf


def build_localized_C(alpha_theta, eta_tilde, basis: BasisSystem):
    """(C, Delta, (C^{-1}, P), C^{-1/2}, B, extremes) for the revealed
    coefficients alpha + eta, all in lower band storage; extremes holds the
    (min eig, max eig) of C and of C_theta.

    C = sum (alpha + eta)_k M_k and Delta = C - C_theta have half-width k2;
    C^{-1} and C^{-1/2} are band_function's polynomials in C from one
    recurrence (each, for a C too ill-conditioned for a half-width below
    4 sqrt(n), its exact power as a full band), P = C^{-1} Delta C^{-1}
    (half-width 2w + k2) is band_sandwich(C^{-1}, Delta), and B = C^{-1} + P.
    C must be positive definite and C^{-1} Delta a spectral contraction; both
    failures raise a localization error so Monte Carlo drivers can count
    them.  |C^{-1} Delta|_2^2 = max eig(C^{-1} Delta^2 C^{-1}), with the
    band from band_sandwich(C^{-1}, Delta, Delta), is computed only when
    contraction_bound, the row-sum bound over min eig(C), is >= 1, so every
    decision is the exact one.
    """
    alpha_theta = np.asarray(alpha_theta, dtype=float)
    eta_tilde = np.asarray(eta_tilde, dtype=float)
    c_theta_band = basis.band(alpha_theta)
    c_band = basis.band(alpha_theta + eta_tilde)
    delta_band = c_band - c_theta_band
    # |C^{-1} Delta|_2 >= min eig(C_theta) / min eig(C) - 1 (at the lowest
    # eigenvector of C): a C this close to singular fails before C^{-1} is formed
    c_extremes, theta_extremes = band_extremes(c_band), band_extremes(c_theta_band)
    c_lo, theta_lo = c_extremes[0], theta_extremes[0]
    if 0.0 < 2.0 * c_lo < theta_lo:
        raise LocalizationError(
            f"perturbation not a contraction (|C^-1 Delta|_sp >= {theta_lo / c_lo - 1.0:.3g})"
        )
    (c_inv, _, _), (c_inv_sqrt, _, _) = band_function(
        c_band, (-1.0, -0.5), extremes=c_extremes, error=LocalizationError, what="localized C"
    )
    if contraction_bound(c_lo, delta_band) >= 1.0:
        z = band_sandwich(c_inv, delta_band, delta_band)
        contraction = math.sqrt(max(band_extremes(z)[1], 0.0))
        if contraction >= 1.0:
            raise LocalizationError(
                f"perturbation not a contraction (|C^-1 Delta|_sp = {contraction:.3g})"
            )
    p = band_sandwich(c_inv, delta_band)
    b_band = p.copy()
    b_band[: len(c_inv)] += c_inv
    return c_band, delta_band, (c_inv, p), c_inv_sqrt, b_band, (c_extremes, theta_extremes)


def pilot_risk_bound(k: int, rho: float) -> float:
    return 4.0 * k / rho**2


def gaussian_summaries(inverse, basis: BasisSystem, alpha_theta, theta_extremes):
    """(d, Gamma_theta, Gamma) for the summary experiments.

    With H = C^{-1} C_theta C^{-1}, all three come from trace identities on
    the band profiles: d_k = <H, M_k>, Gamma_kl = 2 tr(C^{-1} M_k C^{-1} M_l)
    and Gamma_theta,kl = 2 tr(H M_k H M_l).  Every matrix is a band: inverse
    is the pair (C^{-1}, P) of build_localized_C, so H = C^{-1} - P.
    C_theta, the combination of alpha_theta, must be positive definite, min
    eig > SYM_RTOL |max eig| on theta_extremes, its (min eig, max eig) from
    build_localized_C.  Its own Gram Gamma_tilde is
    ExperimentState.gamma_tilde, formed when read.  The results are
    symmetric by construction and positive semidefinite in exact arithmetic
    (Gram matrices), which is not enforced; d = Gamma alpha / 2 is enforced
    to 1e-8 relative.
    """
    lo, hi = theta_extremes
    if not lo > SYM_RTOL * abs(hi):
        raise SingularMatrixError(
            f"C_theta is not positive definite (min eig = {lo:.3e}, max eig = {hi:.3e})"
        )
    c_inv, p = inverse
    h = -p
    h[: len(c_inv)] += c_inv
    d_vec = basis.project(h)
    gamma = basis.trace_gram(c_inv)
    gamma_theta = basis.trace_gram(h)

    rel = summary_shift_defect(d_vec, gamma, alpha_theta)
    if rel > 1e-8:
        raise LocalizationError(f"summary identity d = Gamma alpha / 2 off by {rel:.3g}")
    return d_vec, gamma_theta, gamma


def summary_shift_defect(d_vec, gamma, alpha_theta) -> float:
    """|d - Gamma alpha / 2| / |d|, the relative defect of the summary shift."""
    target = 0.5 * gamma @ np.asarray(alpha_theta, dtype=float)
    return float(np.linalg.norm(d_vec - target) / max(np.linalg.norm(d_vec), 1e-300))


def neumann_residual_bound(gamma: float, c_rho: float, sp_sq_sum: float) -> float:
    """Geometric-series bound on the whitened inversion residual.

    sum_{k>=1} (gamma/c_rho)^{k+1} (sum_j |M_j|_sp^2)^{k/2}; infinite when the
    series diverges, which the caller reports rather than hides.
    """
    a = gamma / c_rho
    root_b = math.sqrt(sp_sq_sum)
    if a * root_b >= 1.0:
        return float("inf")
    return a**2 * root_b / (1.0 - a * root_b)


def neumann_residual(c_theta, b_theta) -> float:
    """|C_theta^{-1/2} (B^{-1} - C_theta) C_theta^{-1/2}|_F, exact."""
    cti_sqrt = sym_inv_sqrt(np.asarray(c_theta, dtype=float))
    middle = sym_inv(np.asarray(b_theta, dtype=float)) - c_theta
    return frob(cti_sqrt @ middle @ cti_sqrt)


def goe_sample(n: int, rng, reps=None) -> np.ndarray:
    """Symmetric Gaussian matrix: off-diagonal N(0,1), diagonal N(0,2); one
    (n, n) draw, or a (reps, n, n) stack read from the stream as reps single
    draws: row r of one (reps, n^2 + n) normal block is g, then the diagonal."""
    block = rng.standard_normal((1 if reps is None else reps, n * n + n))
    g = block[:, : n * n].reshape(-1, n, n)
    out = (g + np.transpose(g, (0, 2, 1))) / math.sqrt(2.0)
    out[:, np.arange(n), np.arange(n)] = math.sqrt(2.0) * block[:, n * n :]
    return out[0] if reps is None else out


@dataclass
class ExperimentState:
    """Everything the chain of samplers needs, built once and frozen.

    theta, C_theta, C, Delta = C - C_theta, B = C^{-1} + C^{-1} Delta C^{-1}
    and C^{-1/2} are held only in lower band storage (theta_band,
    c_theta_band, c_band, delta_band, b_band, c_inv_sqrt_band); a dense view
    is band_to_dense of one of them.  c_inv_sqrt_band, from the recurrence
    that gives C^{-1}, and c_extremes, (min eig, max eig) of C, are what
    build_localized_C formed and took, kept for goe_connection;
    gamma_tilde is formed on first read.
    """

    n: int
    basis: BasisSystem
    alpha_theta: np.ndarray
    eta_tilde: np.ndarray
    theta_band: np.ndarray
    c_theta_band: np.ndarray
    c_band: np.ndarray
    delta_band: np.ndarray
    b_band: np.ndarray
    c_inv_sqrt_band: np.ndarray
    d_vec: np.ndarray
    gamma_theta: np.ndarray
    gamma: np.ndarray
    c_extremes: tuple

    @property
    def K(self) -> int:
        return self.basis.K

    @cached_property
    def gamma_tilde(self) -> np.ndarray:
        """[2 tr(C_theta^{-1} M_k C_theta^{-1} M_l)]_kl, from band_function's
        C_theta^{-1}: the covariance of model L, which no driver samples."""
        c_theta_inv = band_function(self.c_theta_band, -1.0, what="C_theta")[0]
        return self.basis.trace_gram(c_theta_inv)

    @classmethod
    def build(cls, basis: BasisSystem, cfg: LocalizationConfig, rng, theta) -> "ExperimentState":
        """Assemble the chain state from the covariance theta (a
        CovarianceMatrix): alpha_theta is its basis projection (the
        pre-smoothing step) and C_theta the combination of alpha_theta."""
        alpha_theta = basis.project(theta.band)
        c_theta_band = basis.band(alpha_theta)
        eta = sample_truncated_noise(cfg, basis.K, rng)
        # one band C^{-1} serves the localization and the summaries
        c_band, delta_band, inverse, c_inv_sqrt, b_band, extremes = build_localized_C(
            alpha_theta, eta, basis
        )
        d_vec, gamma_theta, gamma = gaussian_summaries(inverse, basis, alpha_theta, extremes[1])
        return cls(
            n=basis.n,
            basis=basis,
            alpha_theta=alpha_theta,
            eta_tilde=eta,
            theta_band=theta.band,
            c_theta_band=c_theta_band,
            c_band=c_band,
            delta_band=delta_band,
            b_band=b_band,
            c_inv_sqrt_band=c_inv_sqrt,
            d_vec=d_vec,
            gamma_theta=gamma_theta,
            gamma=gamma,
            c_extremes=extremes[0],
        )


MODEL_IDS = ("A", "B", "D", "G", "H", "I", "J", "K", "L")


# Normal entries of one row block of band_gaussian_blocks (0.5 MB)
_DRAW_BLOCK = 1 << 16


def band_gaussian_blocks(factor, reps, rng):
    """reps draws x = L z ~ N(0, L L^T) for the lower banded Cholesky factor
    L[i + j, i] = factor[j, i] (band_cholesky), as row blocks (rows, z, x):
    each z holds at most _DRAW_BLOCK normals, so the blocks read the stream
    as one (reps, n) draw, and rows is the slice of the draws it holds."""
    n = factor.shape[1]
    step = max(1, _DRAW_BLOCK // n)
    for r0 in range(0, reps, step):
        z = rng.standard_normal((min(step, reps - r0), n))
        xs = z * factor[0]
        for j in range(1, len(factor)):
            xs[:, j:] += z[:, : n - j] * factor[j, : n - j]
        yield slice(r0, r0 + len(z)), z, xs


def sample_experiment(state: ExperimentState, model_id: str, rng) -> np.ndarray:
    """One observation from the named experiment in the chain.

    A vector model draws from the Cholesky factor L of its SPD covariance,
    banded for A, B and D (L^-T z ~ N(0, B^{-1})), K x K for G, H, I and L
    (2 Gamma_tilde^{-1} L z): no n x n array.  J and K, n x n, keep the
    DENSE_N_MAX cap.  A non-SPD covariance raises SingularMatrixError.
    """
    if model_id not in MODEL_IDS:
        raise ConfigurationError(f"unknown experiment id {model_id!r}")
    if model_id in ("A", "B"):
        cov = state.theta_band if model_id == "A" else state.c_theta_band
        _, _, xs = next(band_gaussian_blocks(band_cholesky(cov, what="covariance"), 1, rng))
        return xs[0]
    if model_id == "D":
        z = rng.standard_normal((state.n, 1))
        return band_chol_solve_t(band_cholesky(state.b_band, what="B"), z)[:, 0]
    if model_id == "G":
        return state.d_vec + cholesky(state.gamma_theta, "Gamma_theta") @ rng.standard_normal(state.K)
    if model_id in ("H", "I"):
        factor = cholesky(state.gamma, "Gamma")
        h_obs = 0.5 * state.gamma @ state.alpha_theta + factor @ rng.standard_normal(state.K)
        return h_obs if model_id == "H" else 2.0 * chol_solve(factor, h_obs)
    if model_id == "L":
        factor = cholesky(state.gamma_tilde, "Gamma_tilde")
        return state.alpha_theta + 2.0 * chol_solve(factor, factor @ rng.standard_normal(state.K))
    middle = state.c_theta_band if model_id == "J" else state.delta_band
    return band_to_dense(band_sandwich(state.c_inv_sqrt_band, middle)) + goe_sample(state.n, rng)


def sp_perturbation_check(a, b) -> CheckResult:
    """Whitened inverse-difference inequality for a symmetric perturbation.

    Skipped (with a report entry) when the whitened perturbation is not a
    spectral contraction, since the inequality presumes it.
    """
    a, b = (np.asarray(m, dtype=float) for m in (a, b))
    check_symmetric(a, what="first matrix")
    check_symmetric(b, what="second matrix")
    # a^{-1/2}, a^{1/2} and a^{-1} from one eigendecomposition
    w, v = guarded_eig(a, require_pd=False)
    if w[0] <= 0.0:
        raise PreconditionError("first matrix must be positive definite")
    root = np.sqrt(w)
    ai_sqrt, a_sqrt, a_inv = (v / root) @ v.T, (v * root) @ v.T, (v / w) @ v.T
    e_mat = ai_sqrt @ (b - a) @ ai_sqrt
    eps_sp = spectral_norm(e_mat)
    if eps_sp >= 1.0:
        return CheckResult(
            "perturbation.whitened_inverse", "spd-perturbation", eps_sp, 1.0, skipped=True)
    lhs = frob(a_sqrt @ (a_inv - sym_inv(b)) @ a_sqrt)
    rhs = frob(e_mat) / (1.0 - eps_sp)
    return CheckResult("perturbation.whitened_inverse", "spd-perturbation", lhs, rhs)


def _loglik_differences(state: ExperimentState, reps: int, rng):
    """([T, 1] rows, log N(x; 0, B^{-1}) - log N(x; 0, C)) for reps draws x ~ N(0, C).

    The draws are x = L z for the banded Cholesky factor L of C
    (band_gaussian_blocks), so x^T C^{-1} x = |z|^2, C^{-1} x = L^{-T} z is
    one triangular band solve and log det C comes from L's diagonal; B enters
    dense for x^T B x and as its banded Cholesky factor for log det B.  Only B
    and one row block are held besides the (reps, K + 1) and (reps,) results,
    whatever reps is."""
    c_chol = band_cholesky(state.c_band, PreconditionError, "C")
    b_chol = band_cholesky(state.b_band, PreconditionError, "B")
    b_dense = band_to_dense(state.b_band)
    logdet_b = -2.0 * float(np.sum(np.log(b_chol[0])))
    logdet_c = 2.0 * float(np.sum(np.log(c_chol[0])))
    draws = np.ones((reps, state.K + 1))
    diffs = np.empty(reps)
    for rows, z, xs in band_gaussian_blocks(c_chol, reps, rng):
        draws[rows, :-1] = state.basis.quad_form(band_chol_solve_t(c_chol, z.T).T)
        quad_b = np.sum(xs * (xs @ b_dense), axis=1)
        diffs[rows] = -0.5 * (quad_b + logdet_b) + 0.5 * (np.sum(z * z, axis=1) + logdet_c)
    return draws, diffs


def likelihood_affinity_check(state: ExperimentState, reps: int, rng) -> CheckResult:
    """The log-likelihood ratio of D against C-noise is affine in T.

    Regresses the exact log-density difference on the sufficient statistic;
    the residual must vanish and the slopes must match -<Delta, M_k>/2.
    """
    draws, diffs = _loglik_differences(state, reps, rng)
    coef = least_squares(draws, diffs)
    resid = float(np.max(np.abs(diffs - draws @ coef)))
    # the slopes against -<Delta, M_k> / 2
    slope_err = float(np.max(np.abs(coef[: state.K] + 0.5 * state.basis.project(state.delta_band))))
    lhs = max(resid, slope_err)
    return CheckResult("sufficiency.affine_loglik", "factorization", lhs, 0.0, tol=1e-8)
