"""Study drivers: the Gaussian KL, schedules, chain runner, exports.

Everything here is a pure function of (config, seed), apart from the
runtime columns an explicit timings flag adds.  Randomness goes
through counter-based streams keyed by (seed, stream id), report floats are
serialized at 17 significant digits, and CSV output follows RFC 4180, so
repeated runs are byte-identical.  Grid functionals are taken on the one
quadrature rule, spectral.QuadratureGrid, at the order 256 of
spectral.default_grid, a constant of the instrument rather than a setting of
a run.
"""

import cmath
import dataclasses
import json
import math
import os
import struct
import time

import numpy as np

from ._linalg import band_cholesky, check_finite, chol_logdet, chol_solve, cholesky
from .basis_cov import (
    BasisSystem,
    build_basis,
    build_theta,
    coeff_identity_check,
    diagonal_gram,
    presmoothing_residual,
    theta_lipschitz_check,
    theta_spectral_check,
)
from .circulant import CirculantElement, hom_defect, lambda_phase, mcheck_element, psi_inverse_real, window_guard
from .cltcheck import (
    char_fn_standardized,
    context_from_state,
    edgeworth_build,
    edgeworth_tv,
    fourier_tail_integral,
    remainder_bound,
    span_char_context,
    tv_oracle,
)
from .errors import ConfigurationError, PreconditionError, TypedError
from .gaussianize import (
    ExperimentState,
    LocalizationConfig,
    band_gaussian_blocks,
    goe_sample,
    likelihood_affinity_check,
    sp_perturbation_check,
    summary_shift_defect,
)
from .report import SCHEMA, CheckResult, VerificationReport, csv_text, fmt_float, json_text, write_text
from .rng import make_rng
from .spectral import random_density
from .whitenoise import (
    gamma_min_eig_check,
    gamma_variants,
    goe_connection,
    inv_sqrt_projection,
    localized_drift,
    pilot_estimate,
    pilot_risk_row,
    simulate_wn,
)

__all__ = [
    "gaussian_kl",
    "Schedule",
    "schedule",
    "DEFAULT_BUDGETS",
    "condition_checker",
    "RunConfig",
    "config_density",
    "whitening_matrix",
    "run_verify",
    "CHAIN_HEADER",
    "run_equivalence_chain",
    "TV_HEADER",
    "run_tv_decay",
    "export_basis",
]


# ---------------------------------------------------------------------------
# closed-form Gaussian divergence


def gaussian_kl(mean1, cov1, mean2, cov2) -> float:
    """KL(N1 || N2) between two Gaussian laws, in closed form."""
    m1 = np.asarray(mean1, dtype=float).ravel()
    m2 = np.asarray(mean2, dtype=float).ravel()
    c1 = np.asarray(cov1, dtype=float)
    c2 = np.asarray(cov2, dtype=float)
    k = m1.size
    if m2.size != k or c1.shape != (k, k) or c2.shape != (k, k):
        raise PreconditionError("mean/covariance dimensions do not agree")
    inputs = {"first mean": m1, "first covariance": c1, "second mean": m2, "second covariance": c2}
    for what, a in inputs.items():
        check_finite(a, what)
    ld1 = chol_logdet(cholesky(c1, "first covariance"))
    l2 = cholesky(c2, "second covariance")
    diff = m2 - m1
    kl = 0.5 * (
        float(np.trace(chol_solve(l2, c1)))
        + float(diff @ chol_solve(l2, diff))
        - k
        + chol_logdet(l2)
        - ld1
    )
    return max(kl, 0.0)


# ---------------------------------------------------------------------------
# asymptotic schedule


@dataclasses.dataclass(frozen=True)
class Schedule:
    """Window sizes and rate parameters attached to one sample size."""

    n: int
    k1: int
    k2: int
    K: int
    gamma: float
    beta_sq: float
    Q: int
    R: float

    @property
    def beta(self) -> float:
        return math.sqrt(self.beta_sq)


def schedule(n: int, k1=None, k2=None) -> Schedule:
    """Default slowly-growing parameter schedule at sample size n.

    The window exponent 1/20 keeps every power-law side condition decaying;
    gamma, beta^2, Q, and R grow like K times an iterated logarithm, so the
    admissibility constraint R^2 >= Q + K + 1 holds at every n.
    """
    if n < 8:
        raise ConfigurationError("schedule needs n >= 8")
    width = max(1, int(math.floor((n / math.log(n)) ** (1.0 / 20.0))))
    k1 = width if k1 is None else int(k1)
    k2 = width if k2 is None else int(k2)
    if min(k1, k2) < 0:
        raise ConfigurationError("window sizes must be nonnegative")
    K = (2 * k1 + 1) * (k2 + 1)
    slow = math.log(math.log(n + math.e**2))
    gamma = K * slow
    beta_sq = K * slow
    Q = int(math.ceil(K * slow))
    R = math.sqrt(Q + K + 1.0) * slow
    return Schedule(n=n, k1=k1, k2=k2, K=K, gamma=gamma, beta_sq=beta_sq, Q=Q, R=R)


DEFAULT_BUDGETS = {
    "k10-log-over-n": 1.0,
    "gamma-sq-K-over-n": 0.1,
    "pilot-K-sq-over-gamma-sq": 1.0,
    "gamma4-K-over-n": 1.0,
    "r-sq-over-n": 1.0,
}


def condition_checker(sched: Schedule) -> list:
    """Numeric value of every displayed rate condition at this n.

    Each quantity must tend to zero along the schedule; DEFAULT_BUDGETS say
    how large a desk-scale value is still acceptable.  The final entry is the
    hard admissibility constraint R^2 >= Q + K + 1.
    """
    n, K, g, R, Q = sched.n, sched.K, sched.gamma, sched.R, sched.Q
    values = {
        "k10-log-over-n": K**10 * math.log(n) / n,
        "gamma-sq-K-over-n": g**2 * K / n,
        "pilot-K-sq-over-gamma-sq": K**2 / g**2,
        "gamma4-K-over-n": g**4 * K / n,
        "r-sq-over-n": R**2 / n,
    }
    entries = [
        CheckResult("condition-" + key, "asymptotic-rate", values[key], DEFAULT_BUDGETS[key])
        for key in sorted(values)
    ]
    entries.append(
        CheckResult(
            "condition-admissible-radius",
            "series-admissibility",
            float(Q + K + 1),
            R**2,
        )
    )
    return entries


# ---------------------------------------------------------------------------
# run configuration


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclasses.dataclass
class RunConfig:
    """Study settings; every driver below is deterministic given one."""

    n_grid: tuple = (64, 128, 256)
    seed: int = 0
    k1: int = None
    k2: int = None
    s: float = 11.0
    L: float = 5.0
    rho_star: float = 0.5
    density_mean: float = 0.6
    density_amplitude: float = 0.25
    replicates: int = 100

    def __post_init__(self):
        if not isinstance(self.n_grid, (list, tuple)) or not all(map(_is_int, self.n_grid)):
            raise ConfigurationError(f"n_grid must be a list of integers, got {self.n_grid!r}")
        grid = tuple(self.n_grid)
        if not grid:
            raise ConfigurationError("n_grid must be nonempty")
        if any(v < 8 for v in grid):
            raise ConfigurationError("all sample sizes must be >= 8")
        if any(a >= b for a, b in zip(grid, grid[1:])):
            raise ConfigurationError("n_grid must be strictly increasing")
        self.n_grid = grid
        if not _is_int(self.replicates) or self.replicates < 1:
            raise ConfigurationError(f"replicates must be a positive integer, got {self.replicates!r}")
        if not _is_int(self.seed):
            raise ConfigurationError(f"seed must be an integer, got {self.seed!r}")
        for name in ("k1", "k2"):
            k = getattr(self, name)
            if k is not None and not (_is_int(k) and k >= 0):
                raise ConfigurationError(f"{name} must be a nonnegative integer or null, got {k!r}")
        for name in ("s", "L", "rho_star", "density_mean", "density_amplitude"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)):
                raise ConfigurationError(f"{name} must be a finite number, got {v!r}")
        if not 0.0 < self.rho_star <= 1.0:
            raise ConfigurationError("rho_star must lie in (0, 1]")
        if self.s < 0.0 or self.L < 0.0:
            raise ConfigurationError(f"s and L must be nonnegative, got s = {self.s!r}, L = {self.L!r}")

    def window(self, n: int) -> Schedule:
        return schedule(n, self.k1, self.k2)

    def to_json(self) -> str:
        return json_text(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigurationError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(payload) - known
        if extra:
            raise ConfigurationError(f"unknown config keys: {sorted(extra)}")
        try:
            return cls(**payload)
        except ConfigurationError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"config value of the wrong type: {exc}") from exc


_DENSITY_STREAM = 101


def config_density(cfg: RunConfig, k1: int = None, k2: int = None):
    """The study density: one seeded class member shared by every n.

    It lives in the span of the smallest window on the grid, so windows at
    larger n always contain it.
    """
    if k1 is None or k2 is None:
        sched = cfg.window(cfg.n_grid[0])
        k1 = sched.k1 if k1 is None else k1
        k2 = sched.k2 if k2 is None else k2
    return random_density(
        k1,
        k2,
        make_rng(cfg.seed, stream=_DENSITY_STREAM),
        s=cfg.s,
        L=cfg.L,
        rho_star=cfg.rho_star,
        mean=cfg.density_mean,
        amplitude=cfg.density_amplitude,
    )


def whitening_matrix(f_hat, basis: BasisSystem):
    """Circulant-type proxy for the inverse covariance root.

    Projects 1/sqrt(f_hat) onto the window, then pulls the projection back
    through the symmetric-map inverse, as k2 + 1 wrapped diagonals;
    |W / sqrt(2 pi)| plays the role of C^{-1/2} in the ensemble comparison.
    """
    return psi_inverse_real(basis.n, basis.indices, inv_sqrt_projection(f_hat, basis.indices))


# ---------------------------------------------------------------------------
# verify driver


def _stopwatch():
    """A clock: each call returns the wall milliseconds since its previous
    call, the first since the clock was made."""
    last = time.perf_counter()

    def lap() -> float:
        nonlocal last
        started, last = last, time.perf_counter()
        return (last - started) * 1e3

    return lap


def _chi_square_cf(t, n) -> complex:
    """(1 - 2it / sqrt(2n))^{-n/2} exp(-it sqrt(n/2)), the characteristic
    function of (chi-square(n) - n) / sqrt(2n), in log form: with
    x = 2t / sqrt(2n) its log is -(n/4) log1p(x^2) + i ((n/2) arctan x -
    t sqrt(n/2)), so the power n/2 multiplies no rounding of the base."""
    x = 2.0 * t / math.sqrt(2.0 * n)
    return cmath.exp(complex(-0.25 * n * math.log1p(x * x), 0.5 * n * math.atan(x) - t * math.sqrt(n / 2.0)))


def pinned_hom_defect(n: int) -> float:
    """hom_defect of U = (Lambda S) / sqrt(n) with itself in closed form,
    |lambda - 1|^2 / n = 4 sin^2(pi / n) / n, lambda = exp(2 pi i / n): the
    sine form loses no digits to the cancellation in 2 - 2 cos(2 pi / n)."""
    return 4.0 * math.sin(math.pi / n) ** 2 / n


def run_verify(n: int, seed: int = 0, timings: bool = False) -> VerificationReport:
    """Self-contained inequality and identity suite at one sample size.

    The checks come in groups, one add call each; with timings, every check
    of a group records the wall milliseconds since the previous group."""
    sched = schedule(n)
    k1, k2 = sched.k1, sched.k2
    # the density class of the study drivers: RunConfig's defaults
    s, L, rho_star = RunConfig.s, RunConfig.L, RunConfig.rho_star
    config = dict(command="verify", n=n, seed=seed, k1=k1, k2=k2, s=s, L=L, rho_star=rho_star)
    report = VerificationReport(config=config)
    lap = _stopwatch()

    def add(entries):
        elapsed = lap()
        if timings:
            for e in entries:
                e.runtime_ms = elapsed
        report.extend(entries)

    # class membership and covariance spectrum
    f = random_density(k1, k2, make_rng(seed, stream=_DENSITY_STREAM), s=s, L=L, rho_star=rho_star)
    add(f.check_membership())
    theta = build_theta(f, n)
    add(theta_spectral_check(theta, rho_star))
    add(theta_lipschitz_check(f, f.scaled_deviation(0.5), n))

    basis = build_basis(n, k1, k2)
    add(coeff_identity_check(f, basis))

    # multiplication defect of the circulant-to-function map
    unit = (1.0 / math.sqrt(n)) * CirculantElement.basis(n, 1, 1)
    lhs, bound = hom_defect(unit, unit)
    closed = pinned_hom_defect(n)
    checks = [
        CheckResult("psi-hom-pinned", "exact-identity", abs(lhs - closed), 0.0, tol=1e-14),
        CheckResult("psi-hom-pinned-bound", "closed-form-bound", lhs, bound),
    ]
    rng = make_rng(seed, stream=201)
    for i in range(5):
        shape = (2 * k1 + 1, 2 * k2 + 1)
        a = CirculantElement(n, k1, k2, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        b = CirculantElement(n, k1, k2, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for convention in ("plain", "symmetric"):
            lhs, bound = hom_defect(a, b, convention=convention)
            checks.append(CheckResult(f"psi-hom-bound-{convention}-{i}", "closed-form-bound", lhs, bound))
    add(checks)

    # norms and Gram matrices of both matrix families, from the nonzero
    # diagonals: Lambda^j S^j2 has one, lambda^(j i) for every j2, and the
    # raw M_k one band, mirrored when j2 > 0
    worst_cm = max(
        abs(float(np.sum(np.abs(lambda_phase(n, j * np.arange(n))) ** 2)) - n)
        for j in range(min(k1, 2) + 1)
    )
    worst_m = 0.0
    for k, idx in enumerate(basis.indices):
        raw = basis.raw_norms[k] * basis.bands[k]
        frob_sq = (2.0 if idx.j2 else 1.0) * math.fsum(raw * raw)
        worst_m = max(worst_m, abs(frob_sq - 2.0 * math.pi * (n - idx.j2)))
    eye = np.eye(basis.K)
    band_gap = float(np.max(np.abs(diagonal_gram(basis.offsets, basis.bands) - eye)))
    circ_gap = float(np.max(np.abs(diagonal_gram(basis.offsets, basis.mcheck_profiles()) - eye)))
    add(
        [
            CheckResult("circulant-norm-sq", "exact-identity", worst_cm, 0.0, tol=1e-9 * n),
            CheckResult("band-norm-sq", "exact-identity", worst_m, 0.0, tol=1e-9 * n),
            CheckResult("band-gram", "exact-identity", band_gap, 0.0, tol=1e-10),
            CheckResult("circulant-gram", "exact-identity", circ_gap, 0.0, tol=1e-10),
        ]
    )

    # localized state and the summary-shift identity
    loc = LocalizationConfig(beta=sched.beta, gamma=sched.gamma)
    state = ExperimentState.build(basis, loc, theta=theta, rng=make_rng(seed, stream=202))
    rel = summary_shift_defect(state.d_vec, state.gamma, state.alpha_theta)
    add([CheckResult("summary-shift-identity", "exact-identity", rel, 0.0, tol=1e-8)])

    # spectral perturbation inequality on seeded SPD pairs
    checks = []
    rng = make_rng(seed, stream=203)
    for i in range(3):
        dim = 5 + i
        base = rng.standard_normal((dim, dim))
        a = base @ base.T + dim * np.eye(dim)
        pert = rng.standard_normal((dim, dim))
        b = a + 0.05 * np.linalg.norm(a, 2) * (pert + pert.T) / np.linalg.norm(pert + pert.T, 2)
        chk = sp_perturbation_check(a, b)
        chk.check_id = f"sp-perturbation-{i}"
        checks.append(chk)
    add(checks)

    # ensemble sampler variances
    rng = make_rng(seed, stream=204)
    draws = goe_sample(8, rng, reps=3000)
    diag_var = float(np.var(np.einsum("rii->ri", draws)))
    off_var = float(np.var(draws[:, ~np.eye(8, dtype=bool)]))
    del draws
    add(
        [
            CheckResult("goe-diag-variance", "monte-carlo", abs(diag_var - 2.0) / 2.0, 0.05),
            CheckResult("goe-offdiag-variance", "monte-carlo", abs(off_var - 1.0), 0.05),
        ]
    )

    # likelihood affinity of paired models
    add([likelihood_affinity_check(state, 800, make_rng(seed, stream=205))])

    # characteristic function against the closed quadratic-form law
    scalar = build_basis(n, 0, 0)
    alpha_eye = scalar.project(np.ones((1, n)))  # I = sqrt(n) M_0
    ctx = span_char_context(alpha_eye, alpha_eye, scalar)
    worst = 0.0
    for t in (0.3, 1.1, 2.7):
        got = complex(char_fn_standardized(np.array([t]), ctx))
        worst = max(worst, abs(got - _chi_square_cf(t, n)))
    add([CheckResult("charfn-quadratic-law", "exact-identity", worst, 0.0, tol=1e-12)])

    # series expansion remainder inside its validity ball
    expansion = edgeworth_build(ctx, 4)
    radius = expansion.validity_radius
    checks = []
    for i in range(10):
        t = np.array([(0.05 + 0.9 * i / 9.0) * radius])
        approx = expansion.poly_eval(t)
        exact = char_fn_standardized(t, ctx) * np.exp(0.5 * float(t @ t))
        gap = abs(complex(exact) - complex(approx))
        checks.append(CheckResult(f"edgeworth-remainder-{i}", "series-bound", gap, remainder_bound(t, expansion)))
    add(checks)

    # integral tail of the characteristic function
    add([fourier_tail_integral(5.0, ctx)])

    # inversion oracle against an exact Gaussian characteristic function
    tv_null = tv_oracle(ctx, cf_override=lambda w: np.exp(-0.5 * np.sum(w * w, axis=-1)))
    add([CheckResult("tv-oracle-gaussian-null", "numeric-oracle", tv_null, 0.0, tol=1e-6)])

    # localized drift, sufficient-statistic covariance, and projection defects
    f_hat, sup_check = localized_drift(
        state.alpha_theta, state.eta_tilde, n, basis.indices, rho_star, gamma=sched.gamma
    )
    add([sup_check, gamma_min_eig_check(f_hat, basis.indices)])
    proj = inv_sqrt_projection(f_hat, basis.indices)
    add(gamma_variants(proj, basis))
    w = psi_inverse_real(n, basis.indices, proj)
    comparison = goe_connection(state, w, gamma=sched.gamma)
    add([comparison.bound_check, comparison.dictionary_gap_check])

    # hard admissibility constraint of the schedule
    add([condition_checker(sched)[-1]])
    return report


# ---------------------------------------------------------------------------
# equivalence-chain study


CHAIN_HEADER = [
    "n",
    "kappa1",
    "kappa2",
    "K",
    "gamma",
    "presmooth_rel",
    "summary_kl",
    "tv",
    "pilot_risk_abstract",
    "pilot_risk_wn",
    "risk_bound",
    "risk_pass",
    "goe_kl",
    "error",
]


def _stage(errors: list, name: str, fn, *needs):
    """fn(), or None when it raises a typed error, recorded as name:Type in
    errors; None without running fn when a stage it reads (needs) left no
    result."""
    if any(need is None for need in needs):
        return None
    try:
        return fn()
    except TypedError as exc:
        errors.append(f"{name}:{type(exc).__name__}")
        return None


def _abstract_pilot_risk(theta_band, alpha_theta, basis, replicates, rng) -> float:
    # x = L z for the banded Cholesky factor L of theta, one draw per replicate
    factor = band_cholesky(theta_band, what="covariance")
    stats = np.empty((replicates, basis.K))
    for rows, _, xs in band_gaussian_blocks(factor, replicates, rng):
        stats[rows] = basis.quad_form(xs)
    return float(np.sum((stats - alpha_theta) ** 2)) / replicates


def _goe_kl(f, basis, state, gamma, rng) -> float:
    # the ensemble comparison, whitened by the pilot estimate from one
    # white-noise observation of f
    w = whitening_matrix(pilot_estimate(simulate_wn(f, basis.n, rng=rng)), basis)
    return goe_connection(state, w, gamma=gamma).kl


def _chain_row(cfg: RunConfig, f, n: int) -> list:
    """The CHAIN_HEADER row at n, one _stage per reduction step."""
    sched = cfg.window(n)
    loc = LocalizationConfig(beta=sched.beta, gamma=sched.gamma)
    errors = []
    basis = _stage(errors, "basis", lambda: build_basis(n, sched.k1, sched.k2))
    theta = _stage(errors, "theta", lambda: build_theta(f, n), basis)
    presmooth = _stage(errors, "presmooth", lambda: presmoothing_residual(theta, basis), basis, theta)
    state = _stage(
        errors,
        "localize",
        lambda: ExperimentState.build(basis, loc, theta=theta, rng=make_rng(cfg.seed, stream=11_000_000 + n)),
        basis,
        theta,
    )
    summary_kl = _stage(
        errors, "summary", lambda: gaussian_kl(state.d_vec, state.gamma_theta, state.d_vec, state.gamma), state
    )
    tv = _stage(errors, "tv", lambda: tv_oracle(context_from_state(state)), state) if sched.K <= 2 else None
    risk_abstract = _stage(
        errors,
        "pilot-abstract",
        lambda: _abstract_pilot_risk(
            state.theta_band, state.alpha_theta, basis, cfg.replicates, make_rng(cfg.seed, stream=13_000_000 + n)
        ),
        state,
    )
    pilot = _stage(errors, "pilot-wn", lambda: pilot_risk_row(f, n, basis.indices, cfg.replicates, cfg.seed), basis)
    goe = _stage(
        errors,
        "goe",
        lambda: _goe_kl(f, basis, state, sched.gamma, make_rng(cfg.seed, stream=12_000_000 + n)),
        state,
    )
    # pilot_risk_wn, risk_bound and risk_pass, from one pilot-wn result
    risk_wn = [None] * 3 if pilot is None else [pilot[key] for key in ("risk_mean", "risk_bound", "pass")]
    residuals = [presmooth, summary_kl, tv, risk_abstract, *risk_wn, goe]
    return [n, sched.k1, sched.k2, sched.K, sched.gamma, *residuals, ";".join(errors)]


def run_equivalence_chain(cfg: RunConfig):
    """One row per n: residuals of every reduction stage, errors recorded.

    Stages that raise a typed error leave their column empty and tag the
    error column; later stages that do not depend on them still run.
    risk_pass says whether pilot_risk_wn is within risk_bound, the white-noise
    pilot's budget RISK_BOUND_PER_K * K.
    """
    f = config_density(cfg)
    return CHAIN_HEADER, [_chain_row(cfg, f, n) for n in cfg.n_grid]


# ---------------------------------------------------------------------------
# focused studies


TV_HEADER = ["n", "K", "mu_n", "tv", "tail_bound_used", "runtime_ms", "edgeworth_gap"]


def run_tv_decay(cfg: RunConfig, timings: bool = False):
    """Distance to the Gaussian limit along the grid, in-span covariance.

    Uses C = C_theta = the span combination of theta's projection, the
    regime where the standardized statistic has an exactly computable law,
    in closed form (span_char_context).  edgeworth_gap is |tv - TV_1|, TV_1
    the one-term Edgeworth distance, which is O(n^{-3/2}).  With timings,
    runtime_ms is the wall time from the basis build through the oracle.
    """
    k1 = 0 if cfg.k1 is None else cfg.k1
    k2 = 0 if cfg.k2 is None else cfg.k2
    K = (2 * k1 + 1) * (k2 + 1)
    if K > 2:
        raise ConfigurationError("tv decay needs a window with K <= 2")
    f = config_density(cfg, k1=k1, k2=k2)
    rows = []
    for n in cfg.n_grid:
        lap = _stopwatch()
        basis = build_basis(n, k1, k2)
        theta = build_theta(f, n)
        alpha = basis.project(theta.band)
        ctx = span_char_context(alpha, alpha, basis)
        tv, info = tv_oracle(ctx, details=True)
        elapsed = lap()
        rows.append(
            [
                n,
                K,
                ctx.mu,
                tv,
                info["tail_bound"],
                elapsed if timings else None,
                abs(tv - edgeworth_tv(ctx)),
            ]
        )
    return TV_HEADER, rows


# ---------------------------------------------------------------------------
# basis export


def export_basis(n: int, k1: int, k2: int, out_dir: str, fmt: str) -> dict:
    """Write both matrix families plus a manifest; returns the manifest.

    Each matrix is formed dense from its band profile or wrapped diagonal,
    written, squared in place for frob_sq and released before the next is
    formed, so one n x n array is alive at a time: M_k = basis.mat(k) and
    Mcheck_k = sqrt(2 pi / n) mcheck_element(n, idx_k), scaled in place."""
    if fmt not in ("csv", "binary"):
        raise ConfigurationError("format must be csv or binary")
    basis = build_basis(n, k1, k2)
    window_guard(n, k1, k2)
    scale = math.sqrt(2.0 * math.pi / n)
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for kind in ("m", "mcheck"):
        for k, idx in enumerate(basis.indices):
            ext = "csv" if fmt == "csv" else "bin"
            name = f"{kind}_{k:03d}.{ext}"
            path = os.path.join(out_dir, name)
            if kind == "m":
                mat = basis.mat(k)
            else:
                mat = mcheck_element(n, idx)
                mat *= scale
            if fmt == "csv":
                write_text(path, csv_text(mat))
            else:
                with open(path, "wb") as fh:
                    fh.write(struct.pack("<Q", n))
                    fh.write(np.ascontiguousarray(mat, dtype="<f8"))
            mat *= mat
            files.append(
                {
                    "file": name,
                    "kind": kind,
                    "k": k,
                    "parity": idx.parity,
                    "j": idx.j,
                    "j2": idx.j2,
                    "frob_sq": fmt_float(float(np.sum(mat))),
                }
            )
            del mat
    manifest = {
        "schema": SCHEMA,
        "n": n,
        "k1": k1,
        "k2": k2,
        "count": basis.K,
        "format": fmt,
        "layout": "row-major float64, little-endian, leading uint64 size" if fmt == "binary" else "rfc4180",
        "files": files,
    }
    write_text(os.path.join(out_dir, "manifest.json"), json_text(manifest))
    return manifest
