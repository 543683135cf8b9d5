"""Study drivers: divergence formulas, schedules, chain runner, exports.

Everything here is a pure function of (config, seed).  Randomness goes
through counter-based streams keyed by (seed, stream id), report floats are
serialized at 17 significant digits, and CSV output follows RFC 4180, so
repeated runs are byte-identical.
"""

import contextlib
import dataclasses
import json
import math
import os
import struct
import time

import numpy as np
from scipy.linalg import cho_solve

from ._linalg import band_cholesky
from .basis_cov import (
    BasisSystem,
    build_basis,
    build_theta,
    coeff_identity_check,
    presmoothing_residual,
    theta_lipschitz_check,
    theta_spectral_check,
)
from .circulant import CirculantElement, cm, hom_defect, matrix_csv, psi_inverse_real
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
from .errors import ConfigurationError, PreconditionError, SingularMatrixError, TypedError
from .gaussianize import (
    ExperimentState,
    LocalizationConfig,
    goe_sample,
    likelihood_affinity_check,
    sp_perturbation_check,
)
from .report import SCHEMA, CheckResult, VerificationReport, fmt_float
from .rng import make_rng
from .spectral import default_grid, random_density
from .whitenoise import (
    gamma_min_eig_check,
    gamma_variants,
    goe_connection,
    inv_sqrt_projection,
    localized_drift,
    pilot_estimate,
    pilot_risk_row,
    simulate_wn,
    sufficient_Y,
)

__all__ = [
    "GaussianDivergences",
    "gaussian_divergences",
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
    "RISK_HEADER",
    "run_risk_study",
    "export_basis",
]

_CAUGHT = (TypedError,)


# ---------------------------------------------------------------------------
# closed-form Gaussian divergences


@dataclasses.dataclass(frozen=True)
class GaussianDivergences:
    """KL, squared Hellinger, and the KL-based total-variation ceiling."""

    kl: float
    hellinger_sq: float
    tv_upper: float


def _chol(cov, what):
    try:
        return np.linalg.cholesky(np.asarray(cov, dtype=float))
    except np.linalg.LinAlgError:
        raise SingularMatrixError(f"{what} is not positive definite")


def _chol_logdet(chol_factor) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(chol_factor))))


def _chol_solve(chol_factor, b):
    return cho_solve((chol_factor, True), b)


def gaussian_divergences(mean1, cov1, mean2, cov2) -> GaussianDivergences:
    """Closed-form divergences between two Gaussian laws.

    kl is KL(N1 || N2); hellinger_sq the squared Hellinger distance; and
    tv_upper = sqrt(1 - exp(-kl)) dominates the total variation, which in
    turn dominates hellinger_sq / 2.
    """
    m1 = np.asarray(mean1, dtype=float).ravel()
    m2 = np.asarray(mean2, dtype=float).ravel()
    c1 = np.asarray(cov1, dtype=float)
    c2 = np.asarray(cov2, dtype=float)
    k = m1.size
    if m2.size != k or c1.shape != (k, k) or c2.shape != (k, k):
        raise PreconditionError("mean/covariance dimensions do not agree")
    l1 = _chol(c1, "first covariance")
    l2 = _chol(c2, "second covariance")
    ld1 = _chol_logdet(l1)
    ld2 = _chol_logdet(l2)
    diff = m2 - m1

    kl = 0.5 * (
        float(np.trace(_chol_solve(l2, c1)))
        + float(diff @ _chol_solve(l2, diff))
        - k
        + ld2
        - ld1
    )
    kl = max(kl, 0.0)

    mid = 0.5 * (c1 + c2)
    lm = _chol(mid, "average covariance")
    log_affinity = (
        0.25 * ld1
        + 0.25 * ld2
        - 0.5 * _chol_logdet(lm)
        - 0.125 * float(diff @ _chol_solve(lm, diff))
    )
    hell = max(-math.expm1(min(log_affinity, 0.0)), 0.0)
    tv_upper = math.sqrt(max(-math.expm1(-kl), 0.0))
    return GaussianDivergences(kl=kl, hellinger_sq=hell, tv_upper=tv_upper)


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


def condition_checker(n: int, sched: Schedule = None, budgets: dict = None) -> list:
    """Numeric value of every displayed rate condition at this n.

    Each quantity must tend to zero along the schedule; the budgets say how
    large a desk-scale value is still acceptable.  The final entry is the
    hard admissibility constraint R^2 >= Q + K + 1.
    """
    sched = schedule(n) if sched is None else sched
    merged = dict(DEFAULT_BUDGETS)
    if budgets:
        merged.update(budgets)
    K, g, R, Q = sched.K, sched.gamma, sched.R, sched.Q
    values = {
        "k10-log-over-n": K**10 * math.log(n) / n,
        "gamma-sq-K-over-n": g**2 * K / n,
        "pilot-K-sq-over-gamma-sq": K**2 / g**2,
        "gamma4-K-over-n": g**4 * K / n,
        "r-sq-over-n": R**2 / n,
    }
    entries = [
        CheckResult("condition-" + key, "asymptotic-rate", values[key], merged[key])
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
    timings: bool = False

    def __post_init__(self):
        grid = tuple(int(v) for v in self.n_grid)
        if not grid:
            raise ConfigurationError("n_grid must be nonempty")
        if any(v < 8 for v in grid):
            raise ConfigurationError("all sample sizes must be >= 8")
        if list(grid) != sorted(grid):
            raise ConfigurationError("n_grid must be sorted ascending")
        self.n_grid = grid
        if self.replicates < 1:
            raise ConfigurationError("replicates must be positive")
        if not 0.0 < self.rho_star <= 1.0:
            raise ConfigurationError("rho_star must lie in (0, 1]")

    def window(self, n: int) -> Schedule:
        return schedule(n, self.k1, self.k2)

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["n_grid"] = list(self.n_grid)
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

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


def whitening_matrix(f_hat, basis: BasisSystem, rho_star: float, s_star: float = 7.0, grid=None):
    """Circulant-type proxy for the inverse covariance root.

    Projects 1/sqrt(f_hat) onto the window, then pulls the projection back
    through the symmetric-map inverse, as k2 + 1 wrapped diagonals;
    |W / sqrt(2 pi)| plays the role of C^{-1/2} in the ensemble comparison.
    """
    proj = inv_sqrt_projection(f_hat, basis.indices, rho_star, s_star=s_star, grid=grid)
    return psi_inverse_real(basis.n, proj.indices, proj.coeffs)


# ---------------------------------------------------------------------------
# verify driver


@contextlib.contextmanager
def _timed(report, timings):
    """Collect one group of checks into report; with timings, each check
    records the group's wall time in milliseconds."""
    entries = []
    started = time.perf_counter()
    yield entries
    if timings:
        elapsed = (time.perf_counter() - started) * 1e3
        for e in entries:
            e.runtime_ms = elapsed
    report.extend(entries)


def run_verify(n: int = 64, seed: int = 0, timings: bool = False) -> VerificationReport:
    """Self-contained inequality and identity suite at one sample size."""
    grid = default_grid()
    sched = schedule(n)
    k1, k2 = sched.k1, sched.k2
    s, L, rho_star = 11.0, 5.0, 0.5
    config = dict(command="verify", n=n, seed=seed, k1=k1, k2=k2, s=s, L=L, rho_star=rho_star)
    report = VerificationReport(config=config)

    # class membership and covariance spectrum
    with _timed(report, timings) as out:
        f = random_density(k1, k2, make_rng(seed, stream=_DENSITY_STREAM), s=s, L=L, rho_star=rho_star)
        out += f.check_membership(grid)
    with _timed(report, timings) as out:
        theta = build_theta(f, n, grid)
        out += theta_spectral_check(theta, rho_star)
    with _timed(report, timings) as out:
        out += theta_lipschitz_check(f, f.scaled_deviation(0.5), n, grid)

    basis = build_basis(n, k1, k2)
    with _timed(report, timings) as out:
        out += coeff_identity_check(f, basis)

    # multiplication defect of the circulant-to-function map
    with _timed(report, timings) as out:
        unit = (1.0 / math.sqrt(n)) * CirculantElement.basis(n, 1, 1)
        lhs, bound = hom_defect(unit, unit)
        closed = (2.0 - 2.0 * math.cos(2.0 * math.pi / n)) / n
        out += [
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
                out.append(
                    CheckResult(f"psi-hom-bound-{convention}-{i}", "closed-form-bound", lhs, bound)
                )

    # norms and Gram matrices of both matrix families
    with _timed(report, timings) as out:
        worst_cm = 0.0
        for j in range(min(k1, 2) + 1):
            for j2 in range(min(k2, 2) + 1):
                frob_sq = float(np.sum(np.abs(cm(n, j, j2)) ** 2))
                worst_cm = max(worst_cm, abs(frob_sq - n))
        worst_m = 0.0
        for k, idx in enumerate(basis.indices):
            frob_sq = float(np.sum(basis.raw_mat(k) ** 2))
            worst_m = max(worst_m, abs(frob_sq - 2.0 * math.pi * (n - idx.j2)))
        eye = np.eye(basis.K)
        band_gap = float(np.max(np.abs(basis.gram() - eye)))
        flat = basis.mcheck.reshape(basis.K, -1)
        circ_gap = float(np.max(np.abs(flat @ flat.T - eye)))
        out += [
            CheckResult("circulant-norm-sq", "exact-identity", worst_cm, 0.0, tol=1e-9 * n),
            CheckResult("band-norm-sq", "exact-identity", worst_m, 0.0, tol=1e-9 * n),
            CheckResult("band-gram", "exact-identity", band_gap, 0.0, tol=1e-10),
            CheckResult("circulant-gram", "exact-identity", circ_gap, 0.0, tol=1e-10),
        ]

    # localized state and the summary-shift identity
    with _timed(report, timings) as out:
        loc = LocalizationConfig(beta=sched.beta, gamma=sched.gamma)
        state = ExperimentState.build(basis, loc, theta=theta, rng=make_rng(seed, stream=202))
        target = 0.5 * state.gamma @ state.alpha_theta
        rel = float(
            np.linalg.norm(state.d_vec - target) / max(np.linalg.norm(state.d_vec), 1e-300)
        )
        out.append(CheckResult("summary-shift-identity", "exact-identity", rel, 0.0, tol=1e-8))

    # spectral perturbation inequality on seeded SPD pairs
    with _timed(report, timings) as out:
        rng = make_rng(seed, stream=203)
        for i in range(3):
            dim = 5 + i
            base = rng.standard_normal((dim, dim))
            a = base @ base.T + dim * np.eye(dim)
            pert = rng.standard_normal((dim, dim))
            b = a + 0.05 * np.linalg.norm(a, 2) * (pert + pert.T) / np.linalg.norm(pert + pert.T, 2)
            chk = sp_perturbation_check(a, b)
            chk.check_id = f"sp-perturbation-{i}"
            out.append(chk)

    # ensemble sampler variances
    with _timed(report, timings) as out:
        rng = make_rng(seed, stream=204)
        draws = goe_sample(8, rng, reps=3000)
        diag_var = float(np.var(np.einsum("rii->ri", draws)))
        off_var = float(np.var(draws[:, ~np.eye(8, dtype=bool)]))
        out += [
            CheckResult("goe-diag-variance", "monte-carlo", abs(diag_var - 2.0) / 2.0, 0.05),
            CheckResult("goe-offdiag-variance", "monte-carlo", abs(off_var - 1.0), 0.05),
        ]

    # likelihood affinity of paired models
    with _timed(report, timings) as out:
        out.append(likelihood_affinity_check(state, 800, make_rng(seed, stream=205)))

    # characteristic function against the closed quadratic-form law
    with _timed(report, timings) as out:
        scalar = build_basis(n, 0, 0)
        alpha_eye = scalar.project(np.ones((1, n)))  # I = sqrt(n) M_0
        ctx = span_char_context(alpha_eye, alpha_eye, scalar)
        worst = 0.0
        for t in (0.3, 1.1, 2.7):
            got = char_fn_standardized(np.array([t]), ctx)
            want = (1.0 - 2.0j * t / math.sqrt(2.0 * n)) ** (-n / 2.0) * np.exp(
                -1.0j * t * math.sqrt(n / 2.0)
            )
            worst = max(worst, abs(complex(got) - complex(want)))
        out.append(CheckResult("charfn-quadratic-law", "exact-identity", worst, 0.0, tol=1e-12))

    # series expansion remainder inside its validity ball
    with _timed(report, timings) as out:
        expansion = edgeworth_build(ctx, 4)
        radius = expansion.validity_radius
        for i in range(10):
            t = np.array([(0.05 + 0.9 * i / 9.0) * radius])
            approx = expansion.poly_eval(t)
            exact = char_fn_standardized(t, ctx) * np.exp(0.5 * float(t @ t))
            out.append(
                CheckResult(
                    f"edgeworth-remainder-{i}",
                    "series-bound",
                    abs(complex(exact) - complex(approx)),
                    remainder_bound(t, expansion),
                )
            )

    # integral tail of the characteristic function
    with _timed(report, timings) as out:
        out.append(fourier_tail_integral(5.0, ctx))

    # inversion oracle against an exact Gaussian characteristic function
    with _timed(report, timings) as out:
        tv_null = tv_oracle(ctx, cf_override=lambda w: np.exp(-0.5 * np.sum(w * w, axis=-1)))
        out.append(CheckResult("tv-oracle-gaussian-null", "numeric-oracle", tv_null, 0.0, tol=1e-6))

    # localized drift, sufficient statistic, and projection defects
    with _timed(report, timings) as out:
        drift = localized_drift(
            state.alpha_theta,
            state.eta_tilde,
            n,
            basis.indices,
            rho_star,
            gamma=sched.gamma,
            f=f,
            grid=grid,
        )
        y, gamma_f = sufficient_Y(
            drift.f_hat, state.alpha_theta, basis.indices, rng=make_rng(seed, stream=206), grid=grid
        )
        out += [drift.sup_check, gamma_min_eig_check(gamma_f, drift.f_hat, grid)]

    with _timed(report, timings) as out:
        proj = inv_sqrt_projection(drift.f_hat, basis.indices, rho_star, grid=grid)
        out += gamma_variants(drift.f_hat, proj, basis, grid=grid).defect_checks

    with _timed(report, timings) as out:
        w = psi_inverse_real(n, proj.indices, proj.coeffs)
        comparison = goe_connection(state, w, gamma=sched.gamma)
        out += [comparison.bound_check, comparison.dictionary_gap_check]

    # hard admissibility constraint of the schedule
    with _timed(report, timings) as out:
        out.append(condition_checker(n, sched)[-1])

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
    "goe_kl",
    "error",
]


def _stage(errors: list, name: str, fn):
    try:
        return fn()
    except _CAUGHT as exc:
        errors.append(f"{name}:{type(exc).__name__}")
        return None


# Draw entries of one row block of the abstract pilot (4 MB)
_PILOT_BLOCK = 1 << 19


def _abstract_pilot_risk(theta_band, alpha_theta, basis, replicates, rng) -> float:
    # x = L z for the banded Cholesky factor of theta, L[i + j, i] = factor[j, i],
    # from (rows, n) normal blocks: the stream order of one draw per replicate
    factor = band_cholesky(theta_band, what="covariance")
    n = basis.n
    step = max(1, _PILOT_BLOCK // n)
    stats = np.empty((replicates, basis.K))
    for r0 in range(0, replicates, step):
        z = rng.standard_normal((min(step, replicates - r0), n))
        xs = z * factor[0]
        for j in range(1, len(factor)):
            xs[:, j:] += z[:, : n - j] * factor[j, : n - j]
        stats[r0 : r0 + len(z)] = basis.quad_form(xs)
    return float(np.sum((stats - alpha_theta) ** 2)) / replicates


def run_equivalence_chain(cfg: RunConfig):
    """One row per n: residuals of every reduction stage, errors recorded.

    Stages that raise a typed error leave their column empty and tag the
    error column; later stages that do not depend on them still run.
    """
    grid = default_grid()
    f = config_density(cfg)
    rows = []
    for n in cfg.n_grid:
        sched = cfg.window(n)
        errors = []
        row = {key: None for key in CHAIN_HEADER}
        row.update(
            {"n": n, "kappa1": sched.k1, "kappa2": sched.k2, "K": sched.K, "gamma": sched.gamma}
        )

        basis = _stage(errors, "basis", lambda: build_basis(n, sched.k1, sched.k2))
        theta = _stage(errors, "theta", lambda: build_theta(f, n, grid)) if basis else None

        if basis is not None and theta is not None:
            def presmooth():
                _, rel = presmoothing_residual(f, theta, basis, grid)
                return rel

            row["presmooth_rel"] = _stage(errors, "presmooth", presmooth)

        state = None
        if basis is not None and theta is not None:
            loc = LocalizationConfig(beta=sched.beta, gamma=sched.gamma)
            state = _stage(
                errors,
                "localize",
                lambda: ExperimentState.build(
                    basis, loc, theta=theta, rng=make_rng(cfg.seed, stream=11_000_000 + n)
                ),
            )

        if state is not None:
            row["summary_kl"] = _stage(
                errors,
                "summary",
                lambda: gaussian_divergences(
                    state.d_vec, state.gamma_theta, state.d_vec, state.gamma
                ).kl,
            )
            if basis.K <= 2:
                row["tv"] = _stage(
                    errors, "tv", lambda: tv_oracle(context_from_state(state))
                )
            row["pilot_risk_abstract"] = _stage(
                errors,
                "pilot-abstract",
                lambda: _abstract_pilot_risk(
                    state.theta_band,
                    state.alpha_theta,
                    basis,
                    cfg.replicates,
                    make_rng(cfg.seed, stream=13_000_000 + n),
                ),
            )

        if basis is not None:
            row["pilot_risk_wn"] = _stage(
                errors,
                "pilot-wn",
                lambda: pilot_risk_row(f, n, basis.indices, cfg.replicates, cfg.seed, grid=grid)[
                    "risk_mean"
                ],
            )

        if state is not None:
            def goe_stage():
                obs = simulate_wn(f, n, rng=make_rng(cfg.seed, stream=12_000_000 + n), grid=grid)
                pilot = pilot_estimate(obs, indices=basis.indices, f=f, grid=grid)
                w = whitening_matrix(pilot.density, basis, cfg.rho_star, grid=grid)
                return goe_connection(state, w, gamma=sched.gamma).kl

            row["goe_kl"] = _stage(errors, "goe", goe_stage)

        row["error"] = ";".join(errors)
        rows.append([row[key] for key in CHAIN_HEADER])
    return CHAIN_HEADER, rows


# ---------------------------------------------------------------------------
# focused studies


TV_HEADER = ["n", "K", "mu_n", "tv", "tail_bound_used", "runtime_ms", "edgeworth_gap"]


def run_tv_decay(cfg: RunConfig):
    """Distance to the Gaussian limit along the grid, in-span covariance.

    Uses C = C_theta = the span combination of theta's projection, the
    regime where the standardized statistic has an exactly computable law,
    in closed form (span_char_context).  edgeworth_gap is |tv - TV_1|, TV_1
    the one-term Edgeworth distance, which is O(n^{-3/2}).
    """
    k1 = 0 if cfg.k1 is None else cfg.k1
    k2 = 0 if cfg.k2 is None else cfg.k2
    K = (2 * k1 + 1) * (k2 + 1)
    if K > 2:
        raise ConfigurationError("tv decay needs a window with K <= 2")
    grid = default_grid()
    f = config_density(cfg, k1=k1, k2=k2)
    rows = []
    for n in cfg.n_grid:
        started = time.perf_counter()
        basis = build_basis(n, k1, k2)
        theta = build_theta(f, n, grid)
        alpha = basis.project(theta.band)
        ctx = span_char_context(alpha, alpha, basis)
        tv, info = tv_oracle(ctx, details=True)
        elapsed = (time.perf_counter() - started) * 1e3
        rows.append(
            [
                n,
                K,
                ctx.mu,
                tv,
                info["tail_bound"],
                elapsed if cfg.timings else None,
                abs(tv - edgeworth_tv(ctx)),
            ]
        )
    return TV_HEADER, rows


RISK_HEADER = ["n", "K", "J", "replicates", "risk_mean", "risk_bound", "pass"]


def run_risk_study(cfg: RunConfig, bound_per_k: float = 50.0):
    """Monte Carlo pilot risk in the white-noise model along the grid."""
    grid = default_grid()
    f = config_density(cfg)
    rows = []
    for n in cfg.n_grid:
        sched = cfg.window(n)
        basis_indices = build_basis(n, sched.k1, sched.k2).indices
        stats = pilot_risk_row(
            f, n, basis_indices, cfg.replicates, cfg.seed, bound_per_k=bound_per_k, grid=grid
        )
        rows.append([stats[key] for key in RISK_HEADER])
    return RISK_HEADER, rows


# ---------------------------------------------------------------------------
# basis export


def export_basis(n: int, k1: int, k2: int, out_dir: str, fmt: str = "csv") -> dict:
    """Write both matrix families plus a manifest; returns the manifest."""
    if fmt not in ("csv", "binary"):
        raise ConfigurationError("format must be csv or binary")
    basis = build_basis(n, k1, k2)
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for kind, stack in (("m", basis.mats), ("mcheck", basis.mcheck)):
        for k, idx in enumerate(basis.indices):
            ext = "csv" if fmt == "csv" else "bin"
            name = f"{kind}_{k:03d}.{ext}"
            path = os.path.join(out_dir, name)
            mat = stack[k]
            if fmt == "csv":
                with open(path, "w", newline="") as fh:
                    fh.write(matrix_csv(mat))
            else:
                with open(path, "wb") as fh:
                    fh.write(struct.pack("<Q", n))
                    fh.write(np.ascontiguousarray(mat, dtype="<f8").tobytes())
            files.append(
                {
                    "file": name,
                    "kind": kind,
                    "k": k,
                    "parity": idx.parity,
                    "j": idx.j,
                    "j2": idx.j2,
                    "frob_sq": fmt_float(float(np.sum(mat**2))),
                }
            )
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
    with open(os.path.join(out_dir, "manifest.json"), "w", newline="") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest
