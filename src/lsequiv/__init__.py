"""Gaussian-equivalence toolkit for locally stationary quadratic statistics.

Subpackage map: spectral (function system and densities), circulant
(coefficient algebra behind the matrix-to-function map), basis_cov
(covariance operators and their band projections), gaussianize (localized
summaries), cltcheck (characteristic-function analysis), whitenoise (the
limiting experiment), harness (schedules, studies, the Gaussian KL), cli.
"""

from .errors import (
    AccuracyError,
    ConfigurationError,
    LocalizationError,
    PreconditionError,
    RangeError,
    SingularMatrixError,
    TypedError,
)
from .harness import (
    RunConfig,
    Schedule,
    condition_checker,
    gaussian_kl,
    run_equivalence_chain,
    run_tv_decay,
    run_verify,
    schedule,
)
from .report import CheckResult, VerificationReport
from .spectral import BasisIndex, SpectralDensity, default_grid, random_density

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BasisIndex",
    "CheckResult",
    "ConfigurationError",
    "LocalizationError",
    "PreconditionError",
    "RangeError",
    "RunConfig",
    "Schedule",
    "SingularMatrixError",
    "SpectralDensity",
    "TypedError",
    "VerificationReport",
    "condition_checker",
    "default_grid",
    "gaussian_kl",
    "random_density",
    "run_equivalence_chain",
    "run_tv_decay",
    "run_verify",
    "schedule",
    "__version__",
]
