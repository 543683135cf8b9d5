"""Typed errors shared across the package.

Study drivers catch :class:`TypedError` and nothing else: any other exception
is a bug and propagates.
"""


class TypedError(Exception):
    """Base of every error below."""


class RangeError(TypedError, ValueError):
    """An argument lies outside the validity region of a bound or map."""


class PreconditionError(TypedError, ValueError):
    """A structural precondition (index window, size guard) is violated."""


class LocalizationError(TypedError, RuntimeError):
    """The localized covariance is not usable (not PD, contraction >= 1)."""


class ConfigurationError(TypedError, ValueError):
    """A configuration asks for something numerically meaningless."""


class SingularMatrixError(TypedError, RuntimeError):
    """A symmetric matrix is numerically singular where an inverse is needed."""


class AccuracyError(TypedError, RuntimeError):
    """A computed quantity failed an exact identity beyond its tolerance."""
