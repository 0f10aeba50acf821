"""Exception types raised by the package, and the integer check that raises one."""

import numbers


class SicheckError(Exception):
    """Base class for all package errors."""


class DataError(SicheckError):
    """Malformed or unusable input data."""


class ConfigError(SicheckError):
    """Invalid configuration value."""


class SingularDesignError(SicheckError):
    """Covariate design matrix is rank deficient."""


class InsufficientDataError(SicheckError):
    """Too few observations for the requested estimate."""


class DegenerateDirectionError(SicheckError):
    """Fitted slope vector is numerically zero; no direction exists."""


class DegenerateVarianceError(SicheckError):
    """Variance estimate is zero, so the standardized statistic is undefined."""


class NearSingularCovarianceError(SicheckError):
    """Weight covariance matrix is numerically singular."""


def integer(name: str, value) -> int:
    """``value`` as an int if it is a Python or NumPy integer, else a
    ConfigError naming ``name``; a bool is refused, though Python counts it one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)
