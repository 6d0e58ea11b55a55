"""Exception types shared across the package, and its one positivity check."""

from math import isfinite


class HolodiscError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(HolodiscError):
    """Inconsistent or unsupported configuration."""


class DataError(HolodiscError):
    """Missing, malformed, or insufficient input data."""


class StabilityError(HolodiscError):
    """Time integration produced non-finite values."""


class ReductionError(HolodiscError):
    """Invalid symbolic convolution term (e.g. non-positive decay rate)."""


def check_positive(what: str, value) -> None:
    """Refuse a value that is not finite and positive, naming it by what."""
    if not (isfinite(value) and value > 0.0):
        raise ConfigError(f"{what} must be positive and finite, got {value}")
