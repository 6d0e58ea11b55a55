"""Exception types shared across the package, and its checks of numbers."""

from math import isfinite

import numpy as np


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


def check_positive(what: str, value, error=ConfigError) -> None:
    """Refuse a value that is not finite and positive, naming it by what."""
    if not (isfinite(value) and value > 0.0):
        raise error(f"{what} must be positive and finite, got {value}")


def check_finite(what: str, value, least=None) -> None:
    """Refuse a value that is not finite, or is below least when given;
    an array by its first such entry."""
    if np.ndim(value):
        values = np.asarray(value, dtype=float).ravel()
        failing = ~np.isfinite(values)
        if least is not None:
            failing |= values < least
        for v in values[failing][:1].tolist():
            check_finite(what, v, least)
        return
    if not isfinite(value) or (least is not None and value < least):
        bound = "" if least is None else f" and at least {least:g}"
        raise ConfigError(f"{what} must be finite{bound}, got {value}")
