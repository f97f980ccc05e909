"""Exception types shared across the package."""

import math


class DimensionError(ValueError):
    """Array shapes are incompatible with the requested operation."""


class DataError(ValueError):
    """Input data violates a documented requirement (empty, degenerate, too long)."""


class ConfigError(ValueError):
    """A configuration value or model/layer description is invalid."""


def check_positive(name, value):
    """Raise a ConfigError naming `name` unless value is positive and finite
    (NaN is neither)."""
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value}")


class ContractError(RuntimeError):
    """An API was called in a way its contract forbids (e.g. backward on an inference cache)."""


class DivergenceError(RuntimeError):
    """A model produced non-finite numbers: a training loss (training is
    aborted) or an inference output (prediction or feature extraction)."""
