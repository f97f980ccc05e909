"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array shapes are incompatible with the requested operation."""


class DataError(ValueError):
    """Input data violates a documented requirement (empty, degenerate, too long)."""


class ConfigError(ValueError):
    """A configuration value or model/layer description is invalid."""


class ContractError(RuntimeError):
    """An API was called in a way its contract forbids (e.g. backward on an inference cache)."""


class DivergenceError(RuntimeError):
    """A model produced non-finite numbers: a training loss (training is
    aborted) or an inference output (prediction or feature extraction)."""
