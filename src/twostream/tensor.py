"""The float type, the few numeric functions shared across layers (softmax,
feature concatenation and L2 normalization), and a seeded portable random
source.

Arrays are plain numpy ndarrays in row-major (C) order, always float64.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionError


def default_dtype():
    """The float type of every activation, weight and gradient: float64."""
    return np.float64


class Rng:
    """Seeded random stream backed by numpy's PCG64.

    The generator algorithm is pinned by name so that equal seeds produce
    bit-identical draws on every platform. `derive(key)` yields an independent
    child stream, reproducibly, via SeedSequence([seed, key]).
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, key: int) -> "Rng":
        child = Rng.__new__(Rng)
        child.seed = self.seed
        child._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, int(key)]))
        )
        return child

    def uniform(self, low=0.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self._gen.normal(loc, scale, size)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int):
        return self._gen.permutation(n)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise exp-normalization with max subtraction for stability.

    Accepts a vector or an [n×k] matrix; each row of the result sums to 1.
    """
    z = np.asarray(logits)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def concat_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate along the last axis; a's columns come first."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != b.ndim or a.shape[:-1] != b.shape[:-1]:
        raise DimensionError(f"concat_last leading dims differ: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=-1)


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Divide each row by its Euclidean norm; all-zero rows pass through unchanged."""
    v = np.asarray(v, dtype=np.float64)
    norms = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    safe = np.where(norms == 0.0, 1.0, norms)
    return v / safe
