"""Dense float arrays, the small numeric kernel every layer builds on, and a
seeded portable random source.

Arrays are plain numpy ndarrays in row-major (C) order. Everything defaults to
float64; a global switch to float32 exists for speed runs only, numeric tests
always run at 64-bit.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

# The universal value type for activations, weights and gradients.
Tensor = np.ndarray

_DTYPE_NAMES = {"f32": np.float32, "f64": np.float64}
_default_dtype = np.float64


def set_default_dtype(name: str) -> None:
    """Select the global float precision: 'f64' (default) or 'f32' (speed runs)."""
    global _default_dtype
    if name not in _DTYPE_NAMES:
        raise ValueError(f"unknown dtype name {name!r}, expected one of {sorted(_DTYPE_NAMES)}")
    _default_dtype = _DTYPE_NAMES[name]


def default_dtype():
    return _default_dtype


def as_tensor(values, dtype=None) -> Tensor:
    """Coerce to a C-contiguous float array at the given (or global) precision."""
    return np.ascontiguousarray(values, dtype=dtype or _default_dtype)


def zeros(shape, dtype=None) -> Tensor:
    return np.zeros(shape, dtype=dtype or _default_dtype)


class Rng:
    """Seeded random stream backed by numpy's PCG64.

    The generator algorithm is pinned by name so that equal seeds produce
    bit-identical draws on every platform. `derive(key)` yields an independent
    child stream, reproducibly, via SeedSequence([seed, key]).
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def derive(self, key: int) -> "Rng":
        child = Rng.__new__(Rng)
        child.seed = self.seed
        child._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed, int(key)]))
        )
        return child

    def uniform(self, low=0.0, high=1.0, size=None):
        out = self._gen.uniform(low, high, size)
        return float(out) if size is None else out.astype(_default_dtype, copy=False)

    def normal(self, loc=0.0, scale=1.0, size=None):
        out = self._gen.normal(loc, scale, size)
        return float(out) if size is None else out.astype(_default_dtype, copy=False)

    def integers(self, low, high=None, size=None):
        return self._gen.integers(low, high, size)

    def permutation(self, n: int):
        return self._gen.permutation(n)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a [m×k] and b [k×n]. No broadcasting; 2-D only."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul shapes do not chain: {a.shape} x {b.shape}")
    return a @ b


def sigmoid(x: Tensor) -> Tensor:
    # 1/(1+e^-x) == (1 + tanh(x/2)) / 2: tanh never overflows, so no sign split.
    out = np.tanh(np.multiply(x, 0.5))
    out += 1.0
    out *= 0.5
    return out


def tanh(x: Tensor) -> Tensor:
    return np.tanh(x)


def relu(x: Tensor) -> Tensor:
    return np.maximum(x, 0.0)


_UNARY = {"sigmoid": sigmoid, "tanh": tanh, "relu": relu}
_BINARY = {"multiply": np.multiply, "add": np.add}


def elementwise(op: str, *args: Tensor) -> Tensor:
    """Apply a named elementwise op. Multi-arg ops require identical shapes."""
    if op in _UNARY:
        if len(args) != 1:
            raise DimensionError(f"{op} takes exactly one argument, got {len(args)}")
        return _UNARY[op](np.asarray(args[0]))
    if op in _BINARY:
        if len(args) != 2:
            raise DimensionError(f"{op} takes exactly two arguments, got {len(args)}")
        a, b = (np.asarray(v) for v in args)
        if a.shape != b.shape:
            raise DimensionError(f"{op} shapes differ: {a.shape} vs {b.shape}")
        return _BINARY[op](a, b)
    raise ValueError(f"unknown elementwise op {op!r}")


def softmax(logits: Tensor) -> Tensor:
    """Row-wise exp-normalization with max subtraction for stability.

    Accepts a vector or an [n×k] matrix; each row of the result sums to 1.
    """
    z = np.asarray(logits)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def concat_last(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the last axis; a's columns come first."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != b.ndim or a.shape[:-1] != b.shape[:-1]:
        raise DimensionError(f"concat_last leading dims differ: {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=-1)


def l2_normalize(v: Tensor) -> Tensor:
    """Divide each row by its Euclidean norm; all-zero rows pass through unchanged."""
    v = np.asarray(v, dtype=_default_dtype)
    norms = np.sqrt((v * v).sum(axis=-1, keepdims=True))
    safe = np.where(norms == 0.0, 1.0, norms)
    return v / safe
