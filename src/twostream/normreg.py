"""Batch normalization with separate train/inference behaviour, and inverted
dropout (models apply it in training only)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError, DimensionError
from .tensor import Rng, default_dtype


@dataclass
class BatchNormParams:
    """Per-feature scale/shift plus running statistics.

    Train mode standardizes by the batch mean and biased variance and folds
    them into the running estimates with `momentum` (running <- momentum *
    running + (1 - momentum) * batch). The very first train batch seeds the
    running estimates directly, so they never carry a startup bias. Inference
    uses the running estimates only, making it a fixed per-feature affine map.
    """

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    epsilon: float = 1e-5
    momentum: float = 0.99
    stats_seeded: bool = False

    def __post_init__(self):
        if not 0.0 < self.momentum < 1.0:
            raise ValueError(f"momentum must lie in (0,1), got {self.momentum}")
        if self.epsilon <= 0.0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")


def init_batchnorm(dim, epsilon=1e-5, momentum=0.99) -> BatchNormParams:
    dt = default_dtype()
    return BatchNormParams(
        gamma=np.ones(dim, dtype=dt),
        beta=np.zeros(dim, dtype=dt),
        running_mean=np.zeros(dim, dtype=dt),
        running_var=np.ones(dim, dtype=dt),
        epsilon=epsilon,
        momentum=momentum,
    )


def batchnorm_forward(p: BatchNormParams, x, mode):
    """Normalize a [n×d] activation batch. Returns (y, cache).

    Train mode requires n >= 2 and mutates the running statistics in place;
    inference reads them and never writes.
    """
    if mode not in ("train", "inference"):
        raise ValueError(f"mode must be train|inference, got {mode!r}")
    if x.ndim != 2 or x.shape[1] != p.gamma.shape[0]:
        raise DimensionError(f"batchnorm expects [n,{p.gamma.shape[0]}], got {x.shape}")
    if mode == "inference":
        inv = 1.0 / np.sqrt(p.running_var + p.epsilon)
        y = p.gamma * (x - p.running_mean) * inv + p.beta
        return y, ("inference",)
    n = x.shape[0]
    if n < 2:
        raise DataError(f"train-mode batchnorm needs a batch of >= 2 rows, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    var = (centered * centered).mean(axis=0)
    inv = 1.0 / np.sqrt(var + p.epsilon)
    xhat = centered * inv
    y = p.gamma * xhat + p.beta
    if not p.stats_seeded:
        p.running_mean[...] = mean
        p.running_var[...] = var
        p.stats_seeded = True
    else:
        p.running_mean[...] = p.momentum * p.running_mean + (1.0 - p.momentum) * mean
        p.running_var[...] = p.momentum * p.running_var + (1.0 - p.momentum) * var
    return y, ("train", xhat, inv, p.gamma.copy())


def batchnorm_backward(cache, grad_y):
    """Gradients through a train-mode forward, including the batch statistics'
    dependence on x. Returns (grad_x, grad_gamma, grad_beta)."""
    if cache[0] != "train":
        raise ContractError("batchnorm_backward requires a train-mode cache")
    _, xhat, inv, gamma = cache
    n = grad_y.shape[0]
    grad_beta = grad_y.sum(axis=0)
    grad_gamma = (grad_y * xhat).sum(axis=0)
    dxhat = grad_y * gamma
    grad_x = (inv / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    return grad_x, grad_gamma, grad_beta


@dataclass
class DropoutConfig:
    keep_prob: float = 0.75

    def __post_init__(self):
        if not 0.0 < self.keep_prob <= 1.0:
            raise ValueError(f"keep_prob must lie in (0,1], got {self.keep_prob}")


def dropout(x, cfg: DropoutConfig, rng: Rng = None):
    """Inverted dropout, for training only: keep each entry with probability
    keep_prob and scale survivors by 1/keep_prob. Returns (y, mask)."""
    if rng is None:
        raise ValueError("dropout needs an Rng")
    mask = (rng.uniform(size=x.shape) < cfg.keep_prob) / cfg.keep_prob
    return x * mask, mask
