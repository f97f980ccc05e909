"""RMSprop and SGD-with-halving, the two optimizers used by the training loops.

Both operate on ordered name->array parameter dicts and update in place; the
training loop is the single owner of optimizer state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DimensionError, check_positive

RMSPROP_EPSILON = 1e-8  # inside the root; unrelated to batchnorm's epsilon
HALVING_PATIENCE = 3  # evaluations in a row without improvement


@dataclass
class RmspropState:
    """Squared-gradient accumulators plus hyperparameters (defaults: learning
    rate 0.001, decay 0.9)."""

    learning_rate: float = 0.001
    decay: float = 0.9
    acc: dict = field(default_factory=dict)

    def __post_init__(self):
        check_positive("learning_rate", self.learning_rate)
        if not 0 <= self.decay < 1:
            raise ConfigError(f"decay must be in [0, 1), got {self.decay}")


def rmsprop_step(state: RmspropState, params: dict, grads: dict) -> dict:
    """acc <- decay*acc + (1-decay)*g^2 ; p <- p - lr * g / sqrt(acc + eps).

    Updates params in place and returns them.
    """
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(f"grad shape {g.shape} != param shape {p.shape} for {name!r}")
        acc = state.acc.get(name)
        if acc is None:
            acc = state.acc[name] = np.zeros_like(p)
        acc *= state.decay
        acc += (1.0 - state.decay) * g * g
        p -= state.learning_rate * g / np.sqrt(acc + RMSPROP_EPSILON)
    return params


@dataclass
class SgdHalvingState:
    """Plain SGD whose learning rate halves after `HALVING_PATIENCE`
    evaluations in a row without validation improvement."""

    learning_rate: float = 0.0001
    bad_evals: int = 0

    def __post_init__(self):
        check_positive("learning_rate", self.learning_rate)


def sgd_halving_step(state: SgdHalvingState, params: dict, grads: dict, improved=None) -> dict:
    """p <- p - lr * g. `improved` is the validation signal: True/False when an
    evaluation just happened, None otherwise."""
    if improved is True:
        state.bad_evals = 0
    elif improved is False:
        state.bad_evals += 1
        if state.bad_evals >= HALVING_PATIENCE:
            state.learning_rate *= 0.5
            state.bad_evals = 0
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(f"grad shape {g.shape} != param shape {p.shape} for {name!r}")
        p -= state.learning_rate * g
    return params
