"""Fully-connected layers, softmax cross-entropy, and a one-vs-rest linear
SVM trained by deterministic full-batch subgradient descent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, check_positive
from .tensor import Rng, default_dtype, softmax
from .recurrent import glorot_uniform


@dataclass
class DenseParams:
    W: np.ndarray  # [out, in]
    b: np.ndarray  # [out]
    activation: str = "none"  # 'relu' | 'none'

    def __post_init__(self):
        if self.activation not in ("relu", "none"):
            raise ValueError(f"activation must be relu|none, got {self.activation!r}")

    @property
    def in_dim(self):
        return self.W.shape[1]


def init_dense(in_dim, out_dim, rng: Rng, activation="none") -> DenseParams:
    return DenseParams(
        W=glorot_uniform(rng, out_dim, in_dim),
        b=np.zeros(out_dim, dtype=default_dtype()),
        activation=activation,
    )


def dense_forward(p: DenseParams, x):
    if x.ndim != 2 or x.shape[1] != p.in_dim:
        raise DimensionError(f"dense expects [n,{p.in_dim}], got {x.shape}")
    pre = x @ p.W.T + p.b
    y = np.maximum(pre, 0.0) if p.activation == "relu" else pre
    return y, (x, y)


def dense_backward(p: DenseParams, cache, grad_y):
    x, y = cache
    dpre = grad_y * (y > 0.0) if p.activation == "relu" else grad_y
    dW = dpre.T @ x
    db = dpre.sum(axis=0)
    dx = dpre @ p.W
    return dW, db, dx


def softmax_xent(logits, labels):
    """Mean cross-entropy of softmax(logits) against integer labels.

    Returns (loss, grad_logits) with grad = (softmax - onehot) / n.
    """
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise DimensionError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= k:
        raise DataError(f"labels must lie in [0,{k}), got range [{labels.min()},{labels.max()}]")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(logz - shifted[np.arange(n), labels]))
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


@dataclass
class SvmModel:
    """One-vs-rest linear SVM: per-class weight rows and biases."""

    W: np.ndarray  # [K, d]
    b: np.ndarray  # [K]
    objective_history: np.ndarray = None  # [K, epochs] hinge objectives, for monitoring


def svm_objective(w, b, x, y, C):
    """Per-class objective 0.5*||w||^2 + C * sum(hinge) with labels y in {-1,+1}."""
    margins = y * (x @ w + b)
    return 0.5 * float(w @ w) + C * float(np.maximum(0.0, 1.0 - margins).sum())


def svm_subgradient(w, b, x, y, lam):
    """A subgradient (d/dw, d/db) of the sample-averaged objective
    lam/2*||w||^2 + mean_i hinge(y_i, w.x_i + b), which is
    svm_objective / (C*n) at lam = 1/(C*n): the direction `svm_train` steps."""
    n = x.shape[0]
    viol = y * (x @ w + b) < 1.0
    grad_w = lam * w - (y[viol] @ x[viol]) / n
    grad_b = -float(y[viol].sum()) / n
    return grad_w, grad_b


SVM_EPOCHS = 200  # full-batch subgradient steps per class


def svm_train(features, labels, C) -> SvmModel:
    """Train one-vs-rest hinge-loss classifiers by full-batch subgradient descent.

    Per class the objective is 0.5*||w||^2 + C * sum_i hinge(y_i, w.x_i + b).
    Updates follow the equivalent sample-averaged form with regularization
    weight lam = 1/(C*n) and step size 1/(lam*(t + t0)), t0 = ceil(C*n), so the
    first step is bounded and the schedule decays like 1/t. Zero initialization
    plus full batches make training deterministic; duplicating every sample
    while halving C leaves the learned model unchanged.
    """
    labels = np.asarray(labels)
    x = np.asarray(features, dtype=default_dtype())
    if x.ndim != 2 or labels.shape != (x.shape[0],):
        raise DimensionError(f"features {x.shape} / labels {labels.shape} mismatch")
    classes = np.unique(labels)
    if classes.size < 2:
        raise DataError(f"one-vs-rest training needs >= 2 classes, got {classes.size}")
    check_positive("C", C)
    n, d = x.shape
    k = int(labels.max()) + 1
    lam = 1.0 / (C * n)
    t0 = int(np.ceil(C * n))
    W = np.zeros((k, d), dtype=x.dtype)
    b = np.zeros(k, dtype=x.dtype)
    history = np.zeros((k, SVM_EPOCHS), dtype=x.dtype)
    for cls in range(k):
        y = np.where(labels == cls, 1.0, -1.0)
        w_c = np.zeros(d, dtype=x.dtype)
        b_c = 0.0
        for t in range(1, SVM_EPOCHS + 1):
            eta = 1.0 / (lam * (t + t0))
            grad_w, grad_b = svm_subgradient(w_c, b_c, x, y, lam)
            w_c = w_c - eta * grad_w
            b_c = b_c - eta * grad_b
            history[cls, t - 1] = svm_objective(w_c, b_c, x, y, C)
        W[cls] = w_c
        b[cls] = b_c
    return SvmModel(W=W, b=b, objective_history=history)


def svm_predict(model: SvmModel, features):
    """Argmax over per-class margins; ties resolve to the lowest class index.

    Returns (labels, margins [n×K]).
    """
    x = np.asarray(features)
    if x.ndim != 2 or x.shape[1] != model.W.shape[1]:
        raise DimensionError(f"features {x.shape} do not match model dim {model.W.shape[1]}")
    margins = x @ model.W.T + model.b
    return margins.argmax(axis=1), margins
