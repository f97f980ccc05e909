"""Combining the two streams: confidence voting with trust weights, and
feature concatenation + L2 normalization for an SVM."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, check_positive
from .tensor import concat_last, default_dtype, l2_normalize


@dataclass
class Prediction:
    """A per-class probability vector with its argmax label and confidence."""

    probs: np.ndarray
    label: int
    confidence: float

    @classmethod
    def from_probs(cls, probs) -> "Prediction":
        probs = np.asarray(probs, dtype=default_dtype())
        if probs.ndim != 1:
            raise DimensionError(f"probs must be a vector, got shape {probs.shape}")
        if not np.isfinite(probs).all():
            raise DataError(f"probabilities must be finite, got {probs}")
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise DataError(f"probabilities sum to {total}, not 1")
        label = int(probs.argmax())
        return cls(probs=probs, label=label, confidence=float(probs[label]))

    @property
    def n_classes(self):
        return self.probs.shape[0]


@dataclass
class TrustWeights:
    """Positive per-stream multipliers on prediction confidence."""

    w_r: float = 1.0
    w_c: float = 1.0

    def __post_init__(self):
        check_positive("w_r", self.w_r)
        check_positive("w_c", self.w_c)


def decision_fuse(w: TrustWeights, rnn_pred: Prediction, cnn_pred: Prediction) -> Prediction:
    """Return whichever stream's weighted confidence wins. The recurrent stream
    needs strictly more; an exact tie goes to the convolutional stream."""
    if rnn_pred.n_classes != cnn_pred.n_classes:
        raise DimensionError(
            f"class counts differ: {rnn_pred.n_classes} vs {cnn_pred.n_classes}"
        )
    if w.w_r * rnn_pred.confidence > w.w_c * cnn_pred.confidence:
        return rnn_pred
    return cnn_pred


def search_trust_weights(val_rnn_preds, val_cnn_preds, val_labels) -> TrustWeights:
    """Fix w_r = 1 and pick the w_c maximizing validation accuracy.

    Candidates are 100 log-spaced values in [0.1, 10] plus the equal-weights
    starting point 1.0, evaluated in ascending order; ties keep the lowest
    w_c, so the result never scores below the starting point.
    """
    if len(val_rnn_preds) == 0 or len(val_rnn_preds) != len(val_cnn_preds) or len(
        val_rnn_preds
    ) != len(val_labels):
        raise DataError(
            f"need equal, non-empty prediction/label lists, got "
            f"{len(val_rnn_preds)}/{len(val_cnn_preds)}/{len(val_labels)}"
        )
    candidates = np.unique(np.append(np.logspace(-1.0, 1.0, 100), 1.0))
    best_wc, best_acc = None, -1.0
    for wc in candidates:
        weights = TrustWeights(w_r=1.0, w_c=float(wc))
        hits = sum(
            decision_fuse(weights, r, c).label == y
            for r, c, y in zip(val_rnn_preds, val_cnn_preds, val_labels)
        )
        acc = hits / len(val_labels)
        if acc > best_acc:
            best_acc, best_wc = acc, float(wc)
    return TrustWeights(w_r=1.0, w_c=best_wc)


def feature_fuse(rnn_feat, cnn_feat):
    """Concatenate per-sample features (recurrent columns first) and L2
    normalize each row."""
    rnn_feat = np.asarray(rnn_feat)
    cnn_feat = np.asarray(cnn_feat)
    if rnn_feat.ndim != 2 or cnn_feat.ndim != 2 or rnn_feat.shape[0] != cnn_feat.shape[0]:
        raise DimensionError(
            f"row counts differ: {rnn_feat.shape} vs {cnn_feat.shape}"
        )
    return l2_normalize(concat_last(rnn_feat, cnn_feat))
