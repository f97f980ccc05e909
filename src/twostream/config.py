"""Flat ``key = value`` configuration files. Blank lines and ``#`` comments
are ignored; unknown keys are rejected."""

from __future__ import annotations

from .errors import ConfigError
from .models import LADDER_VARIANTS


def _shape4(text):
    parts = text.lower().replace("x", " ").split()
    if len(parts) != 4:
        raise ConfigError(f"expected CxTxHxW, got {text!r}")
    return tuple(int(p) for p in parts)


def _names(text):
    names = [p.strip() for p in text.split(",") if p.strip()]
    for n in names:
        if n not in LADDER_VARIANTS:
            raise ConfigError(f"unknown ladder model {n!r}")
    return names


def _optional_pair(text):
    text = text.strip().lower()
    if text in ("none", "off", ""):
        return None
    pairs = _pairs(text)
    if len(pairs) != 1:
        raise ConfigError(f"expected one pair or 'none', got {text!r}")
    return pairs[0]


def _int_at_least(lo):
    def parse(text):
        value = int(text)
        if value < lo:
            raise ValueError(f"must be >= {lo}, got {value}")
        return value

    return parse


def _ints(text):
    return tuple(int(p) for p in text.replace(",", " ").split())


def _pairs(text):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        sides = chunk.split("-")
        if len(sides) != 2:
            raise ConfigError(f"expected pairs like 0-1, got {chunk!r}")
        pairs.append((int(sides[0]), int(sides[1])))
    return tuple(pairs)


# key -> (parser, default). Reference-scale counterparts of the desk defaults:
# 300 recurrent units per direction, batches of 1000 sequences, learning rate
# 0.001 / decay 0.9 for the recurrent stream, 0.0001 with halving for the
# convolutional stream, dropout keep 0.75, SVM C = 8.0.
SCHEMA = {
    "seed": (int, 0),
    "split_mode": (str, "cross_subject"),
    # synthetic data
    "n_classes": (int, 6),
    "samples_per_class": (int, 90),
    "t_min": (int, 30),
    "t_max": (int, 60),
    "joints": (int, 8),
    "n_subjects": (int, 20),
    "n_views": (int, 3),
    "skeleton_noise": (float, 0.05),
    "video_noise": (float, 0.05),
    "video_shape": (_shape4, (3, 16, 16, 16)),
    # class pairs whose skeleton / video signatures coincide by construction
    "shared_skeleton_pairs": (_pairs, ((0, 1),)),
    "shared_video_pairs": (_pairs, ((2, 3),)),
    # class pair separable only by repeat-vs-alternate opening motions
    "xor_pair": (_optional_pair, (4, 5)),
    # recurrent-stream training
    "hidden_dim": (int, 16),
    "epochs": (_int_at_least(1), 60),
    "batch_size": (_int_at_least(2), 16),
    "learning_rate": (float, 0.001),
    "decay": (float, 0.9),
    "keep_prob": (float, 0.75),
    "eval_every": (_int_at_least(1), 1),
    # convolutional-stream training
    "cnn_epochs": (_int_at_least(1), 30),
    "cnn_batch_size": (_int_at_least(2), 32),
    "cnn_learning_rate": (float, 0.02),
    "cnn_filters": (_ints, (8, 16)),
    "cnn_fc_dim": (int, 64),
    # fusion
    "svm_c": (float, 8.0),
    # which ladder rows to run
    "ladder_models": (
        _names,
        [
            "RNN1",
            "LSTM1",
            "LSTM1-BN",
            "LSTM1-BN-DP",
            "GRU1-BN-DP",
            "BI-GRU1-BN-DP",
            "BI-GRU2-BN-DP",
            "BI-GRU2-BN-DP-H",
            "C3D-DESK",
        ],
    ),
}


def default_config() -> dict:
    return {key: default for key, (_, default) in SCHEMA.items()}


def parse_config(text: str) -> dict:
    cfg = default_config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parser = SCHEMA[key][0]
        try:
            cfg[key] = parser(value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return cfg


def load_config(path) -> dict:
    with open(path) as fh:
        return parse_config(fh.read())
