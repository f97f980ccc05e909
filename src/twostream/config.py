"""Flat ``key = value`` configuration files. Blank lines and ``#`` comments
are ignored; unknown keys are rejected."""

from __future__ import annotations

import dataclasses
import math

from . import data
from .errors import ConfigError
from .models import LADDER_VARIANTS


def _shape4(text):
    parts = text.lower().replace("x", " ").split()
    if len(parts) != 4:
        raise ConfigError(f"expected CxTxHxW, got {text!r}")
    return tuple(int(p) for p in parts)


def _names(text):
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise ConfigError("expected one or more ladder models")
    for i, n in enumerate(names):
        if n not in LADDER_VARIANTS:
            raise ConfigError(f"unknown ladder model {n!r}")
        if n in names[:i]:
            raise ConfigError(f"ladder model {n!r} appears more than once")
    return names


def _optional_pair(text):
    text = text.strip().lower()
    if text in ("none", "off", ""):
        return None
    pairs = _pairs(text)
    if len(pairs) != 1:
        raise ConfigError(f"expected one pair or 'none', got {text!r}")
    return pairs[0]


def _checked(parse_value, ok, rule):
    """A parser that rejects parsed values failing `ok` with 'must be <rule>'."""

    def parse(text):
        value = parse_value(text)
        if not ok(value):
            raise ValueError(f"must be {rule}, got {value}")
        return value

    return parse


def _int_at_least(lo):
    return _checked(int, lambda v: v >= lo, f">= {lo}")


def _ints(text):
    return tuple(int(p) for p in text.replace(",", " ").split())


_positive_float = _checked(float, lambda v: 0 < v < math.inf, "> 0 and finite")
_nonnegative_float = _checked(float, lambda v: 0 <= v < math.inf, ">= 0 and finite")
_decay = _checked(float, lambda v: 0 <= v < 1, "in [0, 1)")
_video_shape = _checked(_shape4, lambda v: min(v) >= 1, "CxTxHxW with every extent >= 1")
_keep_prob = _checked(float, lambda v: 0 < v <= 1, "in (0, 1]")
_filter_counts = _checked(_ints, lambda v: len(v) > 0 and min(v) >= 1, "one or more integers >= 1")
_split_mode = _checked(str, lambda v: v in data.SPLIT_MODES, " or ".join(data.SPLIT_MODES))


def _pairs(text):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        sides = chunk.split("-")
        if len(sides) != 2:
            raise ConfigError(f"expected pairs like 0-1, got {chunk!r}")
        a, b = int(sides[0]), int(sides[1])
        if a == b:
            raise ConfigError(f"a pair needs two different classes, got {chunk!r}")
        pairs.append((a, b))
    return tuple(pairs)


# Parsers for the synthetic-data keys, one per `data.SynthConfig` field.
_SYNTH_PARSERS = {
    "n_classes": _int_at_least(2),
    "samples_per_class": _int_at_least(1),
    "t_min": _int_at_least(1),
    "t_max": int,
    "joints": _int_at_least(1),
    "video_shape": _video_shape,
    "n_subjects": _int_at_least(2),
    "n_views": _int_at_least(1),
    "skeleton_noise": _nonnegative_float,
    "video_noise": _nonnegative_float,
    # class pair separable only by repeat-vs-alternate opening motions
    "xor_pair": _optional_pair,
    # class pairs whose skeleton / video signatures coincide by construction
    "shared_skeleton_pairs": _pairs,
    "shared_video_pairs": _pairs,
}

# key -> (parser, default). The synthetic-data defaults are SynthConfig's.
# Reference-scale counterparts of the desk defaults: 300 recurrent units per
# direction, batches of 1000 sequences, learning rate 0.001 / decay 0.9 for
# the recurrent stream, 0.0001 with halving for the convolutional stream,
# dropout keep 0.75, SVM C = 8.0.
SCHEMA = {
    "seed": (_int_at_least(0), 0),
    "split_mode": (_split_mode, "cross_subject"),
    **{f.name: (_SYNTH_PARSERS[f.name], f.default) for f in dataclasses.fields(data.SynthConfig)},
    # recurrent-stream training
    "hidden_dim": (_int_at_least(1), 16),
    "epochs": (_int_at_least(1), 60),
    "batch_size": (_int_at_least(2), 16),
    "learning_rate": (_positive_float, 0.001),
    "decay": (_decay, 0.9),
    "keep_prob": (_keep_prob, 0.75),
    "eval_every": (_int_at_least(1), 1),
    # convolutional-stream training
    "cnn_epochs": (_int_at_least(1), 30),
    "cnn_batch_size": (_int_at_least(2), 32),
    "cnn_learning_rate": (_positive_float, 0.02),
    "cnn_filters": (_filter_counts, (8, 16)),
    "cnn_fc_dim": (_int_at_least(1), 64),
    # fusion
    "svm_c": (_positive_float, 8.0),
    # which ladder rows to run: all but the full-scale C3D, which does not
    # train at desk scale
    "ladder_models": (_names, [n for n in LADDER_VARIANTS if n != "C3D"]),
}


def _pair_text(pair):
    return "-".join(map(str, pair)) if isinstance(pair, (list, tuple)) else str(pair)


def _join(sep):
    return lambda values: sep.join(map(str, values))


# The config text of a list or tuple value, for each parser that reads one.
_SEQUENCE_TEXT = {
    _video_shape: _join("x"),
    _filter_counts: _join(" "),
    _names: _join(", "),
    _pairs: lambda pairs: ", ".join(map(_pair_text, pairs)),
    _optional_pair: _pair_text,
}


def default_config() -> dict:
    return {key: default for key, (_, default) in SCHEMA.items()}


def parse_config(text: str) -> dict:
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        entries.append((f"line {lineno}", key, value))
    return _checked_config(entries)


def config_from_values(values: dict, source) -> dict:
    """A config from typed values, as `run.json` stores them, under every
    check `parse_config` makes; an error names `source` and the key."""
    return _checked_config([(str(source), key, _value_text(key, value)) for key, value in values.items()])


def _value_text(key, value):
    """The text that `key`'s parser reads back as value (JSON gives lists for
    tuples, and None reads back as 'none'). Scalars, and lists where the
    parser reads none, are written with str: the parser reads a scalar back
    and rejects the rest."""
    text = _SEQUENCE_TEXT.get(SCHEMA[key][0]) if key in SCHEMA else None
    if text is None or not isinstance(value, (list, tuple)):
        return str(value)
    return text(value)


def _checked_config(entries) -> dict:
    """The defaults overridden by (place, key, value text) entries, in order;
    an error starts with the offending entry's place."""
    cfg = default_config()
    place = {}
    for where, key, value in entries:
        if key not in SCHEMA:
            raise ConfigError(f"{where}: unknown key {key!r}")
        parser = SCHEMA[key][0]
        try:
            cfg[key] = parser(value)
        except ValueError as exc:  # ConfigError included
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
        if key in place:
            raise ConfigError(f"{where}: {key!r} is already set on {place[key]}")
        place[key] = where  # insertion order: the order of the entries
    if cfg["t_max"] < cfg["t_min"]:
        _reject_later(
            cfg, place, ("t_max", f">= t_min ({cfg['t_min']})"), ("t_min", f"<= t_max ({cfg['t_max']})")
        )
    # Pairs the entries set must name classes below n_classes. The defaults
    # are left to SynthConfig.validate, so `n_classes = 2` alone still parses.
    k = cfg["n_classes"]
    for key in ("shared_skeleton_pairs", "shared_video_pairs", "xor_pair"):
        pairs = (cfg[key],) if key == "xor_pair" else cfg[key]
        top = max((c for pair in pairs if pair is not None for c in pair), default=-1)
        if key in place and top >= k:
            _reject_later(
                cfg, place, (key, f"classes below n_classes ({k})"), ("n_classes", f"> {top} for {key}")
            )
    return cfg


def check_dataset_keys(cfg):
    """The cross-field rules for a dataset made from a config, checked by the
    commands that make one before any generation: the split mode can leave
    training, validation and test subjects, and every subject sees every
    class from every view. Sample j of a class goes to subject
    (j // n_views) % n_subjects, so with fewer samples some subjects get
    fewer views of a class or none, and a split by subject can come out
    empty. `generate_synthetic` itself allows it (the benchmark's data
    leaves subjects out)."""
    mode, n_views, n_subjects = cfg["split_mode"], cfg["n_views"], cfg["n_subjects"]
    if mode == "cross_view" and n_views < 2:
        raise ConfigError(f"split_mode = cross_view holds one view out, so it needs n_views >= 2, got n_views = {n_views}")
    fewest = data.fewest_subjects(mode)
    if n_subjects < fewest:
        raise ConfigError(
            f"split_mode = {mode} needs n_subjects >= {fewest} to leave training, validation and test subjects, "
            f"got n_subjects = {n_subjects}"
        )
    need = n_views * n_subjects
    if cfg["samples_per_class"] < need:
        raise ConfigError(
            f"samples_per_class ({cfg['samples_per_class']}) must be at least n_views * n_subjects "
            f"({n_views} * {n_subjects} = {need}), or some subjects get fewer views of a class or none"
        )


def _reject_later(cfg, place, *keys_and_rules):
    """Raise for keys that conflict, blaming whichever the entries set last."""
    order = list(place)
    key, rule = max(keys_and_rules, key=lambda kr: order.index(kr[0]) if kr[0] in place else -1)
    raise ConfigError(f"{place[key]}: bad value for {key!r}: must be {rule}, got {cfg[key]}")


def load_config(path) -> dict:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8 text") from None
    return parse_config(text)
