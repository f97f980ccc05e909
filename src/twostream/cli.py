"""Command-line surface: data generation, training, feature extraction,
fusion, evaluation, gradient checking, and the full ladder comparison."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .tensor import Rng
from .errors import ConfigError, DataError
from .fileio import write_json, write_tensor
from .config import SCHEMA, check_dataset_keys, config_from_values, default_config, load_config
from .data import Dataset, SynthConfig, generate_synthetic
from .models import ModelSpec, load_model, save_model
from . import harness


def _dataset_config(cfg) -> SynthConfig:
    """The generator settings of a config that makes a dataset, checked
    across keys first."""
    check_dataset_keys(cfg)
    return SynthConfig(**{f.name: cfg[f.name] for f in dataclasses.fields(SynthConfig)})


def _svm_c(text):
    """`--svm-c` under the config file's `svm_c` rule."""
    try:
        return SCHEMA["svm_c"][0](text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_cfg(path):
    return load_config(path) if path else default_config()


def _write_run(out_dir, spec: ModelSpec, cfg, model, result):
    os.makedirs(out_dir, exist_ok=True)
    save_model(model, os.path.join(out_dir, "model.ckpt"))
    run = {
        "model_spec": dataclasses.asdict(spec),
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in cfg.items()},
        "result": result.canonical_dict() if result else None,
    }
    write_json(os.path.join(out_dir, "run.json"), run)
    if result is not None:
        harness.emit_confusion(result.confusion, os.path.join(out_dir, "confusion.csv"))
        write_json(os.path.join(out_dir, "timing.json"), {"wall_clock_per_step": result.wall_clock_per_step})


def _load_run(run_dir):
    path = os.path.join(run_dir, "run.json")
    try:
        with open(path) as fh:
            run = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise DataError(f"cannot read {path}: {exc}") from exc
    unknown = sorted(set(run["model_spec"]) - {f.name for f in dataclasses.fields(ModelSpec)})
    if unknown:
        raise DataError(f"{path}: unknown model_spec key(s) {unknown}")
    spec = ModelSpec(**{k: tuple(v) if isinstance(v, list) else v for k, v in run["model_spec"].items()})
    cfg = config_from_values(run["config"], path)  # checked before the model loads
    return load_model(spec, os.path.join(run_dir, "model.ckpt")), spec, cfg


def _run_and_split(args):
    """The trained run `--run`, the dataset `--data` and the indices of
    `--split` under the run's config."""
    model, _, cfg = _load_run(args.run)
    dataset = Dataset.load(args.data)
    return model, dataset, getattr(harness.splits_for(cfg, dataset), args.split)


def cmd_gen_data(args):
    cfg = _load_cfg(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    dataset = generate_synthetic(_dataset_config(cfg), Rng(cfg["seed"]))
    dataset.save(args.out)
    print(f"wrote {len(dataset)} samples to {args.out}")


def cmd_train(args):
    cfg = _load_cfg(args.config)
    dataset = Dataset.load(args.data)
    splits = harness.splits_for(cfg, dataset)
    model, result = harness.train_variant(args.model, dataset, splits, cfg)
    _write_run(args.out, model.spec, cfg, model, result)
    print(f"{args.model}: test accuracy {result.test_accuracy:.4f} -> {args.out}")


def cmd_extract(args):
    model, dataset, indices = _run_and_split(args)
    feats = harness.extract_features(model, dataset, indices, args.tap)
    write_tensor(args.out, feats)
    print(f"wrote {feats.shape[0]}x{feats.shape[1]} features to {args.out}")


def cmd_eval(args):
    result = harness.evaluate(*_run_and_split(args))
    print(json.dumps(result.canonical_dict(), sort_keys=True, indent=2))


def cmd_fuse(args):
    rnn_model, _, cfg = _load_run(args.run_rnn)
    cnn_model, _, cnn_cfg = _load_run(args.run_cnn)
    for key in ("seed", "split_mode"):  # both runs must have held out the same test samples
        if cfg[key] != cnn_cfg[key]:
            files = " and ".join(os.path.join(run, "run.json") for run in (args.run_rnn, args.run_cnn))
            raise ConfigError(f"{files} differ in {key!r}: {cfg[key]!r} vs {cnn_cfg[key]!r}")
    dataset = Dataset.load(args.data)
    splits = harness.splits_for(cfg, dataset)
    svm_c = args.svm_c if args.svm_c is not None else cfg["svm_c"]
    rows = harness.run_fusion(rnn_model, cnn_model, dataset, splits, svm_c)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        write_json(args.out, rows)
    print(json.dumps(rows, sort_keys=True, indent=2))


def cmd_gradcheck(args):
    report = harness.gradcheck_all(Rng(args.seed) if args.seed is not None else None)
    print(report.format())
    if not report.passed:
        sys.exit(1)


def cmd_ladder(args):
    cfg = _load_cfg(args.config)
    if args.data:
        dataset = Dataset.load(args.data)
    else:
        dataset = generate_synthetic(_dataset_config(cfg), Rng(cfg["seed"]))
    results, timing, _, _ = harness.run_ladder(dataset, cfg, out_dir=args.out)
    rows = {k: v.get("test_accuracy") for k, v in results.items()}
    print(json.dumps(rows, sort_keys=True, indent=2))


def main(argv=None):
    parser = argparse.ArgumentParser(prog="twostream")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic paired dataset")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train one ladder variant")
    p.add_argument("--config")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("extract", help="extract per-sample features from a trained run")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--tap", required=True, choices=["rnn_fc", "cnn_fc6"])
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("eval", help="evaluate a trained run on a split")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("fuse", help="decision and feature fusion rows from two trained runs")
    p.add_argument("--run-rnn", required=True)
    p.add_argument("--run-cnn", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--svm-c", type=_svm_c)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("gradcheck", help="finite-difference checks for every layer type")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ladder", help="train the configured model ladder plus fusion rows")
    p.add_argument("--config")
    p.add_argument("--data")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_ladder)

    args = parser.parse_args(argv)
    args.fn(args)


def console_main(argv=None):
    """The `twostream` command: `main`, with the package's own input errors
    (`ConfigError`, `DataError`) printed as `twostream: error: <message>` on
    stderr and exit status 2, as argparse reports a bad command line. Any
    other exception keeps its traceback. Returns the exit status."""
    try:
        main(argv)
    except (ConfigError, DataError) as exc:
        print(f"twostream: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(console_main())
