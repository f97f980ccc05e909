"""The three closed-loop workloads and their output checks.

Each workload builds its inputs from a seed through the public
`generate_synthetic` API, then drives `twostream.harness`, `models`, `fusion`,
`data` and `fileio` the way the CLI does. Calls go through module attributes
(``harness.train_variant``, never a name imported by name) so that the traced
run sees them. A round is one fixed unit of work; rounds repeat identically.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import traceback
from pathlib import Path

import numpy as np

from twostream import config, data, fileio, fusion, harness, heads, models
from twostream.tensor import Rng

DEFAULT_SEED = 0
# Held out: validate a claimed gain on it as well as on DEFAULT_SEED.
HELDOUT_SEED = 7919
REFERENCES = Path(__file__).resolve().parent / "references.json"
# Rounding-level: reordered float64 reductions stay far inside it; a float32
# switch or a dropped padding mask moves losses by 1e-7 relative or more.
RTOL, ATOL = 1e-9, 1e-12

SKELETON_VARIANTS = ("RNN1", "LSTM1", "GRU1-BN-DP", "BI-GRU2-BN-DP-H")
VIDEO_VARIANT = "C3D-DESK"
FUSION_RNN = "BI-GRU2-BN-DP-H"

# Config overrides per workload and size; everything else is the desk default.
# "full" is what the benchmark measures; "tiny" is the reference check that
# every run repeats at DEFAULT_SEED, and the smoke test's size. Each size gives
# every subject one sample per view and class, so the split sizes, and with
# them the work in a round, are the same for every seed.
SIZES = {
    "skeleton-train": {
        "full": {"samples_per_class": 60, "epochs": 3},
        "tiny": {"samples_per_class": 30, "epochs": 4},
    },
    "video-train": {
        "full": {"samples_per_class": 60, "cnn_epochs": 1},
        "tiny": {"samples_per_class": 24, "cnn_epochs": 2},
    },
    "fusion-eval": {
        "full": {"samples_per_class": 30, "epochs": 2, "cnn_epochs": 1},
        "tiny": {"samples_per_class": 12, "epochs": 2, "cnn_epochs": 1},
    },
}
# fusion-eval videos span 24 frames: one whole 16-frame clip plus a remainder
# long enough to be padded into a second clip, so clip splitting and clip
# averaging both run.
FUSION_VIDEO_SHAPE = (3, 24, 16, 16)


@dataclasses.dataclass
class Round:
    """One round's work and the outputs the check compares."""

    samples: int  # work units counted by samples_per_s
    ops: int  # operations counted by attempted/failed
    outputs: dict  # name -> list of numbers
    accuracy: float


def _config(seed, overrides):
    cfg = config.default_config()
    cfg["seed"] = seed
    cfg.update(overrides)
    return cfg


def _synth_config(cfg, **override):
    """The generator config the CLI's gen-data derives from the same keys."""
    keys = {f.name for f in dataclasses.fields(data.SynthConfig)} & cfg.keys()
    return dataclasses.replace(data.SynthConfig(**{k: cfg[k] for k in keys}), **override)


def _train_rows(n, batch_size):
    """Rows the training loop consumes per epoch (a one-row remainder is skipped)."""
    return n - 1 if n % batch_size == 1 else n


def _clip_count(dataset, indices, clip_len):
    """Clips `clip_split` cuts from the selected videos: whole clips, plus a
    padded one for a remainder of at least half a clip, and at least one."""
    total = 0
    for i in indices:
        t = dataset[i].video.pixels.shape[1]
        total += max(1, t // clip_len + (2 * (t % clip_len) >= clip_len))
    return total


class TrainWorkload:
    """Train ladder variants from scratch for a fixed number of epochs each."""

    def __init__(self, name, variants, seed, size):
        self.name = name
        self.variants = variants
        self.cfg = _config(seed, SIZES[name][size])
        self.seed = seed

    def setup(self):
        cfg = self.cfg
        self.dataset = data.generate_synthetic(_synth_config(cfg), Rng(self.seed))
        self.splits = data.make_splits(
            self.dataset, data.SplitSpec(cfg["split_mode"]), Rng(self.seed).derive(7)
        )

    def round(self):
        samples = ops = 0
        outputs, accs = {}, []
        for name in self.variants:
            model, result = harness.train_variant(name, self.dataset, self.splits, self.cfg)
            tcfg = harness.train_config_for(name, self.cfg)
            if model.stream == "video":
                n_train = _clip_count(self.dataset, self.splits.train, model.clip_len)
                n_val = _clip_count(self.dataset, self.splits.val, model.clip_len)
                n_test = _clip_count(self.dataset, self.splits.test, model.clip_len)
            else:
                n_train, n_val, n_test = map(len, (self.splits.train, self.splits.val, self.splits.test))
            epochs = len(result.epoch_losses)
            samples += epochs * (_train_rows(n_train, tcfg.batch_size) + n_val) + n_test
            ops += epochs * result.steps_per_epoch
            outputs[f"{name}.losses"] = [float(v) for v in result.epoch_losses]
            outputs[f"{name}.test_accuracy"] = [float(result.test_accuracy)]
            outputs[f"{name}.steps"] = [result.steps_per_epoch]
            accs.append(result.test_accuracy)
        return Round(samples, ops, outputs, float(np.mean(accs)))

    def failed_ops(self, outputs, bad):
        """Steps of every epoch whose loss mismatched; a bad accuracy fails the last epoch."""
        failed = 0
        for name in self.variants:
            steps = int(outputs[f"{name}.steps"][0])
            n_bad = int(bad[f"{name}.losses"].sum())
            if not n_bad and (bad[f"{name}.test_accuracy"].any() or bad[f"{name}.steps"].any()):
                n_bad = 1
            failed += max(steps, 1) * n_bad
        return failed


class FusionWorkload:
    """Load both trained streams from disk and run every fusion path."""

    name = "fusion-eval"

    def __init__(self, seed, size, workdir):
        self.cfg = _config(seed, SIZES[self.name][size])
        self.seed = seed
        self.data_dir = os.path.join(workdir, "dataset")
        self.ckpt = {v: os.path.join(workdir, f"{v}.ckpt") for v in (FUSION_RNN, VIDEO_VARIANT)}
        self.features_dir = os.path.join(workdir, "features")

    def setup(self):
        cfg = self.cfg
        dataset = data.generate_synthetic(
            _synth_config(cfg, video_shape=FUSION_VIDEO_SHAPE), Rng(self.seed)
        )
        dataset.save(self.data_dir)
        splits = data.make_splits(dataset, data.SplitSpec(cfg["split_mode"]), Rng(self.seed).derive(7))
        self.specs, self.setup_outputs = {}, {}
        for name in self.ckpt:
            model, result = harness.train_variant(name, dataset, splits, cfg)
            models.save_model(model, self.ckpt[name])
            self.specs[name] = harness.model_spec_for(name, cfg, dataset)
            self.setup_outputs[f"{name}.losses"] = [float(v) for v in result.epoch_losses]
        os.makedirs(self.features_dir, exist_ok=True)

    def round(self):
        cfg = self.cfg
        dataset = data.Dataset.load(self.data_dir)
        rnn = models.load_model(self.specs[FUSION_RNN], self.ckpt[FUSION_RNN])
        cnn = models.load_model(self.specs[VIDEO_VARIANT], self.ckpt[VIDEO_VARIANT])
        splits = data.make_splits(dataset, data.SplitSpec(cfg["split_mode"]), Rng(self.seed).derive(7))

        val_r = harness.predict_dataset(rnn, dataset, splits.val)
        val_c = harness.predict_dataset(cnn, dataset, splits.val)
        weights = fusion.search_trust_weights(val_r, val_c, dataset.labels(splits.val))
        test_r = harness.predict_dataset(rnn, dataset, splits.test)
        test_c = harness.predict_dataset(cnn, dataset, splits.test)
        decided = [fusion.decision_fuse(weights, r, c) for r, c in zip(test_r, test_c)]

        fused = {}
        for split in ("train", "test"):
            indices = getattr(splits, split)
            rnn_feat = harness.extract_features(rnn, dataset, indices, "rnn_fc")
            cnn_feat = harness.extract_features(cnn, dataset, indices, "cnn_fc6")
            fileio.write_tensor(os.path.join(self.features_dir, f"{split}_rnn_fc.tsr"), rnn_feat)
            fileio.write_tensor(os.path.join(self.features_dir, f"{split}_cnn_fc6.tsr"), cnn_feat)
            fused[split] = fusion.feature_fuse(rnn_feat, cnn_feat)
        svm = heads.svm_train(fused["train"], dataset.labels(splits.train), cfg["svm_c"])
        feature_labels, margins = heads.svm_predict(svm, fused["test"])

        labels = dataset.labels(splits.test)
        outputs = dict(self.setup_outputs)
        outputs["decision.labels"] = [p.label for p in decided]
        outputs["decision.confidence"] = [p.confidence for p in decided]
        outputs["feature.labels"] = [int(v) for v in feature_labels]
        outputs["feature.margin"] = [float(v) for v in margins.max(axis=1)]
        outputs["w_c"] = [weights.w_c]
        n_test = len(labels)
        accuracy = float(np.mean(np.asarray(feature_labels) == labels))
        return Round(n_test, n_test, outputs, accuracy)

    def failed_ops(self, outputs, bad):
        """Fused test samples whose decision or feature output mismatched; a
        mismatch in the trained streams or the trust weight fails them all."""
        n = len(outputs["decision.labels"])
        if any(bad[k].any() for k in bad if k.endswith(".losses") or k == "w_c"):
            return n
        per_sample = np.zeros(n, dtype=bool)
        for key in ("decision.labels", "decision.confidence", "feature.labels", "feature.margin"):
            per_sample |= bad[key]
        return int(per_sample.sum())


TRAINED_VARIANTS = {"skeleton-train": SKELETON_VARIANTS, "video-train": (VIDEO_VARIANT,)}


def make(name, seed, size, workdir):
    """The workload `name` at `size`, with inputs from `seed`; files go under `workdir`."""
    if name == FusionWorkload.name:
        return FusionWorkload(seed, size, workdir)
    return TrainWorkload(name, TRAINED_VARIANTS[name], seed, size)


# --------------------------------------------------------------------------
# Output checks
# --------------------------------------------------------------------------


def load_references(path=REFERENCES):
    with open(path) as fh:
        return json.load(fh)


def reference_key(size, seed):
    return f"{size}/seed{seed}"


def mismatches(outputs, expected):
    """Per-output boolean masks of entries that are non-finite or differ from
    `expected` (None: finiteness only). Labels must match exactly; other
    numbers within RTOL/ATOL."""
    bad = {}
    for key, values in outputs.items():
        got = np.asarray(values, dtype=np.float64)
        mask = ~np.isfinite(got)
        if expected is not None:
            want = np.asarray(expected.get(key, []), dtype=np.float64)
            if want.shape != got.shape:
                mask = np.ones(got.shape, dtype=bool)
            elif key.endswith(".labels") or key.endswith(".steps"):
                mask |= got != want
            else:
                mask |= ~np.isclose(got, want, rtol=RTOL, atol=ATOL)
        bad[key] = mask
    if expected is not None:
        for key in expected.keys() - outputs.keys():
            bad[key] = np.ones(1, dtype=bool)
    return bad


class Tally:
    """Operations attempted and failed, each round checked against `expected`
    (the references for its size and seed) or else against the first round."""

    def __init__(self, expected):
        self.expected = expected
        self.first = None
        self.attempted = self.failed = 0
        self.last_ops = 1

    def add(self, wl, rnd):
        bad = mismatches(rnd.outputs, self.expected if self.expected else self.first)
        self.attempted += rnd.ops
        self.failed += wl.failed_ops(rnd.outputs, bad)
        self.last_ops = max(rnd.ops, 1)
        if self.first is None:
            self.first = rnd.outputs

    def raised(self):
        """Count an exception as failing a round's worth of operations."""
        traceback.print_exc(file=sys.stderr)
        self.attempted += self.last_ops
        self.failed += self.last_ops


def reference_check(name, workdir, tally):
    """Run `name` at tiny size at the default seed and compare it with its
    reference; the operations count into `tally`. Returns (test accuracy,
    whether a reference existed and matched). The accuracy repeats exactly
    whatever seed the measured run uses, so seed-to-seed differences in data
    difficulty do not spread it."""
    expected = load_references()[name].get(reference_key("tiny", DEFAULT_SEED))
    check = Tally(expected)
    accuracy = 0.0
    try:
        wl = make(name, DEFAULT_SEED, "tiny", os.path.join(workdir, "check"))
        wl.setup()
        rnd = wl.round()
        check.add(wl, rnd)
        accuracy = rnd.accuracy
    except Exception:
        check.raised()
    tally.attempted += check.attempted
    tally.failed += check.failed
    return accuracy, expected is not None and check.failed == 0
