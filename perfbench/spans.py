"""Span tracing of twostream's public functions, installed from outside the
package, and the per-layer metrics computed from the spans.

`install` rebinds each target function in every twostream module namespace
that holds it, so names imported by name (``harness.rmsprop_step``,
``models.stack``, ``recurrent.sigmoid``) are traced as well; `uninstall` puts
the originals back. Spans (name, start, end, parent) are kept in memory in flat
arrays and written out once, after the measurement.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

MODULES = (
    "bench",
    "tensor",
    "recurrent",
    "normreg",
    "conv3d",
    "heads",
    "optim",
    "fusion",
    "data",
    "fileio",
    "models",
    "harness",
)
# Step timings are reported for these ladder variants (the ones the workloads train).
STEP_VARIANTS = ("RNN1", "LSTM1", "GRU1-BN-DP", "BI-GRU2-BN-DP-H", "C3D-DESK")


class Tracer:
    """In-memory span store plus the computed counters gathered at span starts."""

    def __init__(self, conv_names):
        self.conv_names = conv_names  # filter count -> desk C3D layer name
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.failed = array("b")
        self._open = []
        self.counts = Counter()
        self.step_ms = defaultdict(list)
        self.bytes = Counter()
        self._step = None  # (variant, start) of the training step in flight
        self._val_indices = None

    def begin(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self.failed.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx, failed=False):
        self.end[idx] = time.perf_counter()
        self.failed[idx] = failed
        self._open.pop()

    def current(self):
        return self.names[self.name_id[self._open[-1]]] if self._open else None

    def in_train_step(self):
        return self._step is not None

    def arrays(self):
        """(name id, start, end, parent index or -1, failed) per span."""
        return (
            np.asarray(self.name_id, dtype=np.int32),
            np.asarray(self.start, dtype=np.float64),
            np.asarray(self.end, dtype=np.float64),
            np.asarray(self.parent, dtype=np.int32),
            np.asarray(self.failed, dtype=np.int8),
        )

    def self_times(self):
        """Per-span duration minus the part its child spans cover."""
        _, start, end, parent, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return dur, dur - child

    def write(self, path, env):
        nid, start, end, parent, failed = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=nid,
            start=start,
            end=end,
            parent=parent,
            failed=failed,
            env=np.array(repr(env)),
        )


# --------------------------------------------------------------------------
# Per-target span names and counter hooks
# --------------------------------------------------------------------------


def _weights_2d(cell):
    """The fused weight matrices of a recurrent cell, whatever wraps them."""
    arrays = cell.param_arrays() if hasattr(cell, "param_arrays") else list(vars(cell.params).values())
    return [a for a in arrays if isinstance(a, np.ndarray) and a.ndim == 2]


def _on_unroll(tr, args, kwargs, out):
    cell, batch = args[0], args[1]
    n, t = batch.data.shape[:2]
    tr.counts["recurrent.rowsteps.computed"] += n * t
    tr.counts["recurrent.rowsteps.valid"] += int(np.minimum(np.asarray(batch.lengths), t).sum())
    flop = n * t * sum(2 * w.shape[0] * w.shape[1] for w in _weights_2d(cell))
    tr.counts["recurrent.flop.fwd"] += flop
    if tr.in_train_step():  # every train-mode unroll gets one backward: dW and d[x;h]
        tr.counts["recurrent.flop.bwd"] += 2 * flop


def _conv_name(tr, f, suffix):
    return f"conv3d.{tr.conv_names.get(f, f'conv_f{f}')}.{suffix}"


def _on_conv_forward(tr, args, kwargs, out):
    p, x = args[0], args[1]
    y = out[0]
    per_output = p.kernels.size // p.kernels.shape[0]  # c * kt * kh * kw
    flop = 2 * y.size * per_output
    moved = x.nbytes + p.kernels.nbytes + y.nbytes
    tr.counts["conv3d.flop.fwd"] += flop
    tr.counts["conv3d.bytes.fwd"] += moved
    if tr.in_train_step():  # backward forms grad kernels and grad input: twice the forward
        tr.counts["conv3d.flop.bwd"] += 2 * flop
        tr.counts["conv3d.bytes.bwd"] += 2 * x.nbytes + y.nbytes + 2 * p.kernels.nbytes


def _conv_forward_name(tr, args, kwargs):
    return _conv_name(tr, args[0].kernels.shape[0], "fwd")


def _conv_backward_name(tr, args, kwargs):
    grad_y = args[1]
    f = grad_y.shape[1] if grad_y.shape[1] in tr.conv_names else grad_y.shape[-1]
    return _conv_name(tr, f, "bwd")


def _on_model_forward(tr, args, kwargs):
    if kwargs.get("mode") == "train":
        tr._step = (args[0].spec.name, time.perf_counter())


def _on_optimizer(tr, args, kwargs, out):
    if tr._step is not None:
        variant, t0 = tr._step
        tr.step_ms[variant].append((time.perf_counter() - t0) * 1e3)
        tr._step = None


def _on_train(tr, args, kwargs):
    tr._val_indices = args[2].val


def _evaluate_name(tr, args, kwargs):
    validating = tr.current() == "harness.train" and args[2] is tr._val_indices
    return "harness.validate" if validating else "harness.evaluate"


def _batched_probs_name(tr, args, kwargs):
    return "harness.validate" if tr.current() == "harness.train" else "harness.batched_probs"


def _file_bytes(key):
    def hook(tr, args, kwargs, out=None):
        tr.bytes[key] += os.path.getsize(args[0])

    return hook


# (module, attribute, span name or namer(tracer, args, kwargs), before hook, after hook)
TARGETS = (
    ("tensor", "sigmoid", "tensor.sigmoid", None, None),
    ("tensor", "softmax", "tensor.softmax", None, None),
    ("tensor", "l2_normalize", "tensor.l2_normalize", None, None),
    ("tensor", "concat_last", "tensor.concat_last", None, None),
    ("recurrent", "unroll", "recurrent.unroll", None, _on_unroll),
    ("recurrent", "unroll_backward", "recurrent.unroll_backward", None, None),
    ("recurrent", "bidirectional", "recurrent.bidirectional", None, None),
    ("recurrent", "bidirectional_backward", "recurrent.bidirectional_backward", None, None),
    ("recurrent", "stack", "recurrent.stack", None, None),
    ("recurrent", "stack_backward", "recurrent.stack_backward", None, None),
    ("normreg", "batchnorm_forward", "normreg.batchnorm", None, None),
    ("normreg", "batchnorm_backward", "normreg.batchnorm", None, None),
    ("normreg", "dropout", "normreg.dropout", None, None),
    ("conv3d", "conv3d_forward", _conv_forward_name, None, _on_conv_forward),
    ("conv3d", "conv3d_backward", _conv_backward_name, None, None),
    ("conv3d", "maxpool3d", "conv3d.pool", None, None),
    ("conv3d", "maxpool3d_backward", "conv3d.pool", None, None),
    ("conv3d", "clip_split", "conv3d.clip_split", None, None),
    ("conv3d", "clip_average", "conv3d.clip_average", None, None),
    ("conv3d", "C3dModel.forward", "conv3d.c3d_forward", None, None),
    ("conv3d", "C3dModel.backward", "conv3d.c3d_backward", None, None),
    ("heads", "dense_forward", "heads.dense", None, None),
    ("heads", "dense_backward", "heads.dense", None, None),
    ("heads", "softmax_xent", "heads.softmax_xent", None, None),
    ("heads", "svm_train", "heads.svm_train", None, None),
    ("heads", "svm_predict", "heads.svm_predict", None, None),
    ("optim", "rmsprop_step", "optim.rmsprop_step", None, _on_optimizer),
    ("optim", "sgd_halving_step", "optim.sgd_halving_step", None, _on_optimizer),
    ("fusion", "search_trust_weights", "fusion.search_trust_weights", None, None),
    ("fusion", "decision_fuse", "fusion.decision_fuse", None, None),
    ("fusion", "feature_fuse", "fusion.feature_fuse", None, None),
    ("data", "generate_synthetic", "data.generate_synthetic", None, None),
    ("data", "pad_sequences", "data.pad_sequences", None, None),
    ("data", "make_splits", "data.make_splits", None, None),
    ("data", "Dataset.save", "data.dataset_save", None, None),
    ("data", "Dataset.load", "data.dataset_load", None, None),
    ("fileio", "write_tensor", "fileio.write", None, _file_bytes("write")),
    ("fileio", "write_checkpoint", "fileio.write", None, _file_bytes("write")),
    ("fileio", "read_tensor", "fileio.read", _file_bytes("read"), None),
    ("fileio", "read_checkpoint", "fileio.read", _file_bytes("read"), None),
    ("models", "build_model", "models.build_model", None, None),
    ("models", "save_model", "models.save_model", None, None),
    ("models", "load_model", "models.load_model", None, None),
    ("models", "RecurrentClassifier.forward", "models.forward", _on_model_forward, None),
    ("models", "RecurrentClassifier.backward", "models.backward", None, None),
    ("models", "ConvClassifier.forward", "models.forward", _on_model_forward, None),
    ("models", "ConvClassifier.backward", "models.backward", None, None),
    ("harness", "train_variant", "harness.train_variant", None, None),
    ("harness", "train", "harness.train", _on_train, None),
    ("harness", "evaluate", _evaluate_name, None, None),
    ("harness", "predict_dataset", "harness.predict_dataset", None, None),
    ("harness", "extract_features", "harness.extract_features", None, None),
    ("harness", "_batched_probs", _batched_probs_name, None, None),
)


def _traced(tr, fn, name, before, after):
    namer = name if callable(name) else (lambda _tr, _a, _k: name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tr.begin(namer(tr, args, kwargs))
        if before is not None:
            before(tr, args, kwargs)
        ok = False
        try:
            out = fn(*args, **kwargs)
            if after is not None:
                after(tr, args, kwargs, out)
            ok = True
            return out
        finally:
            tr.finish(idx, failed=not ok)

    return traced


def install(tr):
    """Wrap every target that exists; returns (undo list, targets not found)."""
    undo, missing = [], []
    loaded = [m for name, m in sys.modules.items() if name == "twostream" or name.startswith("twostream.")]
    for mod_name, attr, name, before, after in TARGETS:
        owner = sys.modules.get(f"twostream.{mod_name}")
        cls_name, _, meth = attr.rpartition(".")
        if cls_name:
            cls = getattr(owner, cls_name, None)
            raw = cls.__dict__.get(meth) if cls is not None else None
            if raw is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = _traced(tr, fn, name, before, after)
            setattr(cls, meth, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)
            undo.append((cls, meth, raw))
            continue
        fn = getattr(owner, attr, None)
        if fn is None:
            missing.append(f"{mod_name}.{attr}")
            continue
        wrapped = _traced(tr, fn, name, before, after)
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)
                    undo.append((module, key, fn))
    return undo, missing


def uninstall(undo):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(tr, round_counts, wall_s):
    """Self time per span name and module, plus the derived per-layer metrics.

    `round_counts` holds the computed counters of one traced round; every
    round does the same work, so they repeat exactly.
    """
    nid, _, _, _, failed = tr.arrays()
    dur, self_t = tr.self_times()
    n_names = len(tr.names)
    self_ms = np.bincount(nid, weights=self_t, minlength=n_names) * 1e3
    incl_ms = np.bincount(nid, weights=dur, minlength=n_names) * 1e3
    calls = np.bincount(nid, minlength=n_names)
    errors = np.bincount(nid, weights=failed.astype(np.float64), minlength=n_names)
    by_name = {n: (self_ms[i], incl_ms[i], int(calls[i])) for i, n in enumerate(tr.names)}

    def ms(name):
        return float(by_name.get(name, (0.0, 0.0, 0))[0])

    def incl(name):
        return float(by_name.get(name, (0.0, 0.0, 0))[1])

    m = {}
    for module in MODULES:
        ids = [i for i, n in enumerate(tr.names) if n.split(".", 1)[0] == module]
        m[f"{module}.self_ms"] = float(self_ms[ids].sum()) if ids else 0.0
        m[f"{module}.calls"] = int(calls[ids].sum()) if ids else 0
        m[f"{module}.errors"] = int(errors[ids].sum()) if ids else 0
    m["tensor.sigmoid.ms"] = ms("tensor.sigmoid")

    rec_ms = ms("recurrent.unroll") + ms("recurrent.unroll_backward")
    rec_flop = tr.counts["recurrent.flop.fwd"] + tr.counts["recurrent.flop.bwd"]
    m["recurrent.unroll.ms"] = ms("recurrent.unroll")
    m["recurrent.unroll_backward.ms"] = ms("recurrent.unroll_backward")
    m["recurrent.gemm_gflop_per_s"] = rec_flop / rec_ms / 1e6 if rec_ms else 0.0
    computed = tr.counts["recurrent.rowsteps.computed"]
    m["recurrent.unroll.useful_ratio"] = tr.counts["recurrent.rowsteps.valid"] / computed if computed else 0.0
    m["recurrent.gemm_gflop.computed"] = (
        round_counts["recurrent.flop.fwd"] + round_counts["recurrent.flop.bwd"]
    ) / 1e9

    m["normreg.batchnorm.ms"] = ms("normreg.batchnorm")
    m["normreg.dropout.ms"] = ms("normreg.dropout")
    for what in ("dense", "softmax_xent", "svm_train", "svm_predict"):
        m[f"heads.{what}.ms"] = ms(f"heads.{what}")

    conv_ms = 0.0
    for layer in sorted(set(tr.conv_names.values())):
        for kind in ("fwd", "bwd"):
            m[f"conv3d.{layer}.{kind}_ms"] = ms(f"conv3d.{layer}.{kind}")
            conv_ms += m[f"conv3d.{layer}.{kind}_ms"]
    conv_flop = tr.counts["conv3d.flop.fwd"] + tr.counts["conv3d.flop.bwd"]
    m["conv3d.pool.ms"] = ms("conv3d.pool")
    m["conv3d.clip_split.ms"] = ms("conv3d.clip_split")
    m["conv3d.gflop_per_s"] = conv_flop / conv_ms / 1e6 if conv_ms else 0.0
    m["conv3d.gflop.computed"] = (round_counts["conv3d.flop.fwd"] + round_counts["conv3d.flop.bwd"]) / 1e9
    m["conv3d.mbytes.computed"] = (round_counts["conv3d.bytes.fwd"] + round_counts["conv3d.bytes.bwd"]) / 1e6

    m["optim.rmsprop_step.ms"] = ms("optim.rmsprop_step")
    m["optim.sgd_halving_step.ms"] = ms("optim.sgd_halving_step")
    m["fusion.search_trust_weights.ms"] = ms("fusion.search_trust_weights")
    m["fusion.decision_fuse.calls"] = by_name.get("fusion.decision_fuse", (0, 0, 0))[2]
    m["fusion.feature_fuse.ms"] = ms("fusion.feature_fuse")
    m["data.generate_synthetic.ms"] = ms("data.generate_synthetic")
    m["data.pad_sequences.ms"] = ms("data.pad_sequences")
    m["data.dataset_load.ms"] = ms("data.dataset_load")
    for kind in ("read", "write"):
        m[f"fileio.{kind}.mb"] = tr.bytes[kind] / 1e6
        m[f"fileio.{kind}.ms"] = ms(f"fileio.{kind}")

    for variant in STEP_VARIANTS:
        samples = tr.step_ms.get(variant, [])
        m[f"models.{variant}.step_ms.p50"] = _percentile(samples, 50)
        m[f"models.{variant}.step_ms.p90"] = _percentile(samples, 90)
        m[f"models.{variant}.step_ms.n"] = len(samples)

    m["harness.train.self_ms"] = ms("harness.train")
    for what in ("validate", "predict_dataset", "extract_features"):
        m[f"harness.{what}.ms"] = ms(f"harness.{what}")
        m[f"harness.{what}.incl_ms"] = incl(f"harness.{what}")

    self_sum = float(self_t.sum())
    m["trace.spans"] = int(dur.size)
    m["trace.wall_ms"] = wall_s * 1e3
    m["trace.self_sum_ms"] = self_sum * 1e3
    m["trace.self_coverage"] = self_sum / wall_s if wall_s else 0.0
    m["trace.negative_self_spans"] = int((self_t < -1e-9).sum())
    return m
