"""Training/evaluation loops, feature extraction, fusion orchestration, the
finite-difference gradient checker, and metrics emission."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractError, DataError, DivergenceError, check_positive
from .tensor import Rng, softmax
from .recurrent import (
    BidirectionalLayer,
    SequenceBatch,
    init_gru_cell,
    init_lstm_cell,
    init_rnn_cell,
    stack,
    stack_backward,
)
from .normreg import DropoutConfig, batchnorm_backward, batchnorm_forward, dropout, init_batchnorm
from .conv3d import (
    clip_average,
    clip_count,
    clip_helper,
    clip_split,
    conv3d_backward,
    conv3d_forward,
    init_conv3d,
    maxpool3d,
    maxpool3d_backward,
)
from .heads import dense_backward, dense_forward, init_dense, softmax_xent
from .heads import svm_objective, svm_predict, svm_subgradient, svm_train
from .optim import RmspropState, SgdHalvingState, rmsprop_step, sgd_halving_step
from .fusion import decision_fuse, feature_fuse, search_trust_weights
from .data import Dataset, Splits, SplitSpec, make_splits, pad_sequences
from .models import ModelSpec, build_model, LADDER_VARIANTS
from .parallel import ordered_map
from .fileio import write_json


@dataclass
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    optimizer: str = "rmsprop"  # or "sgd_halving"
    learning_rate: float = 0.001
    decay: float = 0.9
    eval_every: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:  # batch statistics need at least two rows
            raise ConfigError(f"batch_size must be at least 2, got {self.batch_size}")
        if self.epochs < 1:  # zero epochs would report an untrained model's accuracy
            raise ConfigError(f"epochs must be at least 1, got {self.epochs}")
        if self.eval_every < 1:
            raise ConfigError(f"eval_every must be at least 1, got {self.eval_every}")
        if self.optimizer not in ("rmsprop", "sgd_halving"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}; use rmsprop or sgd_halving")
        check_positive("learning_rate", self.learning_rate)
        if not 0 <= self.decay < 1:
            raise ConfigError(f"decay must be in [0, 1), got {self.decay}")


@dataclass
class RunResult:
    """Everything one training/evaluation run produced. `canonical_dict`
    holds every field but the wall-clock timing, so reruns with one seed
    give the same dict; timing travels separately."""

    model: str
    seed: int
    epoch_losses: list = field(default_factory=list)
    val_accuracies: list = field(default_factory=list)
    eval_every: int = 1
    steps_per_epoch: int = 0
    test_accuracy: float = 0.0
    confusion: np.ndarray = None
    wall_clock_per_step: float = 0.0

    def canonical_dict(self):
        out = dataclasses.asdict(self)
        del out["wall_clock_per_step"]
        out["confusion"] = None if self.confusion is None else self.confusion.tolist()
        return out


def steps_to_threshold(result: RunResult, threshold: float):
    """Optimizer steps until validation accuracy first reached `threshold`,
    or None if it never did."""
    for k, acc in enumerate(result.val_accuracies):
        if acc >= threshold:
            return (k + 1) * result.eval_every * result.steps_per_epoch
    return None


# Rows per inference chunk, per stream: sequences or clips.
_INFERENCE_CHUNK = {"skeleton": 64, "video": 32}
# The stream each feature tap belongs to.
_TAP_STREAM = {"rnn_fc": "skeleton", "cnn_fc6": "video"}


class _Rows:
    """The model rows of selected samples, built only when indexed. Each row
    keeps a reference: the position in `indices` of its sample, and for
    video its clip number. `rows[s:e]`, `rows[range]` or `rows[index_array]`
    builds just the rows picked, as the model reads them: a SequenceBatch
    padded to its own longest sequence (padding does not change a recurrent
    result's bits), or a clip array [n,c,t,h,w]."""

    def __init__(self, samples, refs, clip_len=None):
        self.samples = samples  # per position: a SkeletonSequence or video pixels
        self.refs = refs  # per row: (position, clip number)
        self.clip_len = clip_len

    def __len__(self):
        return len(self.refs)

    def __getitem__(self, rows):
        refs = self.refs[rows] if isinstance(rows, slice) else [self.refs[r] for r in rows]
        if self.clip_len is None:
            return pad_sequences([self.samples[pos] for pos, _ in refs])
        clips, last = [], None
        for pos, k in refs:  # a video's clips are cut once for its consecutive rows
            if pos != last:
                last, cut = pos, clip_split(self.samples[pos], self.clip_len)
            clips.append(cut[k])
        return np.stack(clips)


def _stream_rows(model, dataset: Dataset, indices):
    """The model rows of the selected samples as `_Rows`, which build them a
    batch or a chunk at a time, and, for each row, the position in `indices`
    of the sample it came from: one sequence per sample, or every clip of
    each video. Rows hold references, not data, so memory follows the batch,
    not the split. A model built for another class count than the dataset's
    raises DataError, so training and inference fail before any step."""
    spec = model.spec
    if spec.n_classes != dataset.n_classes:
        raise DataError(f"{spec.name} is built for {spec.n_classes} classes, the dataset has {dataset.n_classes}")
    if model.stream == "skeleton":
        refs = [(pos, 0) for pos in range(len(indices))]
        rows = _Rows([dataset[i].skeleton for i in indices], refs)
    else:
        videos = [dataset[i].video.pixels for i in indices]
        refs = [(pos, k) for pos, v in enumerate(videos) for k in range(clip_count(v.shape[1], model.clip_len))]
        rows = _Rows(videos, refs, clip_len=model.clip_len)
    return rows, np.array([pos for pos, _ in rows.refs])


def _chunked(model, rows, chunk, split=None):
    """The model's inference forward over consecutive chunks of at most
    `chunk` of the given rows: the probability rows and the tap rows (None
    when the model has no tap), each concatenated. Each chunk's rows are
    built inside the process that forwards them, so no process holds more
    than one chunk's input at a time.

    The chunks run here one after another, in row order. C3D clips run on
    two cores through the clip helper, in training and in inference: when
    `split` is given, `split(row ids)` hands the helper each chunk's later
    clips and returns the ids of those this process forwards
    (`conv3d.ClipHelper.start`). The next chunk is split before this one is
    forwarded, so the helper goes on while this process runs the dense
    layers. Only the last chunk can be shorter than the rest, so a chunk too
    short to split is never forwarded while a later one waits at the helper.
    Every chunk runs; then the first whose output is not finite, in row
    order, raises DivergenceError naming the model and its rows."""

    def forward(ids):
        logits, tap, _ = model.forward(rows[ids])
        return softmax(logits), tap

    n = len(rows)
    chunks = [range(s, min(s + chunk, n)) for s in range(0, n, chunk)]
    split = split or (lambda ids: ids)
    outs, own = [], split(chunks[0])
    for after in [*chunks[1:], None]:
        here, own = own, None if after is None else split(after)
        outs.append(forward(here))
    for ids, (probs, tap) in zip(chunks, outs):
        if not (np.isfinite(probs).all() and (tap is None or np.isfinite(tap).all())):
            raise DivergenceError(
                f"{model.spec.name}: non-finite inference output in rows {ids[0]}..{ids[-1]}"
            )
    probs, taps = zip(*outs)
    return np.concatenate(probs), None if taps[0] is None else np.concatenate(taps)


def _clip_helper(model, dataset: Dataset, n_rows=2):
    """A context for the model's forwards over `dataset`: none for a
    skeleton model; for a video model, the clip helper open on the model
    (the one `train` holds), else a new one for the block
    (`conv3d.clip_helper`, which may start none), and none for fewer than
    two rows. Yields the ClipHelper or None."""
    if model.stream == "video" and model.net.helper is not None:
        return contextlib.nullcontext(model.net.helper)
    if model.stream == "skeleton" or n_rows < 2:
        return contextlib.nullcontext()
    return clip_helper(model.net, lambda indices: _stream_rows(model, dataset, indices)[0])


def _inference_pass(model, dataset: Dataset, indices):
    """One chunked inference pass over the selected samples: the probability
    rows, the tap rows (None when the model has no tap), and the row bounds
    that split both into per-sample groups (a sample's rows are consecutive:
    its clips for video, its one sequence for skeleton). A video pass splits
    each chunk through the clip helper (`_clip_helper`). No samples raise
    DataError, as `_stream_rows` does for a model of another class count."""
    if len(indices) == 0:
        raise DataError(f"{model.spec.name}: inference needs at least one sample")
    rows, owners = _stream_rows(model, dataset, indices)
    with _clip_helper(model, dataset, len(rows)) as helper:
        split = None if helper is None else functools.partial(helper.start, indices, train=False)
        probs, taps = _chunked(model, rows, _INFERENCE_CHUNK[model.stream], split)
    return probs, taps, np.searchsorted(owners, np.arange(1, len(indices)))


def _sample_predictions(probs, bounds):
    """Each sample's Prediction: the mean of its probability rows."""
    return [clip_average(p) for p in np.split(probs, bounds)]


def _sample_taps(taps, bounds):
    """Each sample's mean tap row, [n, width]; None when there is no tap."""
    if taps is None:
        return None
    return np.stack([t.mean(axis=0) for t in np.split(taps, bounds)])


def infer_dataset(model, dataset: Dataset, indices):
    """One inference pass over the selected samples. Returns the per-sample
    Prediction list, each the mean of the sample's probability rows (its
    clips for video, its one sequence for skeleton), and the per-sample mean
    tap rows, [n, width] (None when the model has no tap). The model input is
    built one chunk at a time (`_chunked`), so memory follows the chunk, not
    the split."""
    probs, taps, bounds = _inference_pass(model, dataset, indices)
    return _sample_predictions(probs, bounds), _sample_taps(taps, bounds)


def predict_dataset(model, dataset: Dataset, indices):
    """The per-sample Prediction list of `infer_dataset`, without averaging
    the taps."""
    probs, _, bounds = _inference_pass(model, dataset, indices)
    return _sample_predictions(probs, bounds)


def evaluate(model, dataset: Dataset, indices) -> RunResult:
    """Accuracy and confusion matrix of `predict_dataset` over the given
    samples (inference mode)."""
    preds = predict_dataset(model, dataset, indices)
    confusion = _confusion_of([p.label for p in preds], dataset.labels(indices), dataset.n_classes)
    return RunResult(model=model.spec.name, seed=-1, test_accuracy=_accuracy_of(confusion), confusion=confusion)


def extract_features(model, dataset: Dataset, indices, tap):
    """One feature row per sample, the mean of its rows at the tap: the
    hidden layer of the skeleton stream (`rnn_fc`) or the first
    fully-connected layer of the video stream, averaged over clips
    (`cnn_fc6`). A model without a tap, a skeleton variant without the
    hidden layer (`-H`), raises ContractError before any inference."""
    stream = _TAP_STREAM.get(tap)
    if stream is None:
        raise ConfigError(f"unknown tap {tap!r}; expected rnn_fc or cnn_fc6")
    if model.stream != stream:
        raise ContractError(f"{tap} tap requires the {stream}-stream model")
    if stream == "skeleton" and model.hidden is None:
        raise ContractError(f"model {model.spec.name} has no hidden layer to tap")
    _, taps, bounds = _inference_pass(model, dataset, indices)
    return _sample_taps(taps, bounds)


def train(model, dataset: Dataset, splits: Splits, cfg: TrainConfig) -> RunResult:
    """Mini-batch training over the training split's model rows, with
    validation accuracy from `evaluate` every `eval_every` epochs. Each
    batch's rows are padded or stacked from `_stream_rows`' references when
    its step is taken, so memory follows the batch, not the split. A video
    model runs every training batch and every validation and test chunk on
    two cores where a helper may start: one clip helper (`_clip_helper`)
    stays open for the whole call, builds the later half of each batch's or
    chunk's clips from its copy of the dataset, and the bits are those of
    one process. Deterministic given the seed; aborts with a diagnostic if
    the loss goes non-finite."""
    shuffle_rng = Rng(cfg.seed).derive(101)
    dropout_rng = Rng(cfg.seed).derive(202)
    params = dict(model.param_items())
    if cfg.optimizer == "rmsprop":
        state = RmspropState(learning_rate=cfg.learning_rate, decay=cfg.decay)
    else:
        state = SgdHalvingState(learning_rate=cfg.learning_rate)

    rows, owners = _stream_rows(model, dataset, splits.train)
    train_labels = dataset.labels(splits.train)[owners]
    n_train = len(rows)

    result = RunResult(model=model.spec.name, seed=cfg.seed, eval_every=cfg.eval_every)
    best_val = -1.0
    step_seconds = []
    improved = None
    with _clip_helper(model, dataset) as helper:
        for epoch in range(cfg.epochs):
            perm = shuffle_rng.permutation(n_train)
            losses = []
            for start in range(0, n_train, cfg.batch_size):
                idx = perm[start : start + cfg.batch_size]
                if idx.size < 2:  # batch statistics need at least two rows
                    continue
                xb = rows[idx if helper is None else helper.start(splits.train, idx)]
                yb = train_labels[idx]
                tic = time.perf_counter()
                logits, _, cache = model.forward(xb, mode="train", rng=dropout_rng)
                loss, grad_logits = softmax_xent(logits, yb)
                if not np.isfinite(loss):
                    raise DivergenceError(
                        f"{model.spec.name}: non-finite loss at epoch {epoch} "
                        f"step {start // cfg.batch_size}"
                    )
                grads = model.backward(cache, grad_logits)
                if cfg.optimizer == "rmsprop":
                    rmsprop_step(state, params, grads)
                else:
                    sgd_halving_step(state, params, grads, improved)
                    improved = None
                step_seconds.append(time.perf_counter() - tic)
                losses.append(loss)
            result.epoch_losses.append(float(np.mean(losses)))
            if (epoch + 1) % cfg.eval_every == 0:
                acc = evaluate(model, dataset, splits.val).test_accuracy
                result.val_accuracies.append(acc)
                improved = acc > best_val + 1e-12
                best_val = max(best_val, acc)
        test = evaluate(model, dataset, splits.test)
    result.test_accuracy = test.test_accuracy
    result.confusion = test.confusion
    result.steps_per_epoch = len(step_seconds) // cfg.epochs  # every epoch takes the same steps
    result.wall_clock_per_step = float(np.mean(step_seconds)) if step_seconds else 0.0
    return result


def emit_confusion(confusion, path):
    """K x K counts as CSV; the header row carries the class indices 0..K-1."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(str(c) for c in range(len(confusion))) + "\n")
        for row in confusion:
            fh.write(",".join(str(int(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Finite-difference gradient checking
# ---------------------------------------------------------------------------


def finite_diff_grads(loss_fn, arrays, h=1e-5):
    """Central finite differences of a scalar function w.r.t. every entry of
    every array (perturbed in place)."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gflat = a.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = loss_fn()
            flat[i] = orig - h
            fm = loss_fn()
            flat[i] = orig
            gflat[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


@dataclass
class CheckEntry:
    name: str
    max_rel_error: float
    worst: str
    passed: bool


@dataclass
class GradcheckReport:
    threshold: float
    entries: list = field(default_factory=list)

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    def format(self):
        lines = []
        for e in self.entries:
            status = "ok" if e.passed else "FAIL"
            lines.append(
                f"{status:4s} {e.name:<18s} max_rel={e.max_rel_error:.3e} at {e.worst}"
            )
        lines.append(f"{'PASS' if self.passed else 'FAIL'}: threshold {self.threshold:g}")
        return "\n".join(lines)


def check_gradients(name, loss_fn, arrays, analytic, h=1e-5, threshold=1e-4, floor=1e-4):
    """Compare analytic gradients against central differences; the relative
    error denominator is floored so near-zero coordinates measure sensibly."""
    numeric = finite_diff_grads(loss_fn, arrays, h)
    worst_err, worst_desc = 0.0, "-"
    for a, nmr, arr in zip(analytic, numeric, arrays):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(nmr)), floor)
        rel = np.abs(a - nmr) / denom
        idx = np.unravel_index(int(rel.argmax()), rel.shape) if rel.size else ()
        if rel.size and rel[idx] > worst_err:
            worst_err = float(rel[idx])
            worst_desc = f"shape{arr.shape}[{','.join(map(str, idx))}]"
    return CheckEntry(
        name=name,
        max_rel_error=worst_err,
        worst=worst_desc,
        passed=worst_err <= threshold,
    )


def _check_layer(name, forward, backward, arrays, *rs, threshold=1e-4):
    """Gradcheck the loss sum(y * r), summed over the outputs y of
    `forward() -> (*outputs, cache)` with one r per output, over `arrays`
    against `backward(cache, *rs)`, one gradient per array in order."""

    def loss_fn():
        return sum(float(np.sum(y * r)) for y, r in zip(forward()[:-1], rs))

    return check_gradients(name, loss_fn, arrays, list(backward(forward()[-1], *rs)), threshold=threshold)


def _check_unroll(name, layers, rng, n=2, t=4, i=3):
    """Gradcheck a stack of cells or BidirectionalLayers, masked lengths
    included. A lone layer's loss reads its output sequence and its last
    states; a deeper stack's reads only the top last states, as a
    classifier's does."""
    x = rng.normal(0.0, 0.8, size=(n, t, i))
    lone = len(layers) == 1
    top = layers[-1].out_dim
    rs = ([rng.normal(size=(n, t, top))] if lone else []) + [rng.normal(size=(n, top))]

    def forward():
        outputs, last, caches = stack(layers, SequenceBatch(x, [t, t - 1]))
        return (outputs[-1], last, caches) if lone else (last, caches)

    def backward(caches, *rs):
        grad_x, per_layer = stack_backward(layers, caches, *rs[:-1], grad_top_last=rs[-1])
        return [g for grads in per_layer for g in grads] + [grad_x]

    arrays = [a for layer in layers for a in layer.param_arrays()] + [x]
    return _check_layer(name, forward, backward, arrays, *rs)


def gradcheck_all(rng=None) -> GradcheckReport:
    """Finite-difference checks for every differentiable layer type on small
    randomized shapes. The fixed default seed keeps pool/hinge fixtures away
    from tie points, so the run is deterministic and clean."""
    rng = rng or Rng(2024)
    report = GradcheckReport(threshold=1e-4)
    add = report.entries.append

    # dense + relu
    p = init_dense(4, 3, rng, activation="relu")
    p.W[...] = rng.normal(0.0, 0.7, size=p.W.shape)
    p.b[...] = rng.normal(0.0, 0.3, size=p.b.shape)
    x = rng.normal(size=(5, 4))
    r = rng.normal(size=(5, 3))
    add(_check_layer("dense_relu", lambda: dense_forward(p, x), functools.partial(dense_backward, p), [p.W, p.b, x], r))

    # softmax cross-entropy: the loss is the output, its gradient the cache
    logits = rng.normal(0.0, 2.0, size=(6, 5))
    labels = rng.integers(0, 5, size=6)
    xent = functools.partial(softmax_xent, logits, labels)
    add(_check_layer("softmax_xent", xent, lambda grad, r: [grad * r], [logits], 1.0, threshold=1e-5))

    # batch normalization (train mode)
    bn = init_batchnorm(4)
    bn.gamma[...] = rng.uniform(0.5, 1.5, size=4)
    bn.beta[...] = rng.normal(size=4)
    xb = rng.normal(1.0, 2.0, size=(6, 4))
    rb = rng.normal(size=(6, 4))

    def bn_grads(cache, r):
        gx, ggamma, gbeta = batchnorm_backward(cache, r)
        return ggamma, gbeta, gx

    add(_check_layer("batchnorm", lambda: batchnorm_forward(bn, xb, "train"), bn_grads, [bn.gamma, bn.beta, xb], rb))

    # dropout, its mask frozen by re-seeding the Rng on each call
    xd = rng.normal(size=(3, 4))
    rd = rng.normal(size=(3, 4))
    drop_cfg = DropoutConfig(keep_prob=0.75)
    add(_check_layer("dropout", lambda: dropout(xd, drop_cfg, Rng(5)), lambda mask, r: [r * mask], [xd], rd))

    # recurrent cells through full unrolls, then a two-layer stack
    add(_check_unroll("rnn_tanh", [init_rnn_cell(3, 4, rng)], rng))
    add(_check_unroll("lstm", [init_lstm_cell(3, 4, rng)], rng))
    add(_check_unroll("gru", [init_gru_cell(3, 4, rng)], rng))
    add(_check_unroll("bidirectional_gru", [BidirectionalLayer(init_gru_cell(3, 3, rng), init_gru_cell(3, 3, rng))], rng))
    add(_check_unroll("stacked_gru", [init_gru_cell(3, 3, rng), init_gru_cell(3, 2, rng)], rng))

    # 3D convolution
    conv = init_conv3d(2, 2, (3, 3, 3), (1, 1, 1), rng)
    conv.kernels[...] = rng.normal(0.0, 0.4, size=conv.kernels.shape)
    conv.bias[...] = rng.normal(0.0, 0.2, size=conv.bias.shape)
    xc = rng.normal(size=(1, 2, 3, 4, 4))
    rc = rng.normal(size=xc.shape)  # same padding keeps the shape
    add(_check_layer("conv3d", lambda: conv3d_forward(conv, xc), conv3d_backward, [conv.kernels, conv.bias, xc], rc))

    # 3D max pooling (random values sit far from ties)
    xpool = rng.normal(size=(1, 2, 4, 4, 4))
    rp = rng.normal(size=(1, 2, 2, 2, 2))
    add(_check_layer("maxpool3d", lambda: maxpool3d((2, 2, 2), xpool), lambda c, r: [maxpool3d_backward(c, r)], [xpool], rp))

    # linear SVM head: hinge objective at a point with no margin near the kink
    xf = rng.normal(size=(8, 3))
    yf = np.where(rng.uniform(size=8) < 0.5, 1.0, -1.0)
    wf = rng.normal(0.0, 0.5, size=3)
    bf = np.array([0.1])
    c_svm = 2.0
    margins = yf * (xf @ wf + bf[0])
    if np.abs(1.0 - margins).min() < 1e-3:  # keep the checkpoint differentiable
        wf *= 1.1

    scale = c_svm * len(xf)  # svm_subgradient's objective is svm_objective / (C*n)

    def svm_forward():
        return svm_objective(wf, bf[0], xf, yf, c_svm) / scale, None

    def svm_backward(_, r):
        gw, gb = svm_subgradient(wf, bf[0], xf, yf, 1.0 / scale)
        return [gw * r, np.array([gb * r])]

    add(_check_layer("svm_hinge", svm_forward, svm_backward, [wf, bf], 1.0))

    return report


# ---------------------------------------------------------------------------
# Fusion runs and the full ladder comparison
# ---------------------------------------------------------------------------


def _confusion_of(pred_labels, labels, k):
    confusion = np.zeros((k, k), dtype=np.int64)
    for p, y in zip(pred_labels, labels):
        confusion[y, p] += 1
    return confusion


def _accuracy_of(confusion):
    """The share of samples on the diagonal; 0.0 when there are none."""
    return float(np.trace(confusion)) / max(int(confusion.sum()), 1)


def run_fusion(rnn_model, cnn_model, dataset: Dataset, splits: Splits, svm_c) -> dict:
    """The DECISION-FUSION and FEATURE-FUSION rows, from one inference pass
    per (stream, split). Decision fusion tunes trust weights on validation and
    votes on the test set. Feature fusion concatenates the two streams' taps,
    L2 normalizes them, and classifies the test set with a one-vs-rest linear
    SVM trained on the training split. The streams are checked first: a
    ConfigError names the side and the model unless `rnn_model` is a
    skeleton model with a tap and `cnn_model` a video model."""
    for side, model, stream in (("rnn_model", rnn_model, "skeleton"), ("cnn_model", cnn_model, "video")):
        if model.stream != stream:
            raise ConfigError(f"fusion's {side} must be a {stream}-stream model, got {model.spec.name}")
    if rnn_model.hidden is None:
        raise ConfigError(f"fusion's rnn_model {rnn_model.spec.name} has no hidden layer to tap")
    passes = {
        split: [infer_dataset(m, dataset, getattr(splits, split)) for m in (rnn_model, cnn_model)]
        for split in ("val", "test", "train")
    }
    (val_r, _), (val_c, _) = passes["val"]
    weights = search_trust_weights(val_r, val_c, dataset.labels(splits.val))
    (test_r, _), (test_c, _) = passes["test"]
    voted = [decision_fuse(weights, r, c).label for r, c in zip(test_r, test_c)]

    def fused(split):
        (_, taps_r), (_, taps_c) = passes[split]
        return feature_fuse(taps_r, taps_c)

    svm = svm_train(fused("train"), dataset.labels(splits.train), svm_c)
    svm_labels, _ = svm_predict(svm, fused("test"))

    def scored(pred_labels):
        confusion = _confusion_of(pred_labels, dataset.labels(splits.test), dataset.n_classes)
        return {"test_accuracy": _accuracy_of(confusion), "confusion": confusion.tolist()}

    return {
        "DECISION-FUSION": {"w_r": weights.w_r, "w_c": weights.w_c, **scored(voted)},
        "FEATURE-FUSION": {"svm_c": float(svm_c), **scored(svm_labels)},
    }


def train_config_for(model_name, cfg: dict, seed=None) -> TrainConfig:
    """Desk-scale training settings from a parsed config, per stream."""
    seed = cfg["seed"] if seed is None else seed
    if model_name.startswith("C3D"):
        return TrainConfig(
            epochs=cfg["cnn_epochs"],
            batch_size=cfg["cnn_batch_size"],
            optimizer="sgd_halving",
            learning_rate=cfg["cnn_learning_rate"],
            eval_every=cfg["eval_every"],
            seed=seed,
        )
    return TrainConfig(
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        optimizer="rmsprop",
        learning_rate=cfg["learning_rate"],
        decay=cfg["decay"],
        eval_every=cfg["eval_every"],
        seed=seed,
    )


def model_spec_for(model_name, cfg: dict, dataset: Dataset) -> ModelSpec:
    return ModelSpec(
        name=model_name,
        input_dim=dataset[0].skeleton.feature_width,
        n_classes=dataset.n_classes,
        hidden_dim=cfg["hidden_dim"],
        keep_prob=cfg["keep_prob"],
        video_shape=cfg["video_shape"],
        cnn_filters=cfg["cnn_filters"],
        cnn_fc_dim=cfg["cnn_fc_dim"],
    )


def train_variant(model_name, dataset: Dataset, splits: Splits, cfg: dict, seed=None):
    """Build and train one ladder variant; returns (model, RunResult)."""
    seed = cfg["seed"] if seed is None else seed
    spec = model_spec_for(model_name, cfg, dataset)
    init_rng = Rng(seed).derive(1000 + LADDER_VARIANTS.index(model_name))
    model = build_model(spec, init_rng)
    result = train(model, dataset, splits, train_config_for(model_name, cfg, seed))
    return model, result


def splits_for(cfg: dict, dataset: Dataset) -> Splits:
    """The train/val/test split a config selects; its rng is derived from the
    config seed, so every command that reads one dataset agrees on it."""
    return make_splits(dataset, SplitSpec(cfg["split_mode"]), Rng(cfg["seed"]).derive(7))


def run_ladder(dataset: Dataset, cfg: dict, out_dir=None):
    """Train every configured ladder variant on one split, then add the two
    fusion rows when both streams are present. Returns the results, one
    canonical dict per row; the per-step times go to `timing.json`, apart
    from the results, so the results file is bit-stable across reruns.

    The variants train independently, so `ordered_map` spreads them over the
    usable cores. Each variant's seeds come from the config seed and its
    name, so the results are the same bytes however many processes ran."""
    splits = splits_for(cfg, dataset)
    names = cfg["ladder_models"]
    runs = dict(zip(names, ordered_map(lambda name: train_variant(name, dataset, splits, cfg), names)))
    results = {name: res.canonical_dict() for name, (_, res) in runs.items()}
    cnn_name = next((n for n in ("C3D-DESK", "C3D") if n in runs), None)
    if "BI-GRU2-BN-DP-H" in runs and cnn_name:
        results.update(run_fusion(runs["BI-GRU2-BN-DP-H"][0], runs[cnn_name][0], dataset, splits, cfg["svm_c"]))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write_json(os.path.join(out_dir, "ladder_results.json"), results)
        timing = {name: res.wall_clock_per_step for name, (_, res) in runs.items()}
        write_json(os.path.join(out_dir, "timing.json"), timing)
        for name, res in results.items():
            if res.get("confusion") is not None:
                emit_confusion(res["confusion"], os.path.join(out_dir, f"confusion_{name}.csv"))
    return results
