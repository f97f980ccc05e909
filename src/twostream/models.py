"""The model ladder: named classifier variants from a single vanilla recurrent
layer up to the two-layer bidirectional GRU with batch normalization, dropout
and an extra hidden layer, plus the two 3D-CNN variants.

Layer order inside the recurrent classifiers is fixed: recurrent stack ->
batch normalization of the final state -> dropout (keep 0.75) -> optional
hidden fully-connected ReLU layer -> output layer -> softmax.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .tensor import Rng
from .recurrent import (
    BidirectionalLayer,
    SequenceBatch,
    init_gru_cell,
    init_lstm_cell,
    init_rnn_cell,
    stack,
    stack_backward,
)
from .normreg import (
    DropoutConfig,
    batchnorm_backward,
    batchnorm_forward,
    dropout,
    init_batchnorm,
)
from .heads import dense_backward, dense_forward, init_dense
from .conv3d import C3dModel, build_c3d, desk_scale_c3d_spec, full_scale_c3d_spec
from . import fileio

LADDER_VARIANTS = (
    "RNN1",
    "LSTM1",
    "LSTM1-BN",
    "LSTM1-BN-DP",
    "GRU1-BN-DP",
    "BI-GRU1-BN-DP",
    "BI-GRU2-BN-DP",
    "BI-GRU2-BN-DP-H",
    "C3D",
    "C3D-DESK",
)


@dataclass
class ModelSpec:
    """A ladder variant plus the width knobs that scale it up or down.

    hidden_dim is the units per recurrent direction (reference scale: 300);
    the hidden fully-connected layer of `-H` is as wide as the recurrent
    output. video_shape and n_classes size the convolutional variants.
    """

    name: str
    input_dim: int = 24
    n_classes: int = 6
    hidden_dim: int = 16
    keep_prob: float = 0.75
    video_shape: tuple = (3, 16, 16, 16)
    cnn_filters: tuple = (8, 16)
    cnn_fc_dim: int = 64

    def __post_init__(self):
        if self.name not in LADDER_VARIANTS:
            raise ConfigError(
                f"unknown model variant {self.name!r}; choose from {LADDER_VARIANTS}"
            )


class RecurrentClassifier:
    """Recurrent stack feeding a softmax classifier via the final valid state."""

    stream = "skeleton"

    def __init__(self, spec, layers, bn, drop_cfg, hidden, out):
        self.spec = spec
        self.layers = layers
        self.bn = bn
        self.drop_cfg = drop_cfg
        self.hidden = hidden
        self.out = out

    def param_items(self):
        items = []
        for li, layer in enumerate(self.layers):
            items += [(f"rec{li}.{n}", a) for n, a in layer.param_items()]
        if self.bn is not None:
            items += [("bn.gamma", self.bn.gamma), ("bn.beta", self.bn.beta)]
        if self.hidden is not None:
            items += [("hidden.W", self.hidden.W), ("hidden.b", self.hidden.b)]
        items += [("out.W", self.out.W), ("out.b", self.out.b)]
        return items

    def state_items(self):
        """Non-trained arrays that still belong in a checkpoint."""
        if self.bn is None:
            return []
        return [("bn.running_mean", self.bn.running_mean), ("bn.running_var", self.bn.running_var)]

    def forward(self, batch: SequenceBatch, mode="inference", rng=None):
        """Returns (logits, tap, cache). The tap is the hidden ReLU layer's
        activations (`rnn_fc`), or None for variants without one. Train mode
        updates batchnorm running stats and samples a dropout mask from `rng`;
        inference keeps no BPTT tape."""
        _, last, stack_caches = stack(self.layers, batch, train=mode == "train")
        feat = last
        bn_cache = drop_mask = hidden_cache = tap = None
        if self.bn is not None:
            feat, bn_cache = batchnorm_forward(self.bn, feat, mode)
        if self.drop_cfg is not None and mode == "train":
            feat, drop_mask = dropout(feat, self.drop_cfg, rng)
        if self.hidden is not None:
            feat, hidden_cache = dense_forward(self.hidden, feat)
            tap = feat
        logits, out_cache = dense_forward(self.out, feat)
        return logits, tap, (stack_caches, bn_cache, drop_mask, hidden_cache, out_cache)

    def backward(self, cache, grad_logits):
        stack_caches, bn_cache, drop_mask, hidden_cache, out_cache = cache
        grads = {}
        dW, db, dfeat = dense_backward(self.out, out_cache, grad_logits)
        grads["out.W"], grads["out.b"] = dW, db
        if self.hidden is not None:
            dW, db, dfeat = dense_backward(self.hidden, hidden_cache, dfeat)
            grads["hidden.W"], grads["hidden.b"] = dW, db
        if drop_mask is not None:
            dfeat = dfeat * drop_mask
        if self.bn is not None:
            dfeat, dgamma, dbeta = batchnorm_backward(bn_cache, dfeat)
            grads["bn.gamma"], grads["bn.beta"] = dgamma, dbeta
        _, per_layer = stack_backward(self.layers, stack_caches, None, dfeat, input_grad=False)
        for li, (layer, pgrads) in enumerate(zip(self.layers, per_layer)):
            for (n, _), g in zip(layer.param_items(), pgrads):
                grads[f"rec{li}.{n}"] = g
        return grads


class ConvClassifier:
    """Thin training wrapper around the conv/pool/fc stack; works on clips."""

    stream = "video"

    def __init__(self, spec, net: C3dModel):
        self.spec = spec
        self.net = net

    @property
    def clip_len(self):
        return self.net.spec.input_shape[1]

    def param_items(self):
        return self.net.param_items()

    def state_items(self):
        return []

    def forward(self, clips, mode="inference", rng=None):
        """Returns (logits, tap, cache); the tap is fc6 (`cnn_fc6`)."""
        return self.net.forward(clips, train=mode == "train")

    def backward(self, cache, grad_logits):
        return self.net.backward(cache, grad_logits)


def _recurrent_stack(name, spec, rng):
    d = spec.hidden_dim
    i = spec.input_dim
    if name == "RNN1":
        return [init_rnn_cell(i, d, rng)]
    if name.startswith("LSTM1"):
        return [init_lstm_cell(i, d, rng)]
    if name == "GRU1-BN-DP":
        return [init_gru_cell(i, d, rng)]
    if name == "BI-GRU1-BN-DP":
        return [BidirectionalLayer(init_gru_cell(i, d, rng), init_gru_cell(i, d, rng))]
    # two stacked bidirectional layers; layer 2 consumes the 2d-wide sequence
    first = BidirectionalLayer(init_gru_cell(i, d, rng), init_gru_cell(i, d, rng))
    second = BidirectionalLayer(init_gru_cell(2 * d, d, rng), init_gru_cell(2 * d, d, rng))
    return [first, second]


def build_model(spec: ModelSpec, rng: Rng):
    """Expand a ladder name into an initialized model. Equal seeds give
    identical initial parameters."""
    name = spec.name
    if name == "C3D":
        return ConvClassifier(spec, build_c3d(full_scale_c3d_spec(spec.n_classes), rng))
    if name == "C3D-DESK":
        desk = desk_scale_c3d_spec(
            spec.n_classes, spec.video_shape, spec.cnn_filters, spec.cnn_fc_dim
        )
        return ConvClassifier(spec, build_c3d(desk, rng))
    layers = _recurrent_stack(name, spec, rng)
    feat_dim = layers[-1].out_dim
    bn = init_batchnorm(feat_dim) if "-BN" in name or name.endswith("-H") else None
    drop_cfg = DropoutConfig(keep_prob=spec.keep_prob) if "-DP" in name else None
    hidden = init_dense(feat_dim, feat_dim, rng, activation="relu") if name.endswith("-H") else None
    out = init_dense(feat_dim, spec.n_classes, rng, activation="none")
    return RecurrentClassifier(spec, layers, bn, drop_cfg, hidden, out)


def save_model(model, path):
    """Checkpoint the trained arrays (weights plus batchnorm running stats)."""
    fileio.write_checkpoint(path, model.param_items() + model.state_items())


def load_model(spec: ModelSpec, path):
    """Rebuild a model from its spec and checkpoint. The throwaway init uses a
    fixed seed; every stored array then overwrites it in place."""
    model = build_model(spec, Rng(0))
    stored = fileio.read_checkpoint(path)
    expected = dict(model.param_items() + model.state_items())
    missing = [k for k in expected if k not in stored]
    extra = [k for k in stored if k not in expected]
    if missing or extra:
        raise ConfigError(f"checkpoint mismatch: missing={missing} unexpected={extra}")
    for name, array in expected.items():
        if stored[name].shape != array.shape:
            raise ConfigError(
                f"checkpoint mismatch: {name!r} is {stored[name].shape} in {path}, "
                f"the model expects {array.shape}"
            )
        array[...] = stored[name]
    if getattr(model, "bn", None) is not None:
        model.bn.stats_seeded = True  # checkpointed stats are live, never re-seed
    return model
