"""3D convolution and max pooling over video volumes, the deep 3D-CNN
assembled from them, and clip splitting/averaging for video-level prediction.

Convolution here means cross-correlation (no kernel flip), stride 1, with
optional symmetric zero padding per axis. Pool windows equal their stride
(non-overlapping); extents that do not divide evenly are padded on the right
with -inf.

Every activation and gradient has the NCDHW shape [n, c, t, h, w], and the
layers accept any memory order behind it. The arrays they return are stored
channels-last ([n, t, h, w, c] memory, transposed views), because that is the
order the convolution works in: a conv output feeds the next pool and conv
without a layout copy, and so does each gradient on its way back. Results do
not depend on the memory order of the inputs (a test pins this).

`conv3d_forward` / `conv3d_backward` work on a folded buffer
xk [n, tp, hp, wo, kw·c]: the zero-padded input's kw shifted windows side by
side along the channel axis, so that the correlation is one matmul with
K = kw·c per (kt, kh) offset instead of one with K = c per (kt, kh, kw)
offset. The desk layers' matmuls are tiny (K = 9, N = 8 on conv1), so
memory traffic, not arithmetic, bounds them, and the forward runs each
sample from start to end while its data is in cache: it folds the sample
just before its matmuls (into its slot of xk in training, which the backward
reads; into one reused slot at inference), writes the first offset's product
straight into the sample's accumulator, adds the others and then the bias,
and, for a layer followed by a pool, reduces the accumulator through the
pool window into the sample's slice of the pooled output. So no layer makes
a whole-batch pass for zero-filling, the bias or the pool, and a pooled
layer's full-resolution output never exists for the whole batch.
`maxpool3d` applies the same pooling rule, `_pool_max`, to a given volume;
both take the maximum over the window's strided views rather than over a
transposed tile copy.

`C3dModel` pools the last conv of each group before its ReLU, so that the
ReLU and its mask run on the 4-8x smaller pooled volume. Max commutes with
ReLU, so the outputs equal ReLU-then-pool. So do the gradients: where a
window's maximum is positive, the first maximum of relu(z) is the first
maximum of z; where it is not, both orders pass the window a zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError, DimensionError
from .tensor import Rng, default_dtype
from .heads import dense_backward, dense_forward, init_dense
from . import fusion


@dataclass
class Conv3dParams:
    kernels: np.ndarray  # [f, c, kt, kh, kw]
    bias: np.ndarray  # [f]
    padding: tuple = (0, 0, 0)  # zeros added on both sides of (t, h, w)

    @property
    def n_filters(self):
        return self.kernels.shape[0]


def init_conv3d(n_filters, in_channels, kernel_size, padding, rng: Rng) -> Conv3dParams:
    kt, kh, kw = kernel_size
    fan_in = in_channels * kt * kh * kw
    fan_out = n_filters * kt * kh * kw
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    kernels = rng.uniform(-limit, limit, size=(n_filters, in_channels, kt, kh, kw))
    return Conv3dParams(
        kernels=kernels,
        bias=np.zeros(n_filters, dtype=default_dtype()),
        padding=tuple(padding),
    )


def conv3d_forward(p: Conv3dParams, x, pool=None, train=True):
    """Correlate x [n×c×t×h×w] with the kernels at stride 1 and add the bias;
    with a Pool3dSpec, also max-pool the result. Returns (y, cache); each
    conv output extent is padded extent - kernel extent + 1. y has the NCDHW
    shape over channels-last memory, so a next layer's channels-last read of
    it is a plain contiguous one.

    The correlation runs one sample at a time, from start to end while the
    sample's data is in cache. For sample s:
    - its kw shifted, zero-padded windows are copied side by side,
      channels-last, into a folded slot [tp, hp, wo, kw·c]. With train=True
      the slot is xk[s] of the batch buffer xk, which is the cache the
      backward reads; otherwise one slot serves every sample, and its zero
      padding is written once;
    - kt·kh matmuls with K = kw·c, xk[s, i:i+to, j:j+ho] @ wk[i, j] with
      wk [kt, kh, kw·c, f], run on the slot's views with (h, w) merged into
      one row axis (no copy). The first offset's product is written straight
      into the sample's accumulator [to, ho·wo, f], and each later one is
      added to it through one reused temporary. The accumulator (262 KB on
      the desk conv1 at f64) stays in cache across all offsets;
    - the bias is added to the accumulator;
    - with a pool, the accumulator is reduced through the pool window into
      the sample's slice of the pooled y by `_pool_max`, the rule `maxpool3d`
      applies (through an -inf padded copy where the window does not divide
      an extent). Then one accumulator serves every sample, and the
      full-resolution output is never stored for the whole batch.

    Every output element sums the same products in the same order whatever
    the batch, the mode or the pool. The cache is (xk, x.shape, p) without a
    pool, the pair of that and `maxpool3d`'s cache with one, and None with
    train=False, when no first-max index is recorded either. The brute-force
    oracles in the test suite pin the semantics.
    """
    if x.ndim != 5 or x.shape[1] != p.kernels.shape[1]:
        raise DimensionError(
            f"conv3d expects [n,{p.kernels.shape[1]},t,h,w], got {x.shape}"
        )
    f, c, kt, kh, kw = p.kernels.shape
    n, _, t, h, w = x.shape
    pt, ph, pw = p.padding
    tp, hp, wp = t + 2 * pt, h + 2 * ph, w + 2 * pw
    if tp < kt or hp < kh or wp < kw:
        raise DimensionError(
            f"padded input {(tp, hp, wp)} smaller than kernel {(kt, kh, kw)}"
        )
    to, ho, wo = tp - kt + 1, hp - kh + 1, wp - kw + 1
    # Every view the loop reads or writes is made once, over the slot axis.
    xk = np.zeros((n if train else 1, tp, hp, wo, kw * c), dtype=x.dtype)
    inner = xk[:, pt : pt + t, ph : ph + h]
    folds = [(inner[:, :, :, cols, k * c : (k + 1) * c], src) for k, cols, src in _kw_windows(w, pw, kw)]
    wk = _folded_kernels(p.kernels)
    (rows0, wk0), *offsets = [(_offset_rows(xk, i, j, to, ho), wk[i, j]) for i in range(kt) for j in range(kh)]
    bias = np.tile(p.bias, (ho * wo, 1))  # one row per output (h, w): a long contiguous add
    tmp = np.empty((to, ho * wo, f), dtype=x.dtype)
    acc = np.empty((n if pool is None else 1, to, ho * wo, f), dtype=x.dtype)
    if pool is not None:
        y_shape = (n, f, to, ho, wo)
        y, idx, pad, padded_shape = _pool_buffers(y_shape, pool.window, x.dtype, train)
        vol = acc[0].reshape(to, ho, wo, f)
        views = _pool_views(vol if pad is None else pad, pool.window)
    xt = x.transpose(0, 2, 3, 4, 1)
    for s in range(n):
        slot = s if train else 0
        for dst, src in folds:
            dst[slot] = xt[s, :, :, src]
        a = acc[s] if pool is None else acc[0]
        np.matmul(rows0[slot], wk0, out=a)
        for rows, wij in offsets:
            a += np.matmul(rows[slot], wij, out=tmp)
        a += bias
        if pool is not None:
            if pad is not None:
                pad[:to, :ho, :wo] = vol
            _pool_max(views, y[s], None if idx is None else idx[s])
    ccache = (xk, x.shape, p) if train else None
    if pool is None:
        return acc.reshape(n, to, ho, wo, f).transpose(0, 4, 1, 2, 3), ccache
    y = y.transpose(0, 4, 1, 2, 3)
    if not train:
        return y, None
    return y, (ccache, (y_shape, padded_shape, idx.transpose(0, 4, 1, 2, 3), pool))


def _kw_windows(w, pw, kw):
    """For each kw offset k: the folded columns that see input columns (the
    rest see zero padding), and those input columns."""
    wo = w + 2 * pw - kw + 1
    for k in range(kw):
        lo, hi = max(0, pw - k), min(wo, w + pw - k)
        yield k, slice(lo, hi), slice(lo + k - pw, hi + k - pw)


def _folded_kernels(kernels):
    """[f, c, kt, kh, kw] -> [kt, kh, kw·c, f], matching xk's channel order."""
    f, c, kt, kh, kw = kernels.shape
    return kernels.transpose(2, 3, 4, 1, 0).reshape(kt, kh, kw * c, f)


def _offset_rows(a, i, j, to, ho):
    """a[..., i:i+to, j:j+ho, :, :] of a folded buffer [..., tp, hp, wo, k]
    as [..., to, ho·wo, k]. A view, not a copy: the slice keeps whole (w, k)
    rows, so its ho rows of each t plane are contiguous."""
    *lead, _, _, wo, k = a.shape
    return a[..., i : i + to, j : j + ho, :, :].reshape(*lead, to, ho * wo, k)


def conv3d_backward(cache, grad_y, input_grad=True):
    """Returns (grad_kernels, grad_bias, grad_x). With input_grad=False the
    input gradient is not computed and grad_x is None: a network's first
    layer, whose input is data, needs only its parameter gradients.

    Both gradients run one sample at a time, like the forward. Per sample,
    the kernel gradient of each (kt, kh) offset is the batched matmul
    xk[s, i:i+to, j:j+ho]^T @ grad_y[s], one [kw·c, f] product per t plane,
    written after a row that holds the sum over the earlier samples; one
    reduction over that row axis then adds the sample in, in the same (n, t)
    order as a sum over the whole batch. The input gradient is scattered
    into a folded buffer gxk shaped like xk,
    gxk[s, i:i+to, j:j+ho] += grad_y[s] @ wk[i, j].T through one reused
    [to, ho·wo, kw·c] temporary, then unfolded with kw slice adds; grad_x,
    like the forward's y, is an NCDHW view of channels-last memory.

    The bias gradient sums an NCDHW-ordered copy of grad_y. numpy's sum over
    (n, t, h, w) adds in an order that follows memory, so summing grad_y's
    own channels-last memory would move the result by rounding (about 1e-16)
    with the caller's layout.
    """
    xk, x_shape, p = cache
    f, c, kt, kh, kw = p.kernels.shape
    n, _, t, h, w = x_shape
    to, ho, wo = grad_y.shape[2:]
    grad_bias = np.ascontiguousarray(grad_y).sum(axis=(0, 2, 3, 4))
    gy = np.ascontiguousarray(grad_y.transpose(0, 2, 3, 4, 1)).reshape(n, to, ho * wo, f)
    gk = np.zeros((kt, kh, kw * c, f), dtype=p.kernels.dtype)
    prod = np.empty((kt, kh, to + 1, kw * c, f), dtype=gk.dtype)
    for s in range(n):
        prod[:, :, 0] = gk
        for i in range(kt):
            for j in range(kh):
                rows = _offset_rows(xk[s], i, j, to, ho).transpose(0, 2, 1)
                np.matmul(rows, gy[s], out=prod[i, j, 1:])
        prod.sum(axis=2, out=gk)
    grad_kernels = np.ascontiguousarray(
        gk.reshape(kt, kh, kw, c, f).transpose(4, 3, 0, 1, 2)
    )
    if not input_grad:
        return grad_kernels, grad_bias, None
    wk_t = np.ascontiguousarray(_folded_kernels(p.kernels).transpose(0, 1, 3, 2))
    gxk = np.zeros_like(xk)
    tmp = np.empty((to, ho * wo, kw * c), dtype=xk.dtype)
    for s in range(n):
        for i in range(kt):
            for j in range(kh):
                _offset_rows(gxk[s], i, j, to, ho)[...] += np.matmul(gy[s], wk_t[i, j], out=tmp)
    pt, ph, pw = p.padding
    inner = gxk[:, pt : pt + t, ph : ph + h]
    gx_t = np.zeros((n, t, h, w, c), dtype=xk.dtype)
    for k, cols, src in _kw_windows(w, pw, kw):
        gx_t[:, :, :, src] += inner[:, :, :, cols, k * c : (k + 1) * c]
    return grad_kernels, grad_bias, gx_t.transpose(0, 4, 1, 2, 3)


@dataclass
class Pool3dSpec:
    window: tuple  # (pt, ph, pw); stride equals the window


def maxpool3d(spec: Pool3dSpec, x):
    """Non-overlapping window maxima over (t,h,w). Ties break toward the first
    position in (t,h,w) scan order. Returns (y, cache).

    Each sample goes through `_pool_max`, the rule `conv3d_forward` also
    applies to a pooled layer's samples, on an -inf padded copy where the
    window does not divide an extent. y and the cached first-max index idx
    are stored channels-last; `maxpool3d_backward` returns its gradient
    channels-last too.
    """
    if x.ndim != 5:
        raise DimensionError(f"maxpool3d expects [n,c,t,h,w], got {x.shape}")
    y, idx, pad, padded_shape = _pool_buffers(x.shape, spec.window, x.dtype, argmax=True)
    _, _, t, h, w = x.shape
    xt = x.transpose(0, 2, 3, 4, 1)
    for s in range(x.shape[0]):
        vol = xt[s]
        if pad is not None:  # extents the window does not divide: -inf on the right
            pad[:t, :h, :w] = vol
            vol = pad
        _pool_max(_pool_views(vol, spec.window), y[s], idx[s])
    return y.transpose(0, 4, 1, 2, 3), (x.shape, padded_shape, idx.transpose(0, 4, 1, 2, 3), spec)


def _pool_buffers(shape, window, dtype, argmax):
    """For pooling a volume of NCDHW shape `shape`: the channels-last pooled
    y [n, t', h', w', c] and, with argmax, the zeroed first-max index idx of
    the same layout (else None); the -inf filled channels-last buffer that a
    sample is padded in when the window does not divide an extent (else
    None); and the padded NCDHW shape."""
    n, c, t, h, w = shape
    padded = tuple(-(-e // k) * k for e, k in zip((t, h, w), window))
    pooled = tuple(e // k for e, k in zip(padded, window))
    y = np.empty((n, *pooled, c), dtype=dtype)
    idx = None
    if argmax:
        idx = np.zeros((n, *pooled, c), dtype=np.min_scalar_type(int(np.prod(window)) - 1))
    pad = None
    if padded != (t, h, w):
        pad = np.full((*padded, c), -np.inf, dtype=dtype)
    return y, idx, pad, (n, c, *padded)


def _pool_views(vol, window):
    """The pt·ph·pw window-position views of a channels-last volume
    [..., t, h, w, c] whose extents the window divides, in (t, h, w) scan
    order. Splitting each extent into whole windows needs no copy."""
    *lead, t, h, w, c = vol.shape
    pt, ph, pw = window
    blocks = vol.reshape(*lead, t // pt, pt, h // ph, ph, w // pw, pw, c)
    return [blocks[..., i, :, j, :, k, :] for i in range(pt) for j in range(ph) for k in range(pw)]


def _pool_max(views, y, idx):
    """The pooling rule, for one sample: y is the running maximum over the
    window-position views in scan order. When idx is given (zeroed), it
    receives, per window, how many views come before the first one equal to
    y: the scan-order position of the first maximum. A window holding NaN
    has y = NaN, no view equals it, and idx is the last position."""
    np.copyto(y, views[0])
    for v in views[1:]:
        np.maximum(y, v, out=y)
    if idx is None:
        return
    seen = views[0] == y
    for v in views[1:]:
        idx += ~seen
        seen |= v == y


def maxpool3d_backward(cache, grad_y):
    """Route each window's upstream gradient to its first maximum: every view
    of the padded gradient is written once, as grad_y where idx selects that
    view and zero elsewhere."""
    x_shape, xp_shape, idx, spec = cache
    _, _, t, h, w = x_shape
    n, c, tp, hp, wp = xp_shape
    gx_pad = np.empty((n, tp, hp, wp, c), dtype=grad_y.dtype)
    gy, idx = grad_y.transpose(0, 2, 3, 4, 1), idx.transpose(0, 2, 3, 4, 1)
    for k, v in enumerate(_pool_views(gx_pad, spec.window)):
        np.multiply(gy, idx == k, out=v)
    return gx_pad.transpose(0, 4, 1, 2, 3)[:, :, :t, :h, :w]


KERNEL_SIZE = (3, 3, 3)  # (kt, kh, kw) of every C3D conv layer


@dataclass
class C3dSpec:
    """Topology description: conv groups (filter counts per conv layer), one
    pool per group, two fully-connected widths, then the class count."""

    input_shape: tuple  # (c, t, h, w)
    conv_groups: list  # e.g. [[64], [128], [256, 256], ...]
    pool_windows: list  # one (pt, ph, pw) per group
    fc_dims: tuple  # (fc6, fc7)
    n_classes: int

    def validate(self):
        if len(self.conv_groups) != len(self.pool_windows):
            raise ConfigError(
                f"{len(self.conv_groups)} conv groups but {len(self.pool_windows)} pools"
            )
        if len(self.input_shape) != 4 or any(d < 1 for d in self.input_shape):
            raise ConfigError(f"bad input shape {self.input_shape}")
        for gi, group in enumerate(self.conv_groups):
            if not group or any(f < 1 for f in group):
                raise ConfigError(f"conv group {gi} has invalid filter counts {group}")
        if len(self.fc_dims) != 2 or any(d < 1 for d in self.fc_dims):
            raise ConfigError(f"need two positive fully-connected widths, got {self.fc_dims}")
        if self.n_classes < 2:
            raise ConfigError(f"need >= 2 classes, got {self.n_classes}")
        self.shape_chain()

    def shape_chain(self):
        """Per-layer output shapes (c,t,h,w); raises naming the offending layer."""
        c, t, h, w = self.input_shape
        chain = [("input", (c, t, h, w))]
        for gi, (group, window) in enumerate(zip(self.conv_groups, self.pool_windows)):
            for li, filters in enumerate(group):
                c = filters  # same-padded convs keep (t,h,w)
                chain.append((f"conv{gi + 1}{'abc'[li]}", (c, t, h, w)))
            if t < window[0] or h < window[1] or w < window[2]:
                raise ConfigError(f"pool{gi + 1} window {window} exceeds volume {(t, h, w)}")
            t, h, w = -(-t // window[0]), -(-h // window[1]), -(-w // window[2])
            chain.append((f"pool{gi + 1}", (c, t, h, w)))
        chain.append(("fc6", (self.fc_dims[0],)))
        chain.append(("fc7", (self.fc_dims[1],)))
        chain.append(("softmax", (self.n_classes,)))
        return chain

    def flat_dim(self):
        pooled = self.shape_chain()[-4][1]
        return int(np.prod(pooled))

    def param_count(self):
        kt, kh, kw = KERNEL_SIZE
        total = 0
        c = self.input_shape[0]
        for group in self.conv_groups:
            for filters in group:
                total += filters * c * kt * kh * kw + filters
                c = filters
        dims = [self.flat_dim(), self.fc_dims[0], self.fc_dims[1], self.n_classes]
        for d_in, d_out in zip(dims, dims[1:]):
            total += d_out * d_in + d_out
        return total


def full_scale_c3d_spec(n_classes=60) -> C3dSpec:
    """The deep reference topology: 8 convs, 5 pools (first 1x2x2, rest 2x2x2),
    4096-wide fully-connected pair, for 3x16x112x112 clips."""
    return C3dSpec(
        input_shape=(3, 16, 112, 112),
        conv_groups=[[64], [128], [256, 256], [512, 512], [512, 512]],
        pool_windows=[(1, 2, 2), (2, 2, 2), (2, 2, 2), (2, 2, 2), (2, 2, 2)],
        fc_dims=(4096, 4096),
        n_classes=n_classes,
    )


def desk_scale_c3d_spec(n_classes, input_shape=(3, 16, 16, 16), filters=(8, 16), fc_dim=64) -> C3dSpec:
    """A CPU-trainable variant with the same layer kinds and order: one conv
    per group (one group per filter count), first pool 1x2x2, the rest 2x2x2."""
    return C3dSpec(
        input_shape=tuple(input_shape),
        conv_groups=[[f] for f in filters],
        pool_windows=[(1, 2, 2)] + [(2, 2, 2)] * (len(filters) - 1),
        fc_dims=(fc_dim, fc_dim),
        n_classes=n_classes,
    )


class C3dModel:
    """The assembled conv/pool/fc stack. `forward` exposes the first
    fully-connected layer's activations as the feature tap."""

    def __init__(self, spec: C3dSpec, convs, fc6, fc7, out):
        self.spec = spec
        self.convs = convs  # list of Conv3dParams, in order
        self.pools = [Pool3dSpec(w) for w in spec.pool_windows]
        self.fc6 = fc6
        self.fc7 = fc7
        self.out = out
        self._conv_names = []
        for gi, group in enumerate(spec.conv_groups):
            for li in range(len(group)):
                self._conv_names.append(f"conv{gi + 1}{'abc'[li]}")

    def param_items(self):
        items = []
        for name, conv in zip(self._conv_names, self.convs):
            items.append((name + ".kernels", conv.kernels))
            items.append((name + ".bias", conv.bias))
        for name, dense in (("fc6", self.fc6), ("fc7", self.fc7), ("out", self.out)):
            items.append((name + ".W", dense.W))
            items.append((name + ".b", dense.b))
        return items

    def forward(self, x, train=True):
        """Returns (logits, fc6 activations, cache) for a clip batch [n,c,t,h,w].

        Each group runs as conv stages whose last one is also the group's
        pool: `conv3d_forward` folds, correlates, adds the bias and pools one
        sample at a time, so a pooled layer's full-resolution output never
        exists for the whole batch, in training or inference. The pool comes
        before the ReLU: max commutes with ReLU, so the outputs are those of
        ReLU-then-pool, and the ReLU and its mask run at pooled resolution.
        With train=False the cache is None: no ReLU mask, first-max index or
        folded conv input is kept for a backward.
        """
        caches = []
        conv_iter = iter(self.convs)
        h = x
        for group, pool in zip(self.spec.conv_groups, self.pools):
            for li in range(len(group)):
                pooled = li == len(group) - 1
                h, cache = conv3d_forward(next(conv_iter), h, pool if pooled else None, train)
                active = h > 0.0 if train else None  # ReLU masks, not activations, are kept
                np.maximum(h, 0.0, out=h)
                if not train:
                    continue
                if pooled:
                    ccache, pcache = cache
                    caches += [("conv", ccache, None), ("pool", pcache, active)]
                else:
                    caches.append(("conv", cache, active))
        n = h.shape[0]
        flat_shape = h.shape
        flat = h.reshape(n, -1)
        f6, c6 = dense_forward(self.fc6, flat)
        f7, c7 = dense_forward(self.fc7, f6)
        logits, co = dense_forward(self.out, f7)
        if not train:
            return logits, f6, None
        return logits, f6, (caches, flat_shape, c6, c7, co)

    def backward(self, cache, grad_logits):
        """Returns gradients as a dict aligned with `param_items` names. The
        gradient with respect to the input clips is not computed."""
        if cache is None:
            raise ContractError("C3dModel.backward got the cache of a forward that ran in inference mode")
        caches, flat_shape, c6, c7, co = cache
        grads = {}
        dWo, dbo, d7 = dense_backward(self.out, co, grad_logits)
        dW7, db7, d6 = dense_backward(self.fc7, c7, d7)
        dW6, db6, dflat = dense_backward(self.fc6, c6, d6)
        grads["out.W"], grads["out.b"] = dWo, dbo
        grads["fc7.W"], grads["fc7.b"] = dW7, db7
        grads["fc6.W"], grads["fc6.b"] = dW6, db6
        dh = dflat.reshape(flat_shape)
        conv_idx = len(self.convs) - 1
        for kind, lcache, active in reversed(caches):
            if active is not None:
                dh *= active
            if kind == "pool":
                dh = maxpool3d_backward(lcache, dh)
            else:
                dk, db, dh = conv3d_backward(lcache, dh, input_grad=conv_idx > 0)
                name = self._conv_names[conv_idx]
                grads[name + ".kernels"] = dk
                grads[name + ".bias"] = db
                conv_idx -= 1
        return grads


def build_c3d(spec: C3dSpec, rng: Rng) -> C3dModel:
    """Instantiate the spec with Glorot-uniform weights and zero biases."""
    spec.validate()
    kt, kh, kw = KERNEL_SIZE
    pad = (kt // 2, kh // 2, kw // 2)  # same-padding: only pools shrink extents
    convs = []
    c = spec.input_shape[0]
    for group in spec.conv_groups:
        for filters in group:
            convs.append(init_conv3d(filters, c, KERNEL_SIZE, pad, rng))
            c = filters
    fc6 = init_dense(spec.flat_dim(), spec.fc_dims[0], rng, activation="relu")
    fc7 = init_dense(spec.fc_dims[0], spec.fc_dims[1], rng, activation="relu")
    out = init_dense(spec.fc_dims[1], spec.n_classes, rng, activation="none")
    return C3dModel(spec, convs, fc6, fc7, out)


def clip_split(pixels, clip_len=16):
    """Partition a video [c,T,h,w] into non-overlapping fixed-length clips.

    Videos shorter than one clip are padded by repeating the last frame; a
    trailing remainder is padded the same way when it covers at least half a
    clip and dropped otherwise.
    """
    if pixels.ndim != 4:
        raise DimensionError(f"expected [c,T,h,w] pixels, got {pixels.shape}")
    t = pixels.shape[1]
    if t == 0:
        raise DataError("cannot split an empty video")

    def pad_to(block, n_frames):
        short = n_frames - block.shape[1]
        if short <= 0:
            return block
        tail = np.repeat(block[:, -1:], short, axis=1)
        return np.concatenate([block, tail], axis=1)

    if t < clip_len:
        return [pad_to(pixels, clip_len)]
    clips = [pixels[:, s : s + clip_len] for s in range(0, t - clip_len + 1, clip_len)]
    rem = t % clip_len
    if rem * 2 >= clip_len:
        clips.append(pad_to(pixels[:, t - rem :], clip_len))
    return clips


def clip_average(predictions):
    """Mean of per-clip probability vectors, as a Prediction."""
    probs = np.asarray(predictions, dtype=default_dtype())
    if probs.ndim != 2:
        raise DimensionError(f"expected [n_clips, K] probabilities, got {probs.shape}")
    return fusion.Prediction.from_probs(probs.mean(axis=0))
