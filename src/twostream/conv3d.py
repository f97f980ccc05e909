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

Both conv functions run their batch one sample at a time, folding the
sample into one reused buffer xk [tp, hp, wo, kw·c] (`_ConvSamples`): the
zero-padded input's kw shifted windows side by side along the channel axis,
so that the correlation is one matmul with K = kw·c per (kt, kh) offset
instead of one with K = c per (kt, kh, kw) offset. The desk layers' matmuls
are tiny (K = 9, N = 8 on conv1), so memory traffic, not arithmetic, bounds
them, and each sample's work is done while its data is in cache:
- forward (`_ConvForward`): fold, write the first offset's product straight
  into the sample's accumulator, add the others and then the bias, and, for
  a layer followed by a pool, reduce the accumulator through the pool window
  into the sample's slice of the pooled output;
- backward (`_ConvBackward`): for a pooled layer, route the sample's pooled
  gradient through its first-max index (`maxpool3d_backward` on the one
  sample); fold the sample again from the cached input, add its share of
  the bias and kernel gradients, and scatter and unfold its input gradient.
So no layer makes a whole-batch pass for zero-filling, the bias or the pool,
and a pooled layer's full-resolution output and output gradient never exist
for the whole batch. The gradients sum in a fixed order, whatever the batch
or the pool: the kernel gradient in (n, t) order and the bias gradient in
NCDHW order. `maxpool3d` applies the same pooling rule as a pooled conv,
`_pool_max`, to a given volume; both take the maximum over the window's
strided views rather than over a transposed tile copy.

`C3dModel` pools the last conv of each group before its ReLU, so that the
ReLU and its mask run on the 4-8x smaller pooled volume. Max commutes with
ReLU, so the outputs equal ReLU-then-pool. So do the gradients: where a
window's maximum is positive, the first maximum of relu(z) is the first
maximum of z; where it is not, both orders pass the window a zero gradient.
While `clip_helper` is open, the later clips of a training batch or an
inference chunk run in a forked helper, the one two-core path for C3D clips;
`GradSums` hands the gradient sums over in clip order, and the dense layers
run in the caller on every row, so the bits stay those of one process.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError, DimensionError
from .tensor import Rng, default_dtype
from .heads import dense_backward, dense_forward, init_dense
from . import fusion, parallel


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
    sample's data is in cache (`_ConvForward`): the sample is folded into one
    reused slot, its kt·kh offset products are summed in its accumulator
    [to, ho·wo, f], the first written straight into it, and the bias is
    added. With a pool, the accumulator is then reduced through the pool
    window into the sample's slice of the pooled y by `_pool_max`, the rule
    `maxpool3d` applies (through an -inf padded copy where the window does
    not divide an extent), so one accumulator serves every sample and the
    full-resolution output is never stored for the whole batch.

    Every output element sums the same products in the same order whatever
    the batch, the mode or the pool. With train=True the cache is (x, p)
    without a pool and the pair of that and `maxpool3d`'s cache with one,
    which `conv3d_backward` takes whole; it holds x itself, which the
    backward folds again sample by sample, so x must not change before the
    backward. With train=False it is None, and no first-max index is
    recorded either. The brute-force oracles in the test suite pin the
    semantics.
    """
    if x.ndim != 5 or x.shape[1] != p.kernels.shape[1]:
        raise DimensionError(
            f"conv3d expects [n,{p.kernels.shape[1]},t,h,w], got {x.shape}"
        )
    n, f = x.shape[0], p.n_filters
    conv = _ConvForward(p, x.shape, x.dtype)
    to, ho, wo = conv.out_shape
    acc = np.empty((n if pool is None else 1, to, ho * wo, f), dtype=x.dtype)
    if pool is not None:
        y_shape = (n, f, to, ho, wo)
        y, idx, pad, padded_shape = _pool_buffers(y_shape, pool.window, x.dtype, train)
        vol = acc[0].reshape(to, ho, wo, f)
        views = _pool_views(vol if pad is None else pad, pool.window)
    xt = x.transpose(0, 2, 3, 4, 1)
    for s in range(n):
        conv.fold(xt[s])
        a = acc[s] if pool is None else acc[0]
        conv.correlate(a)
        if pool is not None:
            if pad is not None:
                pad[:to, :ho, :wo] = vol
            _pool_max(views, y[s], None if idx is None else idx[s])
    ccache = (x, p) if train else None
    if pool is None:
        return acc.reshape(n, to, ho, wo, f).transpose(0, 4, 1, 2, 3), ccache
    y = y.transpose(0, 4, 1, 2, 3)
    if not train:
        return y, None
    return y, (ccache, (y_shape, padded_shape, idx.transpose(0, 4, 1, 2, 3), pool))


class _ConvSamples:
    """One conv layer's folded slot for inputs of NCDHW shape x_shape, which
    every sample reuses: `fold` writes a sample into it. The slot's zero
    padding is written once, and each (kt, kh) offset's rows
    xk[i:i+to, j:j+ho], with (h, w) merged into one row axis, are a view, so
    every matmul reads the slot in place.
    """

    def __init__(self, p: Conv3dParams, x_shape, dtype):
        _, c, kt, kh, kw = p.kernels.shape
        _, _, t, h, w = x_shape
        pt, ph, pw = p.padding
        tp, hp, wp = t + 2 * pt, h + 2 * ph, w + 2 * pw
        if tp < kt or hp < kh or wp < kw:
            raise DimensionError(
                f"padded input {(tp, hp, wp)} smaller than kernel {(kt, kh, kw)}"
            )
        to, ho, wo = tp - kt + 1, hp - kh + 1, wp - kw + 1
        self.out_shape = (to, ho, wo)
        self.p = p
        self.offsets = [(i, j) for i in range(kt) for j in range(kh)]
        self.xk = np.zeros((tp, hp, wo, kw * c), dtype=dtype)
        inner = self.xk[pt : pt + t, ph : ph + h]
        self._folds = [(inner[:, :, cols, k * c : (k + 1) * c], src) for k, cols, src in _kw_windows(w, pw, kw)]
        self._rows = [_offset_rows(self.xk, i, j, to, ho) for i, j in self.offsets]

    def fold(self, xt_s):
        """Fold one channels-last sample [t, h, w, c] into the slot xk."""
        for dst, src in self._folds:
            dst[...] = xt_s[:, :, src]


class _ConvForward(_ConvSamples):
    """The forward's per-sample correlation, through one reused temporary."""

    def __init__(self, p: Conv3dParams, x_shape, dtype):
        super().__init__(p, x_shape, dtype)
        to, ho, wo = self.out_shape
        wk = _folded_kernels(p.kernels)
        self._wk = [wk[i, j] for i, j in self.offsets]
        self._bias = np.tile(p.bias, (ho * wo, 1))  # one row per output (h, w): a long contiguous add
        self._tmp = np.empty((to, ho * wo, p.n_filters), dtype=dtype)

    def correlate(self, acc):
        """acc [to, ho·wo, f] = the folded sample correlated with the kernels,
        plus the bias: the first offset's product written straight into acc,
        each later one added through one reused temporary."""
        (rows0, wk0), *rest = zip(self._rows, self._wk)
        np.matmul(rows0, wk0, out=acc)
        for rows, wij in rest:
            acc += np.matmul(rows, wij, out=self._tmp)
        acc += self._bias


class GradSums:
    """One conv layer's kernel and bias gradients over a run of clips, added
    clip by clip in clip order as `conv3d_backward` makes them: the kernel
    gradient `kernels` [kt, kh, kw·c, f], and the bias gradient `bias` [f]
    or, for a one-filter layer, `bias_rows`, every clip's NCDHW output
    gradient (numpy sums a one-channel gradient over (n, t, h, w) as one run
    over the batch, so its bits need every row).

    A deferred GradSums keeps each clip's share instead: its kernel-gradient
    products (one [kw·c, f] product per (kt, kh) offset and t plane) and its
    bias sum. `after` adds them in clip order to the sums of the clips that
    come before, once those are known, with the calls that would have added
    them at once. So the clips of one batch may run in two processes, and
    every gradient keeps the bits of the serial order (`C3dModel`)."""

    def __init__(self, deferred=False):
        self.deferred = deferred
        self.kernels = self.bias = self.bias_rows = None

    def start(self, kernels_shape, out_shape, n, kernels_dtype, dtype):
        """Zero the sums and make room for the shares of n clips."""
        f, c, kt, kh, kw = self._kernels_shape = kernels_shape
        to, ho, wo = out_shape
        slots = n if self.deferred else 1
        # Row 0 of each offset's product holds the sum over earlier clips.
        self._prod = np.empty((slots, kt, kh, to + 1, kw * c, f), dtype=kernels_dtype)
        self.kernels = np.zeros((kt, kh, kw * c, f), dtype=kernels_dtype)
        if f == 1:
            self.bias_rows = np.empty((n, to * ho * wo), dtype=dtype)
        else:
            self.bias = np.zeros(f, dtype=dtype)
            self._clip_bias = np.empty((slots, f), dtype=dtype)

    def share(self, s):
        """Where clip s's share goes: its products [kt, kh, to+1, kw·c, f],
        row 0 left for the running sum, and its bias sum [f] or, for one
        filter, its bias row."""
        slot = s if self.deferred else 0
        bias = self.bias_rows[s] if self.bias is None else self._clip_bias[slot]
        return self._prod[slot], bias

    def add(self, slot=0):
        """Add the share written in `slot` to the sums."""
        prod = self._prod[slot]
        prod[:, :, 0] = self.kernels
        prod.sum(axis=2, out=self.kernels)
        if self.bias is not None:
            self.bias += self._clip_bias[slot]

    def running(self):
        """The sums so far, as `after` takes them in another process."""
        return self.kernels, self.bias, self.bias_rows

    def after(self, earlier):
        """Add the kept shares, in clip order, to `earlier`, the `running()`
        sums of the clips before these. The sums are then those of every
        clip, and no longer deferred."""
        self.kernels, bias, bias_rows = earlier
        if bias_rows is None:
            self.bias = bias
        else:
            self.bias_rows = np.concatenate([bias_rows, self.bias_rows])
        for slot in range(len(self._prod)):
            self.add(slot)
        self.deferred = False

    def finished(self):
        """(grad_kernels [f, c, kt, kh, kw], grad_bias [f])."""
        f, c, kt, kh, kw = self._kernels_shape
        kernels = np.ascontiguousarray(self.kernels.reshape(kt, kh, kw, c, f).transpose(4, 3, 0, 1, 2))
        if self.bias_rows is None:
            return kernels, self.bias
        return kernels, self.bias_rows.reshape(len(self.bias_rows), 1, -1).sum(axis=(0, 2))


class _ConvBackward(_ConvSamples):
    """The backward's per-sample steps: `add_param_grads` writes a folded
    sample's share of the kernel and bias gradients to a GradSums, and, with
    input_grad, `input_grad` makes its input gradient."""

    def __init__(self, p: Conv3dParams, x_shape, dtype, input_grad, sums):
        super().__init__(p, x_shape, dtype)
        f, c, kt, kh, kw = p.kernels.shape
        n, _, t, h, w = x_shape
        pt, ph, pw = p.padding
        to, ho, wo = self.out_shape
        tp, hp = self.xk.shape[:2]
        self.sums = sums
        sums.start(p.kernels.shape, self.out_shape, n, p.kernels.dtype, dtype)
        self._rows_t = [rows.transpose(0, 2, 1) for rows in self._rows]
        self._gy = np.empty((to, ho, wo, f), dtype=dtype)
        self._gy_ncdhw = np.empty((f, to, ho, wo), dtype=dtype)
        if not input_grad:
            return
        wk_t = np.ascontiguousarray(_folded_kernels(p.kernels).transpose(0, 1, 3, 2))
        self._wk_t = [wk_t[i, j] for i, j in self.offsets]
        # Each plane of the products has a row per padded input row: the
        # matmul writes the first ho, and the rest stay zero. So an offset's
        # products land at one flat offset of the folded input gradient, and
        # each offset adds one contiguous run. Adding zero leaves a sum that
        # starts at +0.0 unchanged, bit for bit; the last offsets' zero rows
        # spill into one extra plane.
        self._products = np.zeros((to, hp * wo, kw * c), dtype=dtype)
        self._written = self._products[:, : ho * wo]
        self._gxk = np.empty((tp + 1, hp, wo, kw * c), dtype=dtype)
        run, row = self._products.size, wo * kw * c
        flat = self._gxk.reshape(-1)
        self._scatters = [flat[(i * hp + j) * row :][:run] for i, j in self.offsets]
        inner = self._gxk[pt : pt + t, ph : ph + h]
        self._unfolds = [(src, inner[:, :, cols, k * c : (k + 1) * c]) for k, cols, src in _kw_windows(w, pw, kw)]

    def add_param_grads(self, s, g):
        """Write the folded sample s's share of the kernel and bias gradients
        for its output gradient g, a channels-last [to, ho, wo, f] view of any
        memory order, and add it to the sums unless they are deferred.
        Returns g as a contiguous [to, ho·wo, f] array.

        The bias share is the sum of an NCDHW-ordered copy of g. numpy's sum
        over (t, h, w) adds in an order that follows memory, so this keeps
        the bits of a sum over the whole batch's NCDHW gradient; added sample
        by sample in sample order, the sums equal that sum over (n, t, h, w)
        (a one-filter layer's rows are summed in `GradSums.finished`).
        Each (kt, kh) offset's kernel-gradient product
        xk[i:i+to, j:j+ho]^T @ g, one [kw·c, f] product per t plane, is
        written after a row that will hold the sum over the earlier samples,
        and one reduction over that row axis adds the sample in, in the same
        (n, t) order as a sum over the whole batch.
        """
        to, ho, wo = self.out_shape
        prod, bias = self.sums.share(s)
        np.copyto(self._gy_ncdhw, g.transpose(3, 0, 1, 2))
        if self.sums.bias is None:
            bias[...] = self._gy_ncdhw.reshape(-1)
        else:
            bias[...] = self._gy_ncdhw.reshape(len(self._gy_ncdhw), -1).sum(axis=1)
        if not g.flags.c_contiguous:
            np.copyto(self._gy, g)
            g = self._gy
        gy = g.reshape(to, ho * wo, -1)
        for (i, j), rows_t in zip(self.offsets, self._rows_t):
            np.matmul(rows_t, gy, out=prod[i, j, 1:])
        if not self.sums.deferred:
            self.sums.add()
        return gy

    def input_grad(self, gy, gx_s):
        """The sample's input gradient into the channels-last [t, h, w, c]
        gx_s, from its contiguous output gradient gy [to, ho·wo, f]: gy @ wk^T
        per offset, added in offset order into a folded buffer, then unfolded
        with kw slice adds."""
        self._gxk.fill(0.0)
        products = self._products.reshape(-1)
        for into, wij in zip(self._scatters, self._wk_t):
            np.matmul(gy, wij, out=self._written)
            np.add(into, products, out=into)
        gx_s.fill(0.0)
        for src, part in self._unfolds:
            gx_s[:, :, src] += part


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
    """a[i:i+to, j:j+ho, :, :] of a folded buffer [tp, hp, wo, k] as
    [to, ho·wo, k]. A view, not a copy: the slice keeps whole (w, k) rows, so
    its ho rows of each t plane are contiguous."""
    _, _, wo, k = a.shape
    return a[i : i + to, j : j + ho, :, :].reshape(to, ho * wo, k)


def conv3d_backward(cache, grad_y, input_grad=True, sums=None):
    """Returns (grad_kernels, grad_bias, grad_x) for the gradient grad_y of
    `conv3d_forward`'s y. With input_grad=False the input gradient is not
    computed and grad_x is None: a network's first layer, whose input is
    data, needs only its parameter gradients. Given a `GradSums`, the call
    leaves the parameter gradients in it instead, and returns None for both:
    a deferred one keeps them per sample, for a batch whose samples run in
    two processes (`C3dModel`).

    The backward runs one sample at a time, like the forward, through one
    reused folded slot (`_ConvBackward`). Given the cache of a pooled
    forward, grad_y is the gradient of the pooled y: `maxpool3d_backward`
    routes each sample's share through the first-max index just before the
    sample's conv steps, so the full-resolution gradient exists for one
    sample at a time. Each sample is then folded again from the cached
    input; it adds its share to the bias gradient and to the kernel
    gradient, and, with input_grad, its input gradient is scattered and
    unfolded. grad_x, like the forward's y, is an NCDHW view of
    channels-last memory.

    The sums keep a fixed order, whatever the batch or the pool: the kernel
    gradient in (n, t) order and the bias gradient in NCDHW order.
    """
    (x, p), pcache = cache if isinstance(cache[0], tuple) else (cache, None)
    n, c, t, h, w = x.shape
    given = sums is not None
    sums = sums if given else GradSums()
    conv = _ConvBackward(p, x.shape, x.dtype, input_grad, sums)
    xt, gyt = x.transpose(0, 2, 3, 4, 1), grad_y.transpose(0, 2, 3, 4, 1)
    gx_t = np.empty((n, t, h, w, c), dtype=x.dtype) if input_grad else None
    for s in range(n):
        if pcache is None:
            g = gyt[s]
        else:
            y_shape, padded_shape, idx, pool = pcache
            sample = ((1, *y_shape[1:]), (1, *padded_shape[1:]), idx[s : s + 1], pool)
            g = maxpool3d_backward(sample, grad_y[s : s + 1])[0].transpose(1, 2, 3, 0)
        conv.fold(xt[s])
        gy = conv.add_param_grads(s, g)
        if input_grad:
            conv.input_grad(gy, gx_t[s])
    grad_x = None if gx_t is None else gx_t.transpose(0, 4, 1, 2, 3)
    if given:
        return None, None, grad_x
    return (*sums.finished(), grad_x)


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
    fully-connected layer's activations as the feature tap.

    While `clip_helper` is open, each training batch and inference chunk
    that `ClipHelper.start` splits runs on two cores: the caller runs the
    conv stack for its first ⌈n/2⌉ clips and a forked helper runs it for the
    rest. The conv stack works clip by clip, so each clip's rows are those of
    one process. The dense layers (and, in training, the loss) run in the
    caller on all n rows, since a dense GEMM's bits depend on its row count.
    After a training forward both sides run their clips' conv backward; the
    helper keeps its clips' kernel-gradient products and bias sums
    (`GradSums`) until the caller sends its sums after its last clip, then
    adds its own in clip order and returns the finished gradients. So every
    probability, fc6 tap and gradient has the bits of one process."""

    def __init__(self, spec: C3dSpec, convs, fc6, fc7, out):
        self.spec = spec
        self.convs = convs  # list of Conv3dParams, in order
        self.pools = [Pool3dSpec(w) for w in spec.pool_windows]
        self.fc6 = fc6
        self.fc7 = fc7
        self.out = out
        self.helper = None  # the open `clip_helper`'s ClipHelper, else None
        self._conv_names = [name for name, _ in spec.shape_chain() if name.startswith("conv")]

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
        sample at a time through one reused slot, so a pooled layer's
        full-resolution output never exists for the whole batch, in training
        or inference. The pool comes before the ReLU: max commutes with ReLU,
        so the outputs are those of ReLU-then-pool, and the ReLU and its mask
        run at pooled resolution. A train-mode cache keeps, per conv, its
        input (the clip batch, or the ReLU output of the stage below, which
        exists anyway), its first-max index if it pools, and its ReLU mask.
        With train=False the cache is None.

        After `ClipHelper.start`, x holds the first clips of the batch or
        chunk whose rest went to the helper, and the logits, activations and
        gradients cover all of it, x's rows first. A forward not started
        through the helper runs every clip here, with the helper open or not.
        """
        h, stages = self._conv_stack(x, train)
        flat = h.reshape(len(h), -1)
        helper = self.helper if self.helper is not None and self.helper.started else None
        if helper is not None:
            flat = np.concatenate([flat, helper.pooled()])
        f6, c6 = dense_forward(self.fc6, flat)
        f7, c7 = dense_forward(self.fc7, f6)
        logits, co = dense_forward(self.out, f7)
        if not train:
            return logits, f6, None
        return logits, f6, (stages, h.shape, c6, c7, co, helper)

    def _conv_stack(self, x, train):
        """The conv stages over clips x: (the top stage's ReLU output, per
        conv its cache and ReLU mask when training)."""
        stages = []
        conv_iter = iter(self.convs)
        h = x
        for group, pool in zip(self.spec.conv_groups, self.pools):
            for li in range(len(group)):
                pooled = li == len(group) - 1
                h, cache = conv3d_forward(next(conv_iter), h, pool if pooled else None, train)
                if train:  # ReLU masks, not activations, are kept
                    stages.append((cache, h > 0.0))
                np.maximum(h, 0.0, out=h)
        return h, stages

    def backward(self, cache, grad_logits):
        """Returns gradients as a dict aligned with `param_items` names. The
        gradient with respect to the input clips is not computed.

        After the fully-connected layers, each conv from the top down masks
        the gradient of its ReLU output and hands it to `conv3d_backward`
        with the conv's cache. For a group's last conv that is the pooled
        gradient, which `conv3d_backward` routes one sample at a time, so the
        conv's full-resolution gradient never exists for the whole batch;
        each sample's parameter and input gradients are made while its data
        is in cache. With a helper open, the helper gets its rows of the
        gradient first, and finishes the conv parameter gradients from the
        sums after this process's clips.
        """
        if cache is None:
            raise ContractError("C3dModel.backward got the cache of a forward that ran in inference mode")
        stages, own_shape, c6, c7, co, helper = cache
        grads = {}
        dWo, dbo, d7 = dense_backward(self.out, co, grad_logits)
        dW7, db7, d6 = dense_backward(self.fc7, c7, d7)
        dW6, db6, dflat = dense_backward(self.fc6, c6, d6)
        grads["out.W"], grads["out.b"] = dWo, dbo
        grads["fc7.W"], grads["fc7.b"] = dW7, db7
        grads["fc6.W"], grads["fc6.b"] = dW6, db6
        m = own_shape[0]
        if helper is not None:
            helper.backward(dflat[m:])
        sums = self._conv_backward(stages, dflat[:m].reshape(own_shape), deferred=False)
        finished = [s.finished() for s in sums] if helper is None else helper.finish(sums)
        for k, (dk, db) in zip(reversed(range(len(stages))), finished):
            name = self._conv_names[k]
            grads[name + ".kernels"] = dk
            grads[name + ".bias"] = db
        return grads

    def _conv_backward(self, stages, dh, deferred):
        """The conv stages' backward from the gradient dh of the top stage's
        ReLU output: one GradSums per conv, from the top down."""
        sums = []
        for k in reversed(range(len(stages))):
            lcache, active = stages[k]
            dh *= active
            sums.append(GradSums(deferred))
            _, _, dh = conv3d_backward(lcache, dh, input_grad=k > 0, sums=sums[-1])
        return sums


class ClipHelper:
    """The caller's side of the helper that `clip_helper` opens, in step
    with `C3dModel.forward` and, for a training batch, `backward`. Replies
    come in request order, so each forward takes the oldest started one:
    an inference pass may start the next chunk before it forwards this one
    (`harness._chunked`), while a training batch is started, forwarded and
    finished before the next."""

    def __init__(self, helper, net):
        self._helper = helper
        self._net = net
        self._indices = None  # the samples whose rows the helper built last
        self._open = 0  # forwards started and not yet pooled

    def start(self, indices, ids, train=True):
        """Hand the helper the row ids after the first ⌈n/2⌉ of n, rows of
        the samples `indices`, and return the first ⌈n/2⌉, whose clips the
        caller forwards. `indices` crosses the pipe only when it is not the
        object sent last, which starts a pass: the helper then builds those
        samples' rows from its copy of the data. The current conv kernels and
        biases (the caller's are the live ones) go with a training request
        and with a pass's first request, so the weights must not change
        within an inference pass; a request without them stays small, so
        that it fits in the pipe while the helper writes an earlier reply.
        Fewer than two ids are all returned, and nothing is sent."""
        if len(ids) < 2:
            return ids
        m = -(-len(ids) // 2)
        fresh = None if indices is self._indices else indices
        self._indices = indices
        params = [(c.kernels, c.bias) for c in self._net.convs] if train or fresh is not None else None
        self._helper.send(("forward", (fresh, ids[m:], params, train)))
        self._open += 1
        return ids[:m]

    @property
    def started(self):
        """Whether a started forward's reply is still to be taken."""
        return self._open > 0

    def pooled(self):
        """The oldest started forward's top ReLU output from the helper, one
        flat row per clip."""
        self._open -= 1
        return self._helper.receive()

    def backward(self, dflat):
        """Send the helper the gradient of its rows of the flat activations."""
        self._helper.send(("backward", dflat))

    def finish(self, sums):
        """The finished (kernel, bias) gradients per conv, from the top down,
        given this process's GradSums after its clips."""
        self._helper.receive()  # the helper's backward is done
        return self._helper.call(("finish", [s.running() for s in sums]))


def _serve_clips(net, rows_for):
    """The helper's side: the conv stack over the clips of the row ids it is
    handed, and, after a training forward, its conv backward, with the sums
    deferred until the caller's arrive. An inference forward keeps nothing."""
    state = {}

    def serve(request):
        kind, payload = request
        if kind == "forward":
            indices, ids, params, train = payload
            if indices is not None:
                state["rows"] = rows_for(indices)
            for conv, (kernels, bias) in zip(net.convs, params or ()):
                conv.kernels[...] = kernels
                conv.bias[...] = bias
            h, stages = net._conv_stack(state["rows"][ids], train)
            if train:
                state["stages"], state["shape"] = stages, h.shape
            return h.reshape(len(h), -1)
        if kind == "backward":
            dh = payload.reshape(state["shape"])
            state["sums"] = net._conv_backward(state.pop("stages"), dh, deferred=True)
            return None
        finished = []  # "finish": payload holds the caller's running sums
        for sums, earlier in zip(state.pop("sums"), payload):
            sums.after(earlier)
            finished.append(sums.finished())
        return finished

    return serve


@contextlib.contextmanager
def clip_helper(net: C3dModel, rows_for):
    """Open a forked helper that runs the later clips of each of `net`'s
    batches and chunks that `ClipHelper.start` splits, in training and in
    inference. It builds their clips from its copy of the caller's data:
    `rows_for(indices)` gives the rows of the samples `indices`, which row
    ids index. Yields the ClipHelper, or None where `parallel.start_helper`
    starts none (one process's worth of CPUs, or inside an `ordered_map`
    share); without one, every clip runs here. The helper is closed and
    waited for however the block is left."""
    helper = parallel.start_helper(_serve_clips(net, rows_for))
    if helper is None:
        yield None
        return
    with helper:
        net.helper = ClipHelper(helper, net)
        try:
            yield net.helper
        finally:
            net.helper = None


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


def clip_count(t, clip_len=16):
    """How many clips `clip_split` cuts from a video of t frames."""
    if t == 0:
        raise DataError("cannot split an empty video")
    whole, rem = divmod(t, clip_len)
    return max(1, whole + (2 * rem >= clip_len))


def clip_split(pixels, clip_len=16):
    """Partition a video [c,T,h,w] into non-overlapping fixed-length clips.

    Videos shorter than one clip are padded by repeating the last frame; a
    trailing remainder is padded the same way when it covers at least half a
    clip and dropped otherwise.
    """
    if pixels.ndim != 4:
        raise DimensionError(f"expected [c,T,h,w] pixels, got {pixels.shape}")

    def clip(k):
        block = pixels[:, k * clip_len : (k + 1) * clip_len]
        short = clip_len - block.shape[1]
        if short <= 0:
            return block
        tail = np.repeat(block[:, -1:], short, axis=1)
        return np.concatenate([block, tail], axis=1)

    return [clip(k) for k in range(clip_count(pixels.shape[1], clip_len))]


def clip_average(predictions):
    """Mean of per-clip probability vectors, as a Prediction."""
    probs = np.asarray(predictions, dtype=default_dtype())
    if probs.ndim != 2:
        raise DimensionError(f"expected [n_clips, K] probabilities, got {probs.shape}")
    return fusion.Prediction.from_probs(probs.mean(axis=0))
