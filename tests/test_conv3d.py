import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from twostream import (
    ConfigError,
    ContractError,
    Conv3dParams,
    DataError,
    DimensionError,
    Pool3dSpec,
    Rng,
    build_c3d,
    clip_average,
    clip_split,
    conv3d_backward,
    conv3d_forward,
    desk_scale_c3d_spec,
    full_scale_c3d_spec,
    maxpool3d,
    maxpool3d_backward,
)
from twostream.conv3d import init_conv3d
from twostream.heads import dense_backward, dense_forward
from twostream.models import ConvClassifier

from conftest import central_diff, max_rel_err


# ---------------------------------------------------------------------------
# Brute-force loop oracles
# ---------------------------------------------------------------------------


def naive_conv3d(kernels, bias, padding, x):
    n, c, t, h, w = x.shape
    f, _, kt, kh, kw = kernels.shape
    pt, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    to = xp.shape[2] - kt + 1
    ho = xp.shape[3] - kh + 1
    wo = xp.shape[4] - kw + 1
    y = np.zeros((n, f, to, ho, wo))
    for s in range(n):
        for fi in range(f):
            for a in range(to):
                for b in range(ho):
                    for d in range(wo):
                        acc = 0.0
                        for ci in range(c):
                            for i in range(kt):
                                for j in range(kh):
                                    for k in range(kw):
                                        acc += xp[s, ci, a + i, b + j, d + k] * kernels[fi, ci, i, j, k]
                        y[s, fi, a, b, d] = acc + bias[fi]
    return y


def naive_conv3d_backward(kernels, padding, x, grad_y):
    """(grad_kernels, grad_bias, grad_x), one multiply-add per (output, tap)."""
    n, c, t, h, w = x.shape
    f, _, kt, kh, kw = kernels.shape
    pt, ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    gk = np.zeros_like(kernels)
    gb = np.zeros(f)
    gxp = np.zeros_like(xp)
    _, _, to, ho, wo = grad_y.shape
    for s in range(n):
        for fi in range(f):
            for a in range(to):
                for b in range(ho):
                    for d in range(wo):
                        g = grad_y[s, fi, a, b, d]
                        gb[fi] += g
                        for ci in range(c):
                            for i in range(kt):
                                for j in range(kh):
                                    for k in range(kw):
                                        gk[fi, ci, i, j, k] += g * xp[s, ci, a + i, b + j, d + k]
                                        gxp[s, ci, a + i, b + j, d + k] += g * kernels[fi, ci, i, j, k]
    return gk, gb, gxp[:, :, pt : pt + t, ph : ph + h, pw : pw + w]


def naive_maxpool3d(window, x):
    pt, ph, pw = window
    n, c, t, h, w = x.shape
    to, ho, wo = -(-t // pt), -(-h // ph), -(-w // pw)
    y = np.full((n, c, to, ho, wo), -np.inf)
    for s in range(n):
        for ci in range(c):
            for a in range(to):
                for b in range(ho):
                    for d in range(wo):
                        block = x[
                            s, ci,
                            a * pt : min((a + 1) * pt, t),
                            b * ph : min((b + 1) * ph, h),
                            d * pw : min((d + 1) * pw, w),
                        ]
                        y[s, ci, a, b, d] = block.max()
    return y


def naive_maxpool3d_backward(window, x, grad_y):
    """Each window's upstream gradient goes to its first maximum in (t,h,w)
    scan order; every other position gets zero."""
    pt, ph, pw = window
    n, c, t, h, w = x.shape
    gx = np.zeros_like(x)
    for s in range(n):
        for ci in range(c):
            for a in range(grad_y.shape[2]):
                for b in range(grad_y.shape[3]):
                    for d in range(grad_y.shape[4]):
                        best = None
                        for i in range(a * pt, min((a + 1) * pt, t)):
                            for j in range(b * ph, min((b + 1) * ph, h)):
                                for k in range(d * pw, min((d + 1) * pw, w)):
                                    if best is None or x[s, ci, i, j, k] > x[s, ci][best]:
                                        best = (i, j, k)
                        gx[s, ci][best] = grad_y[s, ci, a, b, d]
    return gx


@st.composite
def pool_cases(draw):
    """A window of 1-3 per axis, extents that often leave -inf padding, and
    inputs from a few levels (ReLU zeros among them) so that ties are common."""
    window = tuple(draw(st.integers(1, 3)) for _ in range(3))
    extents = tuple(draw(st.integers(1, 7)) for _ in range(3))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 2))) + extents
    levels = st.sampled_from([0.0, 0.0, 0.5, 1.0, -1.5])
    x = draw(arrays(np.float64, shape, elements=levels))
    pooled = tuple(-(-e // wd) for e, wd in zip(extents, window))
    grad_y = draw(arrays(np.float64, shape[:2] + pooled, elements=st.integers(-4, 4).map(float)))
    return window, x, grad_y


class TestConv3dForward:
    def test_unit_kernel_is_identity(self, rng):
        p = Conv3dParams(kernels=np.ones((1, 1, 1, 1, 1)), bias=np.zeros(1))
        x = rng.normal(size=(2, 1, 3, 4, 5))
        y, _ = conv3d_forward(p, x)
        assert np.array_equal(y, x)

    def test_all_ones_cube_counts_27(self):
        p = Conv3dParams(kernels=np.ones((1, 1, 3, 3, 3)), bias=np.zeros(1))
        y, _ = conv3d_forward(p, np.ones((1, 1, 3, 3, 3)))
        assert y.shape == (1, 1, 1, 1, 1)
        assert y[0, 0, 0, 0, 0] == 27.0

    def test_matches_naive_loops_on_fixed_instance(self):
        rng = Rng(11)
        p = init_conv3d(2, 2, (3, 3, 3), (0, 0, 0), rng)
        p.kernels[...] = rng.normal(size=p.kernels.shape)
        p.bias[...] = rng.normal(size=2)
        x = rng.normal(size=(1, 2, 4, 5, 5))
        y, _ = conv3d_forward(p, x)
        ref = naive_conv3d(p.kernels, p.bias, (0, 0, 0), x)
        assert np.abs(y - ref).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive_loops_randomized(self, seed):
        rng = Rng(1000 + seed)
        f = int(rng.integers(1, 3))
        c = int(rng.integers(1, 3))
        kt, kh, kw = (int(rng.integers(1, 4)) for _ in range(3))
        pad = tuple(int(rng.integers(0, 2)) for _ in range(3))
        t, h, w = (int(rng.integers(v, v + 3)) for v in (kt, kh, kw))
        p = Conv3dParams(
            kernels=rng.normal(size=(f, c, kt, kh, kw)),
            bias=rng.normal(size=f),
            padding=pad,
        )
        x = rng.normal(size=(2, c, t, h, w))
        y, _ = conv3d_forward(p, x)
        assert np.abs(y - naive_conv3d(p.kernels, p.bias, pad, x)).max() <= 1e-10

    def test_too_small_extent_rejected(self, rng):
        p = init_conv3d(1, 1, (3, 3, 3), (0, 0, 0), rng)
        with pytest.raises(DimensionError):
            conv3d_forward(p, np.zeros((1, 1, 2, 5, 5)))


class TestConv3dBackward:
    def test_zero_upstream_zero_grads(self, rng):
        p = init_conv3d(2, 1, (2, 2, 2), (0, 0, 0), rng)
        y, cache = conv3d_forward(p, rng.normal(size=(1, 1, 3, 3, 3)))
        gk, gb, gx = conv3d_backward(cache, np.zeros_like(y))
        assert not gk.any() and not gb.any() and not gx.any()

    def test_single_pixel_upstream_reads_input_patch(self, rng):
        p = Conv3dParams(kernels=rng.normal(size=(1, 1, 2, 2, 2)), bias=np.zeros(1))
        x = rng.normal(size=(1, 1, 3, 3, 3))
        y, cache = conv3d_forward(p, x)
        gy = np.zeros_like(y)
        gy[0, 0, 1, 0, 1] = 1.0
        gk, _, _ = conv3d_backward(cache, gy)
        assert np.array_equal(gk[0, 0], x[0, 0, 1:3, 0:2, 1:3])

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive_loops_randomized(self, seed):
        rng = Rng(3000 + seed)
        f = int(rng.integers(1, 3))
        c = int(rng.integers(1, 3))
        n = 1 + seed % 2
        kt, kh, kw = (int(rng.integers(1, 4)) for _ in range(3))
        pad = tuple(int(rng.integers(0, 2)) for _ in range(3))
        t, h, w = (int(rng.integers(v, v + 3)) for v in (kt, kh, kw))
        p = Conv3dParams(
            kernels=rng.normal(size=(f, c, kt, kh, kw)),
            bias=rng.normal(size=f),
            padding=pad,
        )
        x = rng.normal(size=(n, c, t, h, w))
        y, cache = conv3d_forward(p, x)
        gy = rng.normal(size=y.shape)
        gk, gb, gx = conv3d_backward(cache, gy)
        for got, ref in zip((gk, gb, gx), naive_conv3d_backward(p.kernels, pad, x, gy)):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-10
        gk_only, gb_only, none = conv3d_backward(cache, gy, input_grad=False)
        assert none is None
        assert np.array_equal(gk_only, gk) and np.array_equal(gb_only, gb)

    def test_matches_finite_differences(self):
        rng = Rng(21)
        p = init_conv3d(2, 2, (2, 2, 2), (1, 0, 1), rng)
        p.kernels[...] = rng.normal(0.0, 0.5, size=p.kernels.shape)
        p.bias[...] = rng.normal(size=2)
        x = rng.normal(size=(2, 2, 3, 3, 3))
        y, cache = conv3d_forward(p, x)
        r = rng.normal(size=y.shape)

        def loss():
            out, _ = conv3d_forward(p, x)
            return float((out * r).sum())

        gk, gb, gx = conv3d_backward(cache, r)
        numeric = central_diff(loss, [p.kernels, p.bias, x])
        assert max_rel_err([gk, gb, gx], numeric) <= 1e-4


class TestConv3dBatchInvariance:
    @pytest.mark.parametrize("seed", range(6))
    def test_batch_equals_per_sample_calls(self, seed):
        rng = Rng(4000 + seed)
        f, c = (int(rng.integers(1, 5)) for _ in range(2))
        kt, kh, kw = (int(rng.integers(1, 4)) for _ in range(3))
        pad = tuple(int(rng.integers(0, 2)) for _ in range(3))
        t, h, w = (int(rng.integers(v, v + 5)) for v in (kt, kh, kw))
        p = Conv3dParams(kernels=rng.normal(size=(f, c, kt, kh, kw)), bias=rng.normal(size=f), padding=pad)
        x = rng.normal(size=(int(rng.integers(2, 6)), c, t, h, w))
        y, cache = conv3d_forward(p, x)
        gy = rng.normal(size=y.shape)
        gk, gb, gx = conv3d_backward(cache, gy)
        singles = []
        for s in range(x.shape[0]):
            ys, cs = conv3d_forward(p, x[s : s + 1])
            singles.append((ys,) + conv3d_backward(cs, gy[s : s + 1]))
        ys, gks, gbs, gxs = zip(*singles)
        assert np.array_equal(y, np.concatenate(ys))
        assert np.array_equal(gx, np.concatenate(gxs))
        for got, parts in ((gk, gks), (gb, gbs)):
            ref = np.sum(parts, axis=0)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def channels_last(a):
    """a's values stored channels-last behind the same NCDHW shape."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 4, 1)).transpose(0, 4, 1, 2, 3)


class TestLayoutIndependence:
    @pytest.mark.parametrize("seed", range(6))
    def test_channels_last_memory_gives_equal_results(self, seed):
        rng = Rng(4500 + seed)
        f, c = (int(rng.integers(1, 6)) for _ in range(2))
        kt, kh, kw = (int(rng.integers(1, 4)) for _ in range(3))
        pad = tuple(int(rng.integers(0, 2)) for _ in range(3))
        t, h, w = (int(rng.integers(v, v + 5)) for v in (kt, kh, kw))
        p = Conv3dParams(kernels=rng.normal(size=(f, c, kt, kh, kw)), bias=rng.normal(size=f), padding=pad)
        x = rng.normal(size=(int(rng.integers(1, 4)), c, t, h, w))
        gy = rng.normal(size=conv3d_forward(p, x)[0].shape)
        window = tuple(int(rng.integers(1, 3)) for _ in range(3))
        pooled = tuple(-(-e // wd) for e, wd in zip((t, h, w), window))
        gp = rng.normal(size=x.shape[:2] + pooled)
        results = []
        for layout in (np.ascontiguousarray, channels_last):
            y, cache = conv3d_forward(p, layout(x))
            gk, gb, gx = conv3d_backward(cache, layout(gy))
            z, pcache = maxpool3d(Pool3dSpec(window), layout(x))
            gz = maxpool3d_backward(pcache, layout(gp))
            results.append((y, gk, gb, gx, z, gz))
        for a, b in zip(*results):
            assert a.shape == b.shape
            assert np.array_equal(a, b)


class TestMaxPool3d:
    def test_constant_input_routes_gradient_to_first_window_slot(self):
        spec = Pool3dSpec((2, 2, 2))
        x = np.ones((1, 1, 2, 2, 2))
        y, cache = maxpool3d(spec, x)
        assert y[0, 0, 0, 0, 0] == 1.0
        gx = maxpool3d_backward(cache, np.ones_like(y))
        expected = np.zeros_like(x)
        expected[0, 0, 0, 0, 0] = 1.0  # first index in (t,h,w) scan order
        assert np.array_equal(gx, expected)

    def test_ascending_cube_takes_maximum(self):
        x = np.arange(1.0, 9.0).reshape(1, 1, 2, 2, 2)
        y, _ = maxpool3d(Pool3dSpec((2, 2, 2)), x)
        assert y[0, 0, 0, 0, 0] == 8.0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_naive_loops_randomized(self, seed):
        rng = Rng(2000 + seed)
        window = tuple(int(rng.integers(1, 4)) for _ in range(3))
        t, h, w = (int(rng.integers(wd, wd + 4)) for wd in window)
        x = rng.normal(size=(2, 2, t, h, w))
        y, _ = maxpool3d(Pool3dSpec(window), x)
        assert np.array_equal(y, naive_maxpool3d(window, x))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(pool_cases())
    def test_ties_and_padding_route_to_first_maximum(self, case):
        window, x, grad_y = case
        y, cache = maxpool3d(Pool3dSpec(window), x)
        assert np.array_equal(y, naive_maxpool3d(window, x))
        assert np.array_equal(maxpool3d_backward(cache, grad_y), naive_maxpool3d_backward(window, x, grad_y))

    def test_gradients_match_finite_differences(self):
        rng = Rng(31)
        x = rng.normal(size=(1, 2, 4, 4, 4))
        spec = Pool3dSpec((2, 2, 2))
        y, cache = maxpool3d(spec, x)
        r = rng.normal(size=y.shape)

        def loss():
            out, _ = maxpool3d(spec, x)
            return float((out * r).sum())

        gx = maxpool3d_backward(cache, r)
        assert max_rel_err([gx], central_diff(loss, [x])) <= 1e-4


class TestC3dSpec:
    def test_full_scale_constructs_and_has_60_way_head(self):
        model = build_c3d(full_scale_c3d_spec(), Rng(0))
        assert model.out.W.shape == (60, 4096)
        assert len(model.convs) == 8
        assert len(model.pools) == 5
        assert model.fc6.W.shape == (4096, 8192)

    def test_full_scale_parameter_count_matches_hand_derivation(self):
        spec = full_scale_c3d_spec()
        k3 = 27
        convs = [(64, 3), (128, 64), (256, 128), (256, 256),
                 (512, 256), (512, 512), (512, 512), (512, 512)]
        expected = sum(f * c * k3 + f for f, c in convs)
        expected += 4096 * 8192 + 4096  # fc6 on the 512*1*4*4 flattened volume
        expected += 4096 * 4096 + 4096
        expected += 60 * 4096 + 60
        assert spec.param_count() == expected

    def test_desk_scale_shape_chain_hand_computed(self):
        spec = desk_scale_c3d_spec(6, (3, 8, 16, 16))
        chain = dict(spec.shape_chain())
        assert chain["conv1a"] == (8, 8, 16, 16)
        assert chain["pool1"] == (8, 8, 8, 8)
        assert chain["conv2a"] == (16, 8, 8, 8)
        assert chain["pool2"] == (16, 4, 4, 4)
        assert spec.flat_dim() == 16 * 4 * 4 * 4

    def test_zero_init_desk_model_predicts_uniformly(self, rng):
        model = build_c3d(desk_scale_c3d_spec(6), rng)
        for name, arr in model.param_items():
            arr[...] = 0.0
        logits, _, _ = model.forward(np.random.rand(2, 3, 16, 16, 16))
        assert np.array_equal(logits, np.zeros((2, 6)))

    def test_invalid_spec_names_offending_layer(self):
        spec = desk_scale_c3d_spec(6, (3, 1, 2, 2))
        spec.pool_windows = [(4, 4, 4), (2, 2, 2)]
        with pytest.raises(ConfigError, match="pool1"):
            spec.validate()

    def test_forward_backward_finite_differences_tiny_net(self):
        rng = Rng(41)
        spec = desk_scale_c3d_spec(3, (2, 4, 4, 4))
        spec.conv_groups = [[2], [3]]
        spec.fc_dims = (5, 4)
        model = build_c3d(spec, rng)
        x = rng.normal(size=(2, 2, 4, 4, 4))
        r = rng.normal(size=(2, 3))
        arrays = [a for _, a in model.param_items()]

        def loss():
            logits, _, _ = model.forward(x)
            return float((logits * r).sum())

        logits, _, cache = model.forward(x)
        grads = model.backward(cache, r)  # no input gradient: x is data
        analytic = [grads[n] for n, _ in model.param_items()]
        assert max_rel_err(analytic, central_diff(loss, arrays)) <= 1e-4


def tied_c3d(conv_groups, seed):
    """A small C3D whose kernels, biases and clips take a few levels, so conv
    outputs tie exactly and whole pool windows go to zero under ReLU."""
    rng = Rng(seed)
    spec = desk_scale_c3d_spec(3, (2, 4, 8, 8), filters=(4, 8), fc_dim=6)
    spec.conv_groups = conv_groups
    model = build_c3d(spec, rng)
    for conv in model.convs:
        conv.kernels[...] = rng.integers(-2, 3, size=conv.kernels.shape) * 0.25
        conv.bias[...] = rng.integers(-4, 2, size=conv.bias.shape) * 0.25
    clips = rng.integers(0, 3, size=(5, 2, 4, 8, 8)) * 0.5
    return model, clips, rng.normal(size=(5, 3))


def relu_before_pool_reference(model, x, grad_logits):
    """Logits, fc6 and parameter gradients of the stack with ReLU applied at
    full resolution before each pool, from the public layer functions."""
    caches, pooled = [], []
    convs = iter(model.convs)
    h = x
    for group, pool in zip(model.spec.conv_groups, model.pools):
        for _ in group:
            z, ccache = conv3d_forward(next(convs), h)
            caches.append(("conv", ccache, z > 0.0))
            h = np.maximum(z, 0.0)
        h, pcache = maxpool3d(pool, h)
        caches.append(("pool", pcache, None))
        pooled.append(h)
    f6, c6 = dense_forward(model.fc6, h.reshape(len(x), -1))
    f7, c7 = dense_forward(model.fc7, f6)
    logits, co = dense_forward(model.out, f7)
    grads = {}
    grads["out.W"], grads["out.b"], d7 = dense_backward(model.out, co, grad_logits)
    grads["fc7.W"], grads["fc7.b"], d6 = dense_backward(model.fc7, c7, d7)
    grads["fc6.W"], grads["fc6.b"], dflat = dense_backward(model.fc6, c6, d6)
    dh = dflat.reshape(h.shape)
    names = iter(reversed(model._conv_names))
    for kind, lcache, active in reversed(caches):
        if kind == "pool":
            dh = maxpool3d_backward(lcache, dh)
        else:
            name = next(names)
            gk, gb, dh = conv3d_backward(lcache, dh * active, input_grad=True)
            grads[name + ".kernels"], grads[name + ".bias"] = gk, gb
    return logits, f6, grads, pooled


class TestC3dModelEquivalence:
    @pytest.mark.parametrize("conv_groups", [[[4], [8]], [[4, 4], [8]]], ids=["desk", "two_conv_group"])
    @pytest.mark.parametrize("seed", range(3))
    def test_gradients_equal_relu_before_pool_reference(self, conv_groups, seed):
        model, clips, r = tied_c3d(conv_groups, 50 + seed)
        ref_logits, ref_f6, ref_grads, pooled = relu_before_pool_reference(model, clips, r)
        assert all((p == 0.0).any() and (p > 0.0).any() for p in pooled)
        logits, f6, cache = model.forward(clips)
        grads = model.backward(cache, r)
        assert np.array_equal(logits, ref_logits)
        assert np.array_equal(f6, ref_f6)
        assert sorted(grads) == sorted(ref_grads)
        for name, g in grads.items():
            assert g.shape == ref_grads[name].shape
            assert np.array_equal(g, ref_grads[name]), name

    @pytest.mark.parametrize("conv_groups", [[[4], [8]], [[4, 4], [8]]], ids=["desk", "two_conv_group"])
    def test_inference_forward_equals_train_forward(self, conv_groups):
        model, clips, _ = tied_c3d(conv_groups, 60)
        classifier = ConvClassifier(None, model)
        logits_i, f6_i, _ = classifier.forward(clips, mode="inference")
        logits_t, f6_t, _ = classifier.forward(clips, mode="train")
        assert np.array_equal(logits_i, logits_t)
        assert np.array_equal(f6_i, f6_t)

    def test_backward_on_inference_cache_rejected(self):
        model, clips, r = tied_c3d([[4], [8]], 70)
        classifier = ConvClassifier(None, model)
        _, _, cache = classifier.forward(clips, mode="inference")
        with pytest.raises(ContractError, match="forward that ran in inference mode"):
            classifier.backward(cache, r)


class TestClips:
    def test_exact_multiple_splits_cleanly(self, rng):
        video = rng.uniform(size=(3, 32, 4, 4))
        clips = clip_split(video, 16)
        assert len(clips) == 2
        assert np.array_equal(clips[0], video[:, :16])
        assert np.array_equal(clips[1], video[:, 16:])

    def test_short_video_padded_with_last_frame(self, rng):
        video = rng.uniform(size=(3, 5, 2, 2))
        (clip,) = clip_split(video, 16)
        assert clip.shape[1] == 16
        assert np.array_equal(clip[:, :5], video)
        assert np.array_equal(clip[:, 5:], np.repeat(video[:, -1:], 11, axis=1))

    def test_small_remainder_dropped_large_remainder_padded(self, rng):
        video = rng.uniform(size=(1, 16 + 7, 2, 2))
        assert len(clip_split(video, 16)) == 1  # 7 < 8: dropped
        video = rng.uniform(size=(1, 16 + 8, 2, 2))
        clips = clip_split(video, 16)
        assert len(clips) == 2  # 8 >= 8: repeat-padded
        assert np.array_equal(clips[1][:, 8:], np.repeat(video[:, -1:], 8, axis=1))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 16))
    def test_clip_split_property(self, t, clip_len):
        # every frame distinct: frame k of channel ci holds 100·ci + k
        frames = 100.0 * np.arange(2)[:, None] + np.arange(t)
        video = np.broadcast_to(frames[:, :, None, None], (2, t, 3, 2))
        clips = clip_split(video, clip_len)
        whole, rem = divmod(t, clip_len)
        assert len(clips) == max(1, whole + (2 * rem >= clip_len))
        for k, clip in enumerate(clips):
            assert clip.shape == (2, clip_len, 3, 2)
            start = k * clip_len
            real = min(clip_len, t - start)
            assert np.array_equal(clip[:, :real], video[:, start : start + real])
            assert np.array_equal(clip[:, real:], np.broadcast_to(video[:, -1:], (2, clip_len - real, 3, 2)))

    def test_empty_video_rejected(self):
        with pytest.raises(DataError):
            clip_split(np.zeros((3, 0, 2, 2)), 16)

    def test_identical_clip_predictions_average_to_themselves(self):
        probs = np.array([[0.2, 0.5, 0.3]] * 4)
        pred = clip_average(probs)
        assert np.allclose(pred.probs, [0.2, 0.5, 0.3])
        assert pred.label == 1
        assert pred.confidence == pytest.approx(0.5)

    def test_mean_of_one_hots(self):
        one_hots = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pred = clip_average(one_hots)
        assert pred.label == 0
        assert pred.confidence == pytest.approx(2.0 / 3.0)

    def test_average_invariant_to_clip_order(self, rng):
        probs = rng.uniform(size=(5, 4))
        probs /= probs.sum(axis=1, keepdims=True)
        a = clip_average(probs)
        b = clip_average(probs[::-1])
        assert np.allclose(a.probs, b.probs, atol=1e-15)
