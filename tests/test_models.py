import numpy as np
import pytest

from twostream import (
    ConfigError,
    ContractError,
    LADDER_VARIANTS,
    ModelSpec,
    Rng,
    SequenceBatch,
    build_model,
    load_model,
    save_model,
    softmax,
    write_checkpoint,
)
from twostream.models import ConvClassifier, RecurrentClassifier
from twostream.recurrent import param_count

from conftest import central_diff, max_rel_err


def _spec(name, **kw):
    base = dict(name=name, input_dim=6, n_classes=4, hidden_dim=5, video_shape=(2, 8, 8, 8))
    base.update(kw)
    return ModelSpec(**base)


def _batch(rng, n=3, t=7, i=6):
    data = rng.normal(size=(n, t, i))
    lengths = [t - (row % 3) for row in range(n)]
    for row, L in enumerate(lengths):
        data[row, L:, :] = 0.0
    return SequenceBatch(data, lengths)


class TestLadderExpansion:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError, match="unknown model"):
            ModelSpec(name="GRU9000", input_dim=4, n_classes=3)

    def test_rnn1_is_bare_recurrent_plus_softmax(self, rng):
        model = build_model(_spec("RNN1"), rng)
        assert isinstance(model, RecurrentClassifier)
        assert model.bn is None and model.drop_cfg is None and model.hidden is None
        assert len(model.layers) == 1
        assert model.out.W.shape == (4, 5)

    def test_bn_and_dropout_enter_where_named(self, rng):
        assert build_model(_spec("LSTM1"), rng).bn is None
        assert build_model(_spec("LSTM1-BN"), rng).bn is not None
        assert build_model(_spec("LSTM1-BN"), rng).drop_cfg is None
        m = build_model(_spec("LSTM1-BN-DP"), rng)
        assert m.bn is not None and m.drop_cfg is not None
        assert m.drop_cfg.keep_prob == 0.75

    def test_bidirectional_and_stacked_widths(self, rng):
        m1 = build_model(_spec("BI-GRU1-BN-DP"), rng)
        assert m1.layers[0].out_dim == 10
        m2 = build_model(_spec("BI-GRU2-BN-DP-H"), rng)
        assert len(m2.layers) == 2
        assert m2.layers[1].in_dim == 10
        assert m2.hidden.W.shape == (10, 10)  # hidden layer matches recurrent width
        assert m2.out.W.shape == (4, 10)

    def test_reference_scale_head_shapes(self, rng):
        spec = ModelSpec(name="BI-GRU2-BN-DP-H", input_dim=150, n_classes=60, hidden_dim=300)
        model = build_model(spec, rng)
        assert model.layers[-1].out_dim == 600
        assert model.hidden.W.shape == (600, 600)
        assert model.out.W.shape == (60, 600)

    def test_gru_variant_recurrent_params_are_three_quarters_of_lstm(self, rng):
        lstm = build_model(_spec("LSTM1"), rng)
        gru = build_model(_spec("GRU1-BN-DP"), rng)
        lstm_rec = param_count(lstm.layers[0].cell.params)
        gru_rec = param_count(gru.layers[0].cell.params)
        assert gru_rec * 4 == lstm_rec * 3

    def test_same_seed_identical_initial_checkpoints(self, tmp_path):
        a = build_model(_spec("BI-GRU2-BN-DP-H"), Rng(33))
        b = build_model(_spec("BI-GRU2-BN-DP-H"), Rng(33))
        for (na, pa), (nb, pb) in zip(a.param_items(), b.param_items()):
            assert na == nb
            assert np.array_equal(pa, pb)

    def test_all_variants_build(self, rng):
        for name in LADDER_VARIANTS:
            if name == "C3D":
                continue  # the deep reference net is exercised in the conv tests
            model = build_model(_spec(name), rng)
            assert model.param_count() > 0


class TestForwardBackward:
    def test_logit_shapes(self, rng):
        batch = _batch(rng)
        for name in ("RNN1", "LSTM1-BN-DP", "BI-GRU2-BN-DP-H"):
            model = build_model(_spec(name), rng)
            logits, _, _ = model.forward(batch, mode="inference")
            assert logits.shape == (3, 4)

    def test_full_classifier_gradients_match_finite_differences(self):
        rng = Rng(77)
        model = build_model(_spec("BI-GRU2-BN-DP-H", hidden_dim=3), rng)
        batch = _batch(rng, n=4)
        r = Rng(5).normal(size=(4, 4))
        arrays = [a for _, a in model.param_items()]

        def loss():
            logits, _, _ = model.forward(batch, mode="train", rng=Rng(1))
            return float((logits * r).sum())

        logits, _, cache = model.forward(batch, mode="train", rng=Rng(1))
        grads = model.backward(cache, r)
        analytic = [grads[n] for n, _ in model.param_items()]
        # dropout draws from a fresh Rng(1) each call, so the mask is frozen
        assert max_rel_err(analytic, central_diff(loss, arrays)) <= 1e-4

    def test_plain_lstm_classifier_gradients(self):
        rng = Rng(78)
        model = build_model(_spec("LSTM1", hidden_dim=4), rng)
        batch = _batch(rng)
        r = Rng(6).normal(size=(3, 4))
        arrays = [a for _, a in model.param_items()]

        # LSTM1 has no batchnorm or dropout: train mode computes inference's logits
        def loss():
            logits, _, _ = model.forward(batch, mode="train")
            return float((logits * r).sum())

        logits, _, cache = model.forward(batch, mode="train")
        assert np.array_equal(logits, model.forward(batch, mode="inference")[0])
        grads = model.backward(cache, r)
        analytic = [grads[n] for n, _ in model.param_items()]
        assert max_rel_err(analytic, central_diff(loss, arrays)) <= 1e-4

    def test_backward_after_inference_forward_rejected(self, rng):
        model = build_model(_spec("LSTM1"), rng)
        logits, _, cache = model.forward(_batch(rng), mode="inference")
        assert cache[0] == [None] * len(model.layers)  # no BPTT tape kept
        with pytest.raises(ContractError, match="train=False"):
            model.backward(cache, np.ones_like(logits))

    def test_no_tap_without_hidden_layer(self, rng):
        model = build_model(_spec("LSTM1"), rng)
        _, tap, _ = model.forward(_batch(rng))
        assert tap is None

    def test_feature_tap_width(self, rng):
        model = build_model(_spec("BI-GRU2-BN-DP-H"), rng)
        _, tap, _ = model.forward(_batch(rng))
        assert tap.shape == (3, 10)
        assert np.all(tap >= 0.0)  # ReLU activations

    def test_conv_classifier_roundtrip(self, rng):
        model = build_model(_spec("C3D-DESK"), rng)
        assert isinstance(model, ConvClassifier)
        clips = rng.uniform(size=(2, 2, 8, 8, 8))
        logits, tap, _ = model.forward(clips)
        probs = softmax(logits)
        assert probs.shape == (2, 4)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert tap.shape == (2, 64)


class TestCheckpointRoundtrip:
    @pytest.mark.parametrize("name", ["LSTM1-BN-DP", "BI-GRU2-BN-DP-H", "C3D-DESK"])
    def test_save_load_preserves_predictions(self, tmp_path, name, rng):
        spec = _spec(name)
        model = build_model(spec, rng)
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        clone = load_model(spec, path)
        x = Rng(9).uniform(size=(2, 2, 8, 8, 8)) if name == "C3D-DESK" else _batch(Rng(9))
        logits, tap, _ = model.forward(x)
        clone_logits, clone_tap, _ = clone.forward(x)
        assert np.array_equal(logits, clone_logits)
        assert np.array_equal(tap, clone_tap)

    def test_mismatched_checkpoint_rejected(self, tmp_path, rng):
        model = build_model(_spec("LSTM1"), rng)
        path = tmp_path / "m.ckpt"
        save_model(model, path)
        with pytest.raises(ConfigError, match="checkpoint mismatch"):
            load_model(_spec("BI-GRU1-BN-DP"), path)

    @pytest.mark.parametrize(
        "name, stored_shape",
        [("out.W", (5, 4)), ("out.b", (1,))],  # (1,) would broadcast into the (4,) bias
    )
    def test_wrong_shape_rejected_naming_array_shapes_and_file(self, tmp_path, rng, name, stored_shape):
        spec = _spec("LSTM1")
        items = build_model(spec, rng).param_items()
        model_shape = dict(items)[name].shape
        path = tmp_path / "m.ckpt"
        write_checkpoint(path, [(n, np.ones(stored_shape) if n == name else a) for n, a in items])
        with pytest.raises(ConfigError) as info:
            load_model(spec, path)
        message = str(info.value)
        assert message.startswith("checkpoint mismatch: ")
        for part in (repr(name), str(stored_shape), str(model_shape), str(path)):
            assert part in message
