import math

import numpy as np
import pytest

from twostream import (
    ConfigError,
    DataError,
    DenseParams,
    Rng,
    dense_backward,
    dense_forward,
    init_dense,
    softmax_xent,
    svm_predict,
    svm_train,
)
from twostream import heads
from twostream.heads import SVM_EPOCHS, svm_objective, svm_subgradient

from conftest import central_diff, max_rel_err


class TestDense:
    def test_identity_passthrough(self, rng):
        p = DenseParams(W=np.eye(4), b=np.zeros(4), activation="none")
        x = rng.normal(size=(3, 4))
        y, _ = dense_forward(p, x)
        assert np.array_equal(y, x)

    def test_gradients_match_finite_differences(self):
        rng = Rng(17)
        for activation in ("none", "relu"):
            p = init_dense(4, 3, rng, activation=activation)
            p.W[...] = rng.normal(0.0, 0.7, size=p.W.shape)
            p.b[...] = rng.normal(0.0, 0.4, size=3)
            x = rng.normal(size=(5, 4))
            r = rng.normal(size=(5, 3))

            def loss():
                y, _ = dense_forward(p, x)
                return float((y * r).sum())

            _, cache = dense_forward(p, x)
            dW, db, dx = dense_backward(p, cache, r)
            assert max_rel_err([dW, db, dx], central_diff(loss, [p.W, p.b, x])) <= 1e-4

    def test_600_to_60_head_shape(self, rng):
        p = init_dense(600, 60, rng)
        y, _ = dense_forward(p, rng.normal(size=(2, 600)))
        assert y.shape == (2, 60)


class TestSoftmaxXent:
    def test_uniform_logits_give_log_k(self):
        loss, _ = softmax_xent(np.zeros((4, 60)), np.array([0, 1, 2, 3]))
        assert loss == pytest.approx(math.log(60.0), abs=1e-12)

    def test_confident_correct_logit_drives_loss_to_zero(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 50.0
        loss, _ = softmax_xent(logits, np.array([2]))
        assert loss < 1e-20

    def test_loss_is_nonnegative(self, rng):
        for _ in range(10):
            logits = rng.normal(0.0, 3.0, size=(6, 4))
            labels = rng.integers(0, 4, size=6)
            loss, _ = softmax_xent(logits, labels)
            assert loss >= 0.0

    def test_gradient_matches_finite_differences(self):
        rng = Rng(19)
        logits = rng.normal(0.0, 2.0, size=(5, 4))
        labels = rng.integers(0, 4, size=5)

        def loss():
            return softmax_xent(logits, labels)[0]

        _, grad = softmax_xent(logits, labels)
        numeric = central_diff(loss, [logits])
        assert max_rel_err([grad], numeric, floor=1e-6) <= 1e-5

    def test_out_of_range_label_rejected(self):
        with pytest.raises(DataError):
            softmax_xent(np.zeros((2, 3)), np.array([0, 3]))


def _separable_clouds(rng, n_per=20, d=3, n_classes=2, spread=0.3, gap=4.0):
    feats, labels = [], []
    for cls in range(n_classes):
        center = np.zeros(d)
        center[cls % d] = gap * (1 + cls // d)
        feats.append(rng.normal(0.0, spread, size=(n_per, d)) + center)
        labels += [cls] * n_per
    return np.concatenate(feats), np.array(labels)


class TestSvm:
    def test_separable_clouds_reach_perfect_training_accuracy(self):
        rng = Rng(3)
        x, y = _separable_clouds(rng)
        model = svm_train(x, y, C=8.0)
        pred, _ = svm_predict(model, x)
        assert np.array_equal(pred, y)

    def test_weights_shrink_as_c_vanishes(self):
        rng = Rng(3)
        x, y = _separable_clouds(rng)
        tiny = svm_train(x, y, C=1e-6)
        normal = svm_train(x, y, C=8.0)
        assert np.linalg.norm(tiny.W) < np.linalg.norm(normal.W)
        assert np.linalg.norm(tiny.W) < 1e-3

    def test_duplicating_samples_with_halved_c_gives_same_model(self):
        rng = Rng(3)
        x, y = _separable_clouds(rng, n_per=15)
        base = svm_train(x, y, C=4.0)
        doubled = svm_train(
            np.concatenate([x, x]), np.concatenate([y, y]), C=2.0
        )
        assert np.abs(base.W - doubled.W).max() <= 1e-8
        assert np.abs(base.b - doubled.b).max() <= 1e-8

    def test_training_is_deterministic(self):
        rng = Rng(5)
        x, y = _separable_clouds(rng, n_per=12, n_classes=3)
        a = svm_train(x, y, C=8.0)
        b = svm_train(x, y, C=8.0)
        assert np.array_equal(a.W, b.W) and np.array_equal(a.b, b.b)

    def test_single_class_data_rejected(self, rng):
        with pytest.raises(DataError):
            svm_train(rng.normal(size=(10, 3)), np.zeros(10, dtype=int), C=1.0)

    @pytest.mark.parametrize("C", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_c_rejected_naming_the_field(self, C):
        x, y = _separable_clouds(Rng(3), n_per=4)
        with pytest.raises(ConfigError, match="C must be"):
            svm_train(x, y, C=C)

    def test_zero_weights_predict_class_zero(self):
        model = svm_train(
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 0.5]]),
            np.array([0, 1, 0, 1]),
            C=8.0,
        )
        model.W[...] = 0.0
        model.b[...] = 0.0
        pred, margins = svm_predict(model, np.random.rand(5, 2))
        assert np.all(pred == 0)
        assert np.array_equal(margins, np.zeros((5, 2)))

    def test_margins_are_affine_in_features(self):
        rng = Rng(9)
        x, y = _separable_clouds(rng)
        model = svm_train(x, y, C=8.0)
        q = rng.normal(size=(4, 3))
        _, m1 = svm_predict(model, q)
        _, m2 = svm_predict(model, 2.0 * q)
        assert np.allclose(m2, 2.0 * (q @ model.W.T) + model.b, atol=1e-12)
        assert np.allclose(m1, q @ model.W.T + model.b, atol=1e-12)

    def test_objective_is_monitored_and_nonincreasing_on_fixtures(self):
        rng = Rng(3)
        x, y = _separable_clouds(rng, n_per=25)
        model = svm_train(x, y, C=8.0)
        assert model.objective_history.shape[0] == 2
        for cls in range(2):
            hist = model.objective_history[cls]
            assert np.all(np.diff(hist) <= 1e-9)
            yy = np.where(y == cls, 1.0, -1.0)
            assert hist[-1] == pytest.approx(svm_objective(model.W[cls], model.b[cls], x, yy, 8.0))

    def test_subgradient_matches_finite_differences_of_the_averaged_objective(self):
        rng = Rng(11)
        x = rng.normal(size=(9, 3))
        y = np.where(rng.uniform(size=9) < 0.5, 1.0, -1.0)
        w = rng.normal(0.0, 0.5, size=3)
        b = np.array([0.2])
        C = 4.0
        assert np.abs(1.0 - y * (x @ w + b[0])).min() > 1e-3  # away from the hinge's kink

        def averaged():
            return svm_objective(w, b[0], x, y, C) / (C * len(x))

        gw, gb = svm_subgradient(w, b[0], x, y, 1.0 / (C * len(x)))
        assert max_rel_err([gw, np.array([gb])], central_diff(averaged, [w, b])) <= 1e-6

    def test_training_steps_along_the_subgradient(self, monkeypatch):
        x, y = _separable_clouds(Rng(3), n_per=10)
        expected = svm_train(x, y, C=8.0)
        real, calls = heads.svm_subgradient, []

        def spy(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(heads, "svm_subgradient", spy)
        got = svm_train(x, y, C=8.0)
        assert calls == [1.0 / (8.0 * len(x))] * (2 * SVM_EPOCHS)
        assert np.array_equal(got.W, expected.W) and np.array_equal(got.b, expected.b)
