import numpy as np
import pytest

from twostream import (
    ContractError,
    DataError,
    DropoutConfig,
    Rng,
    batchnorm_backward,
    batchnorm_forward,
    dropout,
    init_batchnorm,
)

from conftest import central_diff, max_rel_err


class TestBatchNormForward:
    def test_train_mode_standardizes(self, rng):
        p = init_batchnorm(5)
        x = rng.normal(3.0, 2.5, size=(64, 5))
        y, _ = batchnorm_forward(p, x, "train")
        mean = y.mean(axis=0)
        var = y.var(axis=0)
        expected_var = x.var(axis=0) / (x.var(axis=0) + p.epsilon)
        assert np.abs(mean).max() <= 1e-10
        assert np.abs(var - expected_var).max() <= 1e-6

    def test_constant_feature_collapses_to_beta(self, rng):
        p = init_batchnorm(3)
        p.gamma[...] = 2.0
        p.beta[...] = 3.0
        x = rng.normal(size=(8, 3))
        x[:, 1] = 7.0  # zero-variance feature, epsilon keeps it finite
        y, _ = batchnorm_forward(p, x, "train")
        assert np.abs(y[:, 1] - 3.0).max() <= 1e-10

    def test_reference_recipe_defaults(self):
        p = init_batchnorm(4)
        assert np.all(p.gamma == 1.0)
        assert np.all(p.beta == 0.0)
        assert p.epsilon == 1e-5

    def test_train_needs_two_rows(self):
        p = init_batchnorm(3)
        with pytest.raises(DataError):
            batchnorm_forward(p, np.zeros((1, 3)), "train")

    def test_inference_is_a_fixed_affine_map(self, rng):
        p = init_batchnorm(4)
        for _ in range(3):  # accumulate some running stats
            batchnorm_forward(p, rng.normal(2.0, 3.0, size=(32, 4)), "train")
        x = rng.normal(size=(6, 4))
        y1, _ = batchnorm_forward(p, x, "inference")
        y2, _ = batchnorm_forward(p, np.concatenate([x, rng.normal(size=(10, 4))]), "inference")
        assert np.array_equal(y1, y2[:6])

    def test_first_batch_seeds_running_stats_then_momentum_applies(self, rng):
        p = init_batchnorm(2, momentum=0.9)
        x1 = rng.normal(1.5, 2.0, size=(50, 2))
        batchnorm_forward(p, x1, "train")
        assert np.allclose(p.running_mean, x1.mean(axis=0), atol=1e-12)
        assert np.allclose(p.running_var, x1.var(axis=0), atol=1e-12)
        x2 = rng.normal(-0.5, 1.0, size=(50, 2))
        batchnorm_forward(p, x2, "train")
        expected_mean = 0.9 * x1.mean(axis=0) + 0.1 * x2.mean(axis=0)
        expected_var = 0.9 * x1.var(axis=0) + 0.1 * x2.var(axis=0)
        assert np.allclose(p.running_mean, expected_mean, atol=1e-12)
        assert np.allclose(p.running_var, expected_var, atol=1e-12)


class TestBatchNormBackward:
    def test_zero_upstream_zero_grads(self, rng):
        p = init_batchnorm(3)
        _, cache = batchnorm_forward(p, rng.normal(size=(5, 3)), "train")
        gx, gg, gb = batchnorm_backward(cache, np.zeros((5, 3)))
        assert not gx.any() and not gg.any() and not gb.any()

    def test_matches_finite_differences(self):
        rng = Rng(5)
        p = init_batchnorm(3)
        p.gamma[...] = rng.uniform(0.5, 1.5, size=3)
        p.beta[...] = rng.normal(size=3)
        x = rng.normal(1.0, 2.0, size=(4, 3))
        r = rng.normal(size=(4, 3))

        def loss():
            y, _ = batchnorm_forward(p, x, "train")
            return float((y * r).sum())

        _, cache = batchnorm_forward(p, x, "train")
        gx, gg, gb = batchnorm_backward(cache, r)
        numeric = central_diff(loss, [p.gamma, p.beta, x])
        assert max_rel_err([gg, gb, gx], numeric) <= 1e-4

    def test_grad_beta_is_column_sum(self, rng):
        p = init_batchnorm(4)
        _, cache = batchnorm_forward(p, rng.normal(size=(6, 4)), "train")
        grad_y = rng.normal(size=(6, 4))
        _, _, gb = batchnorm_backward(cache, grad_y)
        assert np.array_equal(gb, grad_y.sum(axis=0))

    def test_inference_cache_rejected(self, rng):
        p = init_batchnorm(2)
        _, cache = batchnorm_forward(p, rng.normal(size=(4, 2)), "inference")
        with pytest.raises(ContractError):
            batchnorm_backward(cache, np.zeros((4, 2)))


class TestDropout:
    def test_keep_prob_one_is_identity_in_train_mode(self, rng):
        x = rng.normal(size=(5, 7))
        y, mask = dropout(x, DropoutConfig(keep_prob=1.0), rng)
        assert np.array_equal(y, x)
        assert np.all(mask == 1.0)

    def test_statistics_at_three_quarters_keep(self):
        rng = Rng(99)
        x = np.full((100_000,), 2.0)
        y, mask = dropout(x, DropoutConfig(keep_prob=0.75), rng)
        kept = float((mask > 0).mean())
        assert abs(kept - 0.75) <= 0.01
        assert abs(y.mean() - x.mean()) / abs(x.mean()) <= 0.02

    def test_expectation_preserved_elementwise(self):
        # inverted scaling: the mask-averaged output approaches x itself
        rng = Rng(123)
        x = rng.normal(size=16)
        acc = np.zeros_like(x)
        trials = 4000
        for _ in range(trials):
            y, _ = dropout(x, DropoutConfig(keep_prob=0.75), rng)
            acc += y
        assert np.abs(acc / trials - x).max() <= 0.06

    def test_bad_keep_prob_rejected(self):
        with pytest.raises(ValueError):
            DropoutConfig(keep_prob=0.0)
