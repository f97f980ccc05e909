import math

import numpy as np
import pytest

from twostream import (
    ConfigError,
    DimensionError,
    Rng,
    concat_last,
    l2_normalize,
    softmax,
)

from conftest import sigmoid


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_extreme_inputs_stay_finite(self):
        with np.errstate(all="raise"):
            out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_sigmoid_matches_split_exp_form(self):
        x = np.linspace(-40.0, 40.0, 8001)
        ref = np.empty_like(x)
        pos = x >= 0
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        ref[~pos] = ex / (1.0 + ex)
        # each form is within an ulp of the true value, so they may differ by two
        # ulps of [0.5, 1): one eps
        assert np.abs(sigmoid(x) - ref).max() <= np.finfo(np.float64).eps


class TestSoftmax:
    def test_uniform_logits(self):
        out = softmax(np.array([0.0, 0.0, 0.0]))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_large_logits_stable(self):
        out = softmax(np.array([1000.0, 1000.0]))
        assert np.allclose(out, 0.5, atol=1e-15)

    def test_exact_exp_ratios(self):
        out = softmax(np.array([math.log(1.0), math.log(3.0)]))
        assert out == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_rows_sum_to_one(self, rng):
        logits = rng.normal(0.0, 5.0, size=(40, 9))
        out = softmax(logits)
        assert np.abs(out.sum(axis=1) - 1.0).max() <= 1e-12

    def test_shift_invariance_per_row(self, rng):
        logits = rng.normal(0.0, 3.0, size=(10, 5))
        shifted = logits + rng.normal(size=(10, 1))
        assert np.abs(softmax(logits) - softmax(shifted)).max() <= 1e-12


class TestConcatLast:
    def test_vectors(self):
        assert np.array_equal(concat_last(np.array([1.0, 2.0]), np.array([3.0])), [1, 2, 3])

    def test_empty_right_side_is_identity(self):
        a = np.ones((3, 2))
        out = concat_last(a, np.ones((3, 0)))
        assert np.array_equal(out, a)

    def test_full_scale_feature_widths(self):
        out = concat_last(np.zeros((2, 600)), np.zeros((2, 4096)))
        assert out.shape == (2, 4696)

    def test_leading_dim_mismatch(self):
        with pytest.raises(DimensionError):
            concat_last(np.ones((2, 3)), np.ones((3, 1)))

    def test_column_order_contract(self):
        a = np.full((1, 2), 1.0)
        b = np.full((1, 3), 2.0)
        assert np.array_equal(concat_last(a, b)[0], [1, 1, 2, 2, 2])


class TestL2Normalize:
    def test_three_four_five(self):
        assert l2_normalize(np.array([3.0, 4.0])) == pytest.approx([0.6, 0.8], abs=1e-15)

    def test_unit_vector_unchanged(self):
        v = np.array([1.0, 0.0, 0.0])
        assert np.array_equal(l2_normalize(v), v)

    def test_zero_vector_rule(self):
        assert np.array_equal(l2_normalize(np.array([0.0, 0.0])), [0.0, 0.0])

    def test_rows_have_unit_norm_except_zero_rows(self, rng):
        m = rng.normal(size=(20, 6))
        m[4] = 0.0
        out = l2_normalize(m)
        norms = np.sqrt((out * out).sum(axis=1))
        assert np.abs(np.delete(norms, 4) - 1.0).max() <= 1e-12
        assert norms[4] == 0.0


class TestRng:
    def test_equal_seeds_equal_streams(self):
        a = Rng(1234).uniform(size=10_000)
        b = Rng(1234).uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).uniform(size=100), Rng(2).uniform(size=100))

    def test_derived_streams_are_reproducible_and_distinct(self):
        base = Rng(5)
        a = base.derive(1).normal(size=50)
        b = Rng(5).derive(1).normal(size=50)
        c = Rng(5).derive(2).normal(size=50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_negative_seed_rejected_with_its_value(self):
        # numpy's own error names no seed, key or flag
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            Rng(-1)

    def test_known_first_draws_frozen(self):
        # Frozen fixture: the documented PCG64 stream for seed 0.
        got = Rng(0).uniform(size=3)
        expected = np.random.Generator(np.random.PCG64(0)).uniform(size=3)
        assert np.array_equal(got, expected)
