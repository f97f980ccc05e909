import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twostream.errors import ConfigError, DataError, DimensionError
from twostream.fusion import (
    Prediction,
    TrustWeights,
    decision_fuse,
    feature_fuse,
    search_trust_weights,
)


def _pred(conf, label=0, k=4):
    probs = np.full(k, (1.0 - conf) / (k - 1))
    probs[label] = conf
    return Prediction.from_probs(probs)


# Small exact values make exact ties common (0.5 * 0.8 == 1.0 * 0.4 in floats);
# a confidence of at least 0.4 stays the argmax for up to 4 classes.
_CONFIDENCES = st.sampled_from([0.4, 0.5, 0.6, 0.8, 1.0]) | st.floats(0.4, 1.0)
_WEIGHTS = st.sampled_from([0.5, 1.0, 2.0]) | st.floats(0.1, 10.0)


class TestPrediction:
    def test_fields_are_consistent(self):
        p = Prediction.from_probs(np.array([0.1, 0.7, 0.2]))
        assert p.label == 1
        assert p.confidence == pytest.approx(0.7)
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_non_normalized_probs_rejected(self):
        with pytest.raises(DataError):
            Prediction.from_probs(np.array([0.5, 0.6]))

    @pytest.mark.parametrize("probs", [[np.nan] * 3, [np.nan, 0.5, 0.5], [np.inf, -np.inf, 1.0]])
    def test_non_finite_probs_rejected(self, probs):
        with pytest.raises(DataError, match="finite"):
            Prediction.from_probs(np.array(probs))


class TestDecisionFuse:
    def test_higher_confidence_wins_at_equal_weights(self):
        r, c = _pred(0.9, label=1), _pred(0.6, label=2)
        assert decision_fuse(TrustWeights(1.0, 1.0), r, c) is r

    def test_trust_weighting_flips_the_vote(self):
        # 1.00 * 0.9 < 2.88 * 0.4 = 1.152, so the convolutional stream wins
        r, c = _pred(0.9, label=1), _pred(0.4, label=2)
        assert decision_fuse(TrustWeights(1.0, 2.88), r, c) is c

    def test_exact_tie_goes_to_the_convolutional_stream(self):
        r, c = _pred(0.5, label=1), _pred(0.5, label=2)
        assert decision_fuse(TrustWeights(1.0, 1.0), r, c) is c

    def test_output_is_always_one_of_the_inputs(self, rng):
        for _ in range(50):
            pr = rng.uniform(size=3)
            pc = rng.uniform(size=3)
            r = Prediction.from_probs(pr / pr.sum())
            c = Prediction.from_probs(pc / pc.sum())
            w = TrustWeights(float(rng.uniform(0.1, 10)), float(rng.uniform(0.1, 10)))
            fused = decision_fuse(w, r, c)
            assert fused is r or fused is c

    def test_invariant_to_scaling_both_weights(self, rng):
        for _ in range(50):
            conf_r = float(rng.uniform(0.3, 1.0))
            conf_c = float(rng.uniform(0.3, 1.0))
            r, c = _pred(conf_r, label=1), _pred(conf_c, label=2)
            w1 = TrustWeights(1.0, 2.0)
            w2 = TrustWeights(3.5, 7.0)
            assert decision_fuse(w1, r, c).label == decision_fuse(w2, r, c).label

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(conf_r=_CONFIDENCES, conf_c=_CONFIDENCES, w_r=_WEIGHTS, w_c=_WEIGHTS)
    @example(conf_r=0.8, conf_c=0.4, w_r=0.5, w_c=1.0)  # an exact tie at unequal weights
    def test_rnn_wins_only_on_strictly_more_weighted_confidence(self, conf_r, conf_c, w_r, w_c):
        r, c = _pred(conf_r, label=1), _pred(conf_c, label=2)
        fused = decision_fuse(TrustWeights(w_r, w_c), r, c)
        assert fused is (r if w_r * conf_r > w_c * conf_c else c)

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            decision_fuse(TrustWeights(), _pred(0.9, k=3), _pred(0.9, k=4))

    @pytest.mark.parametrize("field", ["w_r", "w_c"])
    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_weight_rejected_naming_the_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrustWeights(**{field: value})


class TestSearchTrustWeights:
    def test_cnn_always_right_pushes_weight_up(self, rng):
        labels = list(rng.integers(0, 4, size=40))
        rnn = [_pred(0.9, label=(y + 1) % 4) for y in labels]  # always wrong, confident
        cnn = [_pred(0.5, label=y) for y in labels]  # always right, less confident
        w = search_trust_weights(rnn, cnn, labels)
        acc = np.mean([decision_fuse(w, r, c).label == y for r, c, y in zip(rnn, cnn, labels)])
        assert acc == 1.0
        assert w.w_c * 0.5 > w.w_r * 0.9

    def test_identical_classifiers_tie_break_to_lowest(self, rng):
        labels = list(rng.integers(0, 4, size=20))
        preds = [_pred(0.8, label=y) for y in labels]
        w = search_trust_weights(preds, preds, labels)
        assert w.w_r == 1.0
        assert w.w_c == pytest.approx(0.1)

    def test_never_worse_than_equal_weights(self, rng):
        for trial in range(20):
            labels = list(rng.integers(0, 3, size=30))
            rnn, cnn = [], []
            for y in labels:
                r_ok = rng.uniform() < 0.6
                c_ok = rng.uniform() < 0.6
                rnn.append(_pred(float(rng.uniform(0.4, 1.0)), label=y if r_ok else (y + 1) % 3, k=3))
                cnn.append(_pred(float(rng.uniform(0.4, 1.0)), label=y if c_ok else (y + 2) % 3, k=3))
            w = search_trust_weights(rnn, cnn, labels)
            acc_at = lambda weights: np.mean(
                [decision_fuse(weights, r, c).label == y for r, c, y in zip(rnn, cnn, labels)]
            )
            assert acc_at(w) >= acc_at(TrustWeights(1.0, 1.0))

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(rows=st.lists(
        st.tuples(st.integers(0, 2), _CONFIDENCES, st.booleans(), _CONFIDENCES, st.booleans()),
        min_size=1, max_size=25,
    ))
    def test_picks_the_lowest_of_the_best_candidates(self, rows):
        labels = [y for y, *_ in rows]
        rnn = [_pred(conf, label=y if ok else (y + 1) % 3, k=3) for y, conf, ok, _, _ in rows]
        cnn = [_pred(conf, label=y if ok else (y + 2) % 3, k=3) for y, _, _, conf, ok in rows]

        def hits_at(w_c):
            weights = TrustWeights(1.0, w_c)
            return sum(decision_fuse(weights, r, c).label == y for r, c, y in zip(rnn, cnn, labels))

        w = search_trust_weights(rnn, cnn, labels)
        # the documented candidates: 100 log-spaced values in [0.1, 10] and 1.0
        candidates = [float(v) for v in np.unique(np.append(np.logspace(-1.0, 1.0, 100), 1.0))]
        hits = [hits_at(wc) for wc in candidates]
        assert w.w_r == 1.0
        assert w.w_c == candidates[hits.index(max(hits))]
        assert hits_at(w.w_c) >= hits_at(1.0)

    def test_empty_validation_rejected(self):
        with pytest.raises(DataError):
            search_trust_weights([], [], [])


class TestFeatureFuse:
    def test_desk_scale_dims_and_unit_norm(self, rng):
        fused = feature_fuse(rng.normal(size=(5, 24)), rng.normal(size=(5, 64)))
        assert fused.shape == (5, 88)
        assert np.abs(np.sqrt((fused**2).sum(axis=1)) - 1.0).max() <= 1e-12

    def test_zero_cnn_rows_reduce_to_normalized_rnn_part(self, rng):
        rnn = rng.normal(size=(3, 4))
        fused = feature_fuse(rnn, np.zeros((3, 6)))
        norms = np.sqrt((rnn**2).sum(axis=1, keepdims=True))
        assert np.allclose(fused[:, :4], rnn / norms, atol=1e-12)
        assert not fused[:, 4:].any()

    def test_full_scale_dims(self):
        fused = feature_fuse(np.ones((2, 600)), np.ones((2, 4096)))
        assert fused.shape == (2, 4696)

    def test_rnn_columns_come_first(self):
        fused = feature_fuse(np.full((1, 2), 3.0), np.zeros((1, 2)))
        assert fused[0, 0] > 0 and fused[0, 2] == 0.0

    def test_row_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            feature_fuse(rng.normal(size=(3, 4)), rng.normal(size=(2, 4)))
