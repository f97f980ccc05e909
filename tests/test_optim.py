import numpy as np
import pytest

from twostream import (
    ConfigError,
    DimensionError,
    RmspropState,
    SgdHalvingState,
    rmsprop_step,
    sgd_halving_step,
)
from twostream.optim import HALVING_PATIENCE


class TestRmsprop:
    def test_zero_gradient_leaves_params_unchanged(self):
        state = RmspropState()
        params = {"w": np.array([1.0, -2.0, 3.0])}
        rmsprop_step(state, params, {"w": np.zeros(3)})
        assert np.array_equal(params["w"], [1.0, -2.0, 3.0])

    def test_constant_gradient_step_approaches_lr_times_sign(self):
        state = RmspropState(learning_rate=0.001, decay=0.9)
        params = {"w": np.array([0.0, 0.0])}
        g = np.array([0.5, -2.0])
        prev = params["w"].copy()
        for _ in range(500):
            prev = params["w"].copy()
            rmsprop_step(state, params, {"w": g})
        step = params["w"] - prev
        assert np.abs(step - (-0.001 * np.sign(g))).max() <= 0.001 * 0.01

    def test_defaults_are_the_documented_settings(self):
        state = RmspropState()
        assert state.learning_rate == 0.001
        assert state.decay == 0.9

    def test_accumulators_stay_nonnegative(self, rng):
        state = RmspropState(decay=0.5)
        params = {"w": rng.normal(size=8)}
        for _ in range(50):
            rmsprop_step(state, params, {"w": rng.normal(size=8)})
        assert np.all(state.acc["w"] >= 0.0)

    def test_deterministic_given_identical_inputs(self, rng):
        g = [rng.normal(size=4) for _ in range(10)]

        def run():
            state = RmspropState()
            params = {"w": np.zeros(4)}
            for gi in g:
                rmsprop_step(state, params, {"w": gi.copy()})
            return params["w"]

        assert np.array_equal(run(), run())

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            rmsprop_step(RmspropState(), {"w": np.zeros(3)}, {"w": np.zeros(4)})

    @pytest.mark.parametrize("value", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_learning_rate_rejected_naming_the_field(self, value):
        with pytest.raises(ConfigError, match="learning_rate"):
            RmspropState(learning_rate=value)

    @pytest.mark.parametrize("value", [-0.1, 1.0, 1.5, float("nan"), float("inf")])
    def test_decay_outside_unit_interval_rejected_naming_the_field(self, value):
        with pytest.raises(ConfigError, match="decay"):
            RmspropState(decay=value)

    def test_decay_zero_accepted(self):
        assert RmspropState(decay=0.0).decay == 0.0


class TestSgdHalving:
    @pytest.mark.parametrize("value", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_learning_rate_rejected_naming_the_field(self, value):
        with pytest.raises(ConfigError, match="learning_rate"):
            SgdHalvingState(learning_rate=value)

    def test_single_step_arithmetic(self):
        state = SgdHalvingState(learning_rate=0.1)
        params = {"p": np.array([1.0])}
        sgd_halving_step(state, params, {"p": np.array([1.0])})
        assert params["p"][0] == pytest.approx(0.9)

    def test_always_improving_keeps_lr(self):
        state = SgdHalvingState(learning_rate=0.25)
        params = {"p": np.zeros(1)}
        for _ in range(20):
            sgd_halving_step(state, params, {"p": np.zeros(1)}, improved=True)
        assert state.learning_rate == 0.25

    def test_never_improving_halves_every_patience_window(self):
        state = SgdHalvingState(learning_rate=0.8)
        params = {"p": np.zeros(1)}
        for _ in range(3 * HALVING_PATIENCE):  # three windows of failed evaluations
            sgd_halving_step(state, params, {"p": np.zeros(1)}, improved=False)
        assert state.learning_rate == pytest.approx(0.8 / 8.0)

    def test_no_signal_never_halves(self):
        state = SgdHalvingState(learning_rate=0.5)
        params = {"p": np.zeros(1)}
        for _ in range(10):
            sgd_halving_step(state, params, {"p": np.zeros(1)}, improved=None)
        assert state.learning_rate == 0.5
