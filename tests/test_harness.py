import dataclasses
import importlib.util
import json
import os
import re
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from twostream.errors import ConfigError, ContractError, DataError, DivergenceError
from twostream.tensor import Rng, softmax
from twostream.recurrent import SequenceBatch
from twostream.models import ModelSpec, build_model
from twostream import conv3d, harness, parallel
from twostream.conv3d import clip_split
from twostream.data import (
    SkeletonSequence,
    SplitSpec,
    SynthConfig,
    generate_synthetic,
    make_splits,
    pad_sequences,
)
from twostream.harness import (
    RunResult,
    TrainConfig,
    _Rows,
    _chunked,
    _stream_rows,
    check_gradients,
    emit_confusion,
    evaluate,
    extract_features,
    gradcheck_all,
    infer_dataset,
    predict_dataset,
    run_fusion,
    run_ladder,
    steps_to_threshold,
    train,
    train_variant,
)
from twostream.config import default_config
from twostream.parallel import ordered_map


TINY_SYNTH = SynthConfig(
    n_classes=3,
    samples_per_class=18,
    t_min=8,
    t_max=12,
    joints=3,
    video_shape=(2, 8, 6, 6),
    n_subjects=6,
    n_views=3,
    shared_skeleton_pairs=((0, 1),),
    shared_video_pairs=((1, 2),),
    xor_pair=None,
)


@pytest.fixture(scope="module")
def tiny():
    dataset = generate_synthetic(TINY_SYNTH, Rng(4))
    splits = make_splits(dataset, SplitSpec("cross_subject"), Rng(4).derive(7))
    return dataset, splits


def _tiny_model_spec(name, dataset):
    return ModelSpec(
        name=name,
        input_dim=dataset[0].skeleton.feature_width,
        n_classes=dataset.n_classes,
        hidden_dim=6,
        video_shape=(2, 8, 6, 6),
    )


class TestGradcheckAll:
    def test_fresh_build_passes_everything(self):
        report = gradcheck_all()
        assert report.passed, report.format()
        assert len(report.entries) >= 10
        names = {e.name for e in report.entries}
        for expected in (
            "rnn_tanh", "lstm", "gru", "bidirectional_gru", "stacked_gru",
            "batchnorm", "dropout", "dense_relu", "softmax_xent",
            "conv3d", "maxpool3d", "svm_hinge",
        ):
            assert expected in names

    def test_report_format_has_one_line_per_layer(self):
        report = gradcheck_all()
        lines = report.format().splitlines()
        assert len(lines) == len(report.entries) + 1
        assert lines[-1].startswith("PASS")

    def test_a_wrong_svm_subgradient_fails(self, monkeypatch):
        def undivided(w, b, x, y, lam):  # the hinge sum not divided by n
            viol = y * (x @ w + b) < 1.0
            return lam * w - y[viol] @ x[viol], -float(y[viol].sum())

        monkeypatch.setattr(harness, "svm_subgradient", undivided)
        report = gradcheck_all()
        assert [e.name for e in report.entries if not e.passed] == ["svm_hinge"]
        assert not report.passed

    def test_corrupted_backward_is_reported(self, rng):
        x = rng.normal(size=(3, 3))
        r = rng.normal(size=(3, 3))

        def loss():
            return float((x * x * r).sum())

        good = 2.0 * x * r
        entry = check_gradients("corrupted", loss, [x], [good * 1.5])
        assert not entry.passed
        assert entry.max_rel_error > 1e-4
        entry_ok = check_gradients("intact", loss, [x], [good])
        assert entry_ok.passed


class TestTrainLoop:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_size", 1),
            ("batch_size", 0),
            ("eval_every", 0),
            ("optimizer", "adam"),
            ("epochs", 0),
            ("epochs", -1),
            ("learning_rate", 0.0),
            ("learning_rate", float("nan")),
            ("learning_rate", float("inf")),
            ("decay", 1.0),
            ("decay", -0.1),
            ("decay", float("nan")),
        ],
    )
    def test_bad_config_rejected_naming_the_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TrainConfig(**{field: value})

    def test_untrained_model_is_roughly_chance(self, tiny):
        dataset, splits = tiny
        model = build_model(_tiny_model_spec("LSTM1", dataset), Rng(0))
        result = evaluate(model, dataset, splits.test)
        assert 0.0 <= result.test_accuracy <= 0.7  # untrained, K=3

    def test_training_is_bit_deterministic(self, tiny):
        dataset, splits = tiny
        outs = []
        for _ in range(2):
            model = build_model(_tiny_model_spec("GRU1-BN-DP", dataset), Rng(3))
            cfg = TrainConfig(epochs=2, batch_size=8, seed=11)
            result = train(model, dataset, splits, cfg)
            outs.append(result)
        assert outs[0].epoch_losses == outs[1].epoch_losses
        assert outs[0].val_accuracies == outs[1].val_accuracies
        assert outs[0].test_accuracy == outs[1].test_accuracy
        assert np.array_equal(outs[0].confusion, outs[1].confusion)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_aborts_with_diagnostic(self, tiny):
        dataset, splits = tiny
        model = build_model(_tiny_model_spec("RNN1", dataset), Rng(0))
        model.out.W[...] = np.inf
        cfg = TrainConfig(epochs=1, batch_size=8, seed=0)
        with pytest.raises(DivergenceError, match="epoch 0"):
            train(model, dataset, splits, cfg)

    def test_confusion_row_sums_match_class_counts(self, tiny):
        dataset, splits = tiny
        model = build_model(_tiny_model_spec("LSTM1", dataset), Rng(1))
        result = train(model, dataset, splits, TrainConfig(epochs=1, batch_size=8, seed=1))
        labels = dataset.labels(splits.test)
        counts = [int((labels == k).sum()) for k in range(dataset.n_classes)]
        assert result.confusion.sum(axis=1).tolist() == counts
        assert result.test_accuracy == np.trace(result.confusion) / result.confusion.sum()

    def test_video_stream_trains_and_evaluates(self, tiny):
        dataset, splits = tiny
        model = build_model(_tiny_model_spec("C3D-DESK", dataset), Rng(2))
        cfg = TrainConfig(epochs=1, batch_size=8, optimizer="sgd_halving", learning_rate=0.01, seed=2)
        result = train(model, dataset, splits, cfg)
        assert len(result.epoch_losses) == 1
        assert result.confusion.sum() == len(splits.test)

    @pytest.mark.parametrize("name, optimizer", [("GRU1-BN-DP", "rmsprop"), ("C3D-DESK", "sgd_halving")])
    def test_last_validation_accuracy_is_evaluate_on_the_val_split(self, tiny, name, optimizer):
        dataset, splits = tiny
        model = build_model(_tiny_model_spec(name, dataset), Rng(4))
        cfg = TrainConfig(epochs=2, batch_size=8, optimizer=optimizer, learning_rate=0.01, eval_every=1, seed=4)
        result = train(model, dataset, splits, cfg)
        assert len(result.val_accuracies) == 2
        assert result.val_accuracies[-1] == evaluate(model, dataset, splits.val).test_accuracy

    def test_steps_to_threshold_reads_the_curve(self):
        result = RunResult(model="x", seed=0, val_accuracies=[0.2, 0.5, 0.7], eval_every=2,
                           steps_per_epoch=5)
        assert steps_to_threshold(result, 0.6) == 3 * 2 * 5
        assert steps_to_threshold(result, 0.9) is None

    @pytest.mark.parametrize("optimizer", ["rmsprop", "sgd_halving"])
    @pytest.mark.parametrize("batch_size, steps", [(6, 3), (8, 3), (17, 1)], ids=["even", "remainder_2", "remainder_1"])
    def test_steps_per_epoch_counts_the_optimizer_steps_taken(self, tiny, monkeypatch, optimizer, batch_size, steps):
        dataset, splits = tiny
        assert len(splits.train) == 18  # 18 = 3*6 = 2*8 + 2 = 17 + 1: a one-row remainder is skipped
        taken, at_epoch_end = [], []
        step_fn = getattr(harness, f"{optimizer}_step")
        monkeypatch.setattr(harness, f"{optimizer}_step", lambda *a: taken.append(1) or step_fn(*a))
        evaluate_fn = harness.evaluate
        monkeypatch.setattr(harness, "evaluate", lambda *a: at_epoch_end.append(len(taken)) or evaluate_fn(*a))
        model = build_model(_tiny_model_spec("RNN1", dataset), Rng(5))
        cfg = TrainConfig(epochs=2, batch_size=batch_size, optimizer=optimizer, eval_every=1, seed=5)
        result = train(model, dataset, splits, cfg)
        assert at_epoch_end == [steps, 2 * steps, 2 * steps]  # two validations, then the test pass
        assert result.steps_per_epoch == steps

    def test_desk_run_beats_chance_by_thirty_points(self):
        # frozen fixture: 30 epochs at seed 42 on the default synthetic task
        # first verified at 0.821 test accuracy; the asserted floor is 1/K + 0.30
        from twostream.data import SynthConfig, generate_synthetic
        from twostream.config import default_config

        dataset = generate_synthetic(SynthConfig(), Rng(0))
        splits = make_splits(dataset, SplitSpec("cross_subject"), Rng(0).derive(7))
        cfg = default_config()
        cfg["epochs"] = 30
        _, result = train_variant("BI-GRU2-BN-DP-H", dataset, splits, cfg, seed=42)
        assert result.test_accuracy >= 1.0 / 6.0 + 0.30


class TestEvaluateAndExtract:
    def test_perfect_and_constant_classifier_confusions(self):
        confusion_perfect = np.diag([5, 7, 9])
        assert np.trace(confusion_perfect) == confusion_perfect.sum()
        constant = np.zeros((3, 3), dtype=int)
        constant[:, 1] = [5, 7, 9]
        assert (constant.sum(axis=0) > 0).sum() == 1

    def test_feature_rows_align_with_samples(self, tiny):
        dataset, splits = tiny
        model = build_model(_tiny_model_spec("BI-GRU2-BN-DP-H", dataset), Rng(5))
        feats = extract_features(model, dataset, splits.val, "rnn_fc")
        assert feats.shape == (len(splits.val), model.hidden.W.shape[0])

    def test_video_features_are_clip_averaged_and_order_invariant(self, tiny):
        dataset, splits = tiny
        model = build_model(_tiny_model_spec("C3D-DESK", dataset), Rng(6))
        feats = extract_features(model, dataset, splits.val[:3], "cnn_fc6")
        assert feats.shape == (3, 64)
        probs = softmax(model.forward(Rng(1).uniform(size=(4, 2, 8, 6, 6)))[0])
        from twostream.conv3d import clip_average
        a = clip_average(probs)
        b = clip_average(probs[::-1])
        assert np.allclose(a.probs, b.probs, atol=1e-15)

    @pytest.mark.parametrize("name, tap", [("BI-GRU2-BN-DP-H", "rnn_fc"), ("C3D-DESK", "cnn_fc6")])
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_inference_raises_divergence_naming_the_model(self, tiny, name, tap):
        dataset, splits = tiny
        model = build_model(_tiny_model_spec(name, dataset), Rng(8))
        for _, a in model.param_items():
            a[...] = np.nan
        with pytest.raises(DivergenceError, match=f"{name}: non-finite inference output in rows 0"):
            predict_dataset(model, dataset, splits.val)
        with pytest.raises(DivergenceError, match=f"{name}: non-finite inference output in rows 0"):
            extract_features(model, dataset, splits.val, tap)

    def test_tap_of_a_variant_without_hidden_layer_rejected(self, tiny, workers, monkeypatch):
        dataset, splits = tiny
        workers(1)  # every forward runs in this process, where the spy sees it
        model = build_model(_tiny_model_spec("LSTM1", dataset), Rng(6))
        cnn_model = build_model(_tiny_model_spec("C3D-DESK", dataset), Rng(6))
        for m in (model, cnn_model):
            monkeypatch.setattr(m, "forward", _forward_spy(m))
        with pytest.raises(ContractError, match="LSTM1 has no hidden layer"):
            extract_features(model, dataset, splits.val, "rnn_fc")
        with pytest.raises(ConfigError, match="fusion's rnn_model LSTM1 has no hidden layer"):
            run_fusion(model, cnn_model, dataset, splits, svm_c=8.0)
        assert model.forward.rows == [] and cnn_model.forward.rows == []

    @pytest.mark.parametrize(
        "rnn_name, cnn_name, message",
        [
            ("C3D-DESK", "C3D-DESK", "fusion's rnn_model must be a skeleton-stream model, got C3D-DESK"),
            ("C3D-DESK", "BI-GRU2-BN-DP-H", "fusion's rnn_model must be a skeleton-stream model, got C3D-DESK"),
            ("BI-GRU2-BN-DP-H", "BI-GRU1-BN-DP", "fusion's cnn_model must be a video-stream model, got BI-GRU1-BN-DP"),
        ],
        ids=["two_video_models", "swapped", "two_skeleton_models"],
    )
    def test_fusion_of_the_wrong_streams_names_the_side_and_model(self, tiny, rnn_name, cnn_name, message):
        dataset, splits = tiny
        rnn_model = build_model(_tiny_model_spec(rnn_name, dataset), Rng(6))
        cnn_model = build_model(_tiny_model_spec(cnn_name, dataset), Rng(6))
        with pytest.raises(ConfigError, match=re.escape(message)):
            run_fusion(rnn_model, cnn_model, dataset, splits, svm_c=8.0)

    @pytest.mark.parametrize("name, tap", [("BI-GRU2-BN-DP-H", "rnn_fc"), ("C3D-DESK", "cnn_fc6")])
    @pytest.mark.parametrize("indices", [[], np.array([], dtype=int)], ids=["list", "array"])
    def test_inference_on_no_samples_raises_data_error(self, tiny, name, tap, indices):
        dataset, _ = tiny
        model = build_model(_tiny_model_spec(name, dataset), Rng(6))
        message = f"{name}: inference needs at least one sample"
        for infer in (infer_dataset, predict_dataset, evaluate):
            with pytest.raises(DataError, match=re.escape(message)):
                infer(model, dataset, indices)
        with pytest.raises(DataError, match=re.escape(message)):
            extract_features(model, dataset, indices, tap)

    @pytest.mark.parametrize("name", ["RNN1", "C3D-DESK"])
    @pytest.mark.parametrize("init_seed", [0, 1])
    def test_model_for_another_class_count_raises_data_error(self, tiny, name, init_seed):
        dataset, splits = tiny
        model = build_model(dataclasses.replace(_tiny_model_spec(name, dataset), n_classes=6), Rng(init_seed))
        message = f"{name} is built for 6 classes, the dataset has 3"
        for infer in (infer_dataset, predict_dataset, evaluate):
            with pytest.raises(DataError, match=re.escape(message)):
                infer(model, dataset, splits.test)
        with pytest.raises(DataError, match=re.escape(message)):
            train(model, dataset, splits, TrainConfig(epochs=1, batch_size=8))

    def test_wrong_tap_rejected(self, tiny):
        dataset, splits = tiny
        model = build_model(_tiny_model_spec("C3D-DESK", dataset), Rng(6))
        with pytest.raises(Exception, match="skeleton-stream"):
            extract_features(model, dataset, splits.val, "rnn_fc")

    def test_emit_confusion_layout(self, tmp_path):
        confusion = np.array([[3, 1], [0, 4]])
        path = tmp_path / "c.csv"
        emit_confusion(confusion, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "0,1"
        assert lines[1] == "3,1"
        assert lines[2] == "0,4"


class TestFusionRuns:
    def test_fusion_pipelines_produce_verdicts(self, tiny):
        dataset, splits = tiny
        rnn_model, _ = train_variant(
            "BI-GRU2-BN-DP-H", dataset, splits,
            {**default_config(), "epochs": 2, "batch_size": 8, "hidden_dim": 6,
             "video_shape": (2, 8, 6, 6)}, seed=0,
        )
        cnn_model, _ = train_variant(
            "C3D-DESK", dataset, splits,
            {**default_config(), "cnn_epochs": 1, "cnn_batch_size": 8,
             "video_shape": (2, 8, 6, 6), "hidden_dim": 6}, seed=0,
        )
        rows = run_fusion(rnn_model, cnn_model, dataset, splits, svm_c=8.0)
        assert set(rows) == {"DECISION-FUSION", "FEATURE-FUSION"}
        dec = rows["DECISION-FUSION"]
        assert 0.0 <= dec["test_accuracy"] <= 1.0
        assert dec["w_r"] == 1.0 and 0.1 <= dec["w_c"] <= 10.0
        feat = rows["FEATURE-FUSION"]
        assert feat["svm_c"] == 8.0
        assert 0.0 <= feat["test_accuracy"] <= 1.0
        assert np.asarray(feat["confusion"]).sum() == len(splits.test)

    @pytest.mark.parametrize("name, tap", [("BI-GRU2-BN-DP-H", "rnn_fc"), ("C3D-DESK", "cnn_fc6")])
    def test_each_view_does_only_its_own_reduction(self, tiny, monkeypatch, name, tap):
        dataset, splits = tiny
        model = build_model(_tiny_model_spec(name, dataset), Rng(4))
        preds, taps = infer_dataset(model, dataset, splits.val)
        calls = []

        def spy(reduction):
            def wrapped(*args):
                calls.append(reduction.__name__)
                return reduction(*args)

            return wrapped

        for reduction in (harness._sample_predictions, harness._sample_taps):
            monkeypatch.setattr(harness, reduction.__name__, spy(reduction))
        feats = extract_features(model, dataset, splits.val, tap)
        assert calls == ["_sample_taps"]
        assert np.array_equal(feats, taps)
        calls.clear()
        only = predict_dataset(model, dataset, splits.val)
        assert calls == ["_sample_predictions"]
        assert np.array_equal(np.stack([p.probs for p in only]), np.stack([p.probs for p in preds]))
        assert [p.label for p in only] == [p.label for p in preds]

    def test_one_inference_pass_per_stream_and_split(self, tiny, workers, monkeypatch):
        dataset, splits = tiny
        workers(1)  # every forward runs in this process, where the spy sees it
        rnn_model, cnn_model = (
            build_model(_tiny_model_spec(name, dataset), Rng(1)) for name in ("BI-GRU2-BN-DP-H", "C3D-DESK")
        )
        for model in (rnn_model, cnn_model):
            monkeypatch.setattr(model, "forward", _forward_spy(model))
        run_fusion(rnn_model, cnn_model, dataset, splits, svm_c=8.0)
        splits_used = (splits.val, splits.test, splits.train)
        for model in (rnn_model, cnn_model):
            assert set(model.forward.modes) == {"inference"}
            chunk = harness._INFERENCE_CHUNK[model.stream]
            one_pass = [len(_stream_rows(model, dataset, idx)[0]) for idx in splits_used]
            # val, test and train once each, every forward one chunk built on its own
            assert model.forward.rows == [min(chunk, n - s) for n in one_pass for s in range(0, n, chunk)]


def _forward_spy(model):
    """model.forward that records each call's row count and mode."""
    real = model.forward

    def spy(rows, mode="inference", rng=None):
        spy.rows.append(len(rows))
        spy.modes.append(mode)
        return real(rows, mode=mode, rng=rng)

    spy.rows, spy.modes = [], []
    return spy


class TestLadderDeterminism:
    def test_two_identical_ladder_runs_write_identical_json(self, tiny, tmp_path):
        dataset, _ = tiny
        cfg = default_config()
        cfg.update(
            epochs=2, batch_size=8, hidden_dim=6, video_shape=(2, 8, 6, 6),
            ladder_models=["RNN1", "LSTM1-BN"], seed=9,
        )
        run_ladder(dataset, cfg, out_dir=tmp_path / "a")
        run_ladder(dataset, cfg, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "ladder_results.json").read_bytes()
        b = (tmp_path / "b" / "ladder_results.json").read_bytes()
        assert a == b
        parsed = json.loads(a)
        assert set(parsed) == {"RNN1", "LSTM1-BN"}


@pytest.fixture(scope="module")
def wide():
    """216 one-clip samples: every inference pass over all of them runs at
    least four chunks, and a C3D pass at two workers splits each chunk's
    clips through one clip helper."""
    return generate_synthetic(dataclasses.replace(TINY_SYNTH, samples_per_class=72), Rng(11))


def _stream_features(model, dataset, indices):
    tap = "rnn_fc" if model.stream == "skeleton" else "cnn_fc6"
    return extract_features(model, dataset, indices, tap)


class TestWorkerCountKeepsResults:
    """One process and two give the same bytes."""

    @pytest.mark.parametrize("name, tap", [("BI-GRU2-BN-DP-H", "rnn_fc"), ("C3D-DESK", "cnn_fc6")])
    def test_inference_outputs_identical(self, wide, workers, name, tap):
        model = build_model(_tiny_model_spec(name, wide), Rng(3))
        indices = list(range(len(wide)))
        outputs = []
        for n in (1, 2):
            forks = workers(n)
            preds = predict_dataset(model, wide, indices)
            feats = extract_features(model, wide, indices, tap)
            outputs.append((np.stack([p.probs for p in preds]), [p.label for p in preds], feats))
        # at 2 workers a C3D pass forks one clip helper, a skeleton pass nothing
        assert len(forks) == (2 if model.stream == "video" else 0)
        (probs_1, labels_1, feats_1), (probs_2, labels_2, feats_2) = outputs
        assert np.array_equal(probs_1, probs_2)
        assert labels_1 == labels_2
        assert np.array_equal(feats_1, feats_2)

    @pytest.mark.parametrize(
        "name, infer",
        [
            pytest.param("BI-GRU2-BN-DP-H", predict_dataset, id="BI-GRU2-BN-DP-H"),
            pytest.param("C3D-DESK", predict_dataset, id="C3D-DESK"),
            pytest.param("BI-GRU2-BN-DP-H", _stream_features, id="BI-GRU2-BN-DP-H-extract_features"),
            pytest.param("C3D-DESK", _stream_features, id="C3D-DESK-extract_features"),
        ],
    )
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_nan_weight_raises_the_same_divergence_text(self, wide, workers, name, infer):
        model = build_model(_tiny_model_spec(name, wide), Rng(3))
        model.param_items()[0][1].flat[0] = np.nan
        messages = []
        for n in (1, 2):
            workers(n)
            with pytest.raises(DivergenceError) as info:
                infer(model, wide, list(range(len(wide))))
            messages.append(str(info.value))
        chunk = 64 if model.stream == "skeleton" else 32
        assert messages[0] == messages[1] == f"{name}: non-finite inference output in rows 0..{chunk - 1}"

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_first_non_finite_chunk_in_row_order_is_named(self, workers):
        # ten one-step sequences, sequence k all k: row k holds k
        seqs = [SkeletonSequence(np.full((1, 1, 3), float(k)), 0, 0, 0) for k in range(10)]
        rows = _Rows(seqs, [(k, 0) for k in range(10)])

        def poisoned_from_row_2(batch, mode="inference", rng=None):
            assert batch.data.shape == (2, 1, 3)  # one chunk, built for this call
            values = batch.data[:, 0, :1]
            return np.where(values >= 2.0, np.inf, values), None, None

        model = SimpleNamespace(spec=SimpleNamespace(name="M"), stream="skeleton", forward=poisoned_from_row_2)
        for n in (1, 2):
            forks = workers(n)
            with pytest.raises(DivergenceError, match=r"^M: non-finite inference output in rows 2\.\.3$"):
                _chunked(model, rows, 2)
        assert forks == []  # skeleton chunks run in the calling process

    def test_ladder_results_bytes_identical(self, tiny, workers, tmp_path):
        dataset, _ = tiny
        cfg = default_config()
        cfg.update(
            epochs=2, batch_size=8, cnn_epochs=1, cnn_batch_size=8, hidden_dim=6,
            video_shape=(2, 8, 6, 6), seed=9,
            ladder_models=["RNN1", "LSTM1-BN", "BI-GRU2-BN-DP-H", "C3D-DESK"],
        )
        for n in (1, 2):
            forks = workers(n)
            run_ladder(dataset, cfg, out_dir=tmp_path / str(n))
        assert forks  # the 4 variants trained on 2 workers
        a = (tmp_path / "1" / "ladder_results.json").read_bytes()
        b = (tmp_path / "2" / "ladder_results.json").read_bytes()
        assert a == b
        assert {"DECISION-FUSION", "FEATURE-FUSION"} <= set(json.loads(a))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_START = conv3d.ClipHelper.start


def _spy_on_start(monkeypatch):
    """Record (train, row count) of every `ClipHelper.start` call."""
    shares = []

    def start(self, indices, ids, train=True):
        shares.append((train, len(ids)))
        return _START(self, indices, ids, train)

    monkeypatch.setattr(conv3d.ClipHelper, "start", start)
    return shares


class TestClipHelper:
    """A video model runs each training batch's and each inference chunk's
    later clips in a forked helper where two processes fit, with the bits of
    the one-process run."""

    def _train(self, dataset, filters, batch_size, monkeypatch):
        spec = dataclasses.replace(_tiny_model_spec("C3D-DESK", dataset), cnn_filters=filters)
        model = build_model(spec, Rng(3))
        cfg = TrainConfig(epochs=2, batch_size=batch_size, optimizer="sgd_halving", learning_rate=0.05, seed=5)
        splits = make_splits(dataset, SplitSpec("cross_subject"), Rng(4).derive(7))
        shares = _spy_on_start(monkeypatch)
        result = train(model, dataset, splits, cfg)
        return result, model.param_items(), shares

    @pytest.mark.parametrize("filters", [(8, 16), (1, 2)], ids=["filters_8_16", "one_filter"])
    @pytest.mark.parametrize("batch_size", [32, 7, 2])
    def test_helper_run_is_bit_identical_to_one_process(self, wide, workers, monkeypatch, filters, batch_size):
        runs = []
        for n in (1, 2):
            forks = workers(n)
            runs.append(self._train(wide, filters, batch_size, monkeypatch))
        (res_1, params_1, shares_1), (res_2, params_2, shares_2) = runs
        assert shares_1 == []
        # at 2 the helper took part in training and in the validation and test chunks
        assert (True, batch_size) in shares_2 and (False, 32) in shares_2
        assert len(forks) == 1  # one helper for the whole train call
        assert res_1.epoch_losses == res_2.epoch_losses
        assert res_1.val_accuracies == res_2.val_accuracies
        assert res_1.test_accuracy == res_2.test_accuracy
        assert [n for n, _ in params_1] == [n for n, _ in params_2]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(params_1, params_2))
        _assert_no_child_left()

    def test_training_inside_a_map_share_runs_inline(self, tiny, workers, monkeypatch):
        dataset, _ = tiny
        forks = workers(2)

        def forks_during_train(_):
            before = len(forks)
            _, _, shares = self._train(dataset, (8, 16), 8, monkeypatch)
            return len(forks) - before, shares

        assert ordered_map(forks_during_train, range(4)) == [(0, [])] * 4
        assert len(forks) == 1  # the map's one worker
        _assert_no_child_left()

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_no_child_left_when_training_raises(self, tiny, workers):
        dataset, splits = tiny
        workers(2)
        model = build_model(_tiny_model_spec("C3D-DESK", dataset), Rng(3))
        model.param_items()[0][1].flat[0] = np.nan
        cfg = TrainConfig(epochs=1, batch_size=8, optimizer="sgd_halving", learning_rate=0.05)
        with pytest.raises(DivergenceError, match="non-finite loss at epoch 0 step 0"):
            train(model, dataset, splits, cfg)
        _assert_no_child_left()
        assert model.net.helper is None

    def test_train_forks_one_process(self, two_clip, workers, monkeypatch):
        # 5-clip chunks: every validation and test pass has several chunks
        monkeypatch.setitem(harness._INFERENCE_CHUNK, "video", 5)
        splits = make_splits(two_clip, SplitSpec("cross_subject"), Rng(4).derive(7))
        assert len(splits.val) * 2 > 2 * 5 and len(splits.test) * 2 > 2 * 5
        model = build_model(_two_clip_spec("C3D-DESK", two_clip), Rng(3))
        cfg = TrainConfig(epochs=2, batch_size=8, optimizer="sgd_halving", learning_rate=0.05, seed=5)
        forks = workers(2)
        shares = _spy_on_start(monkeypatch)
        train(model, two_clip, splits, cfg)
        assert len(forks) == 1
        assert (False, 5) in shares and (True, 8) in shares
        _assert_no_child_left()

    @pytest.mark.parametrize("mode", ["inference", "train"])
    def test_forward_not_started_runs_every_clip_here(self, tiny, workers, mode):
        dataset, splits = tiny
        model = build_model(_tiny_model_spec("C3D-DESK", dataset), Rng(3))
        x = harness._stream_rows(model, dataset, splits.val)[0][range(6)]
        grad_logits = Rng(2).normal(size=(6, dataset.n_classes))

        def step():
            logits, tap, cache = model.forward(x, mode=mode)
            grads = model.backward(cache, grad_logits) if mode == "train" else {}
            return [logits, tap, *grads.values()]

        alone, inference = step(), model.forward(x)[:2]
        forks = workers(2)
        with harness._clip_helper(model, dataset) as helper:
            assert helper is not None and not helper.started
            with_helper_open = step()
            assert not helper.started
            # the helper is still in step: a started forward splits the clips
            own = helper.start(splits.val, range(6), train=False)
            assert own == range(3) and helper.started
            split = model.forward(x[:3])[:2]
            assert not helper.started
        assert len(forks) == 1
        assert all(np.array_equal(a, b) for a, b in zip(alone, with_helper_open))
        assert all(np.array_equal(a, b) for a, b in zip(inference, split))
        _assert_no_child_left()

@pytest.fixture(scope="module")
def two_clip():
    """24-frame videos, which a 16-frame clip length cuts into two clips
    each, the second padded."""
    return generate_synthetic(dataclasses.replace(TINY_SYNTH, video_shape=(2, 24, 6, 6)), Rng(12))


def _two_clip_spec(name, dataset):
    return dataclasses.replace(_tiny_model_spec(name, dataset), video_shape=(2, 16, 6, 6))


class _PaddedUpFront(SequenceBatch):
    """A padded batch that `_Rows`' callers can index, each row picked with its own length."""

    def __getitem__(self, rows):
        return SequenceBatch(self.data[rows], np.asarray(self.lengths)[rows])


def _rows_stacked_up_front(model, dataset, indices):
    """Every row of the selected samples padded or stacked at once, with its
    owner: the split-sized input that `_Rows` builds a batch at a time.
    Sequences are padded to the dataset's longest, past any batch's own."""
    if model.stream == "skeleton":
        every = pad_sequences([s.skeleton for s in dataset.samples])
        rows = _PaddedUpFront(every.data[indices], np.asarray(every.lengths)[indices])
        return rows, np.arange(len(indices))
    clips = [clip_split(dataset[i].video.pixels, model.clip_len) for i in indices]
    owners = np.repeat(np.arange(len(indices)), [len(c) for c in clips])
    return np.stack([c for cs in clips for c in cs]), owners


class TestStreamedRows:
    """Rows built a batch or a chunk at a time give the bits of rows built
    for the whole split up front, and memory follows the chunk."""

    def test_video_rows_reference_two_clips_per_video(self, two_clip):
        model = build_model(_two_clip_spec("C3D-DESK", two_clip), Rng(3))
        rows, owners = _stream_rows(model, two_clip, [4, 0, 9])
        assert rows.refs == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]
        assert owners.tolist() == [0, 0, 1, 1, 2, 2]
        stacked, _ = _rows_stacked_up_front(model, two_clip, [4, 0, 9])
        assert np.array_equal(rows[1:4], stacked[1:4])
        assert np.array_equal(rows[np.array([5, 0, 3])], stacked[[5, 0, 3]])

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("name", ["BI-GRU2-BN-DP-H", "C3D-DESK"])
    def test_infer_dataset_matches_rows_stacked_up_front(self, two_clip, workers, monkeypatch, name, n_workers):
        # 5-row chunks: every other chunk boundary splits a video's two clips
        monkeypatch.setitem(harness._INFERENCE_CHUNK, "video", 5)
        monkeypatch.setitem(harness._INFERENCE_CHUNK, "skeleton", 5)
        model = build_model(_two_clip_spec(name, two_clip), Rng(3))
        indices = list(range(len(two_clip)))
        forks = workers(n_workers)
        preds, taps = infer_dataset(model, two_clip, indices)
        assert len(forks) == (1 if n_workers == 2 and model.stream == "video" else 0)  # one clip helper
        monkeypatch.setattr(harness, "_stream_rows", _rows_stacked_up_front)
        preds_up_front, taps_up_front = infer_dataset(model, two_clip, indices)
        assert np.array_equal(np.stack([p.probs for p in preds]), np.stack([p.probs for p in preds_up_front]))
        assert np.array_equal(taps, taps_up_front)

    @pytest.mark.parametrize("n_workers", [1, 2])
    @pytest.mark.parametrize("name", ["BI-GRU2-BN-DP-H", "C3D-DESK"])
    def test_train_matches_rows_stacked_up_front(self, two_clip, workers, monkeypatch, name, n_workers):
        monkeypatch.setitem(harness._INFERENCE_CHUNK, "video", 5)
        splits = make_splits(two_clip, SplitSpec("cross_subject"), Rng(4).derive(7))
        optimizer = "sgd_halving" if name == "C3D-DESK" else "rmsprop"
        cfg = TrainConfig(epochs=2, batch_size=7, optimizer=optimizer, learning_rate=0.01, seed=5)
        workers(n_workers)
        runs = []
        for stream_rows in (_stream_rows, _rows_stacked_up_front):
            monkeypatch.setattr(harness, "_stream_rows", stream_rows)
            model = build_model(_two_clip_spec(name, two_clip), Rng(3))
            result = train(model, two_clip, splits, cfg)
            runs.append((result.canonical_dict(), model.param_items()))
        (json_a, params_a), (json_b, params_b) = runs
        assert json_a == json_b
        assert [n for n, _ in params_a] == [n for n, _ in params_b]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(params_a, params_b))

    def test_inference_pass_peaks_near_one_chunk_not_the_split(self, workers):
        # 144 two-clip videos: 288 clips, 9 chunks of 32
        dataset = generate_synthetic(
            dataclasses.replace(TINY_SYNTH, samples_per_class=48, video_shape=(2, 24, 8, 8)), Rng(13)
        )
        model = build_model(
            dataclasses.replace(_tiny_model_spec("C3D-DESK", dataset), video_shape=(2, 16, 8, 8)), Rng(3)
        )
        workers(1)  # every chunk runs in this process, where tracemalloc sees it
        indices = list(range(len(dataset)))
        rows, _ = _stream_rows(model, dataset, indices)
        chunk = harness._INFERENCE_CHUNK["video"]
        assert len(rows) >= 8 * chunk
        clip_bytes = rows[0:1].nbytes

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_chunk = peak(lambda: model.forward(rows[0:chunk]))  # its input included
        whole_pass = peak(lambda: infer_dataset(model, dataset, indices))
        assert whole_pass <= one_chunk + 2 * chunk * clip_bytes
        assert whole_pass < len(rows) * clip_bytes / 2


class TestVideoInferenceOnTwoCores:
    """A standalone video pass splits each chunk's clips through one clip
    helper for the pass, with the bits of one process."""

    @pytest.fixture
    def two_clip_model(self, two_clip, monkeypatch):
        # 25 two-clip videos, 7-clip chunks: odd chunks and a one-clip last chunk
        monkeypatch.setitem(harness._INFERENCE_CHUNK, "video", 7)
        indices = list(range(25))
        assert len(_stream_rows(build_model(_two_clip_spec("C3D-DESK", two_clip), Rng(3)), two_clip, indices)[0]) % 7 == 1
        return build_model(_two_clip_spec("C3D-DESK", two_clip), Rng(3)), indices

    def test_infer_dataset_and_evaluate_identical_at_one_and_two_processes(
        self, two_clip, two_clip_model, workers, monkeypatch
    ):
        model, indices = two_clip_model
        outputs = []
        for n in (1, 2):
            forks = workers(n)
            shares = _spy_on_start(monkeypatch)
            preds, taps = infer_dataset(model, two_clip, indices)
            result = evaluate(model, two_clip, indices)
            outputs.append((np.stack([p.probs for p in preds]), taps, [p.label for p in preds], result.canonical_dict()))
        assert len(forks) == 2  # one helper per pass at 2, none at 1
        assert shares == [(False, 7)] * 7 + [(False, 1)] + [(False, 7)] * 7 + [(False, 1)]
        (probs_1, taps_1, labels_1, json_1), (probs_2, taps_2, labels_2, json_2) = outputs
        assert np.array_equal(probs_1, probs_2)
        assert np.array_equal(taps_1, taps_2)
        assert labels_1 == labels_2
        assert json_1 == json_2
        _assert_no_child_left()

    def test_next_chunk_goes_to_the_helper_before_this_one_is_forwarded(
        self, two_clip, two_clip_model, workers, monkeypatch
    ):
        model, indices = two_clip_model
        workers(2)
        open_at_pool, sent = [], []
        real_pooled, real_send = conv3d.ClipHelper.pooled, parallel.Helper.send

        def pooled(self):
            open_at_pool.append(self._open)
            return real_pooled(self)

        def send(self, request):
            sent.append(request[1][2] is not None)  # conv weights in this request
            return real_send(self, request)

        monkeypatch.setattr(conv3d.ClipHelper, "pooled", pooled)
        monkeypatch.setattr(parallel.Helper, "send", send)
        infer_dataset(model, two_clip, indices)
        # 7 chunks of 7 clips, then one of 1 that stays here: one chunk ahead until the last split one
        assert open_at_pool == [2] * 6 + [1]
        assert sent == [True] + [False] * 6  # the weights go once per pass

    @pytest.mark.parametrize(
        "infer",
        [
            lambda m, d, i: infer_dataset(m, d, i),
            lambda m, d, i: predict_dataset(m, d, i),
            lambda m, d, i: extract_features(m, d, i, "cnn_fc6"),
            lambda m, d, i: evaluate(m, d, i),
        ],
        ids=["infer_dataset", "predict_dataset", "extract_features", "evaluate"],
    )
    def test_each_standalone_pass_forks_one_helper(self, two_clip, two_clip_model, workers, infer):
        model, indices = two_clip_model
        forks = workers(2)
        infer(model, two_clip, indices)
        assert len(forks) == 1
        infer(model, two_clip, indices[:1])  # two clips: still split
        assert len(forks) == 2
        _assert_no_child_left()

    def test_one_clip_pass_forks_nothing(self, tiny, workers):
        dataset, splits = tiny
        model = build_model(_tiny_model_spec("C3D-DESK", dataset), Rng(3))
        forks = workers(2)
        predict_dataset(model, dataset, splits.val[:1])
        assert forks == []

    def test_pass_inside_a_map_share_forks_nothing(self, two_clip, two_clip_model, workers):
        model, indices = two_clip_model
        forks = workers(2)

        def forks_during_pass(_):
            before = len(forks)
            infer_dataset(model, two_clip, indices)
            return len(forks) - before

        assert ordered_map(forks_during_pass, range(4)) == [0] * 4
        assert len(forks) == 1  # the map's one worker
        _assert_no_child_left()

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_no_child_left_after_a_diverging_chunk(self, two_clip, two_clip_model, workers):
        model, indices = two_clip_model
        model.param_items()[0][1].flat[0] = np.nan
        forks = workers(2)
        with pytest.raises(DivergenceError, match=r"C3D-DESK: non-finite inference output in rows 0\.\.6$"):
            predict_dataset(model, two_clip, indices)
        assert len(forks) == 1
        _assert_no_child_left()
        assert model.net.helper is None


class TestBenchmarkHooks:
    """The benchmark's tracer wraps harness and model functions by name and
    keys its step timings on `forward(..., mode="train")`; a rename would
    silently zero its per-variant step metrics."""

    def test_tracer_targets_resolve_and_see_training_steps(self, tiny):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        module_spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(spans)
        dataset, splits = tiny
        cfg = {
            **default_config(), "epochs": 1, "batch_size": 8, "cnn_epochs": 1, "cnn_batch_size": 8,
            "hidden_dim": 6, "video_shape": (2, 8, 6, 6),
        }
        tracer = spans.Tracer({})
        undo, missing = spans.install(tracer)
        try:
            for name in ("GRU1-BN-DP", "C3D-DESK"):
                harness.train_variant(name, dataset, splits, cfg, seed=0)
        finally:
            spans.uninstall(undo)
        stale = {
            "recurrent.bidirectional", "recurrent.bidirectional_backward", "harness._batched_probs",
            "tensor.sigmoid",
        }
        assert set(missing) <= stale
        assert tracer.step_ms["GRU1-BN-DP"] and tracer.step_ms["C3D-DESK"]
        assert "harness.validate" in tracer.names
        # conv spans are named conv_f<filters> without the benchmark's layer names
        for pattern in (r"conv3d\.conv_f\d+\.fwd", r"conv3d\.conv_f\d+\.bwd", r"conv3d\.pool"):
            assert any(re.fullmatch(pattern, name) for name in tracer.names), pattern
