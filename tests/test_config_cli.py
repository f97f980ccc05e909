import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twostream import (
    ConfigError,
    DataError,
    Dataset,
    ModelSpec,
    Rng,
    SplitSpec,
    SynthConfig,
    build_model,
    generate_synthetic,
    make_splits,
    read_tensor,
    save_model,
)
from twostream import cli, data, harness, parallel
from twostream.config import SCHEMA, default_config, load_config, parse_config
from twostream.cli import _load_run, _write_run, main


OUT_OF_RANGE_RULES = {
    "learning_rate": "> 0 and finite",
    "cnn_learning_rate": "> 0 and finite",
    "svm_c": "> 0 and finite",
    "keep_prob": "in (0, 1]",
    "cnn_filters": "one or more integers >= 1",
    "t_max": ">= t_min (30)",
    "skeleton_noise": ">= 0 and finite",
    "video_noise": ">= 0 and finite",
    "decay": "in [0, 1)",
    "video_shape": "CxTxHxW with every extent >= 1",
    "split_mode": "cross_subject or cross_view",
}


# A config over every kind of value parser, which the property below mutates.
MUTATED_CFG = b"""# desk run
seed = 3
n_classes = 3
samples_per_class = 12
t_min = 8
t_max = 12
video_shape = 2x8x6x6
cnn_filters = 4 6
learning_rate = 0.01
keep_prob = 0.75
shared_skeleton_pairs = 0-1
xor_pair = none
split_mode = cross_view
ladder_models = RNN1, C3D-DESK
"""

# (kind, position, argument): flip a byte by an xor mask, truncate, or
# inflate a digit run to a digit count
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 400), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 400), st.just(0)),
    st.tuples(st.just("digits"), st.integers(0, 400), st.sampled_from([2, 20, 400, 5000])),
)


@pytest.fixture(scope="module")
def mutated_cfg_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated") / "mutated.cfg"


class TestConfigParsing:
    def test_synthetic_data_defaults_are_synth_configs(self):
        # one table of defaults: every generator field is a key with its default
        defaults = {f.name: f.default for f in dataclasses.fields(SynthConfig)}
        assert {k: SCHEMA[k][1] for k in defaults if k in SCHEMA} == defaults

    def test_defaults_cover_every_key(self):
        cfg = default_config()
        assert cfg["svm_c"] == 8.0
        assert cfg["keep_prob"] == 0.75
        assert cfg["learning_rate"] == 0.001
        assert cfg["decay"] == 0.9

    def test_comments_blank_lines_and_overrides(self):
        cfg = parse_config(
            """
            # training
            seed = 5
            epochs = 3   # short run
            video_shape = 2x8x6x6

            ladder_models = RNN1, LSTM1
            """
        )
        assert cfg["seed"] == 5
        assert cfg["epochs"] == 3
        assert cfg["video_shape"] == (2, 8, 6, 6)
        assert cfg["ladder_models"] == ["RNN1", "LSTM1"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("learning_rat = 0.1")

    def test_bad_value_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("epochs = banana")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("batch_size", 1), ("cnn_batch_size", 1), ("epochs", 0), ("cnn_epochs", 0), ("eval_every", 0),
            ("hidden_dim", 0), ("cnn_fc_dim", 0), ("t_min", 0), ("n_classes", 1), ("t_max", 29),
            ("learning_rate", 0), ("cnn_learning_rate", 0), ("svm_c", 0), ("keep_prob", 0),
            ("learning_rate", -0.5), ("svm_c", "nan"), ("keep_prob", 1.5), ("cnn_filters", "8, 0"),
            ("cnn_filters", ""), ("samples_per_class", 0), ("joints", 0), ("n_subjects", 1),
            ("n_views", 0), ("skeleton_noise", -0.01), ("video_noise", -0.01), ("decay", 1.0),
            ("decay", -0.1), ("video_shape", "3x16x0x16"), ("seed", -1), ("split_mode", "bogus"),
            ("svm_c", "inf"), ("learning_rate", "inf"), ("cnn_learning_rate", "inf"),
            ("skeleton_noise", "inf"), ("video_noise", "inf"),
        ],
    )
    def test_out_of_range_value_rejected_with_line_and_key(self, key, value):
        # each of these used to train nothing, divide by zero, skip training
        # or fail deep inside a run
        rule = OUT_OF_RANGE_RULES.get(key, ">=")
        with pytest.raises(ConfigError, match=re.escape(f"line 2: bad value for '{key}': must be {rule}")):
            parse_config(f"seed = 1\n{key} = {value}\n")
        if isinstance(value, int):  # the boundary itself: one step inside is accepted
            assert parse_config(f"{key} = {value + 1}")[key] == value + 1

    def test_t_max_below_t_min_blames_the_later_line(self):
        with pytest.raises(ConfigError, match=re.escape("line 2: bad value for 't_max': must be >= t_min (40)")):
            parse_config("t_min = 40\nt_max = 39\n")
        with pytest.raises(ConfigError, match=re.escape("line 3: bad value for 't_min': must be <= t_max (39)")):
            parse_config("t_max = 39\n\nt_min = 40\n")
        with pytest.raises(ConfigError, match=re.escape("line 1: bad value for 't_min': must be <= t_max (60)")):
            parse_config("t_min = 61\n")
        assert parse_config("t_min = 40\nt_max = 40\n")["t_max"] == 40

    @pytest.mark.parametrize(
        "key, value, detail",
        [
            ("video_shape", "3x4x4", "expected CxTxHxW, got '3x4x4'"),
            ("shared_skeleton_pairs", "0-1, 2", "expected pairs like 0-1, got '2'"),
            ("xor_pair", "1-2-3", "expected pairs like 0-1, got '1-2-3'"),
            ("shared_video_pairs", "2-2", "a pair needs two different classes, got '2-2'"),
            ("ladder_models", "RNN1, GRU9000", "unknown ladder model 'GRU9000'"),
            ("ladder_models", "", "expected one or more ladder models"),
            ("ladder_models", " , ", "expected one or more ladder models"),
            ("ladder_models", "RNN1, LSTM1, RNN1", "ladder model 'RNN1' appears more than once"),
        ],
    )
    def test_malformed_value_rejected_with_line_and_key(self, key, value, detail):
        with pytest.raises(ConfigError, match=re.escape(f"line 2: bad value for '{key}': {detail}")):
            parse_config(f"seed = 1\n{key} = {value}\n")

    def test_class_pairs_checked_against_n_classes_blaming_the_later_line(self):
        with pytest.raises(
            ConfigError, match=re.escape("line 2: bad value for 'xor_pair': must be classes below n_classes (4), got (3, 4)")
        ):
            parse_config("n_classes = 4\nxor_pair = 3-4\n")
        with pytest.raises(
            ConfigError, match=re.escape("line 3: bad value for 'n_classes': must be > 3 for shared_video_pairs, got 3")
        ):
            parse_config("shared_video_pairs = 2-3\nxor_pair = none\nn_classes = 3\n")
        with pytest.raises(ConfigError, match=re.escape("line 1: bad value for 'shared_skeleton_pairs'")):
            parse_config("shared_skeleton_pairs = 0-6\n")
        cfg = parse_config("n_classes = 3\nshared_video_pairs = 1-2\nxor_pair = none\n")
        assert cfg["shared_video_pairs"] == ((1, 2),) and cfg["xor_pair"] is None

    def test_unknown_ladder_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown ladder model"):
            parse_config("ladder_models = RNN1, GRU9000")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\n")
        assert load_config(path)["seed"] == 9

    def test_repeated_key_rejected_naming_both_lines(self):
        with pytest.raises(ConfigError, match=re.escape("line 3: 'epochs' is already set on line 1")):
            parse_config("epochs = 3\n\nepochs = 3\n")

    def test_non_utf8_file_rejected_naming_file_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"seed = 9\n# caf\xe9\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:2: not UTF-8 text")):
            load_config(path)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(mutations=st.lists(_MUTATION, min_size=1, max_size=4))
    def test_mutated_config_text_raises_only_config_error(self, mutated_cfg_path, mutations):
        text = MUTATED_CFG
        for kind, at, arg in mutations:
            at = at % len(text) if text else 0
            if kind == "flip" and text:
                text = text[:at] + bytes([text[at] ^ arg]) + text[at + 1 :]
            elif kind == "truncate":
                text = text[:at]
            elif kind == "digits" and (run := re.compile(rb"[0-9]+").search(text, at)):
                # the first digit run from `at` on, repeated to at least `arg` digits
                digits = run.group() * -(-arg // len(run.group()))
                text = text[: run.start()] + digits + text[run.end() :]
        mutated_cfg_path.write_bytes(text)
        try:
            load_config(mutated_cfg_path)
        except ConfigError:
            pass


TINY_CFG = """
seed = 3
n_classes = 3
samples_per_class = 12
t_min = 8
t_max = 12
joints = 3
n_subjects = 4
n_views = 3
video_shape = 2x8x6x6
shared_skeleton_pairs = 0-1
shared_video_pairs = 1-2
xor_pair = none
hidden_dim = 6
epochs = 2
batch_size = 8
cnn_epochs = 1
cnn_batch_size = 8
ladder_models = RNN1, LSTM1-BN
"""


TOO_FEW_SUBJECTS = "split_mode = cross_subject needs n_subjects >= 4 to leave training, validation and test subjects"

# every SynthConfig-backed key away from its default
GEN_DATA_CFG = """
seed = 11
split_mode = cross_view
n_classes = 4
samples_per_class = 6
t_min = 5
t_max = 9
joints = 3
n_subjects = 3
n_views = 2
skeleton_noise = 0.07
video_noise = 0.02
video_shape = 2x4x5x6
shared_skeleton_pairs = 2-3
shared_video_pairs = 0-1
xor_pair = 0-1
"""


# Every key set away from its default.
ALL_KEYS_CFG = """
seed = 3
split_mode = cross_view
n_classes = 7
samples_per_class = 5
t_min = 4
t_max = 9
joints = 6
video_shape = 2x8x6x6
n_subjects = 3
n_views = 2
skeleton_noise = 0.125
video_noise = 0.3
xor_pair = 5-6
shared_skeleton_pairs = 0-1, 2-3
shared_video_pairs = 4-5
hidden_dim = 12
epochs = 7
batch_size = 4
learning_rate = 0.003
decay = 0.5
keep_prob = 1.0
eval_every = 2
cnn_epochs = 2
cnn_batch_size = 8
cnn_learning_rate = 0.01
cnn_filters = 4 6
cnn_fc_dim = 10
svm_c = 0.5
ladder_models = RNN1, C3D-DESK
"""


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def _assert_json_layout(path):
    """Sorted keys, a 2-space indent and exactly one trailing newline."""
    text = Path(path).read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def _untrained_run(run_dir, name, cfg, n_classes=3):
    """A run directory with an untrained model, as `twostream train` lays it out."""
    spec = ModelSpec(name=name, input_dim=9, n_classes=n_classes, hidden_dim=4, video_shape=(2, 8, 6, 6))
    _write_run(run_dir, spec, cfg, build_model(spec, Rng(0)), None)
    return str(run_dir)


@pytest.fixture(scope="module")
def cfg_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, cfg_file):
    path = tmp_path_factory.mktemp("data") / "ds"
    main(["gen-data", "--config", cfg_file, "--out", str(path)])
    return str(path)


class TestCli:
    def test_gen_data_writes_manifest_and_tensors(self, data_dir, capsys):
        dataset = Dataset.load(data_dir)
        assert len(dataset) == 36
        assert dataset.n_classes == 3

    def test_train_eval_extract_roundtrip(self, data_dir, cfg_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        main(["train", "--config", cfg_file, "--data", data_dir,
              "--model", "LSTM1-BN", "--out", str(run_dir)])
        out = capsys.readouterr().out
        assert "test accuracy" in out
        run = json.loads((run_dir / "run.json").read_text())
        assert run["model_spec"]["name"] == "LSTM1-BN"
        assert (run_dir / "model.ckpt").exists()
        assert (run_dir / "confusion.csv").read_text().splitlines()[0] == "0,1,2"
        _assert_json_layout(run_dir / "run.json")
        _assert_json_layout(run_dir / "timing.json")

        main(["eval", "--run", str(run_dir), "--data", data_dir, "--split", "val"])
        parsed = json.loads(capsys.readouterr().out)
        assert 0.0 <= parsed["test_accuracy"] <= 1.0

    def test_run_round_trips_every_model_spec_field(self, tmp_path):
        # every field differs from its default, so a hand copy that drops the
        # hidden width rebuilds a model whose checkpoint no longer fits
        spec = ModelSpec(name="BI-GRU2-BN-DP-H", input_dim=5, n_classes=3, hidden_dim=4,
                         keep_prob=0.5, video_shape=(2, 8, 6, 6), cnn_filters=(3, 4), cnn_fc_dim=9)
        assert [f.name for f in dataclasses.fields(ModelSpec)
                if getattr(spec, f.name) == f.default] == []
        model = build_model(spec, Rng(0))
        _write_run(tmp_path, spec, default_config(), model, None)
        loaded_model, loaded_spec, _ = _load_run(tmp_path)
        assert loaded_spec == spec
        assert loaded_model.hidden.W.shape == (8, 8)  # two directions of 4
        for (name, a), (_, b) in zip(model.param_items(), loaded_model.param_items()):
            assert np.array_equal(a, b), name

    def test_unknown_model_spec_key_names_file_and_key(self, tmp_path):
        spec = ModelSpec(name="RNN1", input_dim=5, n_classes=3, hidden_dim=4)
        _write_run(tmp_path, spec, default_config(), build_model(spec, Rng(0)), None)
        run_json = tmp_path / "run.json"
        run = json.loads(run_json.read_text())
        run["model_spec"]["hidden_units"] = 4
        run_json.write_text(json.dumps(run))
        with pytest.raises(DataError, match=re.escape(f"{run_json}: unknown model_spec key(s) ['hidden_units']")):
            _load_run(tmp_path)

    @pytest.mark.parametrize(
        "text", [ALL_KEYS_CFG, ALL_KEYS_CFG.replace("xor_pair = 5-6", "xor_pair = none")], ids=["every_key", "no_xor_pair"]
    )
    def test_run_config_round_trips_through_its_checks(self, tmp_path, text):
        cfg = parse_config(text)
        assert [k for k in SCHEMA if cfg[k] == SCHEMA[k][1]] == []  # every key is written and read back
        spec = ModelSpec(name="RNN1", input_dim=5, n_classes=3, hidden_dim=4)
        _write_run(tmp_path, spec, cfg, build_model(spec, Rng(0)), None)
        assert _load_run(tmp_path)[2] == cfg

    @pytest.mark.parametrize("key, value, rule", [
        ("svm_c", -1.0, "must be > 0 and finite, got -1.0"),
        ("cnn_filters", [8, 0], "must be one or more integers >= 1, got (8, 0)"),
        ("split_mode", "bogus", "must be cross_subject or cross_view, got bogus"),
        ("xor_pair", 5, "expected pairs like 0-1, got '5'"),
    ])
    def test_bad_run_config_value_names_file_and_key_before_loading(self, tmp_path, key, value, rule):
        spec = ModelSpec(name="RNN1", input_dim=5, n_classes=3, hidden_dim=4)
        _write_run(tmp_path, spec, default_config(), build_model(spec, Rng(0)), None)
        (tmp_path / "model.ckpt").unlink()  # the check must come before the model loads
        run_json = tmp_path / "run.json"
        run = json.loads(run_json.read_text())
        run["config"][key] = value
        run_json.write_text(json.dumps(run))
        with pytest.raises(ConfigError, match=re.escape(f"{run_json}: bad value for {key!r}: {rule}")):
            _load_run(tmp_path)

    def test_unknown_run_config_key_names_file_and_key(self, tmp_path):
        spec = ModelSpec(name="RNN1", input_dim=5, n_classes=3, hidden_dim=4)
        _write_run(tmp_path, spec, default_config(), build_model(spec, Rng(0)), None)
        run_json = tmp_path / "run.json"
        run = json.loads(run_json.read_text())
        run["config"]["svm_cost"] = 1.0
        run_json.write_text(json.dumps(run))
        with pytest.raises(ConfigError, match=re.escape(f"{run_json}: unknown key 'svm_cost'")):
            _load_run(tmp_path)

    def test_gen_data_equals_generate_synthetic(self, tmp_path, capsys):
        synth_keys = {f.name for f in dataclasses.fields(SynthConfig)} & SCHEMA.keys()
        cfg = parse_config(GEN_DATA_CFG)
        assert [k for k in synth_keys if cfg[k] == default_config()[k]] == []
        cfg_path = tmp_path / "gen.cfg"
        cfg_path.write_text(GEN_DATA_CFG)
        main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "cli")])
        expected = SynthConfig(
            n_classes=4, samples_per_class=6, t_min=5, t_max=9, joints=3, n_subjects=3,
            n_views=2, skeleton_noise=0.07, video_noise=0.02, video_shape=(2, 4, 5, 6),
            shared_skeleton_pairs=((2, 3),), shared_video_pairs=((0, 1),), xor_pair=(0, 1),
        )
        generate_synthetic(expected, Rng(11)).save(tmp_path / "direct")
        assert _dir_bytes(tmp_path / "cli") == _dir_bytes(tmp_path / "direct")

    @pytest.mark.parametrize("model_name", ["BI-GRU2-BN-DP-H", "C3D-DESK"])
    def test_train_checkpoint_equals_train_variant(self, data_dir, cfg_file, tmp_path, model_name, capsys):
        run_dir = tmp_path / "run"
        main(["train", "--config", cfg_file, "--data", data_dir, "--model", model_name, "--out", str(run_dir)])
        cfg = load_config(cfg_file)
        dataset = Dataset.load(data_dir)
        splits = make_splits(dataset, SplitSpec(cfg["split_mode"]), Rng(cfg["seed"]).derive(7))
        model, result = harness.train_variant(model_name, dataset, splits, cfg)
        save_model(model, tmp_path / "direct.ckpt")
        assert (run_dir / "model.ckpt").read_bytes() == (tmp_path / "direct.ckpt").read_bytes()
        assert json.loads((run_dir / "run.json").read_text())["result"] == result.canonical_dict()

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_fuse_checks_svm_c_when_parsing_arguments(self, value, tmp_path, capsys):
        # the runs do not exist: the value is rejected before anything loads
        missing = str(tmp_path / "missing")
        with pytest.raises(SystemExit) as exc:
            main(["fuse", "--run-rnn", missing, "--run-cnn", missing, "--data", missing, "--svm-c", value])
        assert exc.value.code == 2
        assert f"argument --svm-c: must be > 0 and finite, got {float(value)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-data", "ladder"])
    @pytest.mark.parametrize("n_classes", [2, 3, 4, 5])
    def test_too_few_classes_for_the_default_pairs_rejected_before_any_work(self, tmp_path, command, n_classes):
        cfg_path = tmp_path / "few.cfg"
        cfg_path.write_text(f"n_classes = {n_classes}\n")
        pair_key = "shared_video_pairs" if n_classes < 4 else "xor_pair"
        message = (
            rf"{pair_key}: .* needs classes below n_classes \({n_classes}\); "
            rf"the default {pair_key} assumes 6 classes, so set {pair_key} too"
        )
        with pytest.raises(ConfigError, match=message):
            main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gen-data", "ladder"])
    def test_fewer_samples_than_views_times_subjects_rejected_before_any_work(self, tmp_path, command):
        cfg_path = tmp_path / "sparse.cfg"
        cfg_path.write_text("samples_per_class = 8\nn_subjects = 4\n")
        message = re.escape("samples_per_class (8) must be at least n_views * n_subjects (3 * 4 = 12)")
        with pytest.raises(ConfigError, match=message):
            main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["gen-data", "ladder"])
    @pytest.mark.parametrize(
        "settings, message",
        [
            ("n_subjects = 2", f"{TOO_FEW_SUBJECTS}, got n_subjects = 2"),
            ("n_subjects = 3", f"{TOO_FEW_SUBJECTS}, got n_subjects = 3"),
            (
                "split_mode = cross_view\nn_views = 1",
                "split_mode = cross_view holds one view out, so it needs n_views >= 2, got n_views = 1",
            ),
        ],
    )
    def test_unsatisfiable_split_rejected_before_any_work(self, tmp_path, command, settings, message):
        cfg_path = tmp_path / "split.cfg"
        cfg_path.write_text(settings + "\n")
        with pytest.raises(ConfigError, match=re.escape(message)):
            main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode, fewest", [("cross_subject", 4), ("cross_view", 2)])
    def test_fewest_subjects_is_where_make_splits_starts_to_succeed(self, mode, fewest):
        assert data.fewest_subjects(mode) == fewest

        def split(n_subjects):
            synth = SynthConfig(
                n_classes=2, samples_per_class=2 * n_subjects, t_min=3, t_max=4, joints=2, video_shape=(1, 2, 2, 2),
                n_subjects=n_subjects, n_views=2, shared_skeleton_pairs=(), shared_video_pairs=(), xor_pair=None,
            )
            return make_splits(generate_synthetic(synth, Rng(0)), SplitSpec(mode), Rng(1))

        assert split(fewest).train
        if fewest > 2:  # n_subjects parses only from 2 up
            with pytest.raises(DataError, match="unsatisfiable split"):
                split(fewest - 1)

    def test_gradcheck_command_passes(self, capsys):
        main(["gradcheck"])
        out = capsys.readouterr().out
        assert out.strip().endswith("threshold 0.0001")
        assert "FAIL" not in out

    def test_ladder_command_writes_results(self, data_dir, cfg_file, tmp_path, capsys):
        out_dir = tmp_path / "ladder"
        main(["ladder", "--config", cfg_file, "--data", data_dir, "--out", str(out_dir)])
        results = json.loads((out_dir / "ladder_results.json").read_text())
        assert set(results) == {"RNN1", "LSTM1-BN"}
        _assert_json_layout(out_dir / "ladder_results.json")
        _assert_json_layout(out_dir / "timing.json")
        assert (out_dir / "confusion_RNN1.csv").exists()

    def test_fusion_commands_from_saved_runs(self, data_dir, cfg_file, tmp_path, capsys):
        rnn_dir, cnn_dir = tmp_path / "rnn", tmp_path / "cnn"
        main(["train", "--config", cfg_file, "--data", data_dir,
              "--model", "BI-GRU2-BN-DP-H", "--out", str(rnn_dir)])
        main(["train", "--config", cfg_file, "--data", data_dir,
              "--model", "C3D-DESK", "--out", str(cnn_dir)])
        capsys.readouterr()

        feats_path = tmp_path / "val_feats.tsr"
        main(["extract", "--run", str(rnn_dir), "--data", data_dir,
              "--tap", "rnn_fc", "--split", "val", "--out", str(feats_path)])
        capsys.readouterr()
        feats = read_tensor(feats_path)
        assert feats.ndim == 2 and feats.shape[1] == 12

        main(["fuse", "--run-rnn", str(rnn_dir), "--run-cnn", str(cnn_dir),
              "--data", data_dir, "--out", str(tmp_path / "fused.json")])
        rows = json.loads(capsys.readouterr().out)
        assert set(rows) == {"DECISION-FUSION", "FEATURE-FUSION"}
        assert rows["DECISION-FUSION"]["w_r"] == 1.0
        assert rows["FEATURE-FUSION"]["svm_c"] == 8.0
        assert json.loads((tmp_path / "fused.json").read_text()) == rows
        _assert_json_layout(tmp_path / "fused.json")

    @pytest.mark.parametrize("key, value", [("seed", 4), ("split_mode", "cross_view")])
    def test_fuse_rejects_runs_on_another_split(self, cfg_file, tmp_path, capsys, key, value):
        cfg = load_config(cfg_file)
        rnn_dir = _untrained_run(tmp_path / "rnn", "BI-GRU2-BN-DP-H", cfg)
        cnn_dir = _untrained_run(tmp_path / "cnn", "C3D-DESK", {**cfg, key: value})
        message = (f"{os.path.join(rnn_dir, 'run.json')} and {os.path.join(cnn_dir, 'run.json')} "
                   f"differ in {key!r}: {cfg[key]!r} vs {value!r}")
        argv = ["fuse", "--run-rnn", rnn_dir, "--run-cnn", cnn_dir, "--data", str(tmp_path / "missing")]
        with pytest.raises(ConfigError, match=re.escape(message)):
            main(argv)
        assert cli.console_main(argv) == 2
        assert capsys.readouterr().err == f"twostream: error: {message}\n"

    def test_fuse_rejects_a_video_run_as_the_recurrent_side(self, data_dir, cfg_file, tmp_path, capsys):
        cfg = load_config(cfg_file)
        cnn_dir = _untrained_run(tmp_path / "cnn", "C3D-DESK", cfg)
        argv = ["fuse", "--run-rnn", cnn_dir, "--run-cnn", cnn_dir, "--data", data_dir]
        assert cli.console_main(argv) == 2
        assert capsys.readouterr().err == (
            "twostream: error: fusion's rnn_model must be a skeleton-stream model, got C3D-DESK\n"
        )

    @pytest.mark.parametrize("name", ["RNN1", "C3D-DESK"])
    def test_eval_rejects_a_run_for_another_class_count(self, data_dir, cfg_file, tmp_path, capsys, name):
        run_dir = _untrained_run(tmp_path / "run", name, load_config(cfg_file), n_classes=6)
        assert cli.console_main(["eval", "--run", run_dir, "--data", data_dir]) == 2
        assert capsys.readouterr().err == f"twostream: error: {name} is built for 6 classes, the dataset has 3\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (b"epochs = 3\nepochs = 4\n", "line 2: 'epochs' is already set on line 1"),
            (b"seed = 3\n\xff = 1\n", "{path}:2: not UTF-8 text"),
        ],
        ids=["repeated_key", "not_utf8"],
    )
    def test_bad_config_text_exits_2_with_one_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.cfg"
        path.write_bytes(text)
        assert cli.console_main(["gen-data", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"twostream: error: {message.format(path=path)}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "run_json", [None, b'{"model_spec": {"name": ', b"\xff{}"], ids=["missing", "truncated", "not_utf8"]
    )
    @pytest.mark.parametrize("command", ["eval", "extract", "fuse"])
    def test_unreadable_run_json_exits_2_naming_the_file(self, tmp_path, capsys, command, run_json):
        run_dir = tmp_path / "run"
        if run_json is not None:
            run_dir.mkdir()
            (run_dir / "run.json").write_bytes(run_json)
        argv = {
            "eval": ["eval", "--run", str(run_dir)],
            "extract": ["extract", "--run", str(run_dir), "--tap", "rnn_fc", "--out", str(tmp_path / "f.tsr")],
            "fuse": ["fuse", "--run-rnn", str(run_dir), "--run-cnn", str(run_dir)],
        }[command]
        assert cli.console_main([*argv, "--data", str(tmp_path / "data")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"twostream: error: cannot read {run_dir / 'run.json'}: ")
        assert len(err.splitlines()) == 1


SRC = Path(__file__).resolve().parents[1] / "src"


def _cli_env(**blas):
    """This environment with src on the path, no BLAS thread variable, then `blas`."""
    env = {k: v for k, v in os.environ.items() if k not in parallel.BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**env, **blas}


class TestConsoleErrors:
    """The `twostream` command reports the package's own input errors in one
    line on stderr and exits 2; `main` still raises them."""

    @pytest.mark.parametrize(
        "command, settings, message",
        [
            ("gen-data", "n_subjects = 2", TOO_FEW_SUBJECTS),
            ("ladder", "ladder_models =", "expected one or more ladder models"),
        ],
    )
    def test_package_error_exits_2_without_a_traceback(self, tmp_path, command, settings, message):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(settings + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "twostream.cli", command, "--config", str(cfg_path), "--out", str(tmp_path / "out")],
            env=_cli_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("twostream: error: ")
        assert message in proc.stderr and len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_entry_point_is_the_console_wrapper(self):
        scripts = (SRC.parent / "pyproject.toml").read_text().split("[project.scripts]\n")[1]
        assert scripts.startswith('twostream = "twostream.cli:console_main"\n')

    def test_other_errors_keep_their_traceback(self, monkeypatch):
        def boom(argv):
            raise RuntimeError("not an input error")

        monkeypatch.setattr(cli, "main", boom)
        with pytest.raises(RuntimeError, match="not an input error"):
            cli.console_main([])


# A small ladder on which two BLAS threads and one give different bits.
BLAS_LADDER_CFG = """
samples_per_class = 12
n_subjects = 4
epochs = 2
cnn_epochs = 1
ladder_models = RNN1, LSTM1-BN, GRU1-BN-DP, BI-GRU2-BN-DP-H, C3D-DESK
"""


class TestBlasDefault:
    """Importing twostream before numpy gives each process one BLAS thread
    unless the caller set a count."""

    @pytest.mark.parametrize(
        "blas, first, expected",
        [
            ({}, "twostream", "1"),
            ({"OPENBLAS_NUM_THREADS": "2"}, "twostream", "2"),
            ({"OMP_NUM_THREADS": "2"}, "twostream", None),
            ({}, "numpy", None),
        ],
        ids=["unset", "explicit_openblas", "explicit_omp", "numpy_first"],
    )
    def test_default_fills_in_only_an_unset_count_before_numpy(self, blas, first, expected):
        code = f"import os, {first}, twostream; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=_cli_env(**blas), capture_output=True, text=True, timeout=120, check=True
        )
        assert proc.stdout == f"{expected}\n"

    def test_ladder_with_no_blas_variable_writes_the_one_thread_bytes(self, tmp_path):
        cfg_path = tmp_path / "small.cfg"
        cfg_path.write_text(BLAS_LADDER_CFG)
        written = []
        for label, blas in (("unset", {}), ("one_thread", {"OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / label
            subprocess.run(
                [sys.executable, "-m", "twostream.cli", "ladder", "--config", str(cfg_path), "--out", str(out)],
                env=_cli_env(**blas), capture_output=True, timeout=600, check=True,
            )
            files = _dir_bytes(out)
            del files["timing.json"]  # wall-clock times
            written.append(files)
        assert "ladder_results.json" in written[0] and len(written[0]) == 8
        assert written[0] == written[1]
