import json

import pytest

from twostream import ConfigError, read_tensor
from twostream.config import default_config, load_config, parse_config
from twostream.cli import main


class TestConfigParsing:
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
        [("batch_size", 1), ("cnn_batch_size", 1), ("epochs", 0), ("cnn_epochs", 0), ("eval_every", 0)],
    )
    def test_out_of_range_value_rejected_with_line_and_key(self, key, value):
        # each of these used to train nothing, divide by zero or skip training
        with pytest.raises(ConfigError, match=f"line 2: bad value for '{key}': must be >="):
            parse_config(f"seed = 1\n{key} = {value}\n")
        assert parse_config(f"{key} = {value + 1}")[key] == value + 1

    def test_unknown_ladder_model_rejected(self):
        with pytest.raises(ConfigError, match="unknown ladder model"):
            parse_config("ladder_models = RNN1, GRU9000")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 9\n")
        assert load_config(path)["seed"] == 9


TINY_CFG = """
seed = 3
n_classes = 3
samples_per_class = 12
t_min = 8
t_max = 12
joints = 3
n_subjects = 6
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
        from twostream import Dataset

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
        assert (run_dir / "confusion.csv").exists()

        main(["eval", "--run", str(run_dir), "--data", data_dir, "--split", "val"])
        parsed = json.loads(capsys.readouterr().out)
        assert 0.0 <= parsed["test_accuracy"] <= 1.0

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
        assert (out_dir / "timing.json").exists()
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

        main(["fuse-decision", "--run-rnn", str(rnn_dir), "--run-cnn", str(cnn_dir),
              "--data", data_dir, "--out", str(tmp_path / "dec.json")])
        dec = json.loads(capsys.readouterr().out)
        assert dec["w_r"] == 1.0

        main(["fuse-feature", "--run-rnn", str(rnn_dir), "--run-cnn", str(cnn_dir),
              "--data", data_dir, "--out", str(tmp_path / "feat.json")])
        feat = json.loads(capsys.readouterr().out)
        assert feat["svm_c"] == 8.0
        assert (tmp_path / "feat.json").exists()
