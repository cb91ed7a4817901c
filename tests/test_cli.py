import csv
import json
from pathlib import Path

import numpy as np
import pytest

from structattn import attention, checkpoint, cli, data, training
from structattn import model as model_mod
from structattn import tensor as T

from support import CONFIG_DIR, tiny_config


def run_cli(*args):
    return cli.main(list(args))


def write_config(tmp_path, **extra):
    cfg = tiny_config(tmp_path, **extra)
    cfg_path = tmp_path / "run.cfg"
    lines = [f"{k} = {v if v is not None else 'none'}" for k, v in cfg.to_dict().items()
             if v != ""]
    cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg, cfg_path


def train_once(tmp_path, **extra):
    cfg, cfg_path = write_config(tmp_path, **extra)
    assert run_cli("train", "--config", str(cfg_path)) == 0
    return cfg, cfg_path


class TestTrainCommand:
    def test_writes_checkpoint_and_history(self, tmp_path, capsys):
        cfg, _ = train_once(tmp_path)
        assert (tmp_path / "model.ckpt").exists()
        with open(cfg.history_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert set(rows[0]) == {"epoch", "train_loss", "dev_acc", "mean_penalty", "mean_overlap"}

    def test_missing_dataset_exits_nonzero(self, tmp_path, capsys):
        cfg, cfg_path = train_once(tmp_path)
        rc = run_cli("train", "--config", str(cfg_path), "--set", "train_path=missing.txt")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, setting", [
        ("train", "l2=-1"), ("train", "learning_rate=nan"), ("train", "clip=nan"),
        ("train", "penalty_coeff=inf"), ("train", "l2=nan"), ("params", "vocab_size=-5"),
    ])
    def test_invalid_setting_is_an_error(self, tmp_path, capsys, command, setting):
        cfg, cfg_path = write_config(tmp_path)
        assert run_cli(command, "--config", str(cfg_path), "--set", setting) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {setting.split('=')[0]} must be") and captured.out == ""
        assert not Path(cfg.checkpoint_path).exists()

    def test_rerun_same_seed_identical_history(self, tmp_path):
        cfg, cfg_path = train_once(tmp_path)
        first = open(cfg.history_path, "rb").read()
        assert run_cli("train", "--config", str(cfg_path)) == 0
        assert open(cfg.history_path, "rb").read() == first


class TestEvalCommand:
    def test_matches_library_evaluate_exactly(self, tmp_path, capsys):
        cfg, _ = train_once(tmp_path)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", cfg.checkpoint_path, "--data", cfg.dev_path) == 0
        printed = float(capsys.readouterr().out.strip())
        net, vocab, _ = checkpoint.restore_model(cfg.checkpoint_path)
        dev = data.load_dataset(cfg.dev_path, vocab)
        assert printed == pytest.approx(training.evaluate(net, dev), abs=5e-5)
        assert 0.0 <= printed <= 1.0

    def test_shape_mismatch_is_an_error(self, tmp_path, capsys):
        cfg, _ = train_once(tmp_path)
        ck = checkpoint.load_checkpoint(cfg.checkpoint_path)
        ck.config["u"] = cfg.u + 1
        checkpoint.save_checkpoint(cfg.checkpoint_path, ck.arrays, ck.config, ck.vocab)
        assert run_cli("eval", "--checkpoint", cfg.checkpoint_path, "--data", cfg.dev_path) == 1
        assert "shape mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("u", "abc"), ("lowercase", "yes")])
    def test_stored_config_of_wrong_type_is_an_error(self, tmp_path, capsys, key, value):
        cfg, _ = train_once(tmp_path)
        ck = checkpoint.load_checkpoint(cfg.checkpoint_path)
        ck.config[key] = value
        checkpoint.save_checkpoint(cfg.checkpoint_path, ck.arrays, ck.config, ck.vocab)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", cfg.checkpoint_path, "--data", cfg.dev_path) == 1
        captured = capsys.readouterr()
        assert f"error: {key} must be of type" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["eval", "embed"])
    def test_stored_config_larger_than_the_file_is_an_error(self, tmp_path, capsys, monkeypatch, command):
        cfg, _ = train_once(tmp_path)
        ck = checkpoint.load_checkpoint(cfg.checkpoint_path)
        ck.config["b"] = 10**9  # head.w1 would be 10**9 x 16: restore must not build it
        checkpoint.save_checkpoint(cfg.checkpoint_path, ck.arrays, ck.config, ck.vocab)
        monkeypatch.setattr(model_mod, "build_model", lambda *args: pytest.fail("restore drew a model"))
        sentences = tmp_path / "s.txt"
        sentences.write_text("kw0_0 f00\n", encoding="utf-8")
        args = (["--data", cfg.dev_path] if command == "eval"
                else ["--sentences", str(sentences), "--out", str(tmp_path / "e.csv")])
        capsys.readouterr()
        assert run_cli(command, "--checkpoint", cfg.checkpoint_path, *args) == 1
        captured = capsys.readouterr()
        assert "shape mismatch for head.w1" in captured.err and captured.out == ""

    def test_non_finite_payload_is_an_error(self, tmp_path, capsys):
        cfg, _ = train_once(tmp_path)
        ck = checkpoint.load_checkpoint(cfg.checkpoint_path)
        ck.arrays["attention.w1"][0, 1] = np.nan
        checkpoint.save_checkpoint(cfg.checkpoint_path, ck.arrays, ck.config, ck.vocab)
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", cfg.checkpoint_path, "--data", cfg.dev_path) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err and "attention.w1" in captured.err and captured.out == ""

    @pytest.mark.parametrize("command", ["eval", "embed"])
    def test_duplicate_vocabulary_token_is_an_error(self, tmp_path, capsys, command):
        cfg, _ = train_once(tmp_path)
        ck = checkpoint.load_checkpoint(cfg.checkpoint_path)
        ck.vocab[3] = ck.vocab[2]
        checkpoint.save_checkpoint(cfg.checkpoint_path, ck.arrays, ck.config, ck.vocab)
        sentences = tmp_path / "s.txt"
        sentences.write_text("kw0_0 f00\n", encoding="utf-8")
        args = (["--data", cfg.dev_path] if command == "eval"
                else ["--sentences", str(sentences), "--out", str(tmp_path / "e.csv")])
        capsys.readouterr()
        assert run_cli(command, "--checkpoint", cfg.checkpoint_path, *args) == 1
        captured = capsys.readouterr()
        assert f"{ck.vocab[2]!r} is repeated at ids 2 and 3" in captured.err and captured.out == ""

    def test_out_of_range_label_is_an_error(self, tmp_path, capsys):
        cfg, _ = train_once(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("1\tkw0_0 f00\n7\tf01 kw1_1\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", cfg.checkpoint_path, "--data", str(bad)) == 1
        captured = capsys.readouterr()
        assert "label 7" in captured.err and captured.out == ""

    @pytest.mark.parametrize("field, value", [
        ("manifest", None), ("config", None), ("vocab", None),
        ("manifest", {"embedding.table": [2, 8]}), ("config", [1, 2]), ("vocab", "<pad>"),
        ("vocab", ["<pad>", "<unk>", ["kw0_0"]]),
        ("entry", ["embedding.table", [2, 8]]), ("entry", "embedding.table"),
        ("entry", ["embedding.table", 16, "<f4"]), ("entry", ["embedding.table", ["2", 8], "<f4"]),
    ])
    def test_malformed_header_is_an_error(self, tmp_path, capsys, field, value):
        cfg, _ = train_once(tmp_path)
        path = Path(cfg.checkpoint_path)
        raw = path.read_bytes()
        start = len(checkpoint.MAGIC) + 12
        end = start + int.from_bytes(raw[start - 8:start], "little")
        header = json.loads(raw[start:end])
        if field == "entry":
            header["manifest"][0] = value
        elif value is None:
            del header[field]
        else:
            header[field] = value
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(raw[:start - 8] + len(blob).to_bytes(8, "little") + blob + raw[end:])
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", str(path), "--data", cfg.dev_path) == 1
        assert f"error: {path}: " in capsys.readouterr().err


class TestEmbedCommand:
    def test_blocks_match_library_pooling(self, tmp_path, capsys):
        cfg, _ = train_once(tmp_path)
        sents = tmp_path / "s.txt"
        sents.write_text("kw0_0 f00 f01\nkw0_0 f00 f01\nf02 kw1_1\n", encoding="utf-8")
        out = tmp_path / "emb.csv"
        assert run_cli("embed", "--checkpoint", cfg.checkpoint_path,
                       "--sentences", str(sents), "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * cfg.r

        # identical sentences give identical blocks
        block = {sid: [r for r in rows if r["sentence"] == sid] for sid in ("0", "1", "2")}
        vals = lambda rs: [[r[f"dim{j}"] for j in range(2 * cfg.u)] for r in rs]  # noqa: E731
        assert vals(block["0"]) == vals(block["1"])
        assert vals(block["0"]) != vals(block["2"])

        # block equals in-process pool(attend(H), H)
        net, vocab, _ = checkpoint.restore_model(cfg.checkpoint_path)
        with T.no_grad():
            _, _, m = net.encode(vocab.encode("kw0_0 f00 f01".split()))
        csv_block = np.array([[float(v) for v in row] for row in vals(block["0"])])
        assert np.array_equal(csv_block, m.data.astype(float))


class TestVisualizeCommand:
    def test_overall_and_per_hop(self, tmp_path, capsys):
        cfg, _ = train_once(tmp_path)
        sents = tmp_path / "s.txt"
        sents.write_text("kw0_0 f00 f01\n\nf02 kw1_1 f03\n", encoding="utf-8")
        html_path, csv_path = tmp_path / "h.html", tmp_path / "h.csv"
        assert run_cli("visualize", "--checkpoint", cfg.checkpoint_path, "--sentences", str(sents),
                       "--mode", "overall", "--out-html", str(html_path), "--out-csv", str(csv_path)) == 0
        assert "empty sentence line skipped" in capsys.readouterr().err
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for sid in ("0", "1"):
            total = sum(float(r["weight"]) for r in rows if r["sentence"] == sid)
            assert total == pytest.approx(1.0, abs=1e-6)

        # CSV numbers equal overall_attention of the model
        net, vocab, _ = checkpoint.restore_model(cfg.checkpoint_path)
        with T.no_grad():
            _, a = net.forward(vocab.encode("kw0_0 f00 f01".split()))
        expected = attention.overall_attention(a)
        got = np.array([float(r["weight"]) for r in rows if r["sentence"] == "0"])
        assert np.array_equal(got, expected.astype(float))

        assert run_cli("visualize", "--checkpoint", cfg.checkpoint_path, "--sentences", str(sents),
                       "--mode", "per-hop", "--out-html", str(html_path), "--out-csv", str(csv_path)) == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        hops = {r["hop"] for r in rows if r["sentence"] == "0"}
        assert len(hops) == cfg.r
        assert html_path.read_text().count("<h3>") == 2


class TestParamsCommand:
    def test_toy_total_matches_hand_count(self, tmp_path, capsys):
        cfg, cfg_path = train_once(tmp_path)
        capsys.readouterr()
        assert run_cli("params", "--config", str(cfg_path), "--set", "vocab_size=50") == 0
        out = capsys.readouterr().out
        d, u, d_a, r, b, classes = cfg.d, cfg.u, cfg.d_a, cfg.r, cfg.b, cfg.classes
        hand_total = (50 * d + 2 * (4 * u * d + 4 * u * u + 4 * u)
                      + d_a * 2 * u + r * d_a
                      + b * r * 2 * u + b + classes * b + classes)
        assert f"{hand_total:>12}" in out.splitlines()[-1]

    def test_yelp_preset_prints_table_value(self, capsys):
        assert run_cli("params", "--config", str(CONFIG_DIR / "params_yelp_dense.cfg")) == 0
        assert "54000000" in capsys.readouterr().out


class TestGradcheckCommand:
    def test_passes_and_lists_ops(self, capsys):
        assert run_cli("gradcheck", "--config", str(CONFIG_DIR / "gradcheck.cfg")) == 0
        out = capsys.readouterr().out
        for name in ("matmul", "softmax_rows", "lstm_step", "penalty", "full_model_loss"):
            assert name in out
        assert "PASS" in out and "FAIL" not in out


class TestSweepCommand:
    def test_single_value_reduces_to_train(self, tmp_path, capsys):
        cfg, cfg_path = train_once(tmp_path, max_epochs=2, patience=2)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--param", "penalty_coeff",
                       "--values", "1.0", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            sweep_rows = list(csv.DictReader(fh))
        with open(cfg.history_path, newline="") as fh:
            train_rows = list(csv.DictReader(fh))
        assert len(sweep_rows) == len(train_rows)
        for s, t in zip(sweep_rows, train_rows):
            for key in ("epoch", "train_loss", "dev_acc", "mean_penalty", "mean_overlap"):
                assert s[key] == t[key]

    def test_row_count_is_epochs_times_values(self, tmp_path):
        cfg, cfg_path = train_once(tmp_path, max_epochs=2, patience=2)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--param", "r",
                       "--values", "1,2,3", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 3
        assert {r["value"] for r in rows} == {"1", "2", "3"}

    @pytest.mark.parametrize("param, values", [("r", "2,0"), ("penalty_coeff", "1.0,-1"),
                                               ("penalty_coeff", "inf")])
    def test_invalid_value_is_an_error_before_any_run(self, tmp_path, capsys, param, values):
        _, cfg_path = write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--param", param,
                       "--values", values, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert not out.exists()


def test_entry_point_subprocess(tmp_path):
    import subprocess
    import sys
    r = subprocess.run([sys.executable, "-m", "structattn.cli", "params",
                        "--config", str(CONFIG_DIR / "params_age_dense.cfg")],
                       capture_output=True, text=True)
    assert r.returncode == 0
    assert "72000000" in r.stdout
    assert r.stderr == ""
