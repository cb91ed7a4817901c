import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from structattn import attention, checkpoint, cli, data, synth, training, viz
from structattn import model as model_mod
from structattn import tensor as T
from structattn.config import load_run_config

from support import CONFIG_DIR, append_repeated_tensor, per_value_repr_csv, tiny_config


def run_cli(*args):
    return cli.main(list(args))


def write_config(tmp_path, **extra):
    cfg = tiny_config(tmp_path, **extra)
    cfg_path = tmp_path / "run.cfg"
    lines = [f"{k} = {v if v is not None else 'none'}" for k, v in cfg.to_dict().items()
             if v != ""]
    cfg_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cfg, cfg_path


def cli_process(*args, prelude="", cwd=None):
    """Run the CLI in a child process, after ``prelude``, so stderr holds
    everything it prints, numpy's warnings too (pytest would catch those)."""
    # the child does not inherit pytest's ``pythonpath``; give it this checkout's src
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = f"import sys\nfrom structattn import cli\n{prelude}\nsys.exit(cli.main(sys.argv[1:]))\n"
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=300)


# a step that overflows a float32 product, and does not diverge
WARNING_STEP = """import numpy as np
from structattn import training
step = training.sgd_step
def warning_step(*args, **kwargs):
    np.float32(3e38) * np.float32(10)
    step(*args, **kwargs)
training.sgd_step = warning_step"""


def train_once(tmp_path, **extra):
    cfg, cfg_path = write_config(tmp_path, **extra)
    assert run_cli("train", "--config", str(cfg_path)) == 0
    return cfg, cfg_path


def save_untrained(path, cfg, words, seed=0):
    """Save a freshly initialized model of ``cfg`` over the vocabulary ``words``."""
    vocab = data.build_vocab([words])
    checkpoint.save_model(path, model_mod.build_model(cfg, len(vocab), np.random.default_rng(seed)), vocab)
    return str(path)


def builds_graph():
    """Whether an op on a tensor that requires a gradient records its backward now."""
    return T.sum_all(T.Tensor(np.ones(2), requires_grad=True)).requires_grad


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
        ("train", "seed=-1"),
    ])
    def test_invalid_setting_is_an_error(self, tmp_path, capsys, command, setting):
        cfg, cfg_path = write_config(tmp_path)
        assert run_cli(command, "--config", str(cfg_path), "--set", setting) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {setting.split('=')[0]} must be") and captured.out == ""
        assert not Path(cfg.checkpoint_path).exists()

    @pytest.mark.parametrize("key", ["clip", "l2", "batch_size", "dropout"])
    def test_empty_value_is_an_error(self, tmp_path, capsys, key):
        cfg, cfg_path = write_config(tmp_path)
        assert run_cli("train", "--config", str(cfg_path), "--set", f"{key}=") == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: bad value for {key}: ''\n" and captured.out == ""
        assert not Path(cfg.checkpoint_path).exists()

    @pytest.mark.parametrize("key", ["checkpoint_path", "history_path"])
    def test_output_in_a_missing_directory_fails_before_training(self, tmp_path, capsys, key):
        _, cfg_path = write_config(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        missing = tmp_path / "missing" / "out.file"
        assert run_cli("train", "--config", str(cfg_path), "--set", f"{key}={missing}") == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {missing}: no such directory {missing.parent}\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    def test_checkpoint_is_saved_before_the_history(self, tmp_path, capsys, monkeypatch):
        """A history that cannot be written still fails the command, but does
        not lose the trained checkpoint."""
        cfg, cfg_path = write_config(tmp_path)

        def unwritable(path, records):
            raise OSError(f"{path}: cannot write")

        monkeypatch.setattr(cli, "_write_history", unwritable)
        assert run_cli("train", "--config", str(cfg_path)) == 1
        assert capsys.readouterr().err == f"error: {cfg.history_path}: cannot write\n"
        assert Path(cfg.checkpoint_path).exists() and not Path(cfg.history_path).exists()

    def test_non_finite_pretrained_vector_is_an_error(self, tmp_path, capsys):
        vectors = tmp_path / "vec.txt"
        vectors.write_text("f01 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8\nf10 inf 0.1 0.2 0.3 0.4 0.5 0.6 0.7\n",
                           encoding="utf-8")
        cfg, cfg_path = write_config(tmp_path, embeddings_path=vectors)
        assert run_cli("train", "--config", str(cfg_path)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {vectors}:2: non-finite vector component\n"
        assert captured.out == "" and not Path(cfg.checkpoint_path).exists()

    def test_corpus_with_unk_trains(self, tmp_path, capsys):
        cfg, cfg_path = write_config(tmp_path)
        train = Path(cfg.train_path)
        lines = train.read_text(encoding="utf-8").splitlines()
        train.write_text("".join(line + " <unk>\n" for line in lines), encoding="utf-8")
        assert run_cli("train", "--config", str(cfg_path)) == 0
        _, vocab, _ = checkpoint.restore_model(cfg.checkpoint_path)
        assert vocab.id_to_token.count("<unk>") == 1 and capsys.readouterr().err == ""

    def test_a_last_step_that_makes_the_weights_non_finite_is_an_error(self, tmp_path, capsys):
        """In float32, lr·g overflows although the rate is a finite float; the
        loss before the one step is finite, so the epoch's dev pass shows it."""
        cfg, cfg_path = write_config(tmp_path, max_epochs=1, batch_size=1000, learning_rate=1e39)
        assert run_cli("train", "--config", str(cfg_path)) == 1
        assert capsys.readouterr().err == "error: non-finite dev logits after epoch 1\n"
        assert not Path(cfg.checkpoint_path).exists() and not Path(cfg.history_path).exists()

    def test_a_diverged_run_prints_only_its_error(self, tmp_path):
        """Numpy's overflow warning of the step and the NaN warnings of the dev
        pass that follows are dropped with the run that diverged."""
        cfg, cfg_path = write_config(tmp_path, max_epochs=1, batch_size=1000, learning_rate=1e39)
        r = cli_process("train", "--config", str(cfg_path))
        assert r.returncode == 1 and r.stderr == "error: non-finite dev logits after epoch 1\n"
        assert not Path(cfg.checkpoint_path).exists()

    def test_a_model_too_big_for_memory_is_an_error(self, tmp_path):
        """``head.w1`` of b = 10⁸ is 47.7 GiB. The child's address space is
        capped at 3 GiB, so the allocation fails at once; uncapped, the kernel
        might overcommit it and the draw fill pages until the process dies."""
        synth.main(["--out-dir", str(tmp_path / "data" / "toy"), "--seed", "1"])
        (tmp_path / "out").mkdir()
        cap = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({3 << 30}, {3 << 30}))"
        r = cli_process("train", "--config", str(CONFIG_DIR / "toy.cfg"), "--set", "b=100000000",
                        "--set", "max_epochs=1", prelude=cap, cwd=tmp_path)
        assert r.returncode == 1, r.stderr
        assert r.stderr == "error: out of memory: Unable to allocate 47.7 GiB for an array with shape " \
                           "(100000000, 128) and data type float32\n"
        assert r.stdout == "" and not any((tmp_path / "out").iterdir())

    def test_a_run_that_does_not_diverge_shows_its_warnings(self, tmp_path):
        """Shown once per location, as numpy's warnings are, when the run ends."""
        cfg, cfg_path = write_config(tmp_path)
        r = cli_process("train", "--config", str(cfg_path), prelude=WARNING_STEP)
        assert r.returncode == 0 and Path(cfg.checkpoint_path).exists()
        assert r.stderr == "<string>:7: RuntimeWarning: overflow encountered in scalar multiply\n"

    def test_rerun_same_seed_identical_history(self, tmp_path):
        cfg, cfg_path = train_once(tmp_path)
        first = open(cfg.history_path, "rb").read()
        assert run_cli("train", "--config", str(cfg_path)) == 0
        assert open(cfg.history_path, "rb").read() == first


def count_parses(monkeypatch):
    """The paths ``data.read_dataset`` is called with, from now on."""
    paths = []
    parse = data.read_dataset

    def counted(path, *args):
        paths.append(path)
        return parse(path, *args)

    monkeypatch.setattr(data, "read_dataset", counted)
    return paths


class TestParsing:
    def test_train_parses_each_file_once(self, tmp_path, monkeypatch):
        cfg, cfg_path = write_config(tmp_path)
        paths = count_parses(monkeypatch)
        assert run_cli("train", "--config", str(cfg_path)) == 0
        assert sorted(paths) == sorted([cfg.train_path, cfg.dev_path])

    def test_sweep_parses_each_file_once_for_all_runs(self, tmp_path, monkeypatch):
        cfg, cfg_path = write_config(tmp_path)
        paths = count_parses(monkeypatch)
        assert run_cli("sweep", "--config", str(cfg_path), "--param", "r",
                       "--values", "1,2,3", "--out", str(tmp_path / "sweep.csv")) == 0
        assert sorted(paths) == sorted([cfg.train_path, cfg.dev_path])

    def test_sweep_parses_pretrained_vectors_once_for_all_runs(self, tmp_path, monkeypatch, capsys):
        vectors = tmp_path / "vec.txt"
        vectors.write_text("f01 0.1 0.2 0.3 0.4 0.5 0.6 0.7 0.8\nzz 1 1 1 1 1 1 1 1\n", encoding="utf-8")
        _, cfg_path = write_config(tmp_path, embeddings_path=vectors)
        calls = []
        parse = data.read_pretrained
        monkeypatch.setattr(data, "read_pretrained", lambda *args: calls.append(args) or parse(*args))
        assert run_cli("sweep", "--config", str(cfg_path), "--param", "r",
                       "--values", "1,2,3", "--out", str(tmp_path / "sweep.csv")) == 0
        coverage = [line for line in capsys.readouterr().out.splitlines() if "coverage" in line]
        assert len(calls) == 1 and len(coverage) == 3 and len(set(coverage)) == 1


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

    def test_repeated_tensor_is_an_error(self, tmp_path, capsys):
        cfg, _ = train_once(tmp_path)
        append_repeated_tensor(cfg.checkpoint_path, "embedding.table")
        capsys.readouterr()
        assert run_cli("eval", "--checkpoint", cfg.checkpoint_path, "--data", cfg.dev_path) == 1
        captured = capsys.readouterr()
        assert "names tensor 'embedding.table' twice" in captured.err and captured.out == ""

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
        # JSON nested deeper than the decoder's recursion limit
        pytest.param("bytes", b"[" * 200_000 + b"]" * 200_000, id="bytes-nested-200000-deep"),
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
        elif field != "bytes":
            header[field] = value
        blob = value if field == "bytes" else json.dumps(header).encode("utf-8")
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

    def test_packed_chunks_write_the_file_of_per_sentence_encoding(self, tmp_path, capsys):
        """``embed`` encodes packed batches of the checkpoint's batch size (8),
        and its file is byte-identical to one rendered from ``encode`` of each
        sentence alone."""
        cfg, _ = train_once(tmp_path)
        rng = np.random.default_rng(4)
        words = ["kw0_0", "kw1_1", "f00", "f01", "f02", "f03", "unseen"]
        lines = [" ".join(rng.choice(words, size=n)) for n in (1, 5, 3, 1, 9, 2, 7, 4, 1, 6, 3)]
        sents, out = tmp_path / "s.txt", tmp_path / "emb.csv"
        sents.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("embed", "--checkpoint", cfg.checkpoint_path,
                       "--sentences", str(sents), "--out", str(out)) == 0
        net, vocab, saved = checkpoint.restore_model(cfg.checkpoint_path)
        assert saved.batch_size == 8 < len(lines)
        with T.no_grad():
            blocks = [(i, net.encode(vocab.encode(line.split()))[2].data) for i, line in enumerate(lines)]
        assert out.read_bytes() == viz.render_embedding_csv(blocks).encode("utf-8")
        buf = io.BytesIO()
        cli.write_embeddings(net, [vocab.encode(line.split()) for line in lines], buf)
        assert buf.getvalue() == out.read_bytes() and builds_graph()


    def test_streams_each_batch_before_encoding_the_next(self, tmp_path, capsys, monkeypatch):
        """Lengths 1-9 at batch size 8: the file equals the per-value reference,
        and when batch k is encoded the file holds the header and exactly the
        rows of the batches before it."""
        cfg, _ = train_once(tmp_path)
        words = ["kw0_0", "kw1_1", "f00", "f01", "f02", "unseen"]
        lines = [" ".join(words[(i + n) % len(words)] for i in range(n)) for n in range(1, 10)]
        sents, out = tmp_path / "s.txt", tmp_path / "emb.csv"
        sents.write_text("\n".join(lines) + "\n", encoding="utf-8")
        net, vocab, saved = checkpoint.restore_model(cfg.checkpoint_path)
        assert saved.batch_size == 8
        with T.no_grad():
            blocks = [(i, net.encode(vocab.encode(line.split()))[2].data) for i, line in enumerate(lines)]
        sizes, encode_batch = [], model_mod.Classifier.encode_batch

        def recording(self, sentences):
            sizes.append(out.stat().st_size)
            return encode_batch(self, sentences)

        monkeypatch.setattr(model_mod.Classifier, "encode_batch", recording)
        assert run_cli("embed", "--checkpoint", cfg.checkpoint_path,
                       "--sentences", str(sents), "--out", str(out)) == 0
        assert out.read_bytes() == per_value_repr_csv(blocks).encode("utf-8")
        header = per_value_repr_csv(blocks).split("\n")[0] + "\n"
        assert sizes == [len(header), len(per_value_repr_csv(blocks[:8]))]
        assert capsys.readouterr().out.endswith(f"wrote 9 embedding blocks to {out}\n")

    def test_float64_model_gives_the_per_value_file(self, tmp_path, capsys, monkeypatch):
        """Checkpoints hold float32; a float64 model's blocks take repr one value
        at a time and give the same file as the per-value reference."""
        cfg, _ = train_once(tmp_path)
        net, vocab, saved = checkpoint.restore_model(cfg.checkpoint_path)
        for p in net.named_parameters().values():
            p.data = p.data.astype(np.float64)
        monkeypatch.setattr(checkpoint, "restore_model", lambda path: (net, vocab, saved))
        lines = ["kw0_0 f00 f01", "f02 kw1_1"]
        sents, out = tmp_path / "s.txt", tmp_path / "emb.csv"
        sents.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("embed", "--checkpoint", cfg.checkpoint_path,
                       "--sentences", str(sents), "--out", str(out)) == 0
        with T.no_grad():
            blocks = [(i, net.encode(vocab.encode(line.split()))[2].data) for i, line in enumerate(lines)]
        assert blocks[0][1].dtype == np.float64
        assert out.read_bytes() == per_value_repr_csv(blocks).encode("utf-8")

    def test_empty_sentences_file_writes_no_file(self, tmp_path, capsys):
        cfg, _ = train_once(tmp_path)
        sents, out = tmp_path / "s.txt", tmp_path / "emb.csv"
        sents.write_text("\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("embed", "--checkpoint", cfg.checkpoint_path,
                       "--sentences", str(sents), "--out", str(out)) == 1
        assert capsys.readouterr().err.endswith(f"error: {sents}: no sentences\n")
        assert not out.exists()

    def test_literal_pad_is_an_error(self, tmp_path, capsys):
        cfg, _ = train_once(tmp_path)
        sents, out = tmp_path / "s.txt", tmp_path / "emb.csv"
        sents.write_text("kw0_0 f00\nf10 kw0_1 <pad> f03\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("embed", "--checkpoint", cfg.checkpoint_path,
                       "--sentences", str(sents), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {sents}:2: the padding token <pad> is reserved\n"
        assert not out.exists()


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


    def test_literal_pad_is_an_error(self, tmp_path, capsys):
        cfg, _ = train_once(tmp_path)
        sents, html_path, csv_path = tmp_path / "s.txt", tmp_path / "h.html", tmp_path / "h.csv"
        sents.write_text("<pad> kw0_0 f00\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("visualize", "--checkpoint", cfg.checkpoint_path, "--sentences", str(sents),
                       "--out-html", str(html_path), "--out-csv", str(csv_path)) == 1
        assert capsys.readouterr().err == f"error: {sents}:1: the padding token <pad> is reserved\n"
        assert not html_path.exists() and not csv_path.exists()

    def test_empty_sentences_file_writes_no_file(self, tmp_path, capsys):
        cfg, _ = train_once(tmp_path)
        sents, html_path, csv_path = tmp_path / "s.txt", tmp_path / "h.html", tmp_path / "h.csv"
        sents.write_text("\n", encoding="utf-8")
        capsys.readouterr()
        assert run_cli("visualize", "--checkpoint", cfg.checkpoint_path, "--sentences", str(sents),
                       "--out-html", str(html_path), "--out-csv", str(csv_path)) == 1
        assert capsys.readouterr().err.endswith(f"error: {sents}: no sentences\n")
        assert not html_path.exists() and not csv_path.exists()

    @pytest.mark.parametrize("mode", ["overall", "per-hop"])
    def test_gated_pair_files_are_the_rendered_encode_documents(self, tmp_path, capsys, mode):
        words = ["ma", "mb", "f00", "f01", "f02"]
        ckpt = save_untrained(tmp_path / "pair.ckpt", tiny_config(tmp_path, head="gated-pair", k=3), words)
        lines = ["ma f00 f01", "f02", "mb f01 unseen f00 ma"]
        sents, html_path, csv_path = tmp_path / "s.txt", tmp_path / "h.html", tmp_path / "h.csv"
        sents.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("visualize", "--checkpoint", ckpt, "--sentences", str(sents), "--mode", mode,
                       "--out-html", str(html_path), "--out-csv", str(csv_path)) == 0
        net, vocab, _ = checkpoint.restore_model(ckpt)
        docs = []
        with T.no_grad():
            for idx, line in enumerate(lines):
                _, a, _ = net.encode(vocab.encode(line.split()))
                docs.append(viz.HeatmapDoc(idx, line.split(), a.data, attention.overall_attention(a)))
        library_docs = [cli.heatmap_doc(net, vocab, idx, line.split()) for idx, line in enumerate(lines)]
        assert builds_graph()
        for rendered in (docs, library_docs):
            assert html_path.read_text(encoding="utf-8") == viz.render_html(rendered, mode)
            assert csv_path.read_text(encoding="utf-8") == viz.render_csv(rendered, mode)
        assert "predicted" not in html_path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("mode", ["overall", "per-hop"])
    @pytest.mark.parametrize("head", ["dense", "pruned"])
    def test_files_are_the_rendered_forward_documents(self, tmp_path, capsys, head, mode):
        """Both files equal ``render_*`` of ``cli.heatmap_doc``'s documents,
        and each document holds the A of its sentence's B = 1 ``forward``
        with the argmax of its logits and the softmax confidence."""
        words = ["ma", "mb", "f00", "f01", "f02"]
        cfg = tiny_config(tmp_path, head=head, p=3, q=2, classes=3)
        ckpt = save_untrained(tmp_path / f"{head}.ckpt", cfg, words)
        lines = ["ma f00 f01", "f02", "mb f01 unseen f00 ma"]
        sents, html_path, csv_path = tmp_path / "s.txt", tmp_path / "h.html", tmp_path / "h.csv"
        sents.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("visualize", "--checkpoint", ckpt, "--sentences", str(sents), "--mode", mode,
                       "--out-html", str(html_path), "--out-csv", str(csv_path)) == 0
        net, vocab, _ = checkpoint.restore_model(ckpt)
        docs = [cli.heatmap_doc(net, vocab, idx, line.split()) for idx, line in enumerate(lines)]
        assert builds_graph()
        assert html_path.read_text(encoding="utf-8") == viz.render_html(docs, mode)
        assert csv_path.read_text(encoding="utf-8") == viz.render_csv(docs, mode)
        for doc, line in zip(docs, lines):
            with T.no_grad():
                logits, a = net.forward(vocab.encode(line.split()))
            probs = np.exp(logits.data.astype(np.float64))
            assert doc.hop_weights.tobytes() == a.data.tobytes()
            assert doc.overall.tobytes() == attention.overall_attention(a).tobytes()
            assert doc.predicted == int(np.argmax(logits.data))
            assert doc.confidence == pytest.approx(probs.max() / probs.sum(), rel=1e-5)

    def test_peak_memory_stays_below_the_bytes_written(self, tmp_path, capsys):
        """A per-hop run of 100 sentences of 40 tokens at the toy shapes
        writes each sentence before it encodes the next, so its traced peak
        stays well below the files it writes."""
        words = [f"w{i}" for i in range(60)]
        ckpt = save_untrained(tmp_path / "toy.ckpt", load_run_config(str(CONFIG_DIR / "toy.cfg"), []), words)
        rng = np.random.default_rng(2)
        sents, html_path, csv_path = tmp_path / "s.txt", tmp_path / "h.html", tmp_path / "h.csv"
        sents.write_text("".join(" ".join(rng.choice(words, size=40)) + "\n" for _ in range(100)),
                         encoding="utf-8")
        tracemalloc.start()
        try:
            assert run_cli("visualize", "--checkpoint", ckpt, "--sentences", str(sents), "--mode", "per-hop",
                           "--out-html", str(html_path), "--out-csv", str(csv_path)) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = html_path.stat().st_size + csv_path.stat().st_size
        assert peak < 0.6 * written, (peak, written)


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

    INVALID = {("r", "2,0"): "r must be >= 1", ("penalty_coeff", "1.0,-1"): "penalty_coeff must be >= 0",
               ("penalty_coeff", "inf"): "penalty_coeff must be finite, got inf",
               ("r", "1.5,2"): "bad value for r: '1.5'", ("penalty_coeff", "1,abc"): "bad value for penalty_coeff: 'abc'"}

    @pytest.mark.parametrize("param, values", list(INVALID))
    def test_invalid_value_is_an_error_before_any_run(self, tmp_path, capsys, param, values):
        _, cfg_path = write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--param", param,
                       "--values", values, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {self.INVALID[param, values]}\n" and captured.out == ""
        assert not out.exists()

    def test_a_run_whose_last_step_makes_the_weights_non_finite_is_an_error(self, tmp_path, capsys):
        cfg, cfg_path = write_config(tmp_path, max_epochs=1, batch_size=1000, learning_rate=1e39)
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--param", "r",
                       "--values", "2", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: non-finite dev logits after epoch 1\n"
        assert not out.exists()

    def test_a_diverged_run_prints_only_its_error(self, tmp_path):
        _, cfg_path = write_config(tmp_path, max_epochs=1, batch_size=1000, learning_rate=1e39)
        out = tmp_path / "sweep.csv"
        r = cli_process("sweep", "--config", str(cfg_path), "--param", "r", "--values", "2", "--out", str(out))
        assert r.returncode == 1 and r.stderr == "error: non-finite dev logits after epoch 1\n"
        assert not out.exists()

    def test_out_in_a_missing_directory_fails_before_any_run(self, tmp_path, capsys):
        _, cfg_path = write_config(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        out = tmp_path / "missing" / "sweep.csv"
        assert run_cli("sweep", "--config", str(cfg_path), "--param", "r",
                       "--values", "1,2", "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: no such directory {out.parent}\n"
        assert captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before


class TestOutputChecks:
    """Every output of ``train``, ``sweep``, ``embed`` and ``visualize`` is
    checked before the command loads any data or restores any checkpoint; a
    rejected one exits 1, prints nothing on stdout and writes no file."""

    OUTPUTS = {"train": {}, "sweep": {"--out": "sweep.csv"}, "embed": {"--out": "emb.csv"},
               "visualize": {"--out-html": "h.html", "--out-csv": "h.csv"}}

    def argv(self, tmp_path, command, outputs):
        """``command``'s arguments with its outputs in ``tmp_path``, except ``outputs``."""
        cfg, cfg_path = write_config(tmp_path)
        if command == "train":
            return ["train", "--config", str(cfg_path)] + [a for key, path in outputs.items()
                                                          for a in ("--set", f"{key}={path}")]
        if command == "sweep":
            argv = ["sweep", "--config", str(cfg_path), "--param", "r", "--values", "1,2"]
        else:
            sents = tmp_path / "s.txt"
            sents.write_text("kw0_0 f00\n", encoding="utf-8")
            ckpt = save_untrained(tmp_path / "model.ckpt", cfg, ["kw0_0", "f00"])
            argv = [command, "--checkpoint", ckpt, "--sentences", str(sents)]
        paths = {option: tmp_path / name for option, name in self.OUTPUTS[command].items()} | outputs
        return argv + [a for option, path in paths.items() for a in (option, str(path))]

    def assert_rejected(self, tmp_path, capsys, monkeypatch, argv, message):
        def loads(*args):
            raise AssertionError("an input was loaded before the outputs were checked")

        monkeypatch.setattr(data, "read_dataset", loads)
        monkeypatch.setattr(checkpoint, "restore_model", loads)
        before = sorted(tmp_path.rglob("*"))
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("case", ["empty", "directory", "missing-directory"])
    @pytest.mark.parametrize("command, option", [
        ("train", "checkpoint_path"), ("train", "history_path"), ("sweep", "--out"), ("embed", "--out"),
        ("visualize", "--out-html"), ("visualize", "--out-csv")])
    def test_unwritable_output_fails_before_any_work(self, tmp_path, capsys, monkeypatch, command, option, case):
        path = {"empty": "", "directory": tmp_path / "outdir",
                "missing-directory": tmp_path / "missing" / "out.file"}[case]
        if case == "directory":
            path.mkdir()
        message = {"empty": f"{option}: empty output path", "directory": f"{path}: is a directory",
                   "missing-directory": f"{path}: no such directory {tmp_path / 'missing'}"}[case]
        self.assert_rejected(tmp_path, capsys, monkeypatch, self.argv(tmp_path, command, {option: path}), message)

    @pytest.mark.parametrize("command, first, second", [
        ("train", "checkpoint_path", "history_path"), ("visualize", "--out-html", "--out-csv")])
    def test_two_outputs_in_one_file_fail_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                          command, first, second):
        """The paths are compared resolved: ``dir/./name`` is ``dir/name``."""
        one, same = tmp_path / "same.out", f"{tmp_path}/./same.out"
        self.assert_rejected(tmp_path, capsys, monkeypatch, self.argv(tmp_path, command, {first: one, second: same}),
                             f"{same}: {second} is the same file as {first}")

    INPUTS = {"--config": "run.cfg", "train_path": "train.txt", "dev_path": "dev.txt", "--checkpoint": "model.ckpt",
              "--sentences": "s.txt"}

    @pytest.mark.parametrize("command, output, source", [
        ("train", "history_path", "train_path"), ("train", "checkpoint_path", "--config"), ("sweep", "--out", "dev_path"),
        ("embed", "--out", "--checkpoint"), ("visualize", "--out-csv", "--sentences")])
    def test_output_naming_an_input_fails_before_any_work(self, tmp_path, capsys, monkeypatch, command, output, source):
        """The input keeps its bytes; the output is spelled ``dir/./name``."""
        same = f"{tmp_path}/./{self.INPUTS[source]}"
        argv = self.argv(tmp_path, command, {output: same})
        before = (tmp_path / self.INPUTS[source]).read_bytes()
        self.assert_rejected(tmp_path, capsys, monkeypatch, argv, f"{same}: {output} is the same file as {source}")
        assert (tmp_path / self.INPUTS[source]).read_bytes() == before


@pytest.mark.parametrize("command, key", [("params", "--config"), ("train", "train_path")])
def test_input_that_is_not_utf8_is_an_error_naming_it(tmp_path, capsys, command, key):
    cfg, cfg_path = write_config(tmp_path)
    path = cfg_path if key == "--config" else Path(getattr(cfg, key))
    text = path.read_bytes()
    path.write_bytes(text + b"\xff\n")
    bad_line = text.count(b"\n") + 1
    assert run_cli(command, "--config", str(cfg_path)) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}:{bad_line}: not UTF-8 text\n"
    assert captured.out == "" and not Path(cfg.checkpoint_path).exists()


def test_every_output_has_the_recorded_digest(tmp_path, monkeypatch):
    """The seeded toy session of ``tools/output_digests.py`` gives every
    output and every command's stdout the bytes recorded in
    ``tools/output_digests.txt``."""
    tools = Path(__file__).resolve().parents[1] / "tools"
    spec = importlib.util.spec_from_file_location("output_digests", tools / "output_digests.py")
    output_digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(output_digests)
    monkeypatch.chdir(tmp_path)
    assert output_digests.session() == (tools / "output_digests.txt").read_text(encoding="utf-8").splitlines()


def test_the_recorded_digests_hold_at_one_blas_thread():
    """``tools/output_digests.py`` prints the recorded lines in a process whose
    OpenBLAS runs one thread, so a product whose bits depend on the thread
    count shows here even when the test process runs more threads."""
    tools = Path(__file__).resolve().parents[1] / "tools"
    r = subprocess.run([sys.executable, str(tools / "output_digests.py")], capture_output=True, text=True,
                       env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert r.returncode == 0 and r.stderr == ""
    assert r.stdout == (tools / "output_digests.txt").read_text(encoding="utf-8")


def test_entry_point_subprocess(tmp_path):
    # the child does not inherit pytest's ``pythonpath``; give it this checkout's src
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    r = subprocess.run([sys.executable, "-m", "structattn.cli", "params",
                        "--config", str(CONFIG_DIR / "params_age_dense.cfg")],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert "72000000" in r.stdout
    assert r.stderr == ""
