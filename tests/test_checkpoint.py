import json
import tracemalloc

import numpy as np
import pytest

from structattn import checkpoint, cli, training
from structattn.config import ConfigError, load_run_config
from structattn.data import DataError, Vocab
from structattn.model import build_model

from support import append_repeated_tensor, tiny_config

MIB = 2**20


def trained_model(tmp_path, **extra):
    cfg = tiny_config(tmp_path, **extra)
    vocab, train_set, dev_set, _ = cli.load_sets(cfg)
    net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
    result = training.train(net, train_set, dev_set, cfg)
    training.restore_params(net, result.best_params)
    return net, vocab, dev_set, cfg


def test_save_load_save_identical_bytes(tmp_path, rng):
    net, vocab, _, cfg = trained_model(tmp_path)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    checkpoint.save_model(p1, net, vocab)
    ck = checkpoint.load_checkpoint(p1)
    checkpoint.save_checkpoint(p2, ck.arrays, ck.config, ck.vocab)
    assert p1.read_bytes() == p2.read_bytes()


def test_restore_reproduces_dev_accuracy_exactly(tmp_path):
    net, vocab, dev_set, cfg = trained_model(tmp_path)
    acc_before = training.evaluate(net, dev_set)
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(path, net, vocab)
    restored, vocab2, cfg2 = checkpoint.restore_model(path)
    assert vocab2.id_to_token == vocab.id_to_token
    assert training.evaluate(restored, dev_set) == acc_before
    for name, p in net.named_parameters().items():
        assert np.array_equal(p.data, restored.named_parameters()[name].data)


def test_truncated_payload_rejected(tmp_path):
    net, vocab, _, _ = trained_model(tmp_path)
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(path, net, vocab)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(checkpoint.CheckpointError, match="truncated"):
        checkpoint.load_checkpoint(path)


def test_version_mismatch_rejected(tmp_path):
    net, vocab, _, _ = trained_model(tmp_path)
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(path, net, vocab)
    blob = bytearray(path.read_bytes())
    blob[len(checkpoint.MAGIC)] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(checkpoint.CheckpointError, match="version"):
        checkpoint.load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(checkpoint.CheckpointError, match="magic"):
        checkpoint.load_checkpoint(path)


def test_shape_mismatch_on_restore(tmp_path):
    net, vocab, _, cfg = trained_model(tmp_path)
    path = tmp_path / "m.ckpt"
    # lie about the model width in the stored config snapshot
    config = cfg.to_dict()
    config["u"] = cfg.u + 1
    checkpoint.save_checkpoint(path, {name: p.data for name, p in net.named_parameters().items()},
                               config, vocab.id_to_token)
    with pytest.raises(checkpoint.CheckpointError, match="shape mismatch"):
        checkpoint.restore_model(path)


def test_trailing_garbage_rejected(tmp_path):
    net, vocab, _, _ = trained_model(tmp_path)
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(path, net, vocab)
    path.write_bytes(path.read_bytes() + b"xx")
    with pytest.raises(checkpoint.CheckpointError, match="trailing"):
        checkpoint.load_checkpoint(path)


def test_repeated_tensor_name_rejected(tmp_path):
    """A manifest that names a tensor twice never loads, even with both payloads present."""
    net, vocab, _, _ = trained_model(tmp_path)
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(path, net, vocab)
    append_repeated_tensor(path, "embedding.table")
    with pytest.raises(checkpoint.CheckpointError, match="'embedding.table' twice"):
        checkpoint.load_checkpoint(path)
    with pytest.raises(checkpoint.CheckpointError, match="'embedding.table' twice"):
        checkpoint.restore_model(path)


def test_failed_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    params = {"w": np.arange(6, dtype=np.float32).reshape(2, 3), "b": np.ones(3, dtype=np.float32)}
    vocab = ["<pad>", "<unk>", "x"]
    checkpoint.save_checkpoint(path, params, {"seed": 1}, vocab)
    before = path.read_bytes()

    class DiskFull:
        """File wrapper whose first payload write fails (magic, version, length, header come first)."""

        def __init__(self, fh):
            self.fh = fh
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, blob):
            self.writes += 1
            if self.writes > 4:
                raise OSError("no space left on device")
            return self.fh.write(blob)

    monkeypatch.setattr(checkpoint, "open", lambda p, mode: DiskFull(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="no space"):
        checkpoint.save_checkpoint(path, {k: v * 2 for k, v in params.items()}, {"seed": 2}, vocab)
    assert path.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]


def traced_peak(fn, *args):
    """Peak bytes traced by ``tracemalloc`` while ``fn(*args)`` runs, and its result."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return tracemalloc.get_traced_memory()[1], out
    finally:
        tracemalloc.stop()


def four_tensors():
    return {f"t{i}": np.full((1024, 1024), i + 0.5, dtype=np.float32) for i in range(4)}  # 4 MiB each


def test_save_holds_no_second_copy_of_the_tensors(tmp_path):
    peak, _ = traced_peak(checkpoint.save_checkpoint, tmp_path / "m.ckpt", four_tensors(), {}, ["<pad>", "<unk>"])
    assert peak < 4 * MIB


def test_load_reads_payloads_straight_into_their_arrays(tmp_path):
    path = tmp_path / "m.ckpt"
    params = four_tensors()
    checkpoint.save_checkpoint(path, params, {}, ["<pad>", "<unk>"])
    peak, ck = traced_peak(checkpoint.load_checkpoint, path)
    assert peak < 1.5 * 16 * MIB
    for name, arr in params.items():
        assert np.array_equal(ck.arrays[name], arr)


def test_zero_size_tensor_round_trips(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    params = {"empty": np.zeros((0, 3), np.float32), "w": np.arange(4, dtype=np.float32)}
    checkpoint.save_checkpoint(p1, params, {}, ["<pad>", "<unk>"])
    ck = checkpoint.load_checkpoint(p1)
    assert ck.arrays["empty"].shape == (0, 3) and np.array_equal(ck.arrays["w"], params["w"])
    checkpoint.save_checkpoint(p2, ck.arrays, ck.config, ck.vocab)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("shape, message", [([2**40, 2**40], "truncated payload for w"),
                                            ([0, 2**40, 2**40], "too large")])
def test_manifest_shape_beyond_numpy_is_an_error(tmp_path, shape, message):
    header = json.dumps({"manifest": [["w", shape, "<f4"]], "config": {}, "vocab": []}).encode("utf-8")
    path = tmp_path / "m.ckpt"
    path.write_bytes(checkpoint.MAGIC + checkpoint.VERSION.to_bytes(4, "little")
                     + len(header).to_bytes(8, "little") + header + bytes(16))
    with pytest.raises(checkpoint.CheckpointError, match=message):
        checkpoint.load_checkpoint(path)


def test_header_that_is_not_a_json_object_is_an_error(tmp_path):
    header = b"[1, 2]"
    path = tmp_path / "m.ckpt"
    path.write_bytes(checkpoint.MAGIC + checkpoint.VERSION.to_bytes(4, "little")
                     + len(header).to_bytes(8, "little") + header)
    with pytest.raises(checkpoint.CheckpointError, match="header is not a JSON object"):
        checkpoint.load_checkpoint(path)


def test_every_bit_flip_and_truncation_loads_or_raises_a_typed_error(tmp_path):
    """Exhaustive over a tiny checkpoint (about 12 000 cases, a few seconds)."""
    cfg = load_run_config(None, ["d=2", "u=2", "d_a=2", "r=2", "head=dense", "b=2", "classes=2"])
    vocab = Vocab(["<pad>", "<unk>", "a", "b"])
    path = tmp_path / "m.ckpt"
    checkpoint.save_model(path, build_model(cfg, len(vocab), np.random.default_rng(0)), vocab)
    blob = path.read_bytes()

    def corrupted():
        for length in range(len(blob)):
            yield blob[:length]
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            yield bytes(flipped)

    outcomes = {"loaded": 0, "typed error": 0}
    for case in corrupted():
        path.write_bytes(case)
        try:
            checkpoint.restore_model(path)
            outcomes["loaded"] += 1
        except (checkpoint.CheckpointError, ConfigError, DataError):
            outcomes["typed error"] += 1
    assert all(outcomes.values()), outcomes
