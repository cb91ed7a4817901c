"""Shared test helpers: config paths, a toy config, a checkpoint with a
repeated tensor, the per-value embedding CSV and single-character edits."""

import csv
import io
import json
from pathlib import Path

import numpy as np

from structattn import checkpoint
from structattn.config import load_run_config
from structattn.synth import make_keyword_task, write_lines

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

# Filled by test_acceptance.report(); echoed after the run so the
# per-criterion lines show without -s.
ACCEPTANCE_LINES = []

TOY_OVERRIDES = [
    "d=8", "u=8", "d_a=8", "r=2", "head=dense", "b=8", "classes=2",
    "optimizer=sgd", "learning_rate=0.1", "batch_size=8", "penalty_coeff=1.0",
    "dropout=0.0", "l2=0.0001", "clip=0.5", "max_epochs=2", "patience=2", "seed=3",
]


def tiny_config(tmp_path, **extra):
    """A fast throwaway config with datasets, for CLI and training tests."""
    train, dev = make_keyword_task(n_train=24, n_dev=8, classes=2, keywords_per_class=2,
                                   n_fillers=12, min_len=3, max_len=6, seed=5)
    write_lines(tmp_path / "train.txt", train)
    write_lines(tmp_path / "dev.txt", dev)
    overrides = dict(kv.split("=") for kv in TOY_OVERRIDES)
    overrides.update({
        "train_path": str(tmp_path / "train.txt"),
        "dev_path": str(tmp_path / "dev.txt"),
        "checkpoint_path": str(tmp_path / "model.ckpt"),
        "history_path": str(tmp_path / "history.csv"),
    })
    overrides.update({k: str(v) for k, v in extra.items()})
    return load_run_config(None, [f"{k}={v}" for k, v in overrides.items()])


def append_repeated_tensor(path, name):
    """Give a saved checkpoint a second manifest entry and payload for ``name``,
    with other values than the first."""
    raw = Path(path).read_bytes()
    start = len(checkpoint.MAGIC) + 12
    end = start + int.from_bytes(raw[start - 8:start], "little")
    header = json.loads(raw[start:end])
    entry = next(e for e in header["manifest"] if e[0] == name)
    header["manifest"].append(entry)
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    second = np.full(entry[1], 0.5, dtype="<f4").tobytes()
    Path(path).write_bytes(raw[:start - 8] + len(blob).to_bytes(8, "little") + blob + raw[end:] + second)


def per_value_repr_csv(blocks):
    """The embedding CSV as csv.writer writes it with repr(float(v)) per value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    width = blocks[0][1].shape[1] if blocks else 0
    writer.writerow(["sentence", "hop"] + [f"dim{j}" for j in range(width)])
    for sentence_id, block in blocks:
        for hop in range(block.shape[0]):
            writer.writerow([sentence_id, hop] + [repr(float(v)) for v in block[hop]])
    return buf.getvalue()


# The characters the single-edit fuzz inserts and substitutes: the separators
# (`=`, `#`, space, tab), the characters of numbers (`0 1 - . e`), `x` and `n`
# (hex, `none`, `nan`) and one character beyond ASCII.
EDIT_ALPHABET = "=# 01-.x\téen"


def single_edits(text):
    """Every text that differs from ``text`` in one line by one deleted,
    inserted or substituted character (``EDIT_ALPHABET``); the empty line after
    a final newline counts as a line."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        edited = [line[:j] + line[j + 1:] for j in range(len(line))]
        edited += [line[:j] + c + line[j:] for j in range(len(line) + 1) for c in EDIT_ALPHABET]
        edited += [line[:j] + c + line[j + 1:] for j in range(len(line)) for c in EDIT_ALPHABET]
        for new in edited:
            yield "\n".join(lines[:i] + [new] + lines[i + 1:])
