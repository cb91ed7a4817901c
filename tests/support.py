"""Shared test helpers: config paths, a toy config, and dataset loading."""

from pathlib import Path

from structattn import data
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


def load_sets(cfg):
    pairs = cfg.head == "gated-pair"
    vocab = data.build_vocab(data.corpus_tokens(cfg.train_path, pairs), cfg.min_count)
    return (vocab,
            data.load_dataset(cfg.train_path, vocab, pairs),
            data.load_dataset(cfg.dev_path, vocab, pairs))
