"""Synthetic keyword-classification tasks for desk-scale runs and tests.

Sentences are filler tokens with a few class-specific keywords planted at
random positions; the label is fully determined by the planted keywords, so
attention has something concrete to find. ``make_pair_task`` is the
sentence-pair version. ``python -m structattn.synth`` writes either task at
one fixed size; the generators take every size as a parameter.
"""

from __future__ import annotations

import argparse
import os

import numpy as np


def make_keyword_task(n_train=200, n_dev=50, classes=2, keywords_per_class=3,
                      plants_per_sentence=1, n_fillers=80, min_len=5, max_len=15, seed=7):
    """Two lists of ``label<TAB>tokens`` lines (train, dev)."""
    rng = np.random.default_rng(seed)
    fillers = [f"f{i:02d}" for i in range(n_fillers)]
    keywords = [[f"kw{c}_{j}" for j in range(keywords_per_class)] for c in range(classes)]

    def sentence(label):
        length = int(rng.integers(min_len, max_len + 1))
        toks = [fillers[int(rng.integers(n_fillers))] for _ in range(length)]
        plants = min(plants_per_sentence, length)
        positions = rng.choice(length, size=plants, replace=False)
        for pos in positions:
            toks[int(pos)] = keywords[label][int(rng.integers(keywords_per_class))]
        return f"{label}\t{' '.join(toks)}"

    def split(n):
        return [sentence(i % classes) for i in range(n)]

    return split(n_train), split(n_dev)


def make_pair_task(n_train=120, n_dev=40, n_fillers=40, min_len=4, max_len=8, seed=7):
    """Sentence-pair task: label 1 when both sentences carry the same marker."""
    rng = np.random.default_rng(seed)
    fillers = [f"f{i:02d}" for i in range(n_fillers)]
    markers = ["ma", "mb"]

    def sentence(marker):
        length = int(rng.integers(min_len, max_len + 1))
        toks = [fillers[int(rng.integers(n_fillers))] for _ in range(length)]
        toks[int(rng.integers(length))] = marker
        return " ".join(toks)

    def pair(label):
        first = markers[int(rng.integers(2))]
        second = first if label == 1 else markers[markers.index(first) ^ 1]
        return f"{label}\t{sentence(first)}\t{sentence(second)}"

    def split(n):
        return [pair(i % 2) for i in range(n)]

    return split(n_train), split(n_dev)


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv=None):
    """Write 200 training and 50 dev examples of the keyword task, or of the
    pair task with ``--pairs``, drawn from ``--seed``, to ``train.txt`` and
    ``dev.txt``."""
    parser = argparse.ArgumentParser(description="generate a toy keyword-classification (or sentence-pair) dataset")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pairs", action="store_true", help="emit a sentence-pair task instead")
    args = parser.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    make_task = make_pair_task if args.pairs else make_keyword_task
    train, dev = make_task(200, 50, seed=args.seed)
    write_lines(os.path.join(args.out_dir, "train.txt"), train)
    write_lines(os.path.join(args.out_dir, "dev.txt"), dev)
    print(f"wrote {len(train)} train and {len(dev)} dev examples to {args.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
