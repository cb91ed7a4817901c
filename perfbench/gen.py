"""Seeded input generator.

Writes every input file of a workload before any timing starts, so the
library only ever sees generated files. The same seed gives byte-identical
files. Returns the file paths and the input properties the results record.
"""

from __future__ import annotations

import os

import numpy as np

from structattn import synth


def _length_stats(token_lists, batch_size):
    """Sentence count, length quartiles, pad ratio and distinct rows per batch.

    Batches are taken in file order; training shuffles, so the traced run's
    ``data.pad_ratio`` is the figure for the batches actually trained on.
    """
    lengths = np.array([len(t) for t in token_lists])
    padded = positions = 0
    distinct = []
    for start in range(0, len(token_lists), batch_size):
        chunk = token_lists[start:start + batch_size]
        width = max(len(t) for t in chunk)
        positions += width * len(chunk)
        padded += sum(width - len(t) for t in chunk)
        distinct.append(len({tok for t in chunk for tok in t}))
    return {
        "sentences": len(token_lists),
        "min_len": int(lengths.min()),
        "median_len": float(np.median(lengths)),
        "max_len": int(lengths.max()),
        "pad_ratio": padded / positions,
        "distinct_rows_per_batch": float(np.mean(distinct)),
    }


def _grid_lengths(rng, n, min_len, max_len):
    """``n`` lengths evenly spaced over [min_len, max_len], in seeded order.

    Every seed gets the same length distribution, so run-to-run differences
    come from the program, not from how many long sentences a seed drew.
    """
    return rng.permutation(np.rint(np.linspace(min_len, max_len, n)).astype(int))


def _zipf_corpus(rng, lengths, n_tokens, classes):
    """Labeled sentences of Zipf-distributed tokens ``w00000``..., one per length."""
    ranks = np.arange(1, n_tokens + 1, dtype=np.float64)
    probs = 1.0 / ranks
    ids = rng.choice(n_tokens, size=int(lengths.sum()), p=probs / probs.sum())
    labels = rng.integers(classes, size=len(lengths))
    out = []
    offset = 0
    for length, label in zip(lengths, labels):
        out.append((int(label), [f"w{i:05d}" for i in ids[offset:offset + length]]))
        offset += length
    return out


def _resample(rng, token_lists, lengths):
    """Sentences of the given lengths drawn from the tokens of ``token_lists``."""
    pool = np.array([tok for toks in token_lists for tok in toks])
    return [" ".join(pool[rng.integers(len(pool), size=length)]) for length in lengths]


def _lexicon_lines(n_tokens, per_line=1000):
    """Every vocabulary token once, in the dataset format, so the vocabulary
    built from the corpus has exactly the configured size."""
    toks = [f"w{i:05d}" for i in range(n_tokens)]
    return [f"0\t{' '.join(toks[i:i + per_line])}" for i in range(0, n_tokens, per_line)]


def _write(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_inputs(w, seed, out_dir):
    """Write workload ``w``'s input files for ``seed`` into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {key: os.path.join(out_dir, f"{key}.txt") for key in ("train", "dev", "sentences")}
    rng = np.random.default_rng(seed)
    if w.task == "keyword":
        train, dev = synth.make_keyword_task(w.n_train, w.n_dev, min_len=w.min_len,
                                             max_len=w.max_len, seed=seed)
        train_tokens = [line.split("\t")[1].split() for line in train]
    elif w.task == "pair":
        train, dev = synth.make_pair_task(w.n_train, w.n_dev, min_len=w.min_len,
                                          max_len=w.max_len, seed=seed)
        train_tokens = [toks for line in train for toks in (c.split() for c in line.split("\t")[1:])]
    elif w.task == "zipf":
        n_tokens = w.vocab_size - 2  # ids 0/1 are the reserved pad/unk rows
        train, dev, embed = (_zipf_corpus(rng, _grid_lengths(rng, n, w.min_len, w.max_len),
                                          n_tokens, w.classes)
                             for n in (w.n_train, w.n_dev, w.n_embed))
        train_tokens = [toks for _, toks in train]
        train, dev = ([f"{label}\t{' '.join(toks)}" for label, toks in part] for part in (train, dev))
        sentences = [" ".join(toks) for _, toks in embed]
        paths["lexicon"] = os.path.join(out_dir, "lexicon.txt")
        _write(paths["lexicon"], _lexicon_lines(n_tokens))
    else:
        raise ValueError(f"unknown task {w.task!r}")
    if w.task != "zipf":
        sentences = _resample(rng, train_tokens, _grid_lengths(rng, w.n_embed, w.min_len, w.max_len))
    _write(paths["train"], train)
    _write(paths["dev"], dev)
    _write(paths["sentences"], sentences)
    props = {
        "train": _length_stats(train_tokens, w.batch_size),
        "sentences": _length_stats([s.split() for s in sentences], w.batch_size),
    }
    return paths, props
