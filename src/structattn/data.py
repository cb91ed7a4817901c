"""Corpus ingestion: vocabulary, datasets, sentence files, pretrained vectors, batches.

File formats (all UTF-8, whitespace-pretokenized):
  single sentences: ``label<TAB>tok tok tok``
  sentence pairs:   ``label<TAB>hypothesis toks<TAB>premise toks``
  sentences:        ``tok tok tok`` per line, unlabeled (``embed``, ``visualize``)
  embeddings:       ``token v1 v2 ... v_dim`` per line
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .encoder import PAD_ID, UNK_ID

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


class DataError(Exception):
    pass


class Vocab:
    """token <-> id maps with ids 0/1 reserved for padding and unknowns."""

    def __init__(self, id_to_token):
        if id_to_token[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise DataError("vocab must reserve ids 0/1 for the pad/unk tokens")
        self.id_to_token = list(id_to_token)
        self.token_to_id = dict(zip(self.id_to_token, range(len(self.id_to_token))))
        if len(self.token_to_id) != len(self.id_to_token):
            # a repeated token would map to its last id and strand the earlier row
            seen = {}
            for i, tok in enumerate(self.id_to_token):
                if tok in seen:
                    raise DataError(f"vocab token {tok!r} is repeated at ids {seen[tok]} and {i}")
                seen[tok] = i

    def __len__(self):
        return len(self.id_to_token)

    def id(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def encode(self, tokens):
        return np.array([self.id(t) for t in tokens], dtype=np.int64)


def build_vocab(corpus, min_count=1):
    """Vocabulary over token lists: frequency desc, ties lexicographic.

    Tokens below ``min_count`` fall back to the unknown id. The reserved
    tokens are not counted: a corpus ``<unk>`` (a pre-marked rare word) is
    the unknown id.
    """
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    counts = Counter()
    for tokens in corpus:
        counts.update(tokens)
    if not counts:
        raise DataError("empty corpus")
    for tok in (PAD_TOKEN, UNK_TOKEN):
        counts.pop(tok, None)
    # lexicographic, then a stable sort by count: ties keep lexicographic order
    kept = sorted(tok for tok, c in counts.items() if c >= min_count)
    kept.sort(key=counts.__getitem__, reverse=True)
    return Vocab([PAD_TOKEN, UNK_TOKEN] + kept)


@dataclass
class Example:
    tokens: np.ndarray
    label: int


@dataclass
class PairExample:
    hypothesis: np.ndarray
    premise: np.ndarray
    label: int


def _tokenize(text, lowercase):
    return (text.lower() if lowercase else text).split()


def numbered_lines(path, error=DataError):
    """The ``(line number, line)`` pairs of a UTF-8 text file, read with
    universal newlines; a byte that is not UTF-8 is an ``error`` naming the
    file and the line that holds the byte."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield from enumerate(fh, start=1)
            return
        except UnicodeDecodeError:
            pass
    # The decoder's error gives a position inside the chunk it was decoding, so
    # the lines are read again with each bad byte kept as a lone surrogate,
    # which no line of UTF-8 text holds and which does not encode back.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise error(f"{path}:{lineno}: not UTF-8 text") from None
    raise error(f"{path}: not UTF-8 text")


def _check_reserved(path, lineno, token_lists):
    if any(PAD_TOKEN in toks for toks in token_lists):
        raise DataError(f"{path}:{lineno}: the padding token {PAD_TOKEN} is reserved")


def read_dataset(path, pairs=False, lowercase=False):
    """Validated ``(label, token lists)`` records, one per non-blank line of a
    dataset file: one token list per sentence, or a pair's hypothesis and premise.

    A literal ``<pad>`` is an error: it would read the padding row.
    """
    want = 3 if pairs else 2
    records = []
    for lineno, line in numbered_lines(path):
        if not line.strip():
            continue
        cells = line.rstrip("\n").split("\t")
        if len(cells) != want:
            raise DataError(f"{path}:{lineno}: expected {want} tab-separated fields, got {len(cells)}")
        try:
            label = int(cells[0])
        except ValueError:
            raise DataError(f"{path}:{lineno}: label is not an integer: {cells[0]!r}") from None
        if label < 0:
            raise DataError(f"{path}:{lineno}: label must be >= 0")
        token_lists = [_tokenize(cell, lowercase) for cell in cells[1:]]
        if any(not toks for toks in token_lists):
            raise DataError(f"{path}:{lineno}: empty sentence")
        _check_reserved(path, lineno, token_lists)
        records.append((label, token_lists))
    if not records:
        raise DataError(f"{path}: no examples")
    return records


def read_sentences(path, lowercase=False):
    """The token list of each non-empty line of a sentences file; empty lines are
    skipped with a warning, and a literal ``<pad>`` is an error, as in ``read_dataset``."""
    out = []
    for lineno, line in numbered_lines(path):
        tokens = _tokenize(line, lowercase)
        if not tokens:
            print(f"warning: {path}:{lineno}: empty sentence line skipped", file=sys.stderr)
            continue
        _check_reserved(path, lineno, [tokens])
        out.append(tokens)
    if not out:
        raise DataError(f"{path}: no sentences")
    return out


def sentences(records):
    """Every token list of ``read_dataset`` records, in file order, for vocabulary building."""
    return [toks for _, token_lists in records for toks in token_lists]


def encode_dataset(records, vocab):
    """Examples of ``read_dataset`` records; unknown words map to UNK."""
    return [Example(vocab.encode(toks[0]), label) if len(toks) == 1
            else PairExample(vocab.encode(toks[0]), vocab.encode(toks[1]), label)
            for label, toks in records]


def load_dataset(path, vocab, pairs=False, lowercase=False):
    """Parse a labeled dataset file into examples; unknown words map to UNK."""
    return encode_dataset(read_dataset(path, pairs, lowercase), vocab)


def corpus_tokens(path, pairs=False, lowercase=False):
    """Token lists of a dataset file, for vocabulary building."""
    return sentences(read_dataset(path, pairs, lowercase))


def read_pretrained(path, vocab, dim, dtype):
    """The vectors of a whitespace text file for the non-reserved tokens of
    ``vocab``, as ``{id: vector}`` in ``dtype``; a token listed twice keeps
    its last vector. Every line must hold ``dim`` finite values."""
    vectors = {}
    for lineno, line in numbered_lines(path):
        parts = line.rstrip("\n").split()
        if not parts:
            continue
        token, values = parts[0], parts[1:]
        if len(values) != dim:
            raise DataError(f"{path}:{lineno}: expected {dim} values, got {len(values)}")
        idx = vocab.token_to_id.get(token)
        if idx is None or idx in (PAD_ID, UNK_ID):
            continue
        try:
            with np.errstate(over="ignore"):  # out of the dtype's range gives inf, rejected below
                vector = np.array([float(v) for v in values], dtype=dtype)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric vector component") from None
        if not np.isfinite(vector).all():
            raise DataError(f"{path}:{lineno}: non-finite vector component")
        vectors[idx] = vector
    return vectors


def write_pretrained(table, vectors):
    """Overwrite the rows of an embedding table (a vocab-by-dim array) that
    ``read_pretrained`` vectors cover; the rest keep what the table held.
    Returns the coverage ratio: the share of non-reserved vocabulary tokens covered."""
    for idx, vector in vectors.items():
        table[idx] = vector
    return len(vectors) / max(table.shape[0] - 2, 1)


def _length_mask(sentences):
    lengths = np.array([len(ids) for ids in sentences])
    return np.arange(lengths.max()) < lengths[:, None]


@dataclass
class Batch:
    sentences: list     # B int64 id arrays, each example's own
    labels: np.ndarray  # B

    def __len__(self):
        return len(self.sentences)

    def inputs(self):
        """Positional arguments of ``Classifier.forward_batch`` for this batch."""
        return (self.sentences,)

    mask = property(lambda self: _length_mask(self.sentences), doc="The padding mask built from the lengths "
                    "on demand; read only by the benchmark tracer's padding ratio, until it reads lengths.")


@dataclass
class PairBatch:
    hypotheses: list    # B int64 id arrays
    premises: list      # B int64 id arrays
    labels: np.ndarray  # B

    def __len__(self):
        return len(self.hypotheses)

    def inputs(self):
        return self.hypotheses, self.premises

    # the padding masks of the hypotheses and premises, only for the tracer, like ``Batch.mask``
    hyp_mask = property(lambda self: _length_mask(self.hypotheses))
    prem_mask = property(lambda self: _length_mask(self.premises))


def batch(examples, size, rng=None):
    """Shuffle (when given an rng) and cut into batches of ``size`` examples,
    each holding its examples' own id arrays."""
    if size < 1:
        raise ValueError("batch size must be >= 1")
    order = np.arange(len(examples))
    if rng is not None:
        order = rng.permutation(len(examples))
    batches = []
    for start in range(0, len(examples), size):
        chunk = [examples[i] for i in order[start:start + size]]
        labels = np.array([ex.label for ex in chunk], dtype=np.int64)
        if isinstance(chunk[0], PairExample):
            batches.append(PairBatch([ex.hypothesis for ex in chunk], [ex.premise for ex in chunk], labels))
        else:
            batches.append(Batch([ex.tokens for ex in chunk], labels))
    return batches
