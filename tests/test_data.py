import re
from collections import Counter

import numpy as np
import pytest

from structattn import data
from structattn import tensor as T
from structattn.config import RunConfig
from structattn.model import build_model

from support import single_edits


class TestVocab:
    def test_min_count_filters(self):
        v = data.build_vocab([["a", "a", "b"]], min_count=2)
        assert "a" in v.token_to_id and "b" not in v.token_to_id
        assert len(v) == 3  # pad, unk, a

    def test_min_count_one_keeps_all(self):
        v = data.build_vocab([["a", "a", "b"]], min_count=1)
        assert {"a", "b"} <= set(v.token_to_id)

    def test_deterministic_across_builds(self):
        corpus = [["x", "y", "z", "y"], ["z", "z", "q"]]
        a = data.build_vocab(corpus).id_to_token
        b = data.build_vocab(corpus).id_to_token
        assert a == b

    def test_frequency_then_lexicographic_order(self):
        v = data.build_vocab([["b", "b", "c", "a", "a", "d"]])
        assert v.id_to_token[2:] == ["a", "b", "c", "d"]

    @pytest.mark.parametrize("min_count", [1, 2])
    def test_order_with_many_ties_is_count_desc_then_lexicographic(self, rng, min_count):
        words = [f"{c}{i}" for c in "zyxab" for i in range(40)]
        zipf = 1.0 / np.arange(1, len(words) + 1)
        corpus = [[str(w) for w in rng.choice(words, size=rng.integers(1, 12), p=zipf / zipf.sum())]
                  for _ in range(150)]
        counts = {}
        for tokens in corpus:
            for tok in tokens:
                counts[tok] = counts.get(tok, 0) + 1
        assert len(set(counts.values())) < len(counts) / 4  # mostly ties
        assert 1 in counts.values()  # min_count 2 drops some
        kept = sorted((tok for tok, c in counts.items() if c >= min_count),
                      key=lambda tok: (-counts[tok], tok))
        v = data.build_vocab(corpus, min_count=min_count)
        assert v.id_to_token[2:] == kept
        assert v.token_to_id == {tok: i for i, tok in enumerate(v.id_to_token)}

    def test_reserved_ids(self):
        v = data.build_vocab([["w"]])
        assert v.token_to_id[data.PAD_TOKEN] == 0
        assert v.token_to_id[data.UNK_TOKEN] == 1
        assert v.id("unseen-token") == 1

    def test_reserved_tokens_are_not_counted(self):
        v = data.build_vocab([["<unk>", "a", "<unk>", "<pad>"], ["<unk>", "b", "a"]])
        assert v.id_to_token == ["<pad>", "<unk>", "a", "b"]

    def test_empty_corpus_rejected(self):
        with pytest.raises(data.DataError):
            data.build_vocab([])

    @pytest.mark.parametrize("tokens, token, first, second", [
        (["<pad>", "<unk>", "b", "b", "<pad>"], "b", 2, 3),
        (["<pad>", "<unk>", "a", "<unk>"], "<unk>", 1, 3),
    ])
    def test_duplicate_token_rejected(self, tokens, token, first, second):
        with pytest.raises(data.DataError, match=f"{token!r} is repeated at ids {first} and {second}"):
            data.Vocab(tokens)


class TestLoadDataset:
    def test_parse_line(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("3\tgood food\n", encoding="utf-8")
        vocab = data.build_vocab([["good", "food"]])
        [ex] = data.load_dataset(path, vocab)
        assert ex.label == 3 and len(ex.tokens) == 2

    def test_unknown_word_maps_to_unk(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0\tgood mystery\n", encoding="utf-8")
        vocab = data.build_vocab([["good"]])
        [ex] = data.load_dataset(path, vocab)
        assert ex.tokens[1] == 1

    def test_round_trip_token_count(self, tmp_path):
        lines = ["0\ta b c", "1\td e", "0\tf"]
        path = tmp_path / "d.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        vocab = data.build_vocab(data.corpus_tokens(path))
        examples = data.load_dataset(path, vocab)
        assert sum(len(ex.tokens) for ex in examples) == 6

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0\tok here\nnot-a-label\tx\n", encoding="utf-8")
        vocab = data.build_vocab([["ok"]])
        with pytest.raises(data.DataError, match=":2:"):
            data.load_dataset(path, vocab)

    def test_corpus_unk_is_the_unknown_id(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0\ta <unk> b\n1\t<unk> <unk>\n", encoding="utf-8")
        vocab = data.build_vocab(data.corpus_tokens(path))
        first, second = data.load_dataset(path, vocab)
        assert first.tokens.tolist() == [vocab.id("a"), data.UNK_ID, vocab.id("b")]
        assert second.tokens.tolist() == [data.UNK_ID, data.UNK_ID]

    @pytest.mark.parametrize("pairs, line", [(False, "1\tx <pad> y"), (True, "1\tx y\t<pad>")])
    def test_literal_pad_rejected_with_line(self, tmp_path, pairs, line):
        path = tmp_path / "d.txt"
        path.write_text(("0\tok\tok\n" if pairs else "0\tok\n") + line + "\n", encoding="utf-8")
        with pytest.raises(data.DataError, match=f"^{re.escape(str(path))}:2: the padding token <pad> is reserved$"):
            data.read_dataset(path, pairs)

    def test_pairs(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text("2\ta b\tc d e\n", encoding="utf-8")
        vocab = data.build_vocab([["a", "b", "c", "d", "e"]])
        [ex] = data.load_dataset(path, vocab, pairs=True)
        assert ex.label == 2 and len(ex.hypothesis) == 2 and len(ex.premise) == 3

    def test_empty_sentence_rejected(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0\t\n", encoding="utf-8")
        vocab = data.build_vocab([["x"]])
        with pytest.raises(data.DataError, match="empty"):
            data.load_dataset(path, vocab)

    def test_blank_lines_only_is_no_examples(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("\n \n\n", encoding="utf-8")
        with pytest.raises(data.DataError, match="no examples"):
            data.read_dataset(path)

    def test_lowercase_flag(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("0\tGood\n", encoding="utf-8")
        vocab = data.build_vocab([["good"]])
        [kept] = data.load_dataset(path, vocab, lowercase=True)
        [dropped] = data.load_dataset(path, vocab, lowercase=False)
        assert kept.tokens[0] == vocab.token_to_id["good"]
        assert dropped.tokens[0] == 1



class TestReadSentences:
    def test_token_lists_with_empty_lines_skipped(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_text("A b\n\n  \nc\n", encoding="utf-8")
        assert data.read_sentences(path, lowercase=True) == [["a", "b"], ["c"]]
        err = capsys.readouterr().err
        assert f"warning: {path}:2: empty sentence line skipped" in err
        assert f"warning: {path}:3: empty sentence line skipped" in err

    @pytest.mark.parametrize("lowercase", [False, True])
    def test_literal_pad_rejected_with_line(self, tmp_path, lowercase):
        path = tmp_path / "s.txt"
        path.write_text("a b\nc <pad> d\n", encoding="utf-8")
        with pytest.raises(data.DataError, match=f"^{re.escape(str(path))}:2: the padding token <pad> is reserved$"):
            data.read_sentences(path, lowercase)

    def test_no_sentences(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("\n \n", encoding="utf-8")
        with pytest.raises(data.DataError, match="no sentences"):
            data.read_sentences(path)

class TestLoadPretrained:
    """Pretrained vectors as the CLI loads them: ``read_pretrained`` of a
    file, then ``write_pretrained`` into an embedding table."""

    @staticmethod
    def load(path, vocab, table):
        return data.write_pretrained(table, data.read_pretrained(path, vocab, table.shape[1], table.dtype))

    def test_full_coverage(self, tmp_path, rng):
        vocab = data.build_vocab([["x", "y"]])
        path = tmp_path / "vec.txt"
        path.write_text("x 1 2 3\ny 4 5 6\n", encoding="utf-8")
        table = rng.uniform(-0.1, 0.1, (len(vocab), 3)).astype(np.float32)
        coverage = self.load(path, vocab, table)
        assert coverage == 1.0
        assert np.array_equal(table[vocab.token_to_id["x"]], [1, 2, 3])
        assert table.dtype == np.float32

    def test_repeated_token_counts_once_and_last_vector_wins(self, tmp_path):
        vocab = data.build_vocab([["a", "b", "c"]])
        path = tmp_path / "vec.txt"
        path.write_text("a 1 1\nb 2 2\na 3 3\nb 4 4\n", encoding="utf-8")
        table = np.zeros((len(vocab), 2), dtype=np.float32)
        assert self.load(path, vocab, table) == 2 / 3
        assert np.array_equal(table[vocab.token_to_id["a"]], [3, 3])
        assert np.array_equal(table[vocab.token_to_id["b"]], [4, 4])

    def test_empty_file_random_everything(self, tmp_path, rng):
        vocab = data.build_vocab([["x", "y"]])
        path = tmp_path / "vec.txt"
        path.write_text("", encoding="utf-8")
        table = rng.uniform(-0.1, 0.1, (len(vocab), 3))
        before = table.copy()
        coverage = self.load(path, vocab, table)
        assert coverage == 0.0
        assert np.array_equal(table, before)

    def test_dimension_mismatch_reports_line(self, tmp_path, rng):
        vocab = data.build_vocab([["x"]])
        path = tmp_path / "vec.txt"
        path.write_text("x 1 2 3\nx 1 2\n", encoding="utf-8")
        with pytest.raises(data.DataError, match=":2:"):
            self.load(path, vocab, np.zeros((len(vocab), 3)))

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e39"])
    def test_non_finite_component_reports_line(self, tmp_path, value):
        vocab = data.build_vocab([["x", "y"]])
        path = tmp_path / "vec.txt"
        path.write_text(f"x 1 2\ny {value} 0.1\n", encoding="utf-8")
        table = np.zeros((len(vocab), 2), dtype=np.float32)
        with pytest.raises(data.DataError, match=r":2: non-finite vector component"):
            self.load(path, vocab, table)

    def test_one_parse_writes_the_bits_of_a_load_into_each_table(self, tmp_path, rng):
        vocab = data.build_vocab([["x", "y", "z"]])
        path = tmp_path / "vec.txt"
        path.write_text("x 0.1 -2.5\nzz 1 1\ny 1e-3 7\nx 0.3 0.7\n", encoding="utf-8")
        start = rng.uniform(-0.1, 0.1, (len(vocab), 2)).astype(np.float32)
        loaded = start.copy()
        want = self.load(path, vocab, loaded)
        vectors = data.read_pretrained(path, vocab, 2, np.float32)
        for _ in range(2):
            table = start.copy()
            assert data.write_pretrained(table, vectors) == want == 2 / 3
            assert table.tobytes() == loaded.tobytes()

    def test_vocab_untouched(self, tmp_path, rng):
        vocab = data.build_vocab([["x", "y"]])
        before = list(vocab.id_to_token)
        path = tmp_path / "vec.txt"
        path.write_text("x 9 9\nzz 1 1\n", encoding="utf-8")
        self.load(path, vocab, np.zeros((len(vocab), 2)))
        assert vocab.id_to_token == before


class TestBatch:
    def examples(self, lengths, labels=None):
        labels = labels or [0] * len(lengths)
        return [data.Example(np.arange(2, 2 + n), lab) for n, lab in zip(lengths, labels)]

    def test_equal_lengths_no_padding(self, rng):
        [b] = data.batch(self.examples([3, 3]), size=2, rng=rng)
        assert b.mask.all() and b.mask.shape == (2, 3)
        assert [len(ids) for ids in b.sentences] == [3, 3]

    def test_batch_of_one_mask_all_true(self):
        [b] = data.batch(self.examples([4]), size=1)
        assert b.mask.all()

    def test_pads_to_batch_max(self):
        """The mask view is the mask of the batch padded to its longest sentence."""
        [b] = data.batch(self.examples([2, 4]), size=2)
        assert b.mask.shape == (2, 4) and b.mask.dtype == bool
        assert b.mask.sum() == 6
        assert np.array_equal(b.mask, [[True, True, False, False], [True] * 4])

    def test_shuffle_is_seeded(self):
        exs = self.examples(list(range(1, 11)), labels=list(range(10)))
        a = data.batch(exs, 3, np.random.default_rng(5))
        b = data.batch(exs, 3, np.random.default_rng(5))
        for x, y in zip(a, b):
            assert np.array_equal(x.labels, y.labels)
            assert all(s is t for s, t in zip(x.sentences, y.sentences))

    def test_pair_batches(self):
        exs = [data.PairExample(np.array([2, 3]), np.array([4]), 1)]
        [b] = data.batch(exs, 1)
        assert b.hypotheses[0] is exs[0].hypothesis and b.premises[0] is exs[0].premise
        assert b.hyp_mask.shape == (1, 2) and b.prem_mask.shape == (1, 1)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            data.batch(self.examples([2]), 0)

    def test_holds_the_examples_arrays_in_seeded_order(self):
        """Each batch holds its examples' own id arrays, unpadded and uncopied,
        in the order of the seeded permutation."""
        exs = self.examples([3, 1, 4, 1, 5, 9, 2], labels=[0, 1, 2, 3, 4, 5, 6])
        pairs = [data.PairExample(ex.tokens, ex.tokens[::-1].copy(), ex.label) for ex in exs]
        order = np.random.default_rng(5).permutation(len(exs))
        singles = data.batch(exs, 3, np.random.default_rng(5))
        pair_batches = data.batch(pairs, 3, np.random.default_rng(5))
        assert [len(b) for b in singles] == [len(b) for b in pair_batches] == [3, 3, 1]
        i = 0
        for b, pb in zip(singles, pair_batches):
            for j in range(len(b)):
                k = order[i]
                assert b.sentences[j] is exs[k].tokens and b.labels[j] == k
                assert pb.hypotheses[j] is pairs[k].hypothesis and pb.premises[j] is pairs[k].premise
                assert pb.labels[j] == k
                i += 1
            assert b.inputs()[0] is b.sentences
            assert pb.inputs()[0] is pb.hypotheses and pb.inputs()[1] is pb.premises

    def test_mask_views_equal_the_padded_masks(self):
        """The read-only mask views are the masks of each batch padded to its
        longest sentence, so a padding ratio read from them cannot move."""
        def padded_mask(token_lists):
            mask = np.zeros((len(token_lists), max(len(t) for t in token_lists)), dtype=bool)
            for i, toks in enumerate(token_lists):
                mask[i, :len(toks)] = True
            return mask

        rng = np.random.default_rng(8)
        lengths = rng.integers(1, 12, size=23)
        exs = self.examples(list(lengths))
        pairs = [data.PairExample(ex.tokens, np.arange(2, 2 + int(n)), 0)
                 for ex, n in zip(exs, rng.integers(1, 12, size=23))]
        for b in data.batch(exs, 5, np.random.default_rng(1)):
            assert np.array_equal(b.mask, padded_mask(b.sentences)) and b.mask.dtype == bool
        for b in data.batch(pairs, 5, np.random.default_rng(1)):
            assert np.array_equal(b.hyp_mask, padded_mask(b.hypotheses))
            assert np.array_equal(b.prem_mask, padded_mask(b.premises))
        [b] = data.batch([data.PairExample(np.arange(2, 5), np.arange(2, 7), 0),
                          data.PairExample(np.arange(2, 4), np.arange(2, 3), 0)], 2)
        assert b.hyp_mask.shape == (2, 3) and b.hyp_mask.sum() == 5
        assert b.prem_mask.shape == (2, 5) and b.prem_mask.sum() == 6
        with pytest.raises(AttributeError):
            b.hyp_mask = None


def test_padding_inertness_through_model(rng):
    """Model outputs match between a lone sentence and its padded batch row."""
    cfg = RunConfig(d=6, u=5, d_a=4, r=3, head="dense", b=7, classes=2, dropout=0.0).validate()
    net = build_model(cfg, vocab_size=10, rng=rng)
    examples = [data.Example(np.array([2, 3, 4]), 0), data.Example(np.array([5, 6, 7, 8, 2, 3]), 1)]
    [b] = data.batch(examples, size=2)
    with T.no_grad():
        for ex, mask in zip(examples, b.mask):
            padded = np.zeros(mask.shape, dtype=np.int64)
            padded[mask] = ex.tokens
            alone, _ = net.forward(ex.tokens)
            batched, _ = net.forward(padded, mask)
            assert np.array_equal(alone.data, batched.data)


@pytest.mark.parametrize("pairs, text, edits", [(False, "1\tkw0 f01\n0\tf02 kw1\n", 486),
                                                (True, "1\tkw0 f1\tf2\n0\tf3\tkw1 f4\n", 586)], ids=["single", "pair"])
def test_every_single_edit_of_a_dataset_line_is_records_or_a_data_error(tmp_path, pairs, text, edits):
    """Each one-character edit of a line of a two-line dataset reads as
    well-formed records or is a ``DataError``; no other exception escapes."""
    path = tmp_path / "d.txt"
    outcomes = Counter()
    for edited in single_edits(text):
        path.write_text(edited, encoding="utf-8")
        try:
            records = data.read_dataset(path, pairs)
        except data.DataError:
            outcomes["error"] += 1
            continue
        assert records and all(label >= 0 and len(token_lists) == 1 + pairs and all(token_lists)
                               for label, token_lists in records)
        outcomes["records"] += 1
    assert outcomes["records"] > 0 and outcomes["error"] > 0
    assert sum(outcomes.values()) == edits


def test_every_single_edit_of_a_sentences_line_is_token_lists_or_a_data_error(tmp_path):
    """Each one-character edit of a line of a two-line sentences file reads as
    non-empty token lists or is a ``DataError``; no other exception escapes."""
    path = tmp_path / "s.txt"
    outcomes = Counter()
    for edited in single_edits("kw0 f01\nf02 kw1\n"):
        path.write_text(edited, encoding="utf-8")
        try:
            token_lists = data.read_sentences(path)
        except data.DataError:
            outcomes["error"] += 1
            continue
        assert token_lists and all(toks and data.PAD_TOKEN not in toks for toks in token_lists)
        outcomes["token lists"] += 1
    # no single edit can empty both lines or spell ``<pad>``
    assert outcomes == {"token lists": 386}


def test_every_single_edit_of_a_vectors_line_is_vectors_or_a_data_error(tmp_path):
    """Each one-character edit of a line of a two-line vectors file (dim 3)
    reads as finite vectors of the vocabulary's words or is a ``DataError``;
    no other exception escapes."""
    path = tmp_path / "v.txt"
    vocab = data.build_vocab([["kw0", "f01"]])
    outcomes = Counter()
    for edited in single_edits("kw0 0.5 -1 2\nf01 1e3 0 .25\n"):
        path.write_text(edited, encoding="utf-8")
        try:
            vectors = data.read_pretrained(path, vocab, 3, np.float32)
        except data.DataError:
            outcomes["error"] += 1
            continue
        assert set(vectors) <= {vocab.id("kw0"), vocab.id("f01")}
        assert all(v.shape == (3,) and v.dtype == np.float32 and np.isfinite(v).all() for v in vectors.values())
        outcomes["vectors"] += 1
    assert outcomes["vectors"] > 0 and outcomes["error"] > 0
    assert sum(outcomes.values()) == 661


@pytest.mark.parametrize("lines", [0, 5000], ids=["first-line", "after-5000-lines"])
@pytest.mark.parametrize("reader, line", [
    (lambda path: data.read_dataset(path), b"1\tkw0 f1\n"),
    (lambda path: data.read_sentences(path), b"kw0 f1\n"),
    (lambda path: data.read_pretrained(path, data.build_vocab([["kw0"]]), 2, np.float32), b"kw0 0.5 -1\n"),
], ids=["read_dataset", "read_sentences", "read_pretrained"])
def test_bytes_that_are_not_utf8_are_a_data_error_naming_the_file(tmp_path, reader, line, lines):
    """The error names the line that holds the byte, not a position inside the
    decoder's chunk."""
    path = tmp_path / "in.txt"
    path.write_bytes(line * lines + b"kw0 \xff\n")
    with pytest.raises(data.DataError, match=f"^{re.escape(str(path))}:{lines + 1}: not UTF-8 text$"):
        reader(path)


def test_the_line_of_a_byte_that_is_not_utf8_counts_every_universal_newline(tmp_path):
    """Lines end at \\r\\n, \\r or \\n, as the readers split them."""
    path = tmp_path / "in.txt"
    path.write_bytes(b"a\r\nb\rc\n\xe2\x82\xac d\n")
    assert data.read_sentences(path) == [["a"], ["b"], ["c"], ["\u20ac", "d"]]
    path.write_bytes(b"a\r\nb\rc\nd \xe2\x82")
    with pytest.raises(data.DataError, match=f"^{re.escape(str(path))}:4: not UTF-8 text$"):
        data.read_sentences(path)


def test_a_file_mended_between_the_two_reads_is_still_an_error(tmp_path, monkeypatch):
    """The second read, which looks for the line of the bad byte, may find
    none in a file rewritten after the first read failed; the error then
    names the file alone."""
    path = tmp_path / "in.txt"
    path.write_bytes(b"kw0 \xff\n")

    def mend_then_open(file, *args, **kwargs):
        if kwargs.get("errors") == "surrogateescape":
            path.write_bytes(b"kw0\n")
        return open(file, *args, **kwargs)

    monkeypatch.setattr(data, "open", mend_then_open, raising=False)
    with pytest.raises(data.DataError, match=f"^{re.escape(str(path))}: not UTF-8 text$"):
        data.read_sentences(path)
