import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from structattn import checks, encoder
from structattn import tensor as T
from structattn.config import load_run_config
from structattn.model import build_model


def lstm_params(rng, d, u, dtype):
    """One direction's (w_x, w_h, bias)."""
    return (T.glorot(rng, (4 * u, d), dtype), T.glorot(rng, (4 * u, u), dtype),
            T.Tensor(np.zeros(4 * u, dtype), requires_grad=True))


def make_params(rng, d=3, u=4, dtype=np.float64):
    return lstm_params(rng, d, u, dtype), lstm_params(rng, d, u, dtype)


def random_table(rng, vocab_size, dim, dtype=T.DEFAULT_DTYPE):
    return T.uniform(rng, -0.1, 0.1, (vocab_size, dim), dtype)


def toy_model(rng, dtype=T.DEFAULT_DTYPE):
    cfg = load_run_config(None, ["d=3", "u=4", "d_a=2", "r=2", "head=dense", "b=2", "classes=2"])
    return build_model(cfg, 6, rng, dtype)


def lstm_weights(net):
    """A model's two LSTM directions, each as ``(w_x, w_h, bias)``."""
    p = net.named_parameters()
    return tuple(tuple(p[f"{part}.{name}"] for name in ("w_x", "w_h", "bias"))
                 for part in ("lstm_fwd", "lstm_bwd"))


def padded(ids, n_pad, fill=0):
    """``ids`` followed by ``n_pad`` padding positions holding ``fill``, and its mask."""
    tokens = np.concatenate([ids, np.full(n_pad, fill, dtype=np.asarray(ids).dtype)])
    return tokens, np.arange(len(tokens)) < len(ids)


class TestEmbedding:
    def test_single_token_is_table_row(self, rng):
        table = random_table(rng, 6, 4)
        out = encoder.embed([3], table)
        assert out.shape == (1, 4)
        assert np.array_equal(out.data[0], table.data[3])

    def test_repeated_tokens_identical_rows(self, rng):
        table = random_table(rng, 6, 4)
        out = encoder.embed([2, 2, 2], table)
        assert np.array_equal(out.data[0], out.data[1])
        assert np.array_equal(out.data[1], out.data[2])

    def test_pad_row_starts_zero(self, rng):
        table = toy_model(rng).named_parameters()["embedding.table"].data
        assert (table[encoder.PAD_ID] == 0).all()
        assert (table[encoder.PAD_ID + 1:] != 0).all()

    def test_out_of_range_id(self, rng):
        table = random_table(rng, 6, 4)
        with pytest.raises(IndexError):
            encoder.embed([6], table)

    def test_gradient_accumulates_over_repeats(self, rng):
        table = random_table(rng, 5, 3, np.float64)

        def loss(tab):
            return T.frobenius_sq(encoder.embed([1, 1, 2], tab))

        assert checks.grad_check(loss, [table]) < 1e-4


class TestLstmStep:
    def test_zero_parameters_give_zero_state(self):
        u, d = 3, 2
        h, c = checks.lstm_step(T.zeros(d), T.zeros(u), T.zeros(u),
                                T.zeros((4 * u, d)), T.zeros((4 * u, u)), T.zeros(4 * u))
        assert (h.data == 0).all() and (c.data == 0).all()

    def test_saturated_forget_gate_copies_cell(self, rng):
        # forget bias +inf-ish and all other gates shut: c_t = c_prev
        u, d = 3, 2
        bias = np.full(4 * u, -60.0)
        bias[u:2 * u] = 60.0
        c_prev = T.Tensor(rng.standard_normal(u))
        _, c = checks.lstm_step(T.zeros(d, np.float64), T.zeros(u, np.float64), c_prev,
                                T.zeros((4 * u, d)), T.zeros((4 * u, u)), T.Tensor(bias, dtype=np.float64))
        assert np.allclose(c.data, c_prev.data)

    def test_forget_bias_initialized_to_one(self, rng):
        params = toy_model(rng).named_parameters()
        for part in ("lstm_fwd", "lstm_bwd"):
            bias = params[f"{part}.bias"].data
            assert (bias[4:8] == 1.0).all()
            assert (bias[:4] == 0.0).all() and (bias[8:] == 0.0).all()

    def test_deterministic_and_stateless(self, rng):
        p, _ = make_params(rng)
        x = T.Tensor(rng.standard_normal(3))
        h0 = T.Tensor(rng.standard_normal(4))
        c0 = T.Tensor(rng.standard_normal(4))
        h1, c1 = checks.lstm_step(x, h0, c0, *p)
        h2, c2 = checks.lstm_step(x, h0, c0, *p)
        assert np.array_equal(h1.data, h2.data) and np.array_equal(c1.data, c2.data)

    def test_gradient(self, rng):
        d, u = 3, 4

        def loss(*args):
            h, c = checks.lstm_step(*args)
            return T.sum_all(T.mul(h, c))

        inputs = [T.Tensor(rng.standard_normal(s)) for s in
                  [(d,), (u,), (u,), (4 * u, d), (4 * u, u), (4 * u,)]]
        assert checks.grad_check(loss, inputs) < 1e-4

    def test_inconsistent_shapes_rejected(self):
        # 12 gate rows cannot hold four gates of u=4 units
        bad = (T.zeros((12, 2)), T.zeros((12, 4)), T.zeros(12))
        with pytest.raises(T.ShapeError):
            checks.lstm_step(T.zeros(2), T.zeros(4), T.zeros(4), *bad)
        with pytest.raises(T.ShapeError):
            encoder.bilstm(T.zeros((3, 2)), [3], bad, bad)


class TestBilstm:
    def test_single_token_shape(self, rng):
        p_fwd, p_bwd = make_params(rng)
        s = T.Tensor(rng.standard_normal((1, 3)))
        assert encoder.bilstm(s, [1], p_fwd, p_bwd).shape == (1, 8)

    def test_output_width_independent_of_length(self, rng):
        p_fwd, p_bwd = make_params(rng)
        for n in (1, 2, 5):
            s = T.Tensor(rng.standard_normal((n, 3)))
            assert encoder.bilstm(s, [n], p_fwd, p_bwd).shape == (n, 8)

    # Padding ends at ``Classifier.encode``: it cuts a padded sentence to its
    # real tokens before the biLSTM runs, and validates the mask.
    def test_masked_rows_zero(self, rng):
        net = toy_model(rng)
        tokens, mask = padded([2, 3, 4], 2, fill=5)
        h, a, m = net.encode(tokens, mask)
        assert h.shape == (3, 8) and m.shape == (2, 8)
        assert a.shape == (2, 5)
        assert (a.data[:, 3:] == 0).all()

    def test_padding_never_influences_real_rows(self, rng):
        net = toy_model(rng)
        ids = np.array([2, 3, 4])
        h, a, m = net.encode(ids)
        for fill in (0, 5):
            h_pad, a_pad, m_pad = net.encode(*padded(ids, 2, fill))
            assert np.array_equal(h.data, h_pad.data)
            assert np.array_equal(a.data, a_pad.data[:, :3])
            assert np.array_equal(m.data, m_pad.data)

    def test_reversal_swaps_direction_halves(self, rng):
        p_fwd, p_bwd = make_params(rng)
        u = p_fwd[1].shape[1]
        base = rng.standard_normal((4, 3))
        fwd_run = encoder.bilstm(T.Tensor(base), [4], p_fwd, p_bwd)
        rev_run = encoder.bilstm(T.Tensor(base[::-1].copy()), [4], p_bwd, p_fwd)
        for t in range(4):
            mirrored = rev_run.data[3 - t]
            assert np.array_equal(fwd_run.data[t][:u], mirrored[u:])
            assert np.array_equal(fwd_run.data[t][u:], mirrored[:u])

    def test_empty_and_all_masked_rejected(self, rng):
        net = toy_model(rng)
        with pytest.raises(ValueError, match="empty sequence"):
            net.encode(np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError, match="empty sequence"):
            net.encode(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=bool))
        with pytest.raises(ValueError, match="no real tokens"):
            net.encode(np.array([2, 3]), np.zeros(2, dtype=bool))
        with pytest.raises(T.ShapeError, match="mask shape"):
            net.encode(np.array([2, 3, 4]), np.ones(2, dtype=bool))

    def test_non_contiguous_mask_rejected(self, rng):
        net = toy_model(rng)
        with pytest.raises(ValueError, match="contiguous"):
            net.encode(np.array([2, 3, 4]), np.array([True, False, True]))
        with pytest.raises(ValueError, match="contiguous"):
            net.forward(np.array([2, 3, 4]), np.array([False, True, True]))

    def test_gradient_through_three_tokens(self, rng):
        d, u = 2, 3

        def loss(s, wxf, whf, bf, wxb, whb, bb):
            return T.frobenius_sq(encoder.bilstm(s, [3], (wxf, whf, bf), (wxb, whb, bb)))

        inputs = [T.Tensor(rng.standard_normal(s)) for s in
                  [(3, d), (4 * u, d), (4 * u, u), (4 * u,), (4 * u, d), (4 * u, u), (4 * u,)]]
        assert checks.grad_check(loss, inputs) < 1e-4


def per_token_bilstm(s, p_fwd, p_bwd):
    """The per-token autodiff graph ``bilstm`` replaced, as a reference."""
    n, u = s.shape[0], p_fwd[1].shape[1]
    halves = []
    for p, order in ((p_fwd, range(n)), (p_bwd, range(n - 1, -1, -1))):
        h, c = T.zeros(u, s.dtype), T.zeros(u, s.dtype)
        states = [None] * n
        for t in order:
            h, c = checks.lstm_step(T.gather_rows(s, t), h, c, *p)
            states[t] = h
        halves.append(states)
    return T.concat([T.reshape(T.concat([f, b]), (1, -1)) for f, b in zip(*halves)])


class TestFusedScanMatchesPerTokenGraph:
    @pytest.mark.parametrize("n_real", [1, 2, 7])
    @pytest.mark.parametrize("n_pad", [0, 2])
    def test_states_and_gradients_float64(self, rng, n_real, n_pad):
        """H of ``Classifier.encode`` on a (padded) sentence, and the gradients
        it sends to the embedding and LSTM weights, equal the per-token graph
        over the real tokens alone."""
        net = toy_model(rng, np.float64)
        p_fwd, p_bwd = lstm_weights(net)
        for _, _, bias in (p_fwd, p_bwd):
            bias.data += rng.standard_normal(bias.shape)
        table = net.named_parameters()["embedding.table"]
        ids = rng.integers(2, 6, size=n_real)
        tokens, mask = padded(ids, n_pad, fill=3)
        weights = rng.standard_normal((n_real, 8))
        leaves = [table, *p_fwd, *p_bwd]

        def states_and_grads(run):
            for leaf in leaves:
                leaf.grad = None
            h = run()
            T.sum_all(T.mul(h, T.Tensor(weights))).backward()
            return h.data, [np.array(leaf.grad) for leaf in leaves]

        want_h, want_grads = states_and_grads(
            lambda: per_token_bilstm(encoder.embed(ids, table), p_fwd, p_bwd))
        got_h, got_grads = states_and_grads(lambda: net.encode(tokens, mask)[0])
        assert got_h.shape == (n_real, 8)
        assert np.abs(got_h - want_h).max() <= 1e-12
        for got, want in zip(got_grads, want_grads):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12

    def test_paper_shape_float32_forward(self, rng):
        p_fwd, p_bwd = make_params(rng, d=100, u=300, dtype=np.float32)
        s = T.Tensor(rng.uniform(-0.1, 0.1, (100, 100)).astype(np.float32))
        with T.no_grad():
            want = per_token_bilstm(s, p_fwd, p_bwd).data
            got = encoder.bilstm(s, [100], p_fwd, p_bwd).data
        assert got.dtype == np.float32
        assert np.abs(got - want).max() <= 1e-6


MIXED_LENGTHS = (5, 1, 9, 2, 1, 7)


def scan_states_and_grads(lengths, x, weights, out_weights, reverse, packed):
    """States and gradients of one direction over sentences of ``lengths``:
    one packed ``lstm_scan``, or one scan per sentence in one graph."""
    for t in weights:
        t.grad = None
    if packed:
        xs = [T.Tensor(x.copy(), requires_grad=True)]
        h = T.lstm_scan(xs[0], lengths, *weights, reverse=reverse)
    else:
        starts = np.cumsum(lengths) - lengths
        xs = [T.Tensor(x[s:s + n].copy(), requires_grad=True) for s, n in zip(starts, lengths)]
        h = T.concat([T.lstm_scan(xi, [len(xi.data)], *weights, reverse=reverse) for xi in xs])
    T.sum_all(T.mul(h, T.Tensor(out_weights))).backward()
    return [h.data, np.concatenate([xi.grad for xi in xs])] + [t.grad for t in weights]


class TestPackedScan:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_equals_separate_scans_float64(self, rng, reverse):
        d, u = 3, 4
        weights = [T.Tensor(rng.standard_normal(s), requires_grad=True) for s in [(4 * u, d), (4 * u, u), (4 * u,)]]
        x = rng.standard_normal((sum(MIXED_LENGTHS), d))
        out_weights = rng.standard_normal((sum(MIXED_LENGTHS), u))
        got = scan_states_and_grads(MIXED_LENGTHS, x, weights, out_weights, reverse, packed=True)
        want = scan_states_and_grads(MIXED_LENGTHS, x, weights, out_weights, reverse, packed=False)
        for name, g, w in zip(["h", "x", "w_x", "w_h", "bias"], got, want):
            assert g.shape == w.shape, name
            assert np.abs(g - w).max() <= 1e-12, name

    @pytest.mark.parametrize("d, u, lengths", [
        (6, 5, MIXED_LENGTHS),
        (100, 300, (37, 1, 90, 2, 64, 10, 1, 100)),
    ])
    def test_gives_each_sentence_its_own_bits_float32(self, rng, d, u, lengths):
        """States, LSTM weight gradients and the embedding table's ``RowGrad``
        of a packed batch equal those of one scan per sentence, bit for bit.
        Ids repeat within and across sentences, so the table's rows see the
        adds of every sentence in the per-sentence graph's order."""
        table = random_table(rng, 9, d)
        p_fwd, p_bwd = make_params(rng, d=d, u=u, dtype=np.float32)
        for _, _, bias in (p_fwd, p_bwd):
            bias.data += rng.standard_normal(bias.shape).astype(np.float32)
        leaves = [table, *p_fwd, *p_bwd]
        sentences = [rng.integers(0, 9, size=n) for n in lengths]
        out_weights = T.Tensor(rng.standard_normal((sum(lengths), 2 * u)).astype(np.float32))

        def run(packed):
            for leaf in leaves:
                leaf.grad = None
            if packed:
                s = T.concat([encoder.embed(ids, table) for ids in sentences])
                h = encoder.bilstm(s, lengths, p_fwd, p_bwd)
            else:
                h = T.concat([encoder.bilstm(encoder.embed(ids, table), [len(ids)], p_fwd, p_bwd)
                              for ids in sentences])
            T.sum_all(T.mul(h, out_weights)).backward()
            ids, rows = table.grad.touched()
            return [h.data, ids, rows] + [leaf.grad for leaf in leaves[1:]]

        got, want = run(packed=True), run(packed=False)
        assert got[0].dtype == np.float32
        for i, (g, w) in enumerate(zip(got, want)):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes(), i

    @pytest.mark.parametrize("lengths", [(), (2, 0, 1), (2, 2)])
    def test_lengths_must_cover_the_rows(self, rng, lengths):
        p, _ = make_params(rng)
        with pytest.raises(T.ShapeError, match="lengths"):
            T.lstm_scan(T.Tensor(rng.standard_normal((3, 3))), lengths, *p)

    @pytest.mark.parametrize("head", ["dense", "gated-pair"])
    def test_a_batch_runs_one_scan_per_direction(self, rng, monkeypatch, head):
        cfg = load_run_config(None, ["d=3", "u=4", "d_a=2", "r=2", f"head={head}", "b=2", "k=2",
                                     "classes=2"])
        net = build_model(cfg, 6, rng)
        calls = []
        scan = T.lstm_scan
        monkeypatch.setattr(T, "lstm_scan", lambda *a, **k: calls.append(a[1]) or scan(*a, **k))
        tokens = [rng.integers(2, 6, size=n) for n in (3, 1, 4)]
        with T.no_grad():
            net.forward_batch(tokens, tokens[::-1])
        sizes = [3, 4, 1, 1, 4, 3] if head == "gated-pair" else [3, 1, 4]
        assert [list(c) for c in calls] == [sizes, sizes]


THREAD_SCRIPT = """
import hashlib, numpy as np
from structattn import tensor as T
rng = np.random.default_rng(11)
d, u = 100, 300
lengths = [int(n) for n in rng.integers(10, 101, size=8)]
x = T.Tensor(rng.uniform(-0.1, 0.1, (sum(lengths), d)).astype(np.float32), requires_grad=True)
w = [T.Tensor(rng.uniform(-0.1, 0.1, s).astype(np.float32), requires_grad=True)
     for s in [(4 * u, d), (4 * u, u), (4 * u,)]]
out_weights = T.Tensor(rng.standard_normal((sum(lengths), u)).astype(np.float32))
for reverse in (False, True):
    for t in w:
        t.grad = None
    h = T.lstm_scan(x, lengths, *w, reverse=reverse)
    T.sum_all(T.mul(h, out_weights)).backward()
    print(*(hashlib.sha256(a.tobytes()).hexdigest() for a in [h.data] + [t.grad for t in w]))
"""


def test_scan_bits_do_not_depend_on_the_blas_thread_count():
    """A paper-shape packed scan, forward and backward, at 1 and 2 BLAS
    threads: the states and the w_x, w_h and bias gradients agree byte for
    byte. The broadcast GEMVs and the input GEMM keep their bits at any
    thread count; a B-wide GEMM of the recurrence would not. The input
    gradient is left out: OpenBLAS gives each sentence's n-by-4u times
    4u-by-d product different bits at 1 and at 2 threads, alone or packed."""
    src = str(Path(encoder.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", THREAD_SCRIPT], env=env, capture_output=True,
                             text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert len(outputs[0].split()) == 8
    assert outputs[0] == outputs[1]
