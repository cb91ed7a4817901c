import numpy as np
import pytest

from structattn import encoder
from structattn import tensor as T
from structattn.config import load_run_config
from structattn.model import build_model


def lstm_params(rng, d, u, dtype):
    """One direction's (w_x, w_h, bias)."""
    return (T.glorot(rng, (4 * u, d), dtype), T.glorot(rng, (4 * u, u), dtype),
            T.zeros(4 * u, dtype, requires_grad=True))


def make_params(rng, d=3, u=4, dtype=np.float64):
    return lstm_params(rng, d, u, dtype), lstm_params(rng, d, u, dtype)


def random_table(rng, vocab_size, dim, dtype=T.DEFAULT_DTYPE):
    return T.uniform(rng, -0.1, 0.1, (vocab_size, dim), dtype)


def toy_model(rng):
    cfg = load_run_config(None, ["d=3", "u=4", "d_a=2", "r=2", "head=dense", "b=2", "classes=2"])
    return build_model(cfg, 6, rng)


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

        assert T.grad_check(loss, [table]) < 1e-4


class TestLstmStep:
    def test_zero_parameters_give_zero_state(self):
        u, d = 3, 2
        h, c = encoder.lstm_step(T.zeros(d), T.zeros(u), T.zeros(u),
                                 T.zeros((4 * u, d)), T.zeros((4 * u, u)), T.zeros(4 * u))
        assert (h.data == 0).all() and (c.data == 0).all()

    def test_saturated_forget_gate_copies_cell(self, rng):
        # forget bias +inf-ish and all other gates shut: c_t = c_prev
        u, d = 3, 2
        bias = np.full(4 * u, -60.0)
        bias[u:2 * u] = 60.0
        c_prev = T.Tensor(rng.standard_normal(u))
        _, c = encoder.lstm_step(T.zeros(d, np.float64), T.zeros(u, np.float64), c_prev,
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
        h1, c1 = encoder.lstm_step(x, h0, c0, *p)
        h2, c2 = encoder.lstm_step(x, h0, c0, *p)
        assert np.array_equal(h1.data, h2.data) and np.array_equal(c1.data, c2.data)

    def test_gradient(self, rng):
        d, u = 3, 4

        def loss(*args):
            h, c = encoder.lstm_step(*args)
            return T.sum_all(T.mul(h, c))

        inputs = [T.Tensor(rng.standard_normal(s)) for s in
                  [(d,), (u,), (u,), (4 * u, d), (4 * u, u), (4 * u,)]]
        assert T.grad_check(loss, inputs) < 1e-4

    def test_inconsistent_shapes_rejected(self):
        # 12 gate rows cannot hold four gates of u=4 units
        bad = (T.zeros((12, 2)), T.zeros((12, 4)), T.zeros(12))
        with pytest.raises(T.ShapeError):
            encoder.lstm_step(T.zeros(2), T.zeros(4), T.zeros(4), *bad)
        with pytest.raises(T.ShapeError):
            encoder.bilstm(T.zeros((3, 2)), np.ones(3, dtype=bool), bad, bad)


class TestBilstm:
    def test_single_token_shape(self, rng):
        p_fwd, p_bwd = make_params(rng)
        s = T.Tensor(rng.standard_normal((1, 3)))
        out = encoder.bilstm(s, np.array([True]), p_fwd, p_bwd)
        assert out.h.shape == (1, 8)

    def test_output_width_independent_of_length(self, rng):
        p_fwd, p_bwd = make_params(rng)
        for n in (1, 2, 5):
            s = T.Tensor(rng.standard_normal((n, 3)))
            assert encoder.bilstm(s, np.ones(n, dtype=bool), p_fwd, p_bwd).h.shape == (n, 8)

    def test_masked_rows_zero(self, rng):
        p_fwd, p_bwd = make_params(rng)
        s = T.Tensor(rng.standard_normal((5, 3)))
        mask = np.array([True, True, True, False, False])
        out = encoder.bilstm(s, mask, p_fwd, p_bwd)
        assert (out.h.data[3:] == 0).all()

    def test_padding_never_influences_real_rows(self, rng):
        p_fwd, p_bwd = make_params(rng)
        base = rng.standard_normal((3, 3))
        short = encoder.bilstm(T.Tensor(base), np.ones(3, dtype=bool), p_fwd, p_bwd)
        padded_values = np.vstack([base, rng.standard_normal((2, 3))])
        mask = np.array([True, True, True, False, False])
        padded = encoder.bilstm(T.Tensor(padded_values), mask, p_fwd, p_bwd)
        assert np.array_equal(short.h.data, padded.h.data[:3])

    def test_reversal_swaps_direction_halves(self, rng):
        p_fwd, p_bwd = make_params(rng)
        u = p_fwd[1].shape[1]
        base = rng.standard_normal((4, 3))
        fwd_run = encoder.bilstm(T.Tensor(base), np.ones(4, dtype=bool), p_fwd, p_bwd)
        rev_run = encoder.bilstm(T.Tensor(base[::-1].copy()), np.ones(4, dtype=bool), p_bwd, p_fwd)
        for t in range(4):
            mirrored = rev_run.h.data[3 - t]
            assert np.array_equal(fwd_run.h.data[t][:u], mirrored[u:])
            assert np.array_equal(fwd_run.h.data[t][u:], mirrored[:u])

    def test_empty_and_all_masked_rejected(self, rng):
        p_fwd, p_bwd = make_params(rng)
        with pytest.raises(ValueError):
            encoder.bilstm(T.Tensor(np.zeros((0, 3))), np.zeros(0, dtype=bool), p_fwd, p_bwd)
        with pytest.raises(ValueError):
            encoder.bilstm(T.Tensor(np.zeros((2, 3))), np.zeros(2, dtype=bool), p_fwd, p_bwd)

    def test_non_contiguous_mask_rejected(self, rng):
        p_fwd, p_bwd = make_params(rng)
        with pytest.raises(ValueError):
            encoder.bilstm(T.Tensor(np.zeros((3, 3))), np.array([True, False, True]), p_fwd, p_bwd)

    def test_gradient_through_three_tokens(self, rng):
        d, u = 2, 3

        def loss(s, wxf, whf, bf, wxb, whb, bb):
            out = encoder.bilstm(s, np.ones(3, dtype=bool), (wxf, whf, bf), (wxb, whb, bb))
            return T.frobenius_sq(out.h)

        inputs = [T.Tensor(rng.standard_normal(s)) for s in
                  [(3, d), (4 * u, d), (4 * u, u), (4 * u,), (4 * u, d), (4 * u, u), (4 * u,)]]
        assert T.grad_check(loss, inputs) < 1e-4


def per_token_bilstm(s, mask, p_fwd, p_bwd):
    """The per-token autodiff graph ``bilstm`` replaced, as a reference."""
    n, n_real, u = s.shape[0], int(mask.sum()), p_fwd[1].shape[1]
    halves = []
    for p, order in ((p_fwd, range(n_real)), (p_bwd, range(n_real - 1, -1, -1))):
        h, c = T.zeros(u, s.dtype), T.zeros(u, s.dtype)
        states = [None] * n_real
        for t in order:
            h, c = encoder.lstm_step(T.row(s, t), h, c, *p)
            states[t] = h
        halves.append(states)
    rows = [T.concat([f, b]) for f, b in zip(*halves)]
    rows.extend(T.zeros(2 * u, s.dtype) for _ in range(n - n_real))
    return T.concat_rows(rows)


class TestFusedScanMatchesPerTokenGraph:
    @pytest.mark.parametrize("n_real", [1, 2, 7])
    @pytest.mark.parametrize("n_pad", [0, 2])
    def test_states_and_gradients_float64(self, rng, n_real, n_pad):
        d, u = 3, 4
        p_fwd, p_bwd = make_params(rng, d, u)
        for _, _, bias in (p_fwd, p_bwd):
            bias.data += rng.standard_normal(4 * u)
        s = T.Tensor(rng.standard_normal((n_real + n_pad, d)), requires_grad=True)
        mask = np.arange(n_real + n_pad) < n_real
        weights = rng.standard_normal((n_real + n_pad, 2 * u))
        leaves = [s, *p_fwd, *p_bwd]

        def states_and_grads(run):
            for leaf in leaves:
                leaf.grad = None
            h = run(s, mask, p_fwd, p_bwd)
            T.sum_all(T.mul(h, T.Tensor(weights))).backward()
            return h.data, [leaf.grad.copy() for leaf in leaves]

        want_h, want_grads = states_and_grads(per_token_bilstm)
        got_h, got_grads = states_and_grads(lambda *a: encoder.bilstm(*a).h)
        assert np.abs(got_h - want_h).max() <= 1e-12
        for got, want in zip(got_grads, want_grads):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12

    def test_paper_shape_float32_forward(self, rng):
        p_fwd, p_bwd = make_params(rng, d=100, u=300, dtype=np.float32)
        s = T.Tensor(rng.uniform(-0.1, 0.1, (100, 100)).astype(np.float32))
        mask = np.ones(100, dtype=bool)
        with T.no_grad():
            want = per_token_bilstm(s, mask, p_fwd, p_bwd).data
            got = encoder.bilstm(s, mask, p_fwd, p_bwd).h.data
        assert got.dtype == np.float32
        assert np.abs(got - want).max() <= 1e-6
