import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from structattn import tensor as T


def t64(data):
    return T.Tensor(np.asarray(data, dtype=np.float64))


class TestMatmul:
    def test_identity(self):
        x = t64([[2.0, 3.0], [4.0, 5.0]])
        out = T.matmul(t64(np.eye(2)), x)
        assert np.array_equal(out.data, x.data)

    def test_hand_computed(self):
        out = T.matmul(t64([[1, 2], [3, 4]]), t64([[1], [1]]))
        assert np.array_equal(out.data, [[3], [7]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 2))))

    def test_gradient_matches_finite_differences(self, rng):
        a = T.Tensor(rng.standard_normal((3, 4)))
        b = T.Tensor(rng.standard_normal((4, 2)))
        err = T.grad_check(lambda x, y: T.frobenius_sq(T.matmul(x, y)), [a, b], eps=1e-5)
        assert err < 1e-4

    def test_vector_cases(self, rng):
        v = rng.standard_normal(4)
        m = rng.standard_normal((4, 3))
        assert np.allclose(T.matmul(t64(v), t64(m)).data, v @ m)
        assert np.allclose(T.matmul(t64(m.T), t64(v)).data, m.T @ v)


class TestBatchedDot:
    def test_identity_slices(self, rng):
        m = rng.standard_normal((3, 4))
        w = np.stack([np.eye(4)] * 3)
        out = T.batched_dot(t64(m), t64(w))
        assert np.array_equal(out.data, m)

    def test_single_row_is_vector_matrix_product(self, rng):
        m = rng.standard_normal((1, 3))
        w = rng.standard_normal((1, 3, 5))
        out = T.batched_dot(t64(m), t64(w))
        assert np.allclose(out.data[0], m[0] @ w[0])

    def test_equals_loop_of_matmuls(self, rng):
        m = rng.standard_normal((3, 2))
        w = rng.standard_normal((3, 2, 4))
        out = T.batched_dot(t64(m), t64(w))
        oracle = np.stack([m[i] @ w[i] for i in range(3)])
        assert np.array_equal(out.data, oracle)

    def test_shape_mismatch(self, rng):
        with pytest.raises(T.ShapeError):
            T.batched_dot(t64(np.zeros((3, 2))), t64(np.zeros((2, 3, 4))))


class TestSoftmaxRows:
    def test_uniform_on_constant_row(self):
        out = T.softmax_rows(t64([[0.0, 0.0, 0.0]]))
        assert np.allclose(out.data, 1 / 3)

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((2, 5))
        a = T.softmax_rows(t64(x)).data
        b = T.softmax_rows(t64(x + 7.3)).data
        assert np.array_equal(np.argmax(a, axis=1), np.argmax(b, axis=1))
        assert np.abs(a - b).max() < 1e-6

    def test_known_values(self):
        out = T.softmax_rows(t64([[1.0, 2.0, 3.0]])).data[0]
        # direct exp/sum evaluation
        e = [math.exp(v) for v in (1.0, 2.0, 3.0)]
        oracle = np.array([v / sum(e) for v in e])
        assert np.abs(out - oracle).max() < 1e-12
        assert np.abs(out - [0.09003, 0.24473, 0.66524]).max() < 1e-5

    def test_mask_zeroes_columns_exactly(self, rng):
        mask = np.array([True, False, True, False])
        out = T.softmax_rows(t64(rng.standard_normal((3, 4))), mask).data
        assert (out[:, ~mask] == 0.0).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6

    def test_all_false_mask_rejected(self):
        with pytest.raises(T.MaskError):
            T.softmax_rows(t64(np.zeros((1, 3))), np.zeros(3, dtype=bool))

    @given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-50, 50)))
    @settings(max_examples=50, deadline=None)
    def test_rows_stochastic(self, x):
        out = T.softmax_rows(T.Tensor(x)).data
        assert np.isfinite(out).all()
        assert (out >= 0).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6

    def test_gradient(self, rng):
        x = T.Tensor(rng.standard_normal((2, 4)))
        err = T.grad_check(lambda t: T.frobenius_sq(T.softmax_rows(t)), [x])
        assert err < 1e-4


class TestElementwiseAndScalars:
    def test_tanh_endpoints(self):
        assert T.tanh_elem(t64(0.0)).item() == 0.0
        assert abs(T.tanh_elem(t64(40.0)).item()) == pytest.approx(1.0)

    def test_tanh_gradient(self, rng):
        err = T.grad_check(lambda x: T.sum_all(T.tanh_elem(x)), [T.Tensor(rng.standard_normal(6))])
        assert err < 1e-4

    def test_mul_by_ones_is_identity(self, rng):
        a = rng.standard_normal((2, 3))
        assert np.array_equal(T.mul(t64(a), t64(np.ones((2, 3)))).data, a)

    def test_sub_self_is_zero(self, rng):
        a = t64(rng.standard_normal(4))
        assert (T.sub(a, a).data == 0).all()

    def test_elementwise_gradients(self, rng):
        for op in (T.add, T.sub, T.mul):
            a = T.Tensor(rng.standard_normal((2, 3)))
            b = T.Tensor(rng.standard_normal((2, 3)))
            err = T.grad_check(lambda x, y: T.frobenius_sq(op(x, y)), [a, b])
            assert err < 1e-4, op.__name__

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.add(t64(np.zeros(3)), t64(np.zeros(4)))


class TestFrobenius:
    def test_zero_matrix(self):
        assert T.frobenius_sq(t64(np.zeros((3, 3)))).item() == 0.0

    def test_identity(self):
        assert T.frobenius_sq(t64(np.eye(3))).item() == 3.0

    def test_hand_computed(self):
        # 1 + 4 + 9 + 16
        assert T.frobenius_sq(t64([[1, 2], [3, 4]])).item() == 30.0

    def test_backward_is_2x(self, rng):
        x = T.Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        T.frobenius_sq(x).backward()
        assert np.allclose(x.grad, 2 * x.data)


class TestStructuralOps:
    def test_concat_rows_stacks_vectors(self, rng):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        out = T.concat_rows([t64(a), t64(b)])
        assert np.array_equal(out.data, np.stack([a, b]))

    def test_concat_rows_vstacks_matrices(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((1, 3))
        assert T.concat_rows([t64(a), t64(b)]).shape == (3, 3)

    def test_concat_1d(self, rng):
        a, b = rng.standard_normal(2), rng.standard_normal(3)
        assert np.array_equal(T.concat([t64(a), t64(b)]).data, np.concatenate([a, b]))

    def test_transpose_roundtrip(self, rng):
        x = rng.standard_normal((2, 4))
        assert np.array_equal(T.transpose(T.transpose(t64(x))).data, x)

    def test_reshape_row_major(self):
        x = t64([[1, 2, 3], [4, 5, 6]])
        assert np.array_equal(T.flatten(x).data, [1, 2, 3, 4, 5, 6])

    def test_gather_rows_and_repeats(self, rng):
        table = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        out = T.gather_rows(table, np.array([1, 1, 3]))
        assert np.array_equal(out.data[0], out.data[1])
        T.sum_all(out).backward()
        # repeated row accumulates twice
        assert np.allclose(table.grad[1], 2.0)
        assert np.allclose(table.grad[3], 1.0)
        assert np.allclose(table.grad[0], 0.0)

    def test_gather_out_of_range(self, rng):
        with pytest.raises(IndexError):
            T.gather_rows(t64(np.zeros((2, 2))), np.array([2]))

    def test_row_and_slice(self, rng):
        x = rng.standard_normal((3, 4))
        assert np.array_equal(T.row(t64(x), 1).data, x[1])
        assert np.array_equal(T.slice_rows(t64(x), 1, 3).data, x[1:3])
        v = rng.standard_normal(6)
        assert np.array_equal(T.slice_rows(t64(v), 2, 5).data, v[2:5])


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        x = t64(np.ones(5))
        assert T.dropout(x, 0.0, rng, train=True) is x

    def test_eval_is_identity(self, rng):
        x = t64(np.ones(5))
        assert T.dropout(x, 0.5, rng, train=False) is x

    def test_survivors_scaled(self):
        x = t64(np.ones(1000))
        out = T.dropout(x, 0.25, np.random.default_rng(0), train=True).data
        kept = out[out != 0]
        assert np.allclose(kept, 1 / 0.75)
        assert 0.6 < kept.size / 1000 < 0.9

    def test_bad_rate(self, rng):
        with pytest.raises(ValueError):
            T.dropout(t64(np.ones(2)), 1.0, rng, train=True)


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        assert T.cross_entropy(t64([30.0, 0.0, 0.0]), 0).item() < 1e-8

    def test_two_way_tie_is_ln2(self):
        assert T.cross_entropy(t64([0.0, 0.0]), 0).item() == pytest.approx(math.log(2), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(T.LabelError):
            T.cross_entropy(t64([0.0, 0.0]), 2)

    def test_gradient(self, rng):
        err = T.grad_check(lambda x: T.cross_entropy(x, 1), [T.Tensor(rng.standard_normal(4))])
        assert err < 1e-4

    def test_batch_is_mean_of_rows(self, rng):
        logits = rng.standard_normal((3, 4))
        labels = [2, 0, 3]
        rows = [T.cross_entropy(t64(row), label).item() for row, label in zip(logits, labels)]
        assert T.cross_entropy(t64(logits), labels).item() == pytest.approx(np.mean(rows), rel=1e-12)

    def test_batch_label_count_and_range(self):
        with pytest.raises(T.ShapeError):
            T.cross_entropy(t64(np.zeros((3, 2))), [0, 1])
        with pytest.raises(T.LabelError, match="label -1"):
            T.cross_entropy(t64(np.zeros((2, 2))), [0, -1])


class TestLinear:
    def test_equals_affine_map_of_each_row(self, rng):
        x, w, b = rng.standard_normal((3, 4)), rng.standard_normal((2, 4)), rng.standard_normal(2)
        out = T.linear(t64(x), t64(w), t64(b)).data
        for i in range(3):
            np.testing.assert_allclose(out[i], w @ x[i] + b, rtol=1e-12, atol=1e-14)

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.linear(t64(np.zeros((3, 4))), t64(np.zeros((2, 5))), t64(np.zeros(2)))
        with pytest.raises(T.ShapeError):
            T.linear(t64(np.zeros((3, 4))), t64(np.zeros((2, 4))), t64(np.zeros(3)))


class TestSumSquares:
    # 300 x 500 spans three row blocks; the vector is a single block
    def weights(self, rng):
        return [T.Tensor(rng.standard_normal((300, 500)), requires_grad=True),
                T.Tensor(rng.standard_normal(7), requires_grad=True)]

    def test_value_is_coeff_times_summed_squares(self, rng):
        ws = self.weights(rng)
        want = 0.37 * sum((w.data ** 2).sum() for w in ws)
        assert T.sum_squares(ws, 0.37).item() == pytest.approx(want, rel=1e-12)
        assert T.sum_squares(ws, 0.37).dtype == np.float64
        assert T.sum_squares([T.Tensor(np.ones(3, np.float32))], 1.0).dtype == np.float32

    def test_backward_adds_into_existing_gradient_in_place(self, rng):
        ws = self.weights(rng)
        existing = rng.standard_normal(ws[0].shape)
        ws[0].grad = existing.copy()
        held = ws[0].grad
        T.sum_squares(ws, 0.37).backward()
        assert ws[0].grad is held
        np.testing.assert_allclose(ws[0].grad, existing + 0.74 * ws[0].data, rtol=1e-12)
        np.testing.assert_allclose(ws[1].grad, 0.74 * ws[1].data, rtol=1e-12)

    def test_same_bits_as_frobenius_chain_in_float32(self, rng):
        w = T.Tensor(rng.standard_normal((300, 500)).astype(np.float32), requires_grad=True)
        x = T.Tensor(rng.standard_normal((2, 500)).astype(np.float32))
        b = T.zeros(300)

        def grad(l2_term):
            w.grad = None
            T.add(l2_term(), T.sum_all(T.linear(x, w, b))).backward()
            return w.grad

        fused = grad(lambda: T.sum_squares([w], 1e-4))
        chain = grad(lambda: T.scale(T.frobenius_sq(w), 1e-4))
        assert np.array_equal(fused, chain)

    def test_frozen_weight_gets_no_gradient(self, rng):
        frozen = t64(rng.standard_normal(4))
        live = T.Tensor(rng.standard_normal(4), requires_grad=True)
        T.sum_squares([frozen, live], 2.0).backward()
        assert frozen.grad is None
        np.testing.assert_allclose(live.grad, 4.0 * live.data, rtol=1e-15)

    def test_gradient(self, rng):
        inputs = [T.Tensor(rng.standard_normal(s)) for s in [(3, 4), (2, 3, 2)]]
        assert T.grad_check(lambda a, b: T.scale(T.sum_squares([a, b], 0.37), 1.7), inputs) < 1e-6


class TestUniform:
    # 300 x 1000 draws in five row blocks
    @pytest.mark.parametrize("shape", [(300, 1000), (40, 90, 30), (70000,), ()])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_one_whole_array_draw(self, shape, dtype):
        got = T.uniform(np.random.default_rng(4), -0.3, 0.2, shape, dtype)
        ref_rng = np.random.default_rng(4)
        want = ref_rng.uniform(-0.3, 0.2, size=shape).astype(dtype)
        assert got.dtype == dtype and got.shape == want.shape
        assert np.array_equal(got.data, want)
        assert got.requires_grad

    def test_glorot_equals_one_whole_array_draw(self):
        shape = (300, 1000)
        limit = float(np.sqrt(6.0 / 1300))
        rng = np.random.default_rng(4)
        got = T.glorot(rng, shape)
        ref_rng = np.random.default_rng(4)
        assert np.array_equal(got.data, ref_rng.uniform(-limit, limit, size=shape).astype(np.float32))
        # the stream is left where a whole-array draw leaves it
        assert rng.uniform() == ref_rng.uniform()


def leaf(rng, *shape, dtype=np.float64):
    return T.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)


def backward_unshared(loss):
    """Run ``loss.backward()`` and check that no leaf gradient shares memory
    with another, with any node's value or with any inner node's gradient."""
    grads = list(loss.backward().values())
    nodes = T._toposort(loss)
    others = [n.data for n in nodes] + [n.grad for n in nodes if n._prev and isinstance(n.grad, np.ndarray)]
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, h) for h in grads[i + 1:])
        assert not any(np.shares_memory(g, o) for o in others)


class TestGradientBuffers:
    """Backwards that pass the upstream gradient through must copy it; only
    arrays an op made itself are adopted. The upstream gradient here is the
    fresh product of ``mul``, so a wrongly adopted one would alias."""

    def test_add_of_two_leaves(self, rng):
        a, b, c = leaf(rng, 2, 3), leaf(rng, 2, 3), t64(rng.standard_normal((2, 3)))
        backward_unshared(T.sum_all(T.mul(T.add(a, b), c)))
        assert np.array_equal(a.grad, c.data) and np.array_equal(b.grad, c.data)

    def test_add_of_a_leaf_to_itself(self, rng):
        x, c = leaf(rng, 2, 3), t64(rng.standard_normal((2, 3)))
        backward_unshared(T.sum_all(T.mul(T.add(x, x), c)))
        assert np.array_equal(x.grad, 2 * c.data)

    def test_sub_keeps_both_sides_apart(self, rng):
        a, b, c = leaf(rng, 2, 3), leaf(rng, 2, 3), t64(rng.standard_normal((2, 3)))
        backward_unshared(T.sum_all(T.mul(T.sub(a, b), c)))
        assert np.array_equal(a.grad, c.data) and np.array_equal(b.grad, -c.data)

    def test_reshape_and_transpose_of_a_leaf(self, rng):
        x, y = leaf(rng, 2, 3), leaf(rng, 2, 3)
        c = t64(rng.standard_normal((3, 2)))
        backward_unshared(T.add(T.sum_all(T.mul(T.reshape(x, (3, 2)), c)),
                             T.sum_all(T.mul(T.transpose(y), c))))
        assert np.array_equal(x.grad, c.data.reshape(2, 3))
        assert np.array_equal(y.grad, c.data.T)

    def test_concat_of_two_leaves(self, rng):
        a, b, c = leaf(rng, 3), leaf(rng, 2), t64(rng.standard_normal(5))
        backward_unshared(T.sum_all(T.mul(T.concat([a, b]), c)))
        assert np.array_equal(a.grad, c.data[:3]) and np.array_equal(b.grad, c.data[3:])

    def test_scalar_gradients_become_arrays(self, rng):
        x = leaf(rng)
        T.scale(T.scale(x, 2.0), 3.0).backward()
        assert type(x.grad) is np.ndarray and x.grad.shape == () and x.grad == 6.0

    def test_float32_linear_leaf_adopts_its_weight_gradient(self, rng):
        x, w, b = (leaf(rng, *shape, dtype=np.float32) for shape in [(4, 6), (5, 6), (5,)])
        c = T.Tensor(rng.standard_normal((4, 5)).astype(np.float32))
        backward_unshared(T.sum_all(T.mul(T.linear(x, w, b), c)))
        for t in (x, w, b):
            assert t.grad.dtype == np.float32 and t.grad.shape == t.shape
        np.testing.assert_allclose(w.grad, c.data.T @ x.data, rtol=1e-6)

    def test_dense_backward_peak_stays_near_its_gradients(self):
        """Tracemalloc peak of ``backward()`` on a dense batch loss with L2, over
        the gradients it leaves behind, is below half of ``head.w1``: the weight
        gradient is adopted and L2 adds into it, with no W1-sized temporary."""
        from structattn import data, training
        from structattn.config import RunConfig
        from structattn.model import build_model

        cfg = RunConfig(d=4, u=4, d_a=4, r=8, head="dense", b=8192, classes=2, l2=1e-3).validate()
        rng = np.random.default_rng(0)
        net = build_model(cfg, 10, rng)
        examples = [data.Example(rng.integers(2, 10, size=n), n % 2) for n in (3, 5, 4, 2)]
        b = data.batch(examples, 4)[0]
        logits, attns = net.forward_batch(*b.inputs())
        loss = training.total_loss(logits, b.labels, attns, 1.0, cfg.l2, net.l2_parameters())
        tracemalloc.start()
        try:
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        w1 = net.named_parameters()["head.w1"].data.nbytes
        kept = sum(p.grad.nbytes for p in net.named_parameters().values())
        assert w1 <= kept < 1.1 * w1
        assert peak - kept < 0.5 * w1, (peak / w1, kept / w1)


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = T.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        grads = T.sum_all(x).backward()
        assert np.array_equal(x.grad, np.ones((2, 3)))
        assert grads[x] is x.grad

    def test_every_leaf_gets_matching_shape(self, rng):
        xs = [T.Tensor(rng.standard_normal(s), requires_grad=True) for s in [(2, 3), (3,), (3, 4)]]
        loss = T.frobenius_sq(T.matmul(T.add(xs[0], xs[0]), T.matmul(T.reshape(xs[1], (3, 1)),
                                                                     T.reshape(T.row(xs[2], 0), (1, 4)))))
        loss.backward()
        for x in xs:
            assert x.grad is not None and x.grad.shape == x.data.shape

    def test_non_scalar_seed_rejected(self, rng):
        with pytest.raises(T.ShapeError):
            T.Tensor(rng.standard_normal(3), requires_grad=True).backward()

    def test_no_grad_builds_no_graph(self, rng):
        x = T.Tensor(rng.standard_normal(3), requires_grad=True)
        with T.no_grad():
            out = T.sum_all(x)
        assert out._backward is None and not out.requires_grad

    def test_no_grad_in_one_thread_leaves_others_building(self, rng):
        w = T.Tensor(rng.standard_normal(3), requires_grad=True)
        entered, release = threading.Event(), threading.Event()
        inside = []

        def hold_no_grad():
            with T.no_grad():
                entered.set()
                release.wait(timeout=10)
                inside.append(T.sum_all(T.mul(w, w)).requires_grad)

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        try:
            assert entered.wait(timeout=10)
            assert T.sum_all(T.mul(w, w)).requires_grad
        finally:
            release.set()
            worker.join(timeout=10)
        assert not worker.is_alive() and inside == [False]

    def test_deterministic(self, rng):
        x = T.Tensor(rng.standard_normal((3, 3)), requires_grad=True)

        def once():
            x.grad = None
            T.frobenius_sq(T.tanh_elem(T.matmul(x, x))).backward()
            return x.grad.copy()

        assert np.array_equal(once(), once())


class TestGradCheck:
    def test_linear_function_is_exact(self, rng):
        err = T.grad_check(T.sum_all, [T.Tensor(rng.standard_normal(5))])
        assert err < 1e-8

    def test_tanh_chain(self, rng):
        x = T.Tensor(rng.standard_normal((3, 3)))
        err = T.grad_check(lambda t: T.sum_all(T.tanh_elem(T.tanh_elem(t))), [x], eps=1e-5)
        assert err < 1e-4

    def test_detects_wrong_backward(self, rng):
        def bad_scale(x):
            data = x.data * 2.0

            def bk(g):
                x._acc(g * 3.0)  # deliberately wrong factor
            return T._from_op(data, (x,), bk)

        err = T.grad_check(lambda x: T.sum_all(bad_scale(x)), [T.Tensor(rng.standard_normal(3))])
        assert err > 1e-1


@given(hnp.arrays(np.float32, (3, 4), elements=st.floats(-1e4, 1e4, width=32)))
@settings(max_examples=50, deadline=None)
def test_finite_inputs_give_finite_outputs(x):
    t = T.Tensor(x)
    for out in (T.softmax_rows(t), T.tanh_elem(t), T.sigmoid(t), T.relu(t),
                T.frobenius_sq(t), T.matmul(t, T.transpose(t))):
        assert np.isfinite(out.data).all()
