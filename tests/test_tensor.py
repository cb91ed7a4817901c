import math
import threading

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
