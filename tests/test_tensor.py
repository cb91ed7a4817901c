import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from structattn import checks
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
        err = checks.grad_check(lambda x, y: T.frobenius_sq(T.matmul(x, y)), [a, b])
        assert err < 1e-4

    def test_vector_dot_vector_rejected(self, rng):
        """Both operands must be matrices: a vector on either side, or on both, is an error."""
        v, m = rng.standard_normal(4), rng.standard_normal((4, 3))
        for a, b in ((v, v), (v, m), (m.T, v)):
            with pytest.raises(T.ShapeError):
                T.matmul(t64(a), t64(b))


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
        with pytest.raises(T.ShapeError):
            T.batched_dot(t64(np.zeros((2, 2, 3))), t64(np.zeros((3, 2, 4))))

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("r, c, k, transposed", [(30, 600, 150, False), (600, 30, 10, True)])
    def test_batch_gets_each_examples_bits_float32(self, rng, batch, r, c, k, transposed):
        """At the pruned head's paper-shape groups (row groups 30x600x150 on M,
        column groups 600x30x10 on its transpose), a B-by-r-by-c product and
        its gradients equal the per-example graphs stacked, bit for bit."""
        def draw(*shape):
            return rng.standard_normal(shape).astype(np.float32)

        w_data, g = draw(r, c, k), draw(batch, r, k)
        stored = (c, r) if transposed else (r, c)  # the pruned head transposes M for its column groups
        m_data = draw(batch, *stored)

        def run(batched):
            m = T.Tensor(m_data.copy(), requires_grad=True)
            w = T.Tensor(w_data.copy(), requires_grad=True)
            if batched:
                out = T.batched_dot(T.transpose(m) if transposed else m, w)
            else:
                rows = []
                for i in range(batch):
                    m_i = T.reshape(T.gather_rows(T.reshape(m, (batch, -1)), i), stored)
                    out_i = T.batched_dot(T.transpose(m_i) if transposed else m_i, w)
                    rows.append(T.reshape(out_i, (1, r, k)))
                out = T.concat(rows)
            T.sum_all(T.mul(out, T.Tensor(g))).backward()
            return out.data, m.grad, w.grad

        for got, want in zip(run(True), run(False)):
            assert got.dtype == np.float32 and np.array_equal(got, want)

    @pytest.mark.parametrize("r, c, k", [(5, 7, 3), (30, 600, 150)])
    def test_matrix_is_the_batch_of_one_float32(self, rng, r, c, k):
        """An r-by-c m and the same m as a 1-by-r-by-c batch give the same
        output, weight gradient and input gradient, bit for bit."""
        m_data = rng.standard_normal((r, c)).astype(np.float32)
        w_data = rng.standard_normal((r, c, k)).astype(np.float32)
        g = rng.standard_normal((r, k)).astype(np.float32)

        def run(shape):
            m = T.Tensor(m_data.reshape(shape), requires_grad=True)
            w = T.Tensor(w_data.copy(), requires_grad=True)
            out = T.batched_dot(m, w)
            T.sum_all(T.mul(out, T.Tensor(g.reshape(out.shape)))).backward()
            return out.data.reshape(r, k), w.grad, m.grad.reshape(r, c)

        for got, want in zip(run((r, c)), run((1, r, c))):
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


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

    @given(hnp.arrays(np.float64, (3, 4), elements=st.floats(-50, 50)))
    @settings(max_examples=50, deadline=None)
    def test_rows_stochastic(self, x):
        out = T.softmax_rows(T.Tensor(x)).data
        assert np.isfinite(out).all()
        assert (out >= 0).all()
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-6

    def test_gradient(self, rng):
        x = T.Tensor(rng.standard_normal((2, 4)))
        err = checks.grad_check(lambda t: T.frobenius_sq(T.softmax_rows(t)), [x])
        assert err < 1e-4


class TestElementwiseAndScalars:
    def test_tanh_endpoints(self):
        assert T.tanh_elem(t64(0.0)).item() == 0.0
        assert abs(T.tanh_elem(t64(40.0)).item()) == pytest.approx(1.0)

    def test_tanh_gradient(self, rng):
        err = checks.grad_check(lambda x: T.sum_all(T.tanh_elem(x)), [T.Tensor(rng.standard_normal(6))])
        assert err < 1e-4

    def test_mul_by_ones_is_identity(self, rng):
        a = rng.standard_normal((2, 3))
        assert np.array_equal(T.mul(t64(a), t64(np.ones((2, 3)))).data, a)

    def test_elementwise_gradients(self, rng):
        for op in (T.add, T.mul):
            a = T.Tensor(rng.standard_normal((2, 3)))
            b = T.Tensor(rng.standard_normal((2, 3)))
            err = checks.grad_check(lambda x, y: T.frobenius_sq(op(x, y)), [a, b])
            assert err < 1e-4, op.__name__

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.add(t64(np.zeros(3)), t64(np.zeros(4)))


def three_branch_sigmoid(d):
    """The logistic function as it was first written: both branches, then a pick."""
    e = np.exp(-np.abs(d))
    denom = 1.0 + e
    return np.where(d >= 0, 1.0 / denom, e / denom).astype(d.dtype, copy=False)


class TestSigmoidBits:
    """``_sigmoid`` (the one of ``sigmoid`` and ``lstm_scan``) has the bits of
    the three-branch formula, NaN and signed zeros included."""

    @staticmethod
    def mismatches(d, view):
        with np.errstate(all="ignore"):
            return np.count_nonzero(T._sigmoid(d).view(view) != three_branch_sigmoid(d).view(view))

    def test_every_97th_float32_bit_pattern(self):
        step, chunk = 97, 1 << 20
        bad = total = 0
        for lo in range(0, 1 << 32, step * chunk):
            bits = np.arange(lo, min(lo + step * chunk, 1 << 32), step, dtype=np.uint64).astype(np.uint32)
            bad += self.mismatches(bits.view(np.float32), np.uint32)
            total += bits.size
        assert total == -(-(1 << 32) // step)
        assert bad == 0

    def test_special_values(self):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan], np.float32)
        subnormal = np.array([1, 2, 0x80000001, 0x80000002, 0x007FFFFF], np.uint32).view(np.float32)
        for d in (special, subnormal, special.astype(np.float64),
                  np.array([1, 2, 1 << 63 | 1], np.uint64).view(np.float64)):
            assert self.mismatches(d, np.uint32 if d.dtype == np.float32 else np.uint64) == 0
        assert T._sigmoid(special)[:4].tolist() == [0.5, 0.5, 1.0, 0.0]

    def test_float64_sample(self):
        d = np.random.default_rng(0).standard_normal(5_000_000) * 40.0
        assert self.mismatches(d, np.uint64) == 0


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
    def test_concat_stacks_reshaped_vectors(self, rng):
        a, b = rng.standard_normal(3), rng.standard_normal(3)
        out = T.concat([T.reshape(t64(a), (1, 3)), T.reshape(t64(b), (1, 3))])
        assert np.array_equal(out.data, np.stack([a, b]))

    def test_concat_vstacks_matrices(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((1, 3))
        assert T.concat([t64(a), t64(b)]).shape == (3, 3)

    def test_concat_1d(self, rng):
        a, b = rng.standard_normal(2), rng.standard_normal(3)
        assert np.array_equal(T.concat([t64(a), t64(b)]).data, np.concatenate([a, b]))

    def test_transpose_roundtrip(self, rng):
        x = rng.standard_normal((2, 4))
        assert np.array_equal(T.transpose(T.transpose(t64(x))).data, x)

    def test_transpose_of_a_batch_swaps_the_last_two_axes(self, rng):
        x = T.Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
        c = rng.standard_normal((3, 4, 2))
        out = T.transpose(x)
        assert np.array_equal(out.data, x.data.transpose(0, 2, 1))
        T.sum_all(T.mul(out, t64(c))).backward()
        assert np.array_equal(x.grad, c.transpose(0, 2, 1))
        with pytest.raises(T.ShapeError):
            T.transpose(t64(np.zeros(3)))

    def test_reshape_row_major(self):
        x = t64([[1, 2, 3], [4, 5, 6]])
        assert np.array_equal(T.reshape(x, (-1,)).data, [1, 2, 3, 4, 5, 6])

    def test_reshape_size_mismatch_is_a_shape_error(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(4, 2\)"):
            T.reshape(t64(np.zeros((2, 3))), (4, 2))

    def test_gather_rows_and_repeats(self, rng):
        table = T.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        out = T.gather_rows(table, np.array([1, 1, 3]))
        assert np.array_equal(out.data[0], out.data[1])
        T.sum_all(out).backward()
        grad = np.array(table.grad)
        # repeated row accumulates twice
        assert np.allclose(grad[1], 2.0)
        assert np.allclose(grad[3], 1.0)
        assert np.allclose(grad[0], 0.0)

    def test_gather_out_of_range(self, rng):
        with pytest.raises(IndexError):
            T.gather_rows(t64(np.zeros((2, 2))), np.array([2]))

    def test_gather_one_row_and_a_run(self, rng):
        x = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        one = T.gather_rows(x, 1)
        assert one.shape == (4,) and np.array_equal(one.data, x.data[1])
        assert np.array_equal(T.gather_rows(x, np.arange(1, 3)).data, x.data[1:3])
        T.sum_all(one).backward()
        assert np.array_equal(x.grad, np.eye(3)[1][:, None] * np.ones(4))
        with pytest.raises(IndexError):
            T.gather_rows(x, 3)



class TestRowGrad:
    """A leaf read by ``gather_rows`` gets the rows it gave, as a ``RowGrad``
    with the bits of the dense ``np.add.at`` gradient. The reference runs the
    same graph through a ``reshape``, so its gather reads a non-leaf and
    takes the dense path."""

    # ids repeat within each read and across both, so row 3 gets four adds
    READS = (np.array([3, 0, 3, 7, 3]), np.array([7, 3, 0]))

    def loss(self, x, weights, via_reshape, extra=None):
        src = T.reshape(x, x.shape) if via_reshape else x
        terms = [T.sum_all(T.mul(T.gather_rows(src, ids), T.Tensor(w)))
                 for ids, w in zip(self.READS, weights)]
        if extra is not None:
            # the first operand's backward runs last, after both gathers'
            terms.insert(0, extra(src))
        loss = terms[0]
        for term in terms[1:]:
            loss = T.add(loss, term)
        return loss

    def grads(self, rng, extra=None):
        table = rng.standard_normal((9, 4)).astype(np.float32)
        weights = [rng.standard_normal((ids.size, 4)).astype(np.float32) for ids in self.READS]
        out = []
        for via_reshape in (False, True):
            x = T.Tensor(table.copy(), requires_grad=True)
            self.loss(x, weights, via_reshape, extra).backward()
            out.append(x.grad)
        return out

    def test_leaf_gradient_is_the_touched_rows_with_the_dense_bits(self, rng):
        got, want = self.grads(rng)
        assert type(got) is T.RowGrad and type(want) is np.ndarray
        assert got.shape == want.shape and got.dtype == want.dtype == np.float32
        assert np.array_equal(np.asarray(got), want)
        ids, rows = got.touched()
        assert np.array_equal(ids, [0, 3, 7])
        assert np.array_equal(rows, want[ids])
        assert not want[[1, 2, 4, 5, 6, 8]].any()

    def test_a_dense_contribution_makes_the_gradient_dense_with_the_same_bits(self, rng):
        got, want = self.grads(rng, extra=lambda src: T.frobenius_sq(src))
        assert type(got) is np.ndarray and np.array_equal(got, want)

    def test_sum_squares_adds_into_a_row_gradient_with_the_same_bits(self, rng):
        got, want = self.grads(rng, extra=lambda src: T.sum_squares([src], 0.3))
        assert type(got) is np.ndarray and np.array_equal(got, want)

    def test_a_gathered_non_leaf_keeps_a_dense_gradient(self, rng):
        x = T.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        y = T.scale(x, 2.0)
        T.sum_all(T.gather_rows(y, np.array([1, 1]))).backward()
        assert type(y.grad) is np.ndarray
        assert np.array_equal(x.grad, [[0.0] * 4, [4.0] * 4, [0.0] * 4])


class TestDropout:
    def test_rate_zero_is_identity(self, rng):
        x = t64(np.ones(5))
        assert T.dropout(x, 0.0, rng) is x

    def test_eval_is_identity(self):
        x = t64(np.ones(5))
        assert T.dropout(x, 0.5, None) is x

    def test_survivors_scaled(self):
        x = t64(np.ones(1000))
        out = T.dropout(x, 0.25, np.random.default_rng(0)).data
        kept = out[out != 0]
        assert np.allclose(kept, 1 / 0.75)
        assert 0.6 < kept.size / 1000 < 0.9

    def test_bad_rate(self, rng):
        for gen in (rng, None):  # checked at eval time too
            with pytest.raises(ValueError):
                T.dropout(t64(np.ones(2)), 1.0, gen)


class TestCrossEntropy:
    def test_confident_correct_is_near_zero(self):
        assert T.cross_entropy(t64([[30.0, 0.0, 0.0]]), [0]).item() < 1e-8

    def test_two_way_tie_is_ln2(self):
        assert T.cross_entropy(t64([[0.0, 0.0]]), [0]).item() == pytest.approx(math.log(2), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(T.LabelError):
            T.cross_entropy(t64([[0.0, 0.0]]), [2])

    def test_gradient(self, rng):
        err = checks.grad_check(lambda x: T.cross_entropy(x, [1]), [T.Tensor(rng.standard_normal((1, 4)))])
        assert err < 1e-4

    def test_batch_is_mean_of_rows(self, rng):
        logits = rng.standard_normal((3, 4))
        labels = [2, 0, 3]
        rows = [T.cross_entropy(t64(row[None]), [label]).item() for row, label in zip(logits, labels)]
        assert T.cross_entropy(t64(logits), labels).item() == pytest.approx(np.mean(rows), rel=1e-12)

    def test_batch_label_count_and_range(self):
        """B-by-C logits take exactly B labels; 1-D logits and a scalar label are errors."""
        for logits, labels in ((np.zeros((3, 2)), [0, 1]), (np.zeros(2), [0]), (np.zeros((1, 2)), 0)):
            with pytest.raises(T.ShapeError):
                T.cross_entropy(t64(logits), labels)
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


def linear_term(rng, w, batch):
    """``sum(linear(x, w, 0) * c)`` of a random float32 x and c, whose
    gradient of ``w`` is cᵀx, and that product as the eager backward makes it."""
    n, k = w.shape
    x = rng.standard_normal((batch, k)).astype(np.float32)
    c = rng.standard_normal((batch, n)).astype(np.float32)
    return T.sum_all(T.mul(T.linear(T.Tensor(x), w, T.zeros(n)), T.Tensor(c))), c.T @ x


def add_l2(grad, w, c):
    """The eager backward of ``sum_squares``: c·w added a row block at a time."""
    for rows in T._row_blocks(w):
        grad[rows] += np.multiply(w[rows], c)
    return grad


class TestProductGrad:
    """A leaf read as one ``linear``'s weight gets a lazy ``ProductGrad``. Each
    reference is the eager backward's gradient: gᵀx made whole and adopted,
    every later contribution added into it in graph order (of an ``add``, the
    second operand's backward runs first), the L2 term a row block at a time."""

    @pytest.fixture
    def w(self, rng):
        # 300 x 500 spans three row blocks
        return T.Tensor(rng.standard_normal((300, 500)).astype(np.float32), requires_grad=True)

    def test_leaf_gradient_is_lazy_with_the_dense_bits(self, rng, w):
        term, product = linear_term(rng, w, 4)
        T.add(T.sum_squares([w], 1e-3), term).backward()
        want = add_l2(product, w.data, 2e-3)
        assert type(w.grad) is T.ProductGrad
        assert w.grad.shape == want.shape and w.grad.dtype == want.dtype == np.float32
        assert np.array_equal(w.grad, want)
        assert np.asarray(w.grad).tobytes() == want.tobytes()

    def test_clip_grads_clips_the_dense_values(self, rng, w):
        from structattn import training

        term, product = linear_term(rng, w, 4)
        T.add(T.sum_squares([w], 1e-3), term).backward()
        want = np.clip(add_l2(product, w.data, 2e-3), -0.5, 0.5)
        training.clip_grads({"w": w}, 0.5)
        assert type(w.grad) is np.ndarray and (np.abs(product) > 0.5).mean() > 0.3
        assert w.grad.tobytes() == want.tobytes()

    def test_two_linear_reads_add_in_graph_order(self, rng, w):
        (first, p1), (second, p2) = linear_term(rng, w, 4), linear_term(rng, w, 3)
        T.add(T.sum_squares([w], 1e-3), T.add(first, second)).backward()
        want = p2
        want += p1
        add_l2(want, w.data, 2e-3)
        assert type(w.grad) is np.ndarray and w.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("linear_first", [False, True])
    def test_a_linear_and_a_gather_rows_read_add_in_graph_order(self, rng, w, linear_first):
        term, product = linear_term(rng, w, 4)
        ids = np.array([7, 2, 7, 299])
        c = rng.standard_normal((ids.size, 500)).astype(np.float32)
        gathered = T.sum_all(T.mul(T.gather_rows(w, ids), T.Tensor(c)))
        if linear_first:  # the linear's backward runs first, so its product is adopted
            T.add(gathered, term).backward()
            want = product
            np.add.at(want, ids, c)
        else:  # the gather's rows come first, as a ``RowGrad``
            T.add(term, gathered).backward()
            want = np.zeros_like(w.data)
            np.add.at(want, ids, c)
            want += product
        assert type(w.grad) is np.ndarray and w.grad.tobytes() == want.tobytes()

    def test_an_inner_weight_adopts_the_dense_product(self, rng, w):
        v = T.reshape(w, w.shape)
        x, c = rng.standard_normal((4, 500)).astype(np.float32), rng.standard_normal((4, 300)).astype(np.float32)
        T.sum_all(T.mul(T.linear(T.Tensor(x), v, T.zeros(300)), T.Tensor(c))).backward()
        assert type(v.grad) is np.ndarray and v.grad.tobytes() == (c.T @ x).tobytes()
        assert type(w.grad) is np.ndarray and np.array_equal(w.grad, v.grad)

    def test_a_step_that_updates_x_first_leaves_the_product(self, rng, w):
        from structattn import training

        x = T.Tensor(rng.standard_normal((4, 500)).astype(np.float32), requires_grad=True)
        c = rng.standard_normal((4, 300)).astype(np.float32)
        T.sum_all(T.mul(T.linear(x, w, T.zeros(300)), T.Tensor(c))).backward()
        want = w.data - np.multiply(c.T @ x.data, np.float32(0.1))
        training.sgd_step({"x": x, "w": w}, lr=0.1)
        assert w.data.tobytes() == want.tobytes()

    def test_a_product_of_another_dtype_is_added_into_zeros(self, rng, w):
        x, c = rng.standard_normal((4, 500)), rng.standard_normal((4, 300))
        T.sum_all(T.mul(T.linear(T.Tensor(x), w, T.zeros(300)), T.Tensor(c))).backward()
        want = np.zeros_like(w.data)
        want += c.T @ x
        assert type(w.grad) is np.ndarray and w.grad.tobytes() == want.tobytes()


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
        assert checks.grad_check(lambda a, b: T.scale(T.sum_squares([a, b], 0.37), 1.7), inputs) < 1e-6


class TestUniform:
    """Each forced worker count splits the row blocks into that many shares
    (at most one per block); each must keep the serial draw's bits and leave
    the generator where the serial draw leaves it."""

    WORKERS = (1, 2, 3, 7)

    # 300 x 1000 draws in five row blocks, 700 x 1000 in eleven
    @pytest.mark.parametrize("shape", [(300, 1000), (40, 90, 30), (70000,), (), (700, 1000)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_one_whole_array_draw(self, shape, dtype, monkeypatch):
        want = np.random.default_rng(4).uniform(-0.3, 0.2, size=shape).astype(dtype)
        for workers in self.WORKERS:
            monkeypatch.setattr(T, "_usable_cores", lambda: workers)
            got = T.uniform(np.random.default_rng(4), -0.3, 0.2, shape, dtype)
            assert got.dtype == dtype and got.shape == want.shape
            assert np.array_equal(got.data, want), workers
            assert got.requires_grad

    def test_glorot_equals_one_whole_array_draw(self, monkeypatch):
        """From a generator that holds a buffered 32-bit half, which
        ``advance`` clears and the draw must put back."""
        shape = (300, 1000)
        limit = float(np.sqrt(6.0 / 1300))
        for workers in self.WORKERS:
            monkeypatch.setattr(T, "_usable_cores", lambda: workers)
            rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
            rng.integers(0, 10, dtype=np.uint32)
            ref_rng.integers(0, 10, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == 1
            threads = threading.active_count()
            got = T.glorot(rng, shape)
            assert threading.active_count() == threads
            want = ref_rng.uniform(-limit, limit, size=shape).astype(np.float32)
            assert np.array_equal(got.data, want), workers
            # the stream is left where a whole-array draw leaves it
            assert rng.bit_generator.state == ref_rng.bit_generator.state, workers
            assert rng.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist() == \
                ref_rng.integers(0, 1 << 32, size=3, dtype=np.uint32).tolist()

    def test_a_helper_threads_memory_error_reaches_the_caller(self, monkeypatch):
        class Failing(np.random.Generator):
            def uniform(self, *args, **kwargs):
                raise MemoryError("helper")

        monkeypatch.setattr(T, "_usable_cores", lambda: 2)
        monkeypatch.setattr(T.np.random, "Generator", Failing)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="helper"):
            T.uniform(np.random.default_rng(4), -0.3, 0.2, (300, 1000))
        assert threading.active_count() == threads


def leaf(rng, *shape, dtype=np.float64):
    return T.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)


def backward_unshared(loss):
    """Run ``loss.backward()`` and check that no leaf gradient shares memory
    with another, with any node's value or with any inner node's gradient."""
    nodes = T._toposort(loss)
    loss.backward()
    grads = [n.grad for n in nodes if n.requires_grad and not n._prev]
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

    def test_add_of_a_leaf_and_a_constant(self, rng):
        # the pattern of ``attention.penalty``, which adds a constant -I
        a, k, c = leaf(rng, 2, 3), t64(-np.eye(2, 3)), t64(rng.standard_normal((2, 3)))
        backward_unshared(T.sum_all(T.mul(T.add(a, k), c)))
        assert np.array_equal(a.grad, c.data) and k.grad is None

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

    def test_dense_backward_and_step_allocate_nothing_weight_sized(self):
        """Tracemalloc peak of ``backward()`` and ``sgd_step`` on a dense batch
        loss with L2 is below a tenth of ``head.w1``: its gradient is never
        made whole, only row blocks of it, one at a time. ``head.w1`` is
        8192 by 1024 (32 MB), so one row block (256 KB) is a small share of
        it. The second of two steps is traced, so one-time imports do not count."""
        from structattn import data, training
        from structattn.config import RunConfig
        from structattn.model import build_model

        cfg = RunConfig(d=4, u=16, d_a=4, r=32, head="dense", b=8192, classes=2, l2=1e-3).validate()
        rng = np.random.default_rng(0)
        net = build_model(cfg, 10, rng)
        examples = [data.Example(rng.integers(2, 10, size=n), n % 2) for n in (3, 5, 4, 2)]
        b = data.batch(examples, 4)[0]
        w1 = net.named_parameters()["head.w1"]
        for traced in (False, True):
            logits, attns = net.forward_batch(*b.inputs())
            loss = training.total_loss(logits, b.labels, attns, 1.0, cfg.l2, net.l2_parameters())[0]
            before = w1.data.copy()
            if traced:
                tracemalloc.start()
            try:
                loss.backward()
                assert type(w1.grad) is T.ProductGrad
                training.sgd_step(net.named_parameters(), lr=0.1, clip=0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert (w1.data != before).any()
        assert w1.data.shape == (8192, 1024)
        assert peak < 0.1 * w1.data.nbytes, peak / w1.data.nbytes


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        x = T.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        assert T.sum_all(x).backward() is None
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_every_leaf_gets_matching_shape(self, rng):
        xs = [T.Tensor(rng.standard_normal(s), requires_grad=True) for s in [(2, 3), (3,), (3, 4)]]
        outer = T.matmul(T.reshape(xs[1], (3, 1)), T.reshape(T.gather_rows(xs[2], 0), (1, 4)))
        loss = T.frobenius_sq(T.matmul(T.add(xs[0], xs[0]), outer))
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

    @pytest.mark.parametrize("op", [
        T.softmax_rows, T.tanh_elem, T.sigmoid, T.relu, lambda x: T.scale(x, 0.3), T.frobenius_sq,
        T.sum_all, T.transpose, lambda x: T.reshape(x, (4, 3)), lambda x: T.gather_rows(x, [2, 0, 2]),
        lambda x: T.dropout(x, 0.5, np.random.default_rng(1)),
        lambda x: T.cross_entropy(x, [1, 0, 3])],
        ids=["softmax_rows", "tanh_elem", "sigmoid", "relu", "scale", "frobenius_sq", "sum_all", "transpose",
             "reshape", "gather_rows", "dropout", "cross_entropy"])
    def test_one_parent_op_builds_a_backward_only_for_a_grad_input(self, rng, op):
        """The invariant a one-parent backward relies on: it exists only when
        its input requires a gradient, so it never has to ask."""
        data = rng.standard_normal((3, 4))
        assert op(T.Tensor(data))._backward is None
        x = T.Tensor(data, requires_grad=True)
        out = op(x)
        assert out._backward is not None
        (out if out.ndim == 0 else T.frobenius_sq(out)).backward()
        grad = np.asarray(x.grad)
        assert grad.shape == data.shape and np.isfinite(grad).all() and grad.any()

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

    def test_a_second_backward_adds_one_clean_pass_into_the_leaves(self):
        """Each call starts the inner nodes afresh: two calls give twice the
        gradient of one, not the adds into the first call's inner gradients."""
        x = T.Tensor(np.ones(3), requires_grad=True)
        loss = T.sum_all(T.scale(x, 2.0))
        loss.backward()
        loss.backward()
        assert np.array_equal(x.grad, [4.0, 4.0, 4.0])

    def test_a_second_backward_doubles_a_lazy_linear_weight_gradient_with_l2(self, rng):
        """Up to float32 rounding: 2(a + b) against (a + b) + a + b."""
        w = T.Tensor(rng.standard_normal((300, 500)).astype(np.float32), requires_grad=True)
        term, _ = linear_term(rng, w, 4)
        loss = T.add(T.sum_squares([w], 1e-3), term)
        loss.backward()
        once = np.asarray(w.grad)
        loss.backward()
        np.testing.assert_allclose(w.grad, 2 * once, rtol=1e-6, atol=1e-5)

    def test_deterministic(self, rng):
        x = T.Tensor(rng.standard_normal((3, 3)), requires_grad=True)

        def once():
            x.grad = None
            T.frobenius_sq(T.tanh_elem(T.matmul(x, x))).backward()
            return x.grad.copy()

        assert np.array_equal(once(), once())


class TestGradCheck:
    def test_linear_function_is_exact(self, rng):
        err = checks.grad_check(T.sum_all, [T.Tensor(rng.standard_normal(5))])
        assert err < 1e-8

    def test_tanh_chain(self, rng):
        x = T.Tensor(rng.standard_normal((3, 3)))
        err = checks.grad_check(lambda t: T.sum_all(T.tanh_elem(T.tanh_elem(t))), [x])
        assert err < 1e-4

    def test_detects_wrong_backward(self, rng):
        def bad_scale(x):
            data = x.data * 2.0

            def bk(g):
                x._acc(g * 3.0)  # deliberately wrong factor
            return T._from_op(data, (x,), bk)

        err = checks.grad_check(lambda x: T.sum_all(bad_scale(x)), [T.Tensor(rng.standard_normal(3))])
        assert err > 1e-1


@given(hnp.arrays(np.float32, (3, 4), elements=st.floats(-1e4, 1e4, width=32)))
@settings(max_examples=50, deadline=None)
def test_finite_inputs_give_finite_outputs(x):
    t = T.Tensor(x)
    for out in (T.softmax_rows(t), T.tanh_elem(t), T.sigmoid(t), T.relu(t),
                T.frobenius_sq(t), T.matmul(t, T.transpose(t))):
        assert np.isfinite(out.data).all()
