import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from structattn import attention
from structattn import tensor as T
from structattn.encoder import HiddenStates


def hidden(rng, n=5, width=6, mask=None, dtype=np.float64):
    m = np.ones(n, dtype=bool) if mask is None else np.asarray(mask)
    return HiddenStates(T.Tensor(rng.standard_normal((n, width)).astype(dtype)), m)


def params(rng, d_a=4, hops=3, width=6, dtype=np.float64):
    """The attention MLP's (w1, w2)."""
    return T.glorot(rng, (d_a, width), dtype), T.glorot(rng, (hops, d_a), dtype)


class TestAttend:
    def test_zero_output_weights_give_uniform_rows(self, rng):
        h = hidden(rng, n=4, mask=[True, True, True, False])
        a = attention.attend(h, T.Tensor(rng.standard_normal((4, 6))), T.zeros((3, 4), np.float64)).data
        assert np.allclose(a[:, :3], 1 / 3)
        assert (a[:, 3] == 0).all()

    def test_single_position_is_all_ones_column(self, rng):
        a = attention.attend(hidden(rng, n=1), *params(rng)).data
        assert np.array_equal(a, np.ones((3, 1)))

    def test_single_hop_equals_attend_vector_exactly(self, rng):
        h = hidden(rng)
        w1, w2 = params(rng, hops=1)
        a = attention.attend(h, w1, w2)
        v = attention.attend_vector(h, w1, T.row(w2, 0))
        assert np.array_equal(a.data[0], v.data)

    def test_row_stochastic_with_masked_columns(self, rng):
        for n, hops, d_a in [(1, 1, 1), (4, 2, 3), (7, 5, 2)]:
            mask = np.ones(n, dtype=bool)
            if n > 2:
                mask[-1] = False
            h = hidden(rng, n=n, mask=mask)
            a = attention.attend(h, *params(rng, d_a=d_a, hops=hops)).data
            assert a.shape == (hops, n)
            assert np.abs(a.sum(axis=1) - 1).max() < 1e-6
            assert (a >= 0).all() and (a <= 1).all()
            assert (a[:, ~mask] == 0).all()


class TestAttendVector:
    def test_zero_weights_uniform(self, rng):
        h = hidden(rng, n=4)
        w1 = T.Tensor(rng.standard_normal((3, 6)))
        out = attention.attend_vector(h, w1, T.zeros(3, np.float64))
        assert np.allclose(out.data, 0.25)

    def test_weighted_sum_gradient(self, rng):
        def loss(h, w1, w2_row):
            hs = HiddenStates(h, np.ones(h.shape[0], dtype=bool))
            a = attention.attend_vector(hs, w1, w2_row)
            m = T.matmul(a, h)
            return T.sum_all(T.mul(m, m))

        inputs = [T.Tensor(rng.standard_normal(s)) for s in [(5, 6), (3, 6), (3,)]]
        assert T.grad_check(loss, inputs) < 1e-4


class TestPool:
    def test_one_hot_row_selects_hidden_row(self, rng):
        h = hidden(rng, n=4)
        a = T.Tensor(np.array([[0.0, 0, 1, 0], [1.0, 0, 0, 0]]))
        m = attention.pool(a, h).data
        assert np.array_equal(m[0], h.h.data[2])
        assert np.array_equal(m[1], h.h.data[0])

    def test_uniform_row_is_mean(self, rng):
        h = hidden(rng, n=4)
        a = T.Tensor(np.full((1, 4), 0.25))
        assert np.allclose(attention.pool(a, h).data[0], h.h.data.mean(axis=0))

    def test_equals_loop_sum_oracle(self, rng):
        h = hidden(rng, n=5)
        a = T.Tensor(rng.dirichlet(np.ones(5), size=3))
        m = attention.pool(a, h).data
        oracle = np.zeros_like(m)
        for i in range(3):
            for t in range(5):
                oracle[i] += a.data[i, t] * h.h.data[t]
        assert np.abs(m - oracle).max() < 1e-12

    def test_shape_mismatch(self, rng):
        with pytest.raises(T.ShapeError):
            attention.pool(T.Tensor(np.zeros((2, 3))), hidden(rng, n=4))

    def test_rows_inside_convex_hull_bounds(self, rng):
        h = hidden(rng, n=6)
        a = T.Tensor(rng.dirichlet(np.ones(6), size=4))
        m = attention.pool(a, h).data
        lo, hi = h.h.data.min(axis=0), h.h.data.max(axis=0)
        assert (m >= lo - 1e-12).all() and (m <= hi + 1e-12).all()


class TestPenalty:
    def test_disjoint_one_hot_rows_give_zero(self):
        a = T.Tensor(np.array([[1.0, 0, 0, 0], [0.0, 1, 0, 0]]))
        assert attention.penalty(a).item() == 0.0

    def test_uniform_two_hop_case(self):
        # AA^T entries all 0.25: 2*(0.75)^2 + 2*(0.25)^2 = 1.25
        a = T.Tensor(np.full((2, 4), 0.25))
        assert attention.penalty(a).item() == pytest.approx(1.25, abs=1e-6)

    def test_identical_one_hot_rows(self):
        a = T.Tensor(np.array([[1.0, 0, 0], [1.0, 0, 0]]))
        assert attention.penalty(a).item() == pytest.approx(2.0, abs=1e-12)

    def test_zero_only_for_disjoint_one_hot(self):
        base = np.array([[1.0, 0, 0, 0], [0.0, 0, 1, 0]])
        assert attention.penalty(T.Tensor(base)).item() == 0.0
        smeared = np.array([[0.9, 0.1, 0, 0], [0.0, 0, 1, 0]])
        assert attention.penalty(T.Tensor(smeared)).item() > 0.0

    @given(hnp.arrays(np.float64, (3, 5), elements=st.floats(-5, 5)))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_on_stochastic_rows(self, logits):
        a = T.softmax_rows(T.Tensor(logits))
        assert attention.penalty(a).item() >= 0.0

    def test_gradient_matches_finite_differences(self, rng):
        x = T.Tensor(rng.standard_normal((3, 5)))
        err = T.grad_check(lambda t: attention.penalty(T.softmax_rows(t)), [x])
        assert err < 1e-4

    def test_value_helper_agrees(self, rng):
        a = rng.dirichlet(np.ones(5), size=3)
        assert attention.penalty_value(a) == pytest.approx(attention.penalty(T.Tensor(a)).item())


class TestOverlap:
    def test_disjoint_supports(self):
        assert attention.overlap(np.array([1.0, 0, 0]), np.array([0.0, 1, 0])) == 0.0

    def test_identical_one_hot_is_max(self):
        assert attention.overlap(np.array([0.0, 1, 0]), np.array([0.0, 1, 0])) == 1.0

    def test_two_uniform_rows(self):
        u = np.full(4, 0.25)
        assert attention.overlap(u, u) == pytest.approx(0.25)

    def test_gram_diagonal_matches_self_overlap(self, rng):
        a = rng.dirichlet(np.ones(6), size=3)
        gram = a @ a.T
        for i in range(3):
            assert gram[i, i] == pytest.approx(attention.overlap(a[i], a[i]))
            assert 0 < gram[i, i] <= 1
            for j in range(3):
                assert gram[i, j] == pytest.approx(attention.overlap(a[i], a[j]))

    def test_mean_pairwise(self, rng):
        a = rng.dirichlet(np.ones(4), size=3)
        pairs = [attention.overlap(a[i], a[j]) for i in range(3) for j in range(3) if i != j]
        assert attention.mean_pairwise_overlap(a) == pytest.approx(np.mean(pairs))
        assert attention.mean_pairwise_overlap(a[:1]) == 0.0


class TestOverallAttention:
    def test_single_hop_is_the_row(self, rng):
        a = rng.dirichlet(np.ones(5), size=1)
        assert np.allclose(attention.overall_attention(a), a[0])

    def test_identical_rows_unchanged(self):
        row = np.array([0.5, 0.25, 0.25])
        a = np.stack([row, row, row])
        assert np.allclose(attention.overall_attention(a), row)

    def test_two_disjoint_one_hot(self):
        a = np.array([[1.0, 0], [0.0, 1]])
        assert np.allclose(attention.overall_attention(a), [0.5, 0.5])

    def test_sums_to_one(self, rng):
        a = rng.dirichlet(np.ones(7), size=4)
        assert attention.overall_attention(a).sum() == pytest.approx(1.0, abs=1e-6)
