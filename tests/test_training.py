import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from structattn import attention, data, training
from structattn import tensor as T
from structattn.model import build_model

from support import load_sets, tiny_config


def t64(a):
    return T.Tensor(np.asarray(a, dtype=np.float64))


class TestTotalLoss:
    def test_zero_coeff_is_cross_entropy_plus_l2(self, rng):
        logits = t64(rng.standard_normal((1, 3)))
        a = t64(rng.dirichlet(np.ones(4), size=2))
        w = t64(rng.standard_normal((2, 2)))
        loss = training.total_loss(logits, [1], [a], coeff=0.0, l2_coeff=0.01, l2_params=[w])
        expected = T.cross_entropy(logits, [1]).item() + 0.01 * (w.data ** 2).sum()
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_disjoint_one_hot_attention_adds_nothing(self, rng):
        logits = t64(rng.standard_normal((1, 3)))
        disjoint = t64(np.eye(3))
        with_pen = training.total_loss(logits, [0], [disjoint], 1.0, 0.0, [])
        without = training.total_loss(logits, [0], [disjoint], 0.0, 0.0, [])
        assert with_pen.item() == without.item()

    def test_zero_coeff_ignores_attention_path(self, rng):
        logits = t64(rng.standard_normal((1, 3)))
        a1 = t64(rng.dirichlet(np.ones(5), size=2))
        a2 = t64(rng.dirichlet(np.ones(5), size=2))
        assert training.total_loss(logits, [0], [a1], 0.0, 0.0, []).item() == \
               training.total_loss(logits, [0], [a2], 0.0, 0.0, []).item()

    def test_pair_attention_averages_penalties(self, rng):
        logits = t64(rng.standard_normal((1, 2)))
        a1 = t64(rng.dirichlet(np.ones(4), size=2))
        a2 = t64(rng.dirichlet(np.ones(4), size=2))
        loss = training.total_loss(logits, [0], [(a1, a2)], 2.0, 0.0, [])
        base = T.cross_entropy(logits, [0]).item()
        expected = base + attention.penalty_value(a1.data) + attention.penalty_value(a2.data)
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_gradient(self, rng):
        def loss(logits, scores, w):
            a = T.softmax_rows(scores)
            return training.total_loss(logits, [1], [a], 0.7, 1e-3, [w])

        inputs = [T.Tensor(rng.standard_normal(s)) for s in [(1, 3), (2, 5), (3, 3)]]
        assert T.grad_check(loss, inputs) < 1e-4


class TestSgdStep:
    def test_zero_gradients_leave_params(self, rng):
        p = {"w": T.Tensor(rng.standard_normal(3))}
        before = p["w"].data.copy()
        training.sgd_step(p, training.clip_grads({"w": np.zeros(3)}, 0.5), lr=0.1)
        assert np.array_equal(p["w"].data, before)

    def test_clip_clamps_components(self):
        p = {"w": T.Tensor(np.zeros(2))}
        training.sgd_step(p, training.clip_grads({"w": np.array([10.0, -10.0])}, 0.5), lr=1.0)
        assert np.allclose(p["w"].data, [-0.5, 0.5])

    def test_applied_component_never_exceeds_clip(self, rng):
        p = {"w": T.Tensor(np.zeros(50))}
        g = rng.standard_normal(50) * 10
        training.sgd_step(p, training.clip_grads({"w": g}, 0.5), lr=1.0)
        assert np.abs(p["w"].data).max() <= 0.5 + 1e-12

    def test_quadratic_loss_decreases(self):
        w = T.Tensor(np.array([3.0, -2.0]), requires_grad=True)

        def loss():
            return T.frobenius_sq(T.reshape(w, (1, 2)))

        before = loss().item()
        loss().backward()
        training.sgd_step({"w": w}, {"w": w.grad}, lr=0.1)
        assert loss().item() < before


class TestAdagradStep:
    def test_first_step_is_learning_rate(self):
        p = {"w": T.Tensor(np.zeros(1))}
        state = {}
        training.adagrad_step(p, {"w": np.ones(1)}, state, lr=0.5)
        assert p["w"].data[0] == pytest.approx(-0.5, rel=1e-6)

    def test_repeated_gradients_shrink_steps(self):
        p = {"w": T.Tensor(np.zeros(1))}
        state = {}
        positions = [0.0]
        for _ in range(4):
            training.adagrad_step(p, {"w": np.ones(1)}, state, lr=0.5)
            positions.append(float(p["w"].data[0]))
        steps = -np.diff(positions)
        assert (np.diff(steps) < 0).all()

    def test_matches_hand_trace_on_scalar(self):
        # acc: 4 then 4.25; steps lr*2/(2+eps), lr*0.5/(sqrt(4.25)+eps)
        lr, eps = 0.1, 1e-8
        p = {"w": T.Tensor(np.array([1.0]))}
        state = {}
        training.adagrad_step(p, {"w": np.array([2.0])}, state, lr=lr, eps=eps)
        expected = 1.0 - lr * 2.0 / (np.sqrt(4.0) + eps)
        assert p["w"].data[0] == pytest.approx(expected, rel=1e-7)
        training.adagrad_step(p, {"w": np.array([0.5])}, state, lr=lr, eps=eps)
        expected -= lr * 0.5 / (np.sqrt(4.25) + eps)
        assert p["w"].data[0] == pytest.approx(expected, rel=1e-7)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_in_place_sgd_gives_the_bits_of_the_whole_array_formula(dtype):
    rng = np.random.default_rng(11)
    shapes = {"w": (300, 400), "b": (7,)}
    start = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
    params = {k: T.Tensor(v.copy()) for k, v in start.items()}
    ref = {k: v.copy() for k, v in start.items()}
    for _ in range(4):
        grads = {k: rng.standard_normal(s).astype(dtype) for k, s in shapes.items()}
        for k in shapes:
            ref[k] -= 0.05 * grads[k]
        training.sgd_step(params, grads, lr=0.05)
        for k in shapes:
            assert params[k].data.dtype == dtype
            assert np.array_equal(params[k].data, ref[k]), k


class StubModel:
    """Fixed-logit model for evaluate() tests; predicts in chunks of four."""

    cfg = SimpleNamespace(batch_size=4)

    def __init__(self, logits_for):
        self.logits_for = logits_for

    def forward_batch(self, tokens, mask=None, train=False, rng=None):
        logits = [self.logits_for(t) for t in tokens]
        return T.Tensor(np.asarray(logits, dtype=np.float32)), [T.Tensor(np.ones((1, len(t)))) for t in tokens]


class TestEvaluate:
    def balanced_set(self):
        return [data.Example(np.array([2]), i % 2) for i in range(10)]

    def test_constant_prediction_on_balanced_set(self):
        model = StubModel(lambda tokens: [1.0, 0.0])
        assert training.evaluate(model, self.balanced_set()) == 0.5

    def test_perfect_model(self):
        model = StubModel(lambda tokens: [1.0, 0.0] if tokens[0] == 0 else [0.0, 1.0])
        examples = [data.Example(np.array([i % 2]), i % 2) for i in range(10)]
        assert training.evaluate(model, examples) == 1.0

    def test_matches_manual_count(self, rng):
        examples = [data.Example(np.array([i]), int(rng.integers(2))) for i in range(2, 12)]
        model = StubModel(lambda tokens: [0.2, 0.8])
        manual = sum(ex.label == 1 for ex in examples) / len(examples)
        assert training.evaluate(model, examples) == manual

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            training.evaluate(StubModel(lambda t: [0.0, 1.0]), [])

    def test_side_effect_free(self, tmp_path, rng):
        cfg = tiny_config(tmp_path)
        vocab, train_set, _ = load_sets(cfg)
        net = build_model(cfg, len(vocab), rng)
        before = {k: p.data.copy() for k, p in net.named_parameters().items()}
        training.evaluate(net, train_set)
        after = net.named_parameters()
        for k in before:
            assert np.array_equal(before[k], after[k].data)


class TestTrainLoop:
    def test_same_seed_identical_history(self, tmp_path):
        cfg = tiny_config(tmp_path, max_epochs=3, patience=3)

        def run():
            vocab, train_set, dev_set = load_sets(cfg)
            net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
            return training.train(net, train_set, dev_set, cfg)

        a, b = run(), run()
        assert [r.__dict__ for r in a.history] == [r.__dict__ for r in b.history]
        for k in a.best_params:
            assert np.array_equal(a.best_params[k], b.best_params[k])

    def test_best_params_reproduce_best_dev_accuracy(self, tmp_path):
        cfg = tiny_config(tmp_path, max_epochs=4, patience=4)
        vocab, train_set, dev_set = load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        result = training.train(net, train_set, dev_set, cfg)
        training.restore_params(net, result.best_params)
        assert training.evaluate(net, dev_set) == result.best_dev_acc
        assert result.best_dev_acc == max(r.dev_acc for r in result.history)

    def test_early_stopping_respects_patience(self, tmp_path):
        cfg = tiny_config(tmp_path, max_epochs=50, patience=2, learning_rate=1e-9)
        vocab, train_set, dev_set = load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        result = training.train(net, train_set, dev_set, cfg)
        # with a frozen model dev accuracy never improves after epoch 1
        assert len(result.history) == 3

    def test_divergence_aborts_with_batch_name(self, tmp_path):
        cfg = tiny_config(tmp_path)
        vocab, train_set, dev_set = load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        net.named_parameters()["attention.w1"].data[0, 0] = np.nan
        with pytest.raises(training.TrainingDiverged, match="epoch 1, batch 0"):
            training.train(net, train_set, dev_set, cfg)

    def test_empty_dataset_rejected(self, tmp_path):
        cfg = tiny_config(tmp_path)
        vocab, train_set, dev_set = load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        with pytest.raises(ValueError):
            training.train(net, [], dev_set, cfg)

    def test_step_gradients_do_not_outlive_the_step(self, tmp_path):
        """Tracemalloc peak of one ``train`` call on a model whose ``head.w1``
        is almost all of it: the step's gradients are spent in place and
        dropped before the dev pass, so only one W1-sized array (the gradient,
        later the best-epoch snapshot) is ever alive beside the model."""
        cfg = tiny_config(tmp_path, r=8, b=8192, max_epochs=1, patience=1)
        vocab, train_set, dev_set = load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        w1 = net.named_parameters()["head.w1"].data.nbytes
        assert w1 > 0.9 * sum(p.data.nbytes for p in net.named_parameters().values())
        tracemalloc.start()
        try:
            training.train(net, train_set, dev_set, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * w1, peak / w1

    def test_restore_copies_into_the_parameters(self, tmp_path):
        cfg = tiny_config(tmp_path)
        vocab, _, _ = load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        arrays = {k: p.data for k, p in net.named_parameters().items()}
        snapshot = {k: np.full_like(a, 0.25) for k, a in arrays.items()}
        training.restore_params(net, snapshot)
        for k, p in net.named_parameters().items():
            assert p.data is arrays[k] and np.array_equal(p.data, snapshot[k])
            assert not np.shares_memory(p.data, snapshot[k])
        with pytest.raises(T.ShapeError):
            training.restore_params(net, {"head.w1": np.zeros((1, 1))})

    def test_history_records_fields(self, tmp_path):
        cfg = tiny_config(tmp_path, max_epochs=2, patience=2)
        vocab, train_set, dev_set = load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        result = training.train(net, train_set, dev_set, cfg)
        for i, rec in enumerate(result.history, start=1):
            assert rec.epoch == i
            assert np.isfinite([rec.train_loss, rec.dev_acc, rec.mean_penalty, rec.mean_overlap]).all()
            assert rec.mean_penalty >= 0.0
