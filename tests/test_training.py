import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from structattn import attention, checks, cli, data, training
from structattn import tensor as T
from structattn.model import build_model
from structattn.synth import make_pair_task, write_lines

from support import child_stdout, tiny_config


def t64(a):
    return T.Tensor(np.asarray(a, dtype=np.float64))


class TestTotalLoss:
    def test_zero_coeff_is_cross_entropy_plus_l2(self, rng):
        logits = t64(rng.standard_normal((1, 3)))
        a = t64(rng.dirichlet(np.ones(4), size=2))
        w = t64(rng.standard_normal((2, 2)))
        loss = training.total_loss(logits, [1], [(a,)], coeff=0.0, l2_coeff=0.01, l2_params=[w])[0]
        expected = T.cross_entropy(logits, [1]).item() + 0.01 * (w.data ** 2).sum()
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    def test_disjoint_one_hot_attention_adds_nothing(self, rng):
        logits = t64(rng.standard_normal((1, 3)))
        disjoint = t64(np.eye(3))
        with_pen = training.total_loss(logits, [0], [(disjoint,)], 1.0, 0.0, [])[0]
        without = training.total_loss(logits, [0], [(disjoint,)], 0.0, 0.0, [])[0]
        assert with_pen.item() == without.item()

    def test_zero_coeff_ignores_attention_path(self, rng):
        logits = t64(rng.standard_normal((1, 3)))
        a1 = t64(rng.dirichlet(np.ones(5), size=2))
        a2 = t64(rng.dirichlet(np.ones(5), size=2))
        assert training.total_loss(logits, [0], [(a1,)], 0.0, 0.0, [])[0].item() == \
               training.total_loss(logits, [0], [(a2,)], 0.0, 0.0, [])[0].item()

    def test_pair_attention_averages_penalties(self, rng):
        logits = t64(rng.standard_normal((1, 2)))
        a1 = t64(rng.dirichlet(np.ones(4), size=2))
        a2 = t64(rng.dirichlet(np.ones(4), size=2))
        loss = training.total_loss(logits, [0], [(a1, a2)], 2.0, 0.0, [])[0]
        base = T.cross_entropy(logits, [0]).item()
        expected = base + attention.penalty_value(a1.data) + attention.penalty_value(a2.data)
        assert loss.item() == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("coeff", [0.0, 0.7])
    @pytest.mark.parametrize("r, n", [(1, 1), (1, 6), (5, 1), (5, 9), (30, 1), (30, 40)])
    def test_penalties_are_the_bits_of_the_formula(self, rng, r, n, coeff):
        def attention_matrix():
            scores = rng.standard_normal((r, n)).astype(np.float32)
            return T.softmax_rows(T.Tensor(scores, requires_grad=True))

        def formula(a):
            a = a.data
            return float(((a @ a.T - np.eye(r, dtype=np.float32)) ** 2).sum())

        logits = T.Tensor(rng.standard_normal((2, 3)).astype(np.float32), requires_grad=True)
        single = [(attention_matrix(),), (attention_matrix(),)]
        _, penalties = training.total_loss(logits, [0, 2], single, coeff, 0.0, [])
        assert penalties == [formula(a) for (a,) in single]
        pairs = [(attention_matrix(), attention_matrix()), (attention_matrix(), attention_matrix())]
        _, penalties = training.total_loss(logits, [1, 0], pairs, coeff, 0.0, [])
        assert penalties == [(formula(a1) + formula(a2)) / 2 for a1, a2 in pairs]

    def test_gradient(self, rng):
        def loss(logits, scores, w):
            a = T.softmax_rows(scores)
            return training.total_loss(logits, [1], [(a,)], 0.7, 1e-3, [w])[0]

        inputs = [T.Tensor(rng.standard_normal(s)) for s in [(1, 3), (2, 5), (3, 3)]]
        assert checks.grad_check(loss, inputs) < 1e-4


def set_grads(params, grads):
    """Give each named parameter its gradient, as ``backward`` would."""
    for name, g in grads.items():
        params[name].grad = g
    return params


def clipped_sgd(params, grads, lr, clip=0.5):
    training.sgd_step(set_grads(params, grads), lr=lr, clip=clip)
    assert all(p.grad is None for p in params.values())


class TestSgdStep:
    def test_zero_gradients_leave_params(self, rng):
        p = {"w": T.Tensor(rng.standard_normal(3))}
        before = p["w"].data.copy()
        clipped_sgd(p, {"w": np.zeros(3)}, lr=0.1)
        assert np.array_equal(p["w"].data, before)

    def test_clip_clamps_components(self):
        p = {"w": T.Tensor(np.zeros(2))}
        clipped_sgd(p, {"w": np.array([10.0, -10.0])}, lr=1.0)
        assert np.allclose(p["w"].data, [-0.5, 0.5])

    def test_applied_component_never_exceeds_clip(self, rng):
        p = {"w": T.Tensor(np.zeros(50))}
        clipped_sgd(p, {"w": rng.standard_normal(50) * 10}, lr=1.0)
        assert np.abs(p["w"].data).max() <= 0.5 + 1e-12

    def test_quadratic_loss_decreases(self):
        w = T.Tensor(np.array([3.0, -2.0]), requires_grad=True)

        def loss():
            return T.frobenius_sq(T.reshape(w, (1, 2)))

        before = loss().item()
        loss().backward()
        training.sgd_step({"w": w}, lr=0.1)
        assert w.grad is None
        assert loss().item() < before


def adagrad(params, grads, state, lr, **kw):
    training.adagrad_step(set_grads(params, grads), state, lr=lr, **kw)
    assert all(p.grad is None for p in params.values())


class TestAdagradStep:
    def test_first_step_is_learning_rate(self):
        p = {"w": T.Tensor(np.zeros(1))}
        state = {}
        adagrad(p, {"w": np.ones(1)}, state, lr=0.5)
        assert p["w"].data[0] == pytest.approx(-0.5, rel=1e-6)

    def test_repeated_gradients_shrink_steps(self):
        p = {"w": T.Tensor(np.zeros(1))}
        state = {}
        positions = [0.0]
        for _ in range(4):
            adagrad(p, {"w": np.ones(1)}, state, lr=0.5)
            positions.append(float(p["w"].data[0]))
        steps = -np.diff(positions)
        assert (np.diff(steps) < 0).all()

    def test_matches_hand_trace_on_scalar(self):
        # acc: 4 then 4.25; steps lr*2/(2+eps), lr*0.5/(sqrt(4.25)+eps)
        lr, eps = 0.1, training.ADAGRAD_EPS
        p = {"w": T.Tensor(np.array([1.0]))}
        state = {}
        adagrad(p, {"w": np.array([2.0])}, state, lr=lr)
        expected = 1.0 - lr * 2.0 / (np.sqrt(4.0) + eps)
        assert p["w"].data[0] == pytest.approx(expected, rel=1e-7)
        adagrad(p, {"w": np.array([0.5])}, state, lr=lr)
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
        training.sgd_step(set_grads(params, grads), lr=0.05)
        for k in shapes:
            assert params[k].data.dtype == dtype and params[k].grad is None
            assert np.array_equal(params[k].data, ref[k]), k


def clipped_params(rng):
    """A float32 weight of three row blocks, a 1-D bias of three blocks, and a
    parameter that gets no gradient."""
    shapes = {"w": (3, 70_000), "b": (150_000,), "frozen": (4, 5)}
    return {k: T.Tensor(rng.standard_normal(s).astype(np.float32)) for k, s in shapes.items()}


def clipped_grads(rng, params):
    """Gradients of ``w`` and ``b`` that reach well beyond +/-0.5."""
    grads = {k: (3 * rng.standard_normal(params[k].data.shape)).astype(np.float32) for k in ("w", "b")}
    assert all(len(T._row_blocks(g)) == 3 and (np.abs(g) > 0.5).mean() > 0.8 for g in grads.values())
    return grads


@pytest.mark.parametrize("separate_clip", [False, True])
def test_clipped_sgd_step_gives_the_bits_of_the_whole_array_formula(separate_clip):
    rng = np.random.default_rng(21)
    params = clipped_params(rng)
    grads = clipped_grads(rng, params)
    ref = {k: p.data.copy() for k, p in params.items()}
    for k, g in grads.items():  # clip_grads, then sgd_step, as whole arrays
        g = g.copy()
        np.clip(g, -0.5, 0.5, out=g)
        np.multiply(g, 0.06, out=g)
        ref[k] -= g
    set_grads(params, grads)
    if separate_clip:
        training.clip_grads(params, 0.5)
        training.sgd_step(params, lr=0.06)
    else:
        training.sgd_step(params, lr=0.06, clip=0.5)
    for k, p in params.items():
        assert p.grad is None and p.data.dtype == np.float32
        assert np.array_equal(p.data, ref[k]), k


def test_clipped_adagrad_steps_give_the_bits_of_the_whole_array_formula():
    rng = np.random.default_rng(22)
    params = clipped_params(rng)
    ref = {k: p.data.copy() for k, p in params.items()}
    ref_acc = {}
    state = {}
    lr, eps = 0.05, 1e-8
    assert training.ADAGRAD_EPS == eps
    for _ in range(2):
        grads = clipped_grads(rng, params)
        for k, g in grads.items():  # clip_grads, then adagrad_step, as whole arrays
            g = g.copy()
            np.clip(g, -0.5, 0.5, out=g)
            acc = ref_acc.setdefault(k, np.zeros_like(ref[k]))
            acc += g * g
            ref[k] -= lr * g / (np.sqrt(acc) + eps)
        training.adagrad_step(set_grads(params, grads), state, lr=lr, clip=0.5)
        for k, p in params.items():
            assert p.grad is None and p.data.dtype == np.float32
            assert np.array_equal(p.data, ref[k]), k
    assert state.keys() == ref_acc.keys()
    for k in state:
        assert np.array_equal(state[k], ref_acc[k]), k


def test_adagrad_step_allocates_no_full_size_temporary():
    rng = np.random.default_rng(23)
    w = T.Tensor(rng.standard_normal((2000, 1000)).astype(np.float32))
    state = {}
    adagrad({"w": w}, {"w": rng.standard_normal(w.data.shape).astype(np.float32)}, state, lr=0.1)
    g = rng.standard_normal(w.data.shape).astype(np.float32)
    tracemalloc.start()
    try:
        adagrad({"w": w}, {"w": g}, state, lr=0.1, clip=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * w.data.nbytes, peak / w.data.nbytes



def row_grad(rng, table):
    """A ``RowGrad`` of ``table`` from two reads, and its dense reference.

    Ids repeat within each read and across both, the PAD id 0 among them, and
    most components reach beyond +/-0.5. The reference is what the backward of
    ``gather_rows`` made before: ``np.add.at`` of each read into a zero table.
    """
    reads = [np.array([0, 17, 5, 17, 0, 17]), np.array([5, 17, 0, 63, 5])]
    grad = T.RowGrad(table.shape, table.dtype)
    dense = np.zeros_like(table)
    for ids in reads:
        g = (3 * rng.standard_normal((ids.size, table.shape[1]))).astype(np.float32)
        grad.add(ids, g)
        np.add.at(dense, ids, g)
    assert (np.abs(dense[[0, 5, 17, 63]]) > 0.5).mean() > 0.8
    return grad, dense


@pytest.mark.parametrize("separate_clip", [False, True])
def test_row_grad_sgd_step_gives_the_bits_of_the_dense_formula(separate_clip):
    rng = np.random.default_rng(24)
    table = T.Tensor(rng.standard_normal((64, 9)).astype(np.float32))
    table.grad, dense = row_grad(rng, table.data)
    ref = table.data.copy()
    np.clip(dense, -0.5, 0.5, out=dense)  # clip_grads, then sgd_step, as whole arrays
    np.multiply(dense, 0.06, out=dense)
    ref -= dense
    if separate_clip:
        training.clip_grads({"table": table}, 0.5)
        training.sgd_step({"table": table}, lr=0.06)
    else:
        training.sgd_step({"table": table}, lr=0.06, clip=0.5)
    assert table.grad is None and table.data.dtype == np.float32
    assert np.array_equal(table.data, ref)


def test_clip_grads_clips_a_row_grad_in_place():
    """The gradient is made the dense ndarray it stands for, then clipped in place."""
    rng = np.random.default_rng(25)
    grad, dense = row_grad(rng, np.zeros((64, 9), np.float32))
    table = T.Tensor(np.zeros((64, 9), np.float32))
    table.grad = grad
    training.clip_grads({"table": table}, 0.5)
    assert type(table.grad) is np.ndarray
    assert table.grad.tobytes() == np.clip(dense, -0.5, 0.5).tobytes()


@pytest.mark.parametrize("optimizer", ["sgd", "adagrad"])
@pytest.mark.parametrize("separate_clip", [False, True])
def test_product_grad_steps_give_the_bits_of_the_dense_formula(separate_clip, optimizer):
    """A ``linear`` weight with L2 gets a ``ProductGrad``. The step that clips
    each block as it makes it, and ``clip_grads`` (which makes the gradient
    dense) followed by the step, both give the bits of the whole-array
    formula on ``np.asarray`` of the gradient. 300 x 500 spans three row blocks."""
    rng = np.random.default_rng(29)
    w = T.Tensor(rng.standard_normal((300, 500)).astype(np.float32), requires_grad=True)
    x, c = (T.Tensor(rng.standard_normal(s).astype(np.float32)) for s in [(4, 500), (4, 300)])
    T.add(T.sum_squares([w], 1e-3), T.sum_all(T.mul(T.linear(x, w, T.zeros(300)), c))).backward()
    assert type(w.grad) is T.ProductGrad
    g = np.clip(np.asarray(w.grad), -0.5, 0.5)  # clip_grads, then the step, as whole arrays
    assert (g == 0.5).mean() > 0.2
    lr, clip = 0.05, None if separate_clip else 0.5
    if separate_clip:
        training.clip_grads({"w": w}, 0.5)
    if optimizer == "sgd":
        ref = w.data - lr * g
        training.sgd_step({"w": w}, lr, clip=clip)
    else:
        ref = w.data - lr * g / (np.sqrt(g * g) + training.ADAGRAD_EPS)
        training.adagrad_step({"w": w}, {}, lr, clip=clip)
    assert w.grad is None and w.data.tobytes() == ref.tobytes()


def test_row_grad_adagrad_steps_give_the_bits_of_the_dense_formula():
    rng = np.random.default_rng(26)
    table = T.Tensor(rng.standard_normal((64, 9)).astype(np.float32))
    ref = table.data.copy()
    ref_acc = np.zeros_like(ref)
    state = {}
    lr, eps = 0.05, training.ADAGRAD_EPS
    for _ in range(2):
        table.grad, g = row_grad(rng, table.data)
        np.clip(g, -0.5, 0.5, out=g)  # clip_grads, then adagrad_step, as whole arrays
        ref_acc += g * g
        ref -= lr * g / (np.sqrt(ref_acc) + eps)
        training.adagrad_step({"table": table}, state, lr=lr, clip=0.5)
        assert table.grad is None and table.data.dtype == np.float32
        assert np.array_equal(table.data, ref)
        assert np.array_equal(state["table"], ref_acc)


def test_embedding_backward_and_step_allocate_nothing_table_sized():
    """Backward and an SGD step over a 40 MB table of which about 100 rows
    are read allocate under 1 MB; a dense gradient alone would be 40 MB."""
    rng = np.random.default_rng(27)
    table = T.Tensor(rng.standard_normal((200_000, 50)).astype(np.float32), requires_grad=True)
    ids = rng.integers(0, 200_000, size=100)
    before = table.data.copy()
    tracemalloc.start()
    try:
        T.sum_all(T.gather_rows(table, ids)).backward()
        assert type(table.grad) is T.RowGrad
        training.sgd_step({"table": table}, lr=0.1, clip=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    changed = np.flatnonzero((table.data != before).any(axis=1))
    assert np.array_equal(changed, np.unique(ids))


LAZY_SPEND_SCRIPT = r"""
import hashlib
import numpy as np
from structattn import data, training
from structattn.config import RunConfig
from structattn.model import build_model

steps = {"sgd": training.sgd_step, "adagrad": training.adagrad_step}


def dense_first(step):
    def reference(params, *args, **kwargs):
        for p in params.values():
            if p.grad is not None:
                p.grad = np.asarray(p.grad)
        step(params, *args, **kwargs)
    return reference


def params_digest(optimizer, clip, reference):
    cfg = RunConfig(d=4, u=300, d_a=4, r=30, head="dense", b=7, classes=3, optimizer=optimizer,
                    learning_rate=0.5, batch_size=16, dropout=0.0, l2=1e-3, clip=clip,
                    max_epochs=1, patience=1, seed=2).validate()
    rng = np.random.default_rng(0)
    net = build_model(cfg, 20, rng)
    examples = [data.Example(rng.integers(2, 20, size=2 + i % 8), i % 3) for i in range(16)]
    setattr(training, optimizer + "_step", dense_first(steps[optimizer]) if reference else steps[optimizer])
    try:
        training.train(net, examples, examples[:2], cfg)
    finally:
        setattr(training, optimizer + "_step", steps[optimizer])
    digest = hashlib.sha256()
    for p in net.named_parameters().values():
        digest.update(p.data.tobytes())
    return digest.hexdigest()


for optimizer in ("sgd", "adagrad"):
    for clip in (0.01, None):
        print(params_digest(optimizer, clip, False), params_digest(optimizer, clip, True))
"""


def test_lazy_spend_gives_the_bits_of_the_dense_gradient_at_one_and_two_blas_threads():
    """One ``training.train`` step, SGD and AdaGrad, clipped and not, against
    the same step after ``np.asarray`` of every gradient, each compared at
    its own BLAS thread count. ``head.w1`` is 7 by 18000, the paper's row
    width: ``_row_blocks`` makes blocks of 3 rows and a 1-row tail, and past
    16384 columns OpenBLAS gives a 1-row product (a GEMV) other bits than
    the rows of the whole GEMM, so a spend that kept the tail block alone
    fails here. Toy models have one block and cannot show it."""
    for threads in ("1", "2"):
        stdout = child_stdout(LAZY_SPEND_SCRIPT, threads)
        pairs = [line.split() for line in stdout.splitlines()]
        assert len(pairs) == 4 and len({lazy for lazy, _ in pairs}) == 4, stdout
        for lazy, reference in pairs:
            assert lazy == reference, threads


PAPER_THREAD_SCRIPT = r"""
import hashlib
import numpy as np
from structattn import data, training
from structattn import tensor as T
from structattn.config import RunConfig
from structattn.model import build_model

cfg = RunConfig(d=100, u=300, d_a=350, r=30, head="pruned", p=150, q=10, classes=5, batch_size=8,
                max_epochs=1, patience=1, seed=3).validate()
rng = np.random.default_rng(12)
net = build_model(cfg, 1000, rng)
sentences = [rng.integers(2, 1000, size=n) for n in rng.integers(10, 101, size=8)]
with T.no_grad():
    print(*(hashlib.sha256(m.data.tobytes()).hexdigest() for _, _, m in net.encode_batch(sentences)))
examples = [data.Example(ids, i % cfg.classes) for i, ids in enumerate(sentences)]
training.train(net, examples, examples[:4], cfg)
print(*(hashlib.sha256(p.data.tobytes()).hexdigest() for p in net.named_parameters().values()))
"""


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 3: OpenBLAS gives the attention MLP's and the scan's input-gradient "
                          "products other bits at 1 and at 2 threads until the thread count is pinned")
def test_paper_encoder_and_training_bits_do_not_depend_on_the_blas_thread_count():
    """A seeded paper-shape model (d=100, u=300, d_a=350, r=30, pruned head,
    1 000 words): a no-grad ``encode_batch`` of 8 sentences of lengths
    10-100, then one ``training.train`` epoch, in children at 1 and 2 BLAS
    threads, print the same matrix-embedding and parameter digests."""
    outputs = []
    for threads in ("1", "2"):
        stdout = child_stdout(PAPER_THREAD_SCRIPT, threads)
        if len(stdout.split()) != 8 + 13:
            pytest.fail(f"the child at {threads} threads printed {stdout!r}")
        outputs.append(stdout.splitlines())
    assert outputs[0][0] == outputs[1][0], "matrix embeddings"
    assert outputs[0][1] == outputs[1][1], "parameters after one epoch"


class StubModel:
    """Fixed-logit model for evaluate() tests; predicts in chunks of four."""

    cfg = SimpleNamespace(batch_size=4)

    def __init__(self, logits_for):
        self.logits_for = logits_for

    def forward_batch(self, sentences, premises=None, rng=None):
        logits = [self.logits_for(t) for t in sentences]
        return (T.Tensor(np.asarray(logits, dtype=np.float32)),
                [(T.Tensor(np.ones((1, len(t)))),) for t in sentences])


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
        vocab, train_set, _, _ = cli.load_sets(cfg)
        net = build_model(cfg, len(vocab), rng)
        before = {k: p.data.copy() for k, p in net.named_parameters().items()}
        training.evaluate(net, train_set)
        after = net.named_parameters()
        for k in before:
            assert np.array_equal(before[k], after[k].data)


class TestTrainLoop:
    @pytest.mark.parametrize("head", ["dense", "gated-pair"])
    def test_training_and_evaluation_build_no_mask(self, tmp_path, monkeypatch, head):
        """A batch reaches the model as its examples' id arrays: with the mask
        helper made to raise, a toy run trains and evaluates."""
        extra = {}
        if head == "gated-pair":
            train, dev = make_pair_task(n_train=16, n_dev=6, n_fillers=10, seed=4)
            write_lines(tmp_path / "pair_train.txt", train)
            write_lines(tmp_path / "pair_dev.txt", dev)
            extra = dict(head=head, k=3, optimizer="adagrad", train_path=tmp_path / "pair_train.txt",
                         dev_path=tmp_path / "pair_dev.txt")
        cfg = tiny_config(tmp_path, **extra)
        vocab, train_set, dev_set, _ = cli.load_sets(cfg)

        def no_mask(sentences):
            raise AssertionError("a padding mask was built")

        monkeypatch.setattr(data, "_length_mask", no_mask)
        b = data.batch(train_set, 4)[0]
        with pytest.raises(AssertionError, match="padding mask"):
            b.hyp_mask if head == "gated-pair" else b.mask
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        result = training.train(net, train_set, dev_set, cfg)
        assert len(result.history) == cfg.max_epochs
        assert training.evaluate(net, dev_set) == result.history[-1].dev_acc

    def test_same_seed_identical_history(self, tmp_path):
        cfg = tiny_config(tmp_path, max_epochs=3, patience=3)

        def run():
            vocab, train_set, dev_set, _ = cli.load_sets(cfg)
            net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
            result = training.train(net, train_set, dev_set, cfg)
            training.restore_params(net, result.best_params)
            return net, result

        (net_a, a), (net_b, b) = run(), run()
        assert [r.__dict__ for r in a.history] == [r.__dict__ for r in b.history]
        pa, pb = net_a.named_parameters(), net_b.named_parameters()
        for k in pa:
            assert np.array_equal(pa[k].data, pb[k].data), k

    def test_best_params_reproduce_best_dev_accuracy(self, tmp_path):
        cfg = tiny_config(tmp_path, max_epochs=4, patience=4)
        vocab, train_set, dev_set, _ = cli.load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        result = training.train(net, train_set, dev_set, cfg)
        training.restore_params(net, result.best_params)
        assert training.evaluate(net, dev_set) == result.best_dev_acc
        assert result.best_dev_acc == max(r.dev_acc for r in result.history)

    @pytest.mark.parametrize("accs, max_epochs, best_epoch", [
        ((0.5, 0.9, 0.6, 0.4), 10, 2),   # early stop two epochs after the best
        ((0.5, 0.9, 0.6, 0.95), 4, 4),   # a later best drops the epoch-2 snapshot
    ])
    def test_restore_gives_the_best_epochs_parameters(self, tmp_path, monkeypatch, accs, max_epochs,
                                                     best_epoch):
        scripted = iter(accs)
        monkeypatch.setattr(training, "_dev_stats", lambda model, examples: (next(scripted), 0.0, True))
        cfg = tiny_config(tmp_path, max_epochs=max_epochs, patience=2)
        vocab, train_set, dev_set, _ = cli.load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        params = net.named_parameters()
        at_best = {}

        def log(record):
            if record.epoch == best_epoch:
                at_best.update({k: p.data.copy() for k, p in params.items()})

        result = training.train(net, train_set, dev_set, cfg, log=log)
        assert len(result.history) == 4
        assert (result.best_epoch, result.best_dev_acc) == (best_epoch, max(accs))
        assert (result.best_params == {}) == (best_epoch == 4)
        if best_epoch < 4:
            assert any(not np.array_equal(p.data, at_best[k]) for k, p in params.items())
        training.restore_params(net, result.best_params)
        for k, p in params.items():
            assert np.array_equal(p.data, at_best[k]), k

    def test_one_epoch_copies_nothing(self, tmp_path):
        cfg = tiny_config(tmp_path, max_epochs=1, patience=1)
        vocab, train_set, dev_set, _ = cli.load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        result = training.train(net, train_set, dev_set, cfg)
        assert result.best_epoch == 1 and result.best_params == {}

    def test_early_stopping_respects_patience(self, tmp_path):
        cfg = tiny_config(tmp_path, max_epochs=50, patience=2, learning_rate=1e-9)
        vocab, train_set, dev_set, _ = cli.load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        result = training.train(net, train_set, dev_set, cfg)
        # with a frozen model dev accuracy never improves after epoch 1
        assert len(result.history) == 3

    def test_divergence_aborts_with_batch_name(self, tmp_path):
        cfg = tiny_config(tmp_path)
        vocab, train_set, dev_set, _ = cli.load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        net.named_parameters()["attention.w1"].data[0, 0] = np.nan
        with pytest.raises(training.TrainingDiverged, match="epoch 1, batch 0"):
            training.train(net, train_set, dev_set, cfg)

    def test_empty_dataset_rejected(self, tmp_path):
        cfg = tiny_config(tmp_path)
        vocab, train_set, dev_set, _ = cli.load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        with pytest.raises(ValueError):
            training.train(net, [], dev_set, cfg)

    def test_step_gradients_do_not_outlive_the_step(self, tmp_path):
        """Tracemalloc peak of one ``train`` call on a model whose ``head.w1``
        is almost all of it: the step's gradients are spent in place and
        dropped before the dev pass, and a single epoch takes no best-epoch
        snapshot, so only one W1-sized array (the gradient) is ever alive
        beside the model."""
        cfg = tiny_config(tmp_path, r=8, b=8192, max_epochs=1, patience=1)
        vocab, train_set, dev_set, _ = cli.load_sets(cfg)
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
        vocab, _, _, _ = cli.load_sets(cfg)
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
        vocab, train_set, dev_set, _ = cli.load_sets(cfg)
        net = build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
        result = training.train(net, train_set, dev_set, cfg)
        for i, rec in enumerate(result.history, start=1):
            assert rec.epoch == i
            assert np.isfinite([rec.train_loss, rec.dev_acc, rec.mean_penalty, rec.mean_overlap]).all()
            assert rec.mean_penalty >= 0.0
