"""Batch-major forward and loss against the per-example reference, in float64.

The reference runs each example as a batch of one through ``forward_batch``
and its own ``total_loss`` (L2 included), sums the losses and divides by B. The
batched path encodes each sentence, runs the head once over the stacked
matrix embeddings and adds L2 once; in exact arithmetic both are equal.
"""

import numpy as np
import pytest

from structattn import data, heads, training
from structattn import tensor as T
from structattn.config import RunConfig
from structattn.model import build_model

TOL = 1e-12
VOCAB = 20
LENGTHS = (3, 7, 1, 5)  # mixed lengths, so the packed scan's batch shrinks as it runs

HEADS = {
    "dense": dict(head="dense", b=6, dropout=0.3),
    "pruned": dict(head="pruned", p=2, q=3),
    "gated-pair": dict(head="gated-pair", b=6, k=3, dropout=0.0),
}


def setup(head, seed=0, dtype=np.float64):
    cfg = RunConfig(d=5, u=4, d_a=3, r=2, classes=3, penalty_coeff=0.7, l2=1e-3,
                    **HEADS[head]).validate()
    rng = np.random.default_rng(seed)
    net = build_model(cfg, VOCAB, rng, dtype=dtype)

    def sentence(n):
        return rng.integers(2, VOCAB, size=n)

    if head == "gated-pair":
        examples = [data.PairExample(sentence(n), sentence(9 - n), int(rng.integers(3))) for n in LENGTHS]
    else:
        examples = [data.Example(sentence(n), int(rng.integers(3))) for n in LENGTHS]
    return cfg, net, data.batch(examples, len(examples))[0]


def example_inputs(b, i):
    """Example i of a batch, as the ``forward_batch`` arguments of a batch of one."""
    return tuple(part[i:i + 1] for part in b.inputs())


def loss_and_grads(net, build):
    params = net.named_parameters()
    for p in params.values():
        p.grad = None
    loss = build()
    loss.backward()
    grads = {name: (np.array(p.grad) if p.grad is not None else np.zeros_like(p.data))
             for name, p in params.items()}
    return loss.item(), grads


def batched_loss(net, cfg, b, rng):
    logits, attns = net.forward_batch(*b.inputs(), rng=rng)
    assert logits.shape == (len(b), cfg.classes) and len(attns) == len(b)
    return training.total_loss(logits, b.labels, attns, cfg.penalty_coeff, cfg.l2, net.l2_parameters())[0]


def reference_loss(net, cfg, b, rng):
    total = None
    for i in range(len(b)):
        logits, attns = net.forward_batch(*example_inputs(b, i), rng=rng)
        loss = training.total_loss(logits, b.labels[i:i + 1], attns, cfg.penalty_coeff, cfg.l2,
                                   net.l2_parameters())[0]
        total = loss if total is None else T.add(total, loss)
    return T.scale(total, 1.0 / len(b))


@pytest.mark.parametrize("head", sorted(HEADS))
def test_batch_loss_and_gradients_match_per_example_reference(head):
    cfg, net, b = setup(head)
    # two generators seeded alike: dropout must draw the same masks on both paths
    loss, grads = loss_and_grads(net, lambda: batched_loss(net, cfg, b, np.random.default_rng(7)))
    ref_loss, ref_grads = loss_and_grads(net, lambda: reference_loss(net, cfg, b, np.random.default_rng(7)))
    assert loss == pytest.approx(ref_loss, rel=TOL, abs=TOL)
    for name, g in ref_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=TOL, atol=TOL, err_msg=name)
    assert np.abs(grads["head.b2" if head != "pruned" else "head.b_out"]).max() > 0


def test_dropout_is_live_in_the_dense_case():
    cfg, net, b = setup("dense")
    with T.no_grad():
        dropped = batched_loss(net, cfg, b, np.random.default_rng(7)).item()
        cfg.dropout = 0.0
        kept = batched_loss(net, cfg, b, np.random.default_rng(7)).item()
    assert dropped != kept


@pytest.mark.parametrize("head", sorted(HEADS))
def test_single_sentence_forward_is_row_of_batch_forward(head):
    cfg, net, b = setup(head)
    with T.no_grad():
        logits, attns = net.forward_batch(*b.inputs())
        for i in range(len(b)):
            one, [attn] = net.forward_batch(*example_inputs(b, i))
            assert one.shape == (1, cfg.classes)
            np.testing.assert_allclose(one.data[0], logits.data[i], rtol=TOL, atol=TOL)
            pairs = zip(attn, attns[i]) if head == "gated-pair" else [(attn, attns[i])]
            for a, a_batch in pairs:
                assert np.array_equal(a.data, a_batch.data)
            if head != "gated-pair":
                alone, attn_alone = net.forward(b.sentences[i])
                assert alone.shape == (cfg.classes,)
                assert np.array_equal(alone.data, one.data[0]) and np.array_equal(attn_alone.data, attn.data)


@pytest.mark.parametrize("head", sorted(HEADS))
def test_zero_coeff_loss_has_the_bits_of_a_graph_without_penalties(head):
    cfg, net, b = setup(head, dtype=np.float32)

    def build(through_total_loss):
        logits, attns = net.forward_batch(*b.inputs(), rng=np.random.default_rng(7))
        if through_total_loss:
            return training.total_loss(logits, b.labels, attns, 0.0, cfg.l2, net.l2_parameters())[0]
        return T.add(T.sum_squares(net.l2_parameters(), cfg.l2), T.cross_entropy(logits, b.labels))

    loss, grads = loss_and_grads(net, lambda: build(True))
    ref_loss, ref_grads = loss_and_grads(net, lambda: build(False))
    assert loss == ref_loss
    for name, g in ref_grads.items():
        assert grads[name].tobytes() == g.tobytes(), name


def per_weight_l2_loss(net, cfg, b, rng):
    """The batch loss with L2 as one ``scale(frobenius_sq(w), l2)`` node per weight."""
    logits, attns = net.forward_batch(*b.inputs(), rng=rng)
    loss = training.total_loss(logits, b.labels, attns, cfg.penalty_coeff, 0.0, [])[0]
    for w in net.l2_parameters():
        loss = T.add(loss, T.scale(T.frobenius_sq(w), cfg.l2))
    return loss


@pytest.mark.parametrize("head", sorted(HEADS))
def test_fused_l2_matches_per_weight_chain(head):
    cfg, net, b = setup(head)
    loss, grads = loss_and_grads(net, lambda: batched_loss(net, cfg, b, np.random.default_rng(7)))
    ref_loss, ref_grads = loss_and_grads(
        net, lambda: per_weight_l2_loss(net, cfg, b, np.random.default_rng(7)))
    assert loss == pytest.approx(ref_loss, rel=TOL, abs=TOL)
    for name, g in ref_grads.items():
        np.testing.assert_allclose(grads[name], g, rtol=TOL, atol=TOL, err_msg=name)
    cfg.l2 = 0.0
    _, unregularized = loss_and_grads(net, lambda: batched_loss(net, cfg, b, np.random.default_rng(7)))
    for w_name in ("attention.w1", "head.w1" if head != "pruned" else "head.w_out"):
        assert not np.array_equal(grads[w_name], unregularized[w_name])


@pytest.mark.parametrize("head", sorted(HEADS))
def test_each_padded_sentence_gets_the_bits_it_gets_alone(head, monkeypatch):
    """In a mixed-length float32 batch of 8, every example's A and M from
    ``forward_batch`` equal ``encode`` of that sentence alone, bit for bit."""
    cfg = RunConfig(d=5, u=4, d_a=3, r=2, classes=3, **HEADS[head]).validate()
    rng = np.random.default_rng(3)
    net = build_model(cfg, VOCAB, rng)
    lengths = (3, 11, 1, 7, 16, 5, 2, 9)
    sentences = [rng.integers(2, VOCAB, size=n) for n in lengths]
    if head == "gated-pair":
        examples = [data.PairExample(s, sentences[-1 - i], 0) for i, s in enumerate(sentences)]
    else:
        examples = [data.Example(s, 0) for s in sentences]
    [b] = data.batch(examples, len(examples))
    assert len({len(ids) for ids in b.inputs()[0]}) > 1

    seen = []  # the matrix embeddings each head receives
    head_fn = {"dense": "mlp_forward", "pruned": "pruned_forward", "gated-pair": "gated_encode"}[head]
    original = getattr(heads, head_fn)

    def spy(*args, **kwargs):
        seen.append([x.data for x in args[:2]] if head == "gated-pair" else args[0].data)
        return original(*args, **kwargs)

    monkeypatch.setattr(heads, head_fn, spy)
    with T.no_grad():
        _, attns = net.forward_batch(*b.inputs())
        for i, ex in enumerate(examples):
            if head == "gated-pair":
                alone = [net.encode(ex.hypothesis), net.encode(ex.premise)]
                got = zip(attns[i], seen[i])
            else:
                alone = [net.encode(ex.tokens)]
                got = [(attns[i], seen[0][i])]
            for (_, a, m), (a_batch, m_batch) in zip(alone, got):
                assert np.array_equal(a.data, a_batch.data)
                assert np.array_equal(m.data, m_batch)


def separately_encoded_loss(net, cfg, b, rng):
    """The batch loss with each sentence encoded on its own, one scan per
    direction per sentence, then the head once over the stacked matrix
    embeddings: the per-sentence reference of ``forward_batch``."""
    p = net.named_parameters()
    sentences, *premises = b.inputs()
    ms, attns = [], []
    for i in range(len(b)):
        [(_, a, m)] = net.encode_batch([sentences[i]])
        if premises:
            [(_, a_p, m_p)] = net.encode_batch([premises[0][i]])
            m, a = heads.gated_encode(m, m_p, p["gated.w_fh"], p["gated.w_fp"]), (a, a_p)
        ms.append(T.reshape(m, (1, *m.shape)))
        attns.append(a)
    m = T.concat(ms)
    if cfg.head == "pruned":
        logits = heads.pruned_forward(m, p["head.w_v"], p["head.w_h"], p["head.w_out"], p["head.b_out"])
    else:
        logits = heads.mlp_forward(m, p["head.w1"], p["head.b1"], p["head.w2"], p["head.b2"],
                                   cfg.dropout, rng)
    return training.total_loss(logits, b.labels, attns, cfg.penalty_coeff, cfg.l2, net.l2_parameters())[0]


@pytest.mark.parametrize("head", sorted(HEADS))
def test_packed_batch_gives_the_bits_of_separately_encoded_sentences(head):
    """In float32, the loss and every gradient of a packed batch (the
    embedding table's included) equal those of the graph that encodes each
    sentence on its own, bit for bit."""
    cfg, net, b = setup(head, dtype=np.float32)
    loss, grads = loss_and_grads(net, lambda: batched_loss(net, cfg, b, np.random.default_rng(7)))
    ref_loss, ref_grads = loss_and_grads(
        net, lambda: separately_encoded_loss(net, cfg, b, np.random.default_rng(7)))
    assert np.float32(loss).tobytes() == np.float32(ref_loss).tobytes()
    for name, g in ref_grads.items():
        assert grads[name].dtype == np.float32 and grads[name].tobytes() == g.tobytes(), name
