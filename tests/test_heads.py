import hashlib
from dataclasses import replace

import numpy as np
import pytest

from structattn import checks, heads
from structattn import tensor as T
from structattn.config import RunConfig, load_run_config
from structattn.model import audit_group, build_model, count_model_params, parameter_shapes

from support import CONFIG_DIR


def t64(a):
    return T.Tensor(np.asarray(a, dtype=np.float64))


def mlp_head(rng, in_dim, hidden, classes, dtype=np.float64):
    """The dense head's (w1, b1, w2, b2)."""
    return (T.glorot(rng, (hidden, in_dim), dtype), T.Tensor(np.zeros(hidden, dtype), requires_grad=True),
            T.glorot(rng, (classes, hidden), dtype), T.Tensor(np.zeros(classes, dtype), requires_grad=True))


def pruned_head(rng, r, width, p, q, classes, dtype=np.float64):
    """The structured head's (w_v, w_h, w_out, b_out)."""
    return (T.glorot(rng, (r, width, p), dtype), T.glorot(rng, (width, r, q), dtype),
            T.glorot(rng, (classes, r * p + width * q), dtype),
            T.Tensor(np.zeros(classes, dtype), requires_grad=True))


def gated_params(rng, r, width, k, dtype=np.float64):
    """The gated encoder's (w_fh, w_fp)."""
    return T.glorot(rng, (r, width, k), dtype), T.glorot(rng, (r, width, k), dtype)


class TestMlpHead:
    def test_zero_weights_give_output_bias(self, rng):
        bias = rng.standard_normal(3)
        logits = heads.mlp_forward(t64(rng.standard_normal((1, 2, 3))), T.zeros((4, 6), np.float64),
                                   T.zeros(4, np.float64), T.zeros((3, 4), np.float64), t64(bias))
        assert np.array_equal(logits.data, bias[None])

    def test_eval_deterministic_under_dropout_rate(self, rng):
        head = mlp_head(rng, 6, 5, 3)
        m = t64(rng.standard_normal((4, 2, 3)))
        a = heads.mlp_forward(m, *head, dropout_rate=0.5).data
        b = heads.mlp_forward(m, *head, dropout_rate=0.5).data
        assert np.array_equal(a, b)

    def test_gradient_through_head(self, rng):
        def loss(m, *weights):
            return T.cross_entropy(heads.mlp_forward(m, *weights), [0, 2])

        inputs = [T.Tensor(rng.standard_normal(s)) for s in
                  [(2, 2, 3), (5, 6), (5,), (3, 5), (3,)]]
        assert checks.grad_check(loss, inputs) < 1e-4


def dense_twin_logits(m, head):
    """Plain-numpy dense layer whose cross-group weights are zero."""
    w_v, w_h, w_out, b_out = head
    r, width, p = w_v.shape
    q = w_h.shape[2]
    big_v = np.zeros((r * p, r * width))
    for i in range(r):
        big_v[i * p:(i + 1) * p, i * width:(i + 1) * width] = w_v.data[i].T
    big_h = np.zeros((width * q, width * r))
    for j in range(width):
        big_h[j * q:(j + 1) * q, j * r:(j + 1) * r] = w_h.data[j].T
    mv = np.maximum(big_v @ m.reshape(-1), 0)
    mh = np.maximum(big_h @ m.T.reshape(-1), 0)
    return w_out.data @ np.concatenate([mv, mh]) + b_out.data


def dyadic(rng, shape):
    """Random values whose products and sums are exact in float64, so any
    summation order yields the same bits."""
    return rng.integers(-8, 9, size=shape) / 16.0


def dyadic_pruned_head(rng, r, width, p, q, classes):
    return (t64(dyadic(rng, (r, width, p))), t64(dyadic(rng, (width, r, q))),
            t64(dyadic(rng, (classes, r * p + width * q))), t64(dyadic(rng, (classes,))))


class TestPrunedHead:
    def test_equals_zero_masked_dense_twin_bitwise(self, rng):
        # dyadic inputs make every summation order exact, so equality is pure structure
        head = dyadic_pruned_head(rng, 3, 4, 2, 2, 3)
        m = dyadic(rng, (3, 4))
        logits = heads.pruned_forward(t64(m[None]), *head)
        assert np.array_equal(logits.data[0], dense_twin_logits(m, head))

    def test_matches_dense_twin_to_rounding_on_gaussians(self, rng):
        head = pruned_head(rng, 3, 4, 2, 2, 3)
        m = rng.standard_normal((3, 4))
        logits = heads.pruned_forward(t64(m[None]), *head)
        np.testing.assert_allclose(logits.data[0], dense_twin_logits(m, head), rtol=1e-12, atol=1e-14)

    def test_single_group_reduces_to_dense_layer(self, rng):
        w_v, w_h, w_out, b_out = pruned_head(rng, 1, 4, 3, 2, 2)
        m = rng.standard_normal((1, 4))
        logits = heads.pruned_forward(t64(m[None]), w_v, w_h, w_out, b_out)
        mv = np.maximum(m[0] @ w_v.data[0], 0)           # plain dense layer on the row
        mh = np.maximum(m[0][:, None] * w_h.data[:, 0, :], 0)
        feats = np.concatenate([mv.reshape(-1), mh.reshape(-1)])
        assert np.allclose(logits.data[0], w_out.data @ feats + b_out.data)

    def test_group_isolation(self, rng):
        # row group i must not react to changes in other rows of M
        w_v = pruned_head(rng, 3, 4, 2, 2, 3)[0]
        m1 = rng.standard_normal((3, 4))
        m2 = m1.copy()
        m2[1] += 1.0
        mv1 = T.batched_dot(t64(m1), w_v).data
        mv2 = T.batched_dot(t64(m2), w_v).data
        assert np.array_equal(mv1[0], mv2[0])
        assert np.array_equal(mv1[2], mv2[2])
        assert not np.array_equal(mv1[1], mv2[1])

    def test_gradient(self, rng):
        def loss(m, *weights):
            return T.cross_entropy(heads.pruned_forward(m, *weights), [1, 0])

        r, width, p, q, classes = 2, 4, 3, 2, 3
        inputs = [T.Tensor(rng.standard_normal(s)) for s in
                  [(2, r, width), (r, width, p), (width, r, q), (classes, r * p + width * q), (classes,)]]
        assert checks.grad_check(loss, inputs) < 1e-4


class TestGatedEncoder:
    def test_zero_embedding_annihilates(self, rng):
        g = gated_params(rng, 3, 4, 5)
        m_p = t64(rng.standard_normal((3, 4)))
        out = heads.gated_encode(T.zeros((3, 4), np.float64), m_p, *g)
        assert (out.data == 0).all()

    def test_identity_slices_give_elementwise_product(self, rng):
        width = 4
        eye = np.stack([np.eye(width)] * 3)
        m_h = rng.standard_normal((3, width))
        m_p = rng.standard_normal((3, width))
        out = heads.gated_encode(t64(m_h), t64(m_p), t64(eye), t64(eye))
        assert np.allclose(out.data, m_h * m_p)

    def test_mismatched_embeddings_rejected(self, rng):
        g = gated_params(rng, 3, 4, 5, np.float32)
        with pytest.raises(T.ShapeError):
            heads.gated_encode(T.zeros((3, 4)), T.zeros((2, 4)), *g)

    def test_gradient_into_mlp(self, rng):
        def loss(m_h, m_p, w_fh, w_fp, w1, b1, w2, b2):
            f_r = heads.gated_encode(m_h, m_p, w_fh, w_fp)
            logits = heads.mlp_forward(T.reshape(f_r, (1, *f_r.shape)), w1, b1, w2, b2)
            return T.cross_entropy(logits, [0])

        r, width, k, b, classes = 2, 3, 4, 5, 2
        inputs = [T.Tensor(rng.standard_normal(s)) for s in
                  [(r, width), (r, width), (r, width, k), (r, width, k),
                   (b, r * k), (b,), (classes, b), (classes,)]]
        assert checks.grad_check(loss, inputs) < 1e-4


def preset(head, **kw):
    base = dict(d=100, u=300, d_a=350, r=30, head=head, classes=5, vocab_size=100000)
    base.update(kw)
    return RunConfig(**base).validate()


class TestCountParams:
    def test_yelp_dense_hidden_layer(self):
        audit = count_model_params(preset("dense", b=3000))
        assert audit.group_totals["hidden_layer"] == 54_000_000
        assert audit.group_totals["softmax"] == 15_000

    def test_age_dense_hidden_layer(self):
        audit = count_model_params(preset("dense", b=4000))
        assert audit.group_totals["hidden_layer"] == 72_000_000
        assert audit.group_totals["softmax"] == 20_000

    def test_yelp_pruned_group_weights(self):
        audit = count_model_params(preset("pruned", p=150, q=10))
        rows = {name: count for _, name, _, count in audit.rows}
        assert rows["head.w_v"] == 2_700_000
        assert rows["head.w_h"] == 180_000
        assert audit.group_totals["softmax"] == 52_500

    def test_unknown_head_of_an_unvalidated_config_is_an_error(self):
        cfg = replace(RunConfig(d=5, u=4, d_a=3, r=2, head="dense", classes=3, b=6).validate(), head="lstm")
        with pytest.raises(ValueError, match="unknown head kind 'lstm'"):
            parameter_shapes(cfg, 9)

    def test_total_is_sum_of_parts(self):
        # d=5, u=4, d_a=3, r=2, b=6, 3 classes, 9 words: embedding 9*5; two LSTM
        # directions of 16*5 + 16*4 + 16; attention 3*8 + 2*3; head 6*16 + 6 + 3*6 + 3
        cfg = RunConfig(d=5, u=4, d_a=3, r=2, head="dense", classes=3, b=6).validate()
        audit = count_model_params(replace(cfg, vocab_size=9))
        assert audit.group_totals == {"embedding": 45, "other": 359, "hidden_layer": 96, "softmax": 18}
        assert audit.total == 518
        for head in ("dense", "pruned", "gated-pair"):
            cfg = RunConfig(d=5, u=4, d_a=3, r=2, head=head, classes=3, b=6, p=2, q=2, k=3).validate()
            audit = count_model_params(replace(cfg, vocab_size=9))
            counts = {name: count for _, name, _, count in audit.rows}
            assert counts == {name: int(np.prod(shape)) for name, shape in parameter_shapes(cfg, 9).items()}
            assert audit.total == sum(counts.values()) == sum(audit.group_totals.values())

    def test_pruning_shrinks_hidden_layer_when_groups_cover_budget(self):
        # with p*r = b the row-group layer keeps 1/r of the dense weights
        for r, b in [(5, 500), (30, 3000)]:
            dense = count_model_params(preset("dense", r=r, b=b))
            pruned = count_model_params(preset("pruned", r=r, p=b // r, q=10))
            rows = {name: count for _, name, _, count in pruned.rows}
            assert rows["head.w_v"] * r == dense.group_totals["hidden_layer"]
            assert pruned.group_totals["hidden_layer"] < dense.group_totals["hidden_layer"]

    def test_shape_map_matches_built_models(self, rng):
        l2_names = {
            "dense": ["attention.w1", "attention.w2", "head.w1", "head.w2"],
            "pruned": ["attention.w1", "attention.w2", "head.w_v", "head.w_h", "head.w_out"],
            "gated-pair": ["attention.w1", "attention.w2", "gated.w_fh", "gated.w_fp",
                           "head.w1", "head.w2"],
        }
        for head, want_l2 in l2_names.items():
            cfg = RunConfig(d=5, u=4, d_a=3, r=2, head=head, classes=3, b=6, p=2, q=2, k=3).validate()
            net = build_model(cfg, vocab_size=9, rng=rng)
            shapes = parameter_shapes(cfg, 9)
            params = net.named_parameters()
            actual = [(name, p.shape) for name, p in params.items()]
            assert actual == list(shapes.items())
            assert [id(w) for w in net.l2_parameters()] == [id(params[name]) for name in want_l2]

    def test_grouping(self):
        assert audit_group("embedding.table") == "embedding"
        assert audit_group("head.w1") == "hidden_layer"
        assert audit_group("head.w_v") == "hidden_layer"
        assert audit_group("head.w2") == "softmax"
        assert audit_group("head.b1") == "other"
        assert audit_group("lstm_fwd.w_x") == "other"
        assert audit_group("gated.w_fh") == "other"


# sha256 prefixes of every ``build_model`` tensor (vocabulary 5000, rng seed
# 7). The embedding, ``head.w1`` and the gated ``head.w1`` span several init
# row blocks, so these pin the block-wise float32 draws to the old
# whole-array float64 draws, bit for bit.
ENCODER_HASHES = {
    "embedding.table": "47dbbc6e9b0c4576", "lstm_fwd.w_x": "dda5e65e078f03b7",
    "lstm_fwd.w_h": "d59415deb2b0ff82", "lstm_fwd.bias": "0879332a2e31551e",
    "lstm_bwd.w_x": "881147397763c2ce", "lstm_bwd.w_h": "5eac80c8f76592c9",
    "lstm_bwd.bias": "0879332a2e31551e", "attention.w1": "4d940e60f30051dc",
    "attention.w2": "aa607235dbf7b276",
}
HEAD_HASHES = {
    "dense": (dict(b=1200), {
        "head.w1": "0aaabfc7b6e9cbeb", "head.b1": "24ddaa4710480313",
        "head.w2": "a6ae6baa6d3edfd7", "head.b2": "15ec7bf0b50732b4"}),
    "pruned": (dict(p=4, q=3), {
        "head.w_v": "0a166d88259ad7bb", "head.w_h": "f01b3883e71b49ac",
        "head.w_out": "6cc49e7157bdd4d8", "head.b_out": "15ec7bf0b50732b4"}),
    "gated-pair": (dict(b=4000, k=5), {
        "gated.w_fh": "f71374dd1e4aa56b", "gated.w_fp": "7d1f17e10f1e7a3f",
        "head.w1": "489af2f1cc289ce0", "head.b1": "f85f2c34eb2843d2",
        "head.w2": "7b98d8647fb77872", "head.b2": "15ec7bf0b50732b4"}),
}


@pytest.mark.parametrize("head", sorted(HEAD_HASHES))
def test_built_tensors_keep_their_bits(head):
    from structattn.model import build_model
    extra, head_hashes = HEAD_HASHES[head]
    cfg = RunConfig(d=16, u=8, d_a=6, r=4, classes=3, seed=0, head=head, **extra).validate()
    net = build_model(cfg, 5000, np.random.default_rng(7))
    params = net.named_parameters()
    got = {name: hashlib.sha256(p.data.tobytes()).hexdigest()[:16] for name, p in params.items()}
    assert all(p.dtype == np.float32 for p in params.values())
    assert got == {**ENCODER_HASHES, **head_hashes}


# sha256 prefixes of every ``build_model`` tensor at the shapes of
# ``params_yelp_pruned.cfg`` with 100 000 words (rng seed 0, 56 MB), recorded
# from the serial block-by-block draw. The embedding spans 153 init row blocks
# and ``head.w_v`` 30, so at 2 and 3 workers each is drawn in that many shares.
PAPER_PRUNED_HASHES = {
    "embedding.table": "7f6feaf203b339b8", "lstm_fwd.w_x": "a9afb6a9df4ebcff",
    "lstm_fwd.w_h": "4ec5a462b0f622e1", "lstm_fwd.bias": "18854975e34d4b92",
    "lstm_bwd.w_x": "7c532acc2c6078d6", "lstm_bwd.w_h": "ba5a021d09ae5836",
    "lstm_bwd.bias": "18854975e34d4b92", "attention.w1": "c138efb93fbe9fb2",
    "attention.w2": "71e0b52662196422", "head.w_v": "fcde66e893e431ef",
    "head.w_h": "6a8f67e6fe5f8b74", "head.w_out": "ce5236408c130e55",
    "head.b_out": "de47c9b27eb8d300",
}


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_paper_shape_tensors_keep_their_bits_at_any_worker_count(workers, monkeypatch):
    # not raising: the serial draw that recorded the hashes has no worker count
    monkeypatch.setattr(T, "_usable_cores", lambda: workers, raising=False)
    cfg = load_run_config(CONFIG_DIR / "params_yelp_pruned.cfg")
    net = build_model(cfg, 100000, np.random.default_rng(0))
    got = {name: hashlib.sha256(p.data).hexdigest()[:16] for name, p in net.named_parameters().items()}
    assert got == PAPER_PRUNED_HASHES
