"""Full models: parameter bundles wiring encoder, attention, and a head.

``parameter_shapes`` is the single source of truth for tensor names and
shapes; model construction, checkpoints, and the parameter audit all consume
it, so a checkpoint written by one build always lines up with another.
"""

from __future__ import annotations

import numpy as np

from . import attention, encoder, heads
from . import tensor as T
from .config import RunConfig


def parameter_shapes(cfg: RunConfig, vocab_size):
    """Ordered name -> shape map for every trainable tensor of a model."""
    d, u, d_a, r = cfg.d, cfg.u, cfg.d_a, cfg.r
    width = 2 * u
    shapes = {"embedding.table": (vocab_size, d)}
    for part in ("lstm_fwd", "lstm_bwd"):
        shapes[f"{part}.w_x"] = (4 * u, d)
        shapes[f"{part}.w_h"] = (4 * u, u)
        shapes[f"{part}.bias"] = (4 * u,)
    shapes["attention.w1"] = (d_a, width)
    shapes["attention.w2"] = (r, d_a)
    if cfg.head == "dense":
        shapes["head.w1"] = (cfg.b, r * width)
        shapes["head.b1"] = (cfg.b,)
        shapes["head.w2"] = (cfg.classes, cfg.b)
        shapes["head.b2"] = (cfg.classes,)
    elif cfg.head == "pruned":
        shapes["head.w_v"] = (r, width, cfg.p)
        shapes["head.w_h"] = (width, r, cfg.q)
        shapes["head.w_out"] = (cfg.classes, r * cfg.p + width * cfg.q)
        shapes["head.b_out"] = (cfg.classes,)
    elif cfg.head == "gated-pair":
        shapes["gated.w_fh"] = (r, width, cfg.k)
        shapes["gated.w_fp"] = (r, width, cfg.k)
        shapes["head.w1"] = (cfg.b, r * cfg.k)
        shapes["head.b1"] = (cfg.b,)
        shapes["head.w2"] = (cfg.classes, cfg.b)
        shapes["head.b2"] = (cfg.classes,)
    else:
        raise ValueError(f"unknown head kind {cfg.head!r}")
    return shapes


def audit_group(name):
    """Table-style grouping: hidden-layer and softmax weight matrices stand
    alone, the embedding is its own labeled line, everything else (LSTM,
    attention, gated factors, biases) is 'other'."""
    if name.startswith("embedding."):
        return "embedding"
    if name in ("head.w1", "head.w_v", "head.w_h"):
        return "hidden_layer"
    if name in ("head.w2", "head.w_out"):
        return "softmax"
    return "other"


def count_model_params(cfg: RunConfig, vocab_size=None):
    size = cfg.vocab_size if vocab_size is None else vocab_size
    return heads.count_params(parameter_shapes(cfg, size), audit_group)


# Weight matrices covered by L2: attention, gated factors and head weights,
# never embeddings, LSTM weights or biases. Summed in manifest order.
L2_PARAMS = ("attention.w1", "attention.w2", "gated.w_fh", "gated.w_fp",
             "head.w1", "head.w2", "head.w_v", "head.w_h", "head.w_out")


class Classifier:
    """biLSTM + multi-hop attention under a dense, pruned or gated-pair head.

    The gated-pair head encodes both sentences with the shared encoder and
    attention, combines their matrix embeddings with the gated encoder, and
    classifies the result with an MLP.
    """

    def __init__(self, cfg: RunConfig, vocab_size, rng, dtype=T.DEFAULT_DTYPE, embedding=None):
        self.cfg = cfg
        self._names = tuple(parameter_shapes(cfg, vocab_size))
        width = 2 * cfg.u
        self.embedding = embedding or encoder.EmbeddingTable.random(vocab_size, cfg.d, rng, dtype)
        self.lstm_fwd = encoder.LstmParams.create(cfg.d, cfg.u, rng, dtype)
        self.lstm_bwd = encoder.LstmParams.create(cfg.d, cfg.u, rng, dtype)
        self.attention = attention.AttentionParams.create(cfg.d_a, cfg.r, width, rng, dtype)
        if cfg.head == "dense":
            self.head = heads.MlpHead.create(cfg.r * width, cfg.b, cfg.classes, rng, dtype)
        elif cfg.head == "pruned":
            self.head = heads.PrunedHead.create(cfg.r, width, cfg.p, cfg.q, cfg.classes, rng, dtype)
        else:
            self.gated = heads.GatedEncoderParams.create(cfg.r, width, cfg.k, rng, dtype)
            self.head = heads.MlpHead.create(cfg.r * cfg.k, cfg.b, cfg.classes, rng, dtype)

    def encode(self, tokens, mask=None):
        """Hidden states, annotation matrix, and matrix embedding for one sentence."""
        tokens = np.asarray(tokens)
        if mask is None:
            mask = np.ones(tokens.shape[0], dtype=bool)
        s = encoder.embed(tokens, self.embedding)
        hidden = encoder.bilstm(s, mask, self.lstm_fwd, self.lstm_bwd)
        a = attention.attend(hidden, self.attention)
        m = attention.pool(a, hidden)
        return hidden, a, m

    def forward(self, tokens, mask=None, prem_tokens=None, prem_mask=None, train=False, rng=None):
        """Class logits and the annotation matrix for one (padded) sentence.

        For gated-pair, ``tokens`` is the hypothesis and ``prem_tokens`` the
        premise, and the second result is the pair (A_hypothesis, A_premise).
        """
        _, a, m = self.encode(tokens, mask)
        if self.cfg.head == "dense":
            return heads.mlp_forward(m, self.head, self.cfg.dropout, train, rng), a
        if self.cfg.head == "pruned":
            return heads.pruned_forward(m, self.head, train), a
        _, a_p, m_p = self.encode(prem_tokens, prem_mask)
        f_r = heads.gated_encode(m, m_p, self.gated)
        return heads.mlp_forward(f_r, self.head, self.cfg.dropout, train, rng), (a, a_p)

    def named_parameters(self):
        """Every trainable tensor under its ``parameter_shapes`` name, in that order."""
        params = {}
        for name in self._names:
            part, attr = name.split(".")
            params[name] = getattr(getattr(self, part), attr)
        return params

    def l2_parameters(self):
        """The tensors named in ``L2_PARAMS``, in manifest order."""
        return [p for name, p in self.named_parameters().items() if name in L2_PARAMS]


def build_model(cfg: RunConfig, vocab_size, rng, dtype=T.DEFAULT_DTYPE, embedding=None):
    return Classifier(cfg, vocab_size, rng, dtype, embedding)
