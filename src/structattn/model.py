"""Full models: one name -> tensor map wiring encoder, attention, and a head.

``parameter_shapes`` is the single source of truth for tensor names, shapes
and draw order. A model is one ordered name -> Tensor map: ``build_model``
fills it from ``_init``, checkpoint restore from the file's arrays, and the
parameter audit counts its shapes, so a checkpoint written by one build
always lines up with another. ``Classifier`` is the one place that hands
each named tensor to the layer that uses it.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass
class ParamAudit:
    """Per-tensor parameter counts with group subtotals; total is always the sum."""

    rows: list  # (group, name, shape, count)
    group_totals: dict
    total: int

    def format(self):
        lines = [f"{'group':<14}{'name':<22}{'shape':<18}{'count':>12}"]
        for group, name, shape, count in self.rows:
            lines.append(f"{group:<14}{name:<22}{str(shape):<18}{count:>12}")
        lines.append("-" * 66)
        for group, total in self.group_totals.items():
            lines.append(f"{group:<54}{total:>12}")
        lines.append(f"{'total':<54}{self.total:>12}")
        return "\n".join(lines)


def count_model_params(cfg: RunConfig, vocab_size=None):
    """Audit every trainable scalar of ``parameter_shapes``, grouped by ``audit_group``."""
    size = cfg.vocab_size if vocab_size is None else vocab_size
    rows = []
    group_totals = {}
    for name, shape in parameter_shapes(cfg, size).items():
        count = int(np.prod(shape))
        group = audit_group(name)
        rows.append((group, name, shape, count))
        group_totals[group] = group_totals.get(group, 0) + count
    return ParamAudit(rows=rows, group_totals=group_totals, total=sum(c for _, _, _, c in rows))


# Weight matrices covered by L2: attention, gated factors and head weights,
# never embeddings, LSTM weights or biases. Summed in manifest order.
L2_PARAMS = ("attention.w1", "attention.w2", "gated.w_fh", "gated.w_fp",
             "head.w1", "head.w2", "head.w_v", "head.w_h", "head.w_out")


def _init(name, shape, rng, dtype):
    """The one init rule, applied to each tensor of ``parameter_shapes`` in order.

    The embedding is uniform in [-0.1, 0.1] with a zero padding row; every
    weight of two or more dimensions is Glorot-uniform; vectors start at zero,
    except that each LSTM bias opens its forget gate with 1.0.
    """
    if name == "embedding.table":
        table = T.uniform(rng, -0.1, 0.1, shape, dtype)
        table.data[encoder.PAD_ID] = 0.0
        return table
    if len(shape) >= 2:
        return T.glorot(rng, shape, dtype)
    vec = np.zeros(shape, dtype=dtype)
    if name.startswith("lstm_") and name.endswith(".bias"):
        u = shape[0] // 4
        vec[u:2 * u] = 1.0
    return T.Tensor(vec, requires_grad=True)


class Classifier:
    """biLSTM + multi-hop attention under a dense, pruned or gated-pair head.

    The gated-pair head encodes both sentences with the shared encoder and
    attention, combines their matrix embeddings with the gated encoder, and
    classifies the result with an MLP.

    ``params`` maps each ``parameter_shapes`` name to its tensor, in that
    order; each layer is called with the tensors it uses, by name.
    """

    def __init__(self, cfg: RunConfig, params):
        self.cfg = cfg
        self._params = params

    def encode(self, tokens, mask=None):
        """Hidden states, annotation matrix, and matrix embedding for one sentence."""
        p = self._params
        tokens = np.asarray(tokens)
        if mask is None:
            mask = np.ones(tokens.shape[0], dtype=bool)
        s = encoder.embed(tokens, p["embedding.table"])
        hidden = encoder.bilstm(s, mask, (p["lstm_fwd.w_x"], p["lstm_fwd.w_h"], p["lstm_fwd.bias"]),
                                (p["lstm_bwd.w_x"], p["lstm_bwd.w_h"], p["lstm_bwd.bias"]))
        a = attention.attend(hidden, p["attention.w1"], p["attention.w2"])
        m = attention.pool(a, hidden)
        return hidden, a, m

    def forward_batch(self, tokens, mask=None, prem_tokens=None, prem_mask=None, train=False, rng=None):
        """B-by-C class logits and each example's annotation matrix for a batch.

        ``tokens`` holds B (padded) id sequences and ``mask`` their masks, e.g.
        the rows of a ``data.Batch``; a missing mask marks every token real.
        Each sentence is encoded on its own, then the head classifies the B
        matrix embeddings together. For gated-pair, ``tokens`` are the
        hypotheses and ``prem_tokens`` the premises, and each example's
        annotation is the pair (A_hypothesis, A_premise).
        """
        p = self._params
        rows, attns = [], []
        for i in range(len(tokens)):
            _, a, m = self.encode(tokens[i], None if mask is None else mask[i])
            if self.cfg.head == "gated-pair":
                _, a_p, m_p = self.encode(prem_tokens[i], None if prem_mask is None else prem_mask[i])
                m, a = heads.gated_encode(m, m_p, p["gated.w_fh"], p["gated.w_fp"]), (a, a_p)
            rows.append(m)
            attns.append(a)
        if self.cfg.head == "pruned":
            return heads.pruned_forward(rows, p["head.w_v"], p["head.w_h"],
                                        p["head.w_out"], p["head.b_out"]), attns
        return heads.mlp_forward(rows, p["head.w1"], p["head.b1"], p["head.w2"], p["head.b2"],
                                 self.cfg.dropout, train, rng), attns

    def forward(self, tokens, mask=None, prem_tokens=None, prem_mask=None, train=False, rng=None):
        """Class logits (1-D) and the annotation matrix for one (padded)
        sentence or pair: the B = 1 case of ``forward_batch``."""
        logits, attns = self.forward_batch([tokens], [mask], [prem_tokens], [prem_mask], train, rng)
        return T.reshape(logits, (logits.shape[1],)), attns[0]

    def named_parameters(self):
        """Every trainable tensor under its ``parameter_shapes`` name, in that order."""
        return self._params

    def l2_parameters(self):
        """The tensors named in ``L2_PARAMS``, in manifest order."""
        return [p for name, p in self.named_parameters().items() if name in L2_PARAMS]


def build_model(cfg: RunConfig, vocab_size, rng, dtype=T.DEFAULT_DTYPE):
    """A freshly initialized model: each tensor drawn by ``_init`` in spec order."""
    shapes = parameter_shapes(cfg, vocab_size)
    return Classifier(cfg, {name: _init(name, shape, rng, dtype) for name, shape in shapes.items()})
