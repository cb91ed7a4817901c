"""Full models: one name -> tensor map wiring encoder, attention, and a head.

``parameter_shapes`` is the single source of truth for tensor names, shapes
and draw order. A model is one ordered name -> Tensor map: ``build_model``
fills it from ``_init``, checkpoint restore from the file's arrays, and the
parameter audit counts its shapes, so a checkpoint written by one build
always lines up with another. ``Classifier`` is the one place that hands
each named tensor to the layer that uses it. A batch is a list of
sentences, each only its real tokens, encoded packed: one biLSTM pass for
all of its sentences; a sentence gets the same bits in any batch.
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


def count_model_params(cfg: RunConfig):
    """Audit every trainable scalar of ``parameter_shapes`` at the config's
    ``vocab_size``, grouped by ``audit_group``."""
    rows = []
    group_totals = {}
    for name, shape in parameter_shapes(cfg, cfg.vocab_size).items():
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


def _real_ids(tokens, mask):
    """The ids of a padded sentence's real tokens; only ``encode`` and ``forward`` read a mask.

    A missing mask marks every token real; padding may only follow them.
    """
    n = len(tokens)
    if n == 0:
        raise ValueError("empty sequence")
    if mask is None:
        return tokens
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise T.ShapeError(f"mask shape {mask.shape} does not match {n} tokens")
    n_real = int(mask.sum())
    if n_real == 0:
        raise ValueError("mask leaves no real tokens")
    if not mask[:n_real].all():
        raise ValueError("padding must be contiguous at the end of the sequence")
    return tokens[:n_real]


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

    def encode_batch(self, sentences):
        """Hidden states, annotation matrix and matrix embedding of each of
        ``sentences``, each given as the ids of its real tokens.

        The sentences are embedded one by one and packed, and ``bilstm`` runs
        once over the packed batch; attention and pooling then run on each
        sentence's own n-by-2u rows. Each sentence gets the bits it gets
        encoded alone.
        """
        p = self._params
        lengths = [len(ids) for ids in sentences]
        s = T.concat([encoder.embed(ids, p["embedding.table"]) for ids in sentences])
        h = encoder.bilstm(s, lengths, (p["lstm_fwd.w_x"], p["lstm_fwd.w_h"], p["lstm_fwd.bias"]),
                           (p["lstm_bwd.w_x"], p["lstm_bwd.w_h"], p["lstm_bwd.bias"]))
        out = []
        for start, n in zip(np.cumsum(lengths) - lengths, lengths):
            h_i = T.gather_rows(h, np.arange(start, start + n))
            a = attention.attend(h_i, p["attention.w1"], p["attention.w2"])
            out.append((h_i, a, attention.pool(a, h_i)))
        return out

    def encode(self, tokens, mask=None):
        """Hidden states, annotation matrix, and matrix embedding for one sentence.

        H and M come from the real tokens alone; A keeps one column per input
        position, and each padding column is exactly zero.
        """
        [(h, a, m)] = self.encode_batch([_real_ids(tokens, mask)])
        n_pad = len(tokens) - a.shape[1]
        if n_pad:
            a = T.concat([a, T.zeros((a.shape[0], n_pad), a.dtype)], axis=1)
        return h, a, m

    def forward_batch(self, sentences, premises=None, rng=None):
        """B-by-C class logits and each example's annotation matrix for a batch.

        ``sentences`` holds the B examples' id arrays, real tokens only, e.g.
        a ``data.Batch``'s, so each annotation matrix has one column per
        token. The batch is encoded as one packed batch; then the head
        classifies the B matrix embeddings together, stacked into one
        B-by-r-by-2u tensor, with dropout when given an ``rng``. For
        gated-pair, ``sentences`` are the hypotheses and ``premises`` the
        premises, packed pair by pair (hypothesis, then premise); each
        example's annotation is the pair (A_hypothesis, A_premise), and the
        head takes the B gated r-by-k factors.
        """
        p = self._params
        pair = self.cfg.head == "gated-pair"
        encoded = self.encode_batch([s for both in zip(sentences, premises) for s in both] if pair
                                    else sentences)
        if pair:
            ms = [heads.gated_encode(m, m_p, p["gated.w_fh"], p["gated.w_fp"])
                  for (_, _, m), (_, _, m_p) in zip(encoded[::2], encoded[1::2])]
            attns = [(a, a_p) for (_, a, _), (_, a_p, _) in zip(encoded[::2], encoded[1::2])]
        else:
            ms = [m for _, _, m in encoded]
            attns = [a for _, a, _ in encoded]
        m = T.concat([T.reshape(m, (1, *m.shape)) for m in ms])
        if self.cfg.head == "pruned":
            return heads.pruned_forward(m, p["head.w_v"], p["head.w_h"],
                                        p["head.w_out"], p["head.b_out"]), attns
        return heads.mlp_forward(m, p["head.w1"], p["head.b1"], p["head.w2"], p["head.b2"],
                                 self.cfg.dropout, rng), attns

    def forward(self, tokens, mask=None):
        """Class logits (1-D) and the annotation matrix of one sentence (padded
        if ``mask`` says so) under a single-sentence head, without dropout: the
        B = 1 case of ``forward_batch``."""
        logits, [attn] = self.forward_batch([_real_ids(tokens, mask)])
        return T.reshape(logits, (logits.shape[1],)), attn

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
