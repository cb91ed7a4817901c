"""Classifier heads over matrix embeddings, plus the parameter audit.

Three variants: a dense two-layer ReLU MLP, a structured head whose hidden
units are pruned into per-row and per-column groups of the matrix embedding,
and a gated pairwise combiner for two-sentence tasks.

Matrix embeddings are always flattened row-major; checkpoints record this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T


class MlpHead:
    """Dense head: logits = relu(flatten(M) @ w1ᵀ + b1) @ w2ᵀ + b2."""

    def __init__(self, w1, b1, w2, b2):
        self.w1 = w1
        self.b1 = b1
        self.w2 = w2
        self.b2 = b2


def mlp_forward(ms, head, dropout_rate=0.0, train=False, rng=None):
    """B-by-C logits for a batch of B matrix embeddings, one GEMM per layer.

    Each matrix is flattened into a row of the B-by-(r*c) input; dropout hits
    the hidden layer only while training.
    """
    x = T.concat_rows([T.flatten(m) for m in ms])
    hidden = T.relu(T.linear(x, head.w1, head.b1))
    hidden = T.dropout(hidden, dropout_rate, rng, train)
    return T.linear(hidden, head.w2, head.b2)


class PrunedHead:
    """Structured head with grouped hidden units.

    Row groups: w_v is r-by-2u-by-p, group i sees only row i of M and yields
    the r-by-p block M^v. Column groups: w_h is 2u-by-r-by-q over columns of M,
    yielding the 2u-by-q block M^h. The output layer is fully connected to the
    concatenation of both flattened blocks.
    """

    def __init__(self, w_v, w_h, w_out, b_out):
        self.w_v = w_v
        self.w_h = w_h
        self.w_out = w_out
        self.b_out = b_out


def pruned_forward(ms, head, train=False):
    """B-by-C logits for a batch of B matrix embeddings: ReLU row/column groups
    per matrix, then one output-layer GEMM over the stacked features."""
    feats = []
    for m in ms:
        mv = T.relu(T.batched_dot(m, head.w_v))
        mh = T.relu(T.batched_dot(T.transpose(m), head.w_h))
        feats.append(T.concat([T.flatten(mv), T.flatten(mh)]))
    return T.linear(T.concat_rows(feats), head.w_out, head.b_out)


class GatedEncoderParams:
    """Two r-by-2u-by-k factor tensors, one per sentence of the pair."""

    def __init__(self, w_fh, w_fp):
        if w_fh.shape != w_fp.shape:
            raise T.ShapeError(f"factor tensors must match: {w_fh.shape} vs {w_fp.shape}")
        self.w_fh = w_fh
        self.w_fp = w_fp


def gated_encode(m_h, m_p, g):
    """Relation factor: batched_dot(M_h, W_fh) elementwise-times batched_dot(M_p, W_fp)."""
    if m_h.shape != m_p.shape:
        raise T.ShapeError(f"pair embeddings must match: {m_h.shape} vs {m_p.shape}")
    return T.mul(T.batched_dot(m_h, g.w_fh), T.batched_dot(m_p, g.w_fp))


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


def count_params(shapes, group_of):
    """Audit every trainable scalar, grouped as hidden layer / softmax / other.

    ``shapes`` maps tensor name to shape; ``group_of`` maps name to group.
    """
    rows = []
    group_totals = {}
    for name, shape in shapes.items():
        count = int(np.prod(shape)) if len(shape) else 1
        group = group_of(name)
        rows.append((group, name, tuple(shape), count))
        group_totals[group] = group_totals.get(group, 0) + count
    return ParamAudit(rows=rows, group_totals=group_totals, total=sum(c for _, _, _, c in rows))
