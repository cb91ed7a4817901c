"""Classifier heads over matrix embeddings.

Three variants: a dense two-layer ReLU MLP, a structured head whose hidden
units are pruned into per-row and per-column groups of the matrix embedding,
and a gated pairwise combiner for two-sentence tasks.

Matrix embeddings are always flattened row-major; checkpoints record this.
"""

from __future__ import annotations

from . import tensor as T


def mlp_forward(ms, w1, b1, w2, b2, dropout_rate=0.0, train=False, rng=None):
    """B-by-C logits relu(flatten(M) @ w1ᵀ + b1) @ w2ᵀ + b2 for a batch of B
    matrix embeddings, one GEMM per layer.

    Each matrix is flattened into a row of the B-by-(r*c) input; dropout hits
    the hidden layer only while training.
    """
    x = T.concat_rows([T.flatten(m) for m in ms])
    hidden = T.relu(T.linear(x, w1, b1))
    hidden = T.dropout(hidden, dropout_rate, rng, train)
    return T.linear(hidden, w2, b2)


def pruned_forward(ms, w_v, w_h, w_out, b_out):
    """B-by-C logits of the structured head for a batch of B matrix embeddings.

    Row groups: w_v is r-by-2u-by-p, group i sees only row i of M and yields
    the r-by-p block M^v. Column groups: w_h is 2u-by-r-by-q over columns of M,
    yielding the 2u-by-q block M^h. Both blocks pass a ReLU, and one
    output-layer GEMM runs over the stacked, flattened features.
    """
    feats = []
    for m in ms:
        mv = T.relu(T.batched_dot(m, w_v))
        mh = T.relu(T.batched_dot(T.transpose(m), w_h))
        feats.append(T.concat([T.flatten(mv), T.flatten(mh)]))
    return T.linear(T.concat_rows(feats), w_out, b_out)


def gated_encode(m_h, m_p, w_fh, w_fp):
    """Relation factor: batched_dot(M_h, W_fh) elementwise-times batched_dot(M_p, W_fp).

    ``w_fh`` and ``w_fp`` are r-by-2u-by-k factor tensors, one per sentence of
    the pair.
    """
    return T.mul(T.batched_dot(m_h, w_fh), T.batched_dot(m_p, w_fp))
