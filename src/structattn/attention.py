"""Multi-hop self-attention over hidden states, pooling, and the redundancy penalty.

The attention weights form a row-stochastic r-by-n matrix A (one hop per row),
the pooled sentence embedding is M = A @ H, and the penalty
||A A^T - I||_F^2 pushes hops toward focused, mutually disjoint distributions.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T


def attend(hidden, w1, w2):
    """Annotation matrix A = softmax_rows(w2 @ tanh(w1 @ H^T)), masked columns zero.

    The bias-free attention MLP has w1 d_a-by-2u and w2 r-by-d_a.
    """
    scores = T.matmul(w2, T.tanh_elem(T.matmul(w1, T.transpose(hidden.h))))
    return T.softmax_rows(scores, hidden.mask)


def attend_vector(hidden, w1, w2_row):
    """Single-hop attention: a weight vector over the n positions."""
    scores = T.matmul(w2_row, T.tanh_elem(T.matmul(w1, T.transpose(hidden.h))))
    a = T.softmax_rows(T.reshape(scores, (1, -1)), hidden.mask)
    return T.row(a, 0)


def pool(a, hidden):
    """Matrix embedding M = A @ H; each row of M is a convex mix of rows of H."""
    if a.shape[1] != hidden.h.shape[0]:
        raise T.ShapeError(f"A has {a.shape[1]} columns but H has {hidden.h.shape[0]} rows")
    return T.matmul(a, hidden.h)


def penalty(a):
    """Redundancy measure ||A A^T - I||_F^2 with the r-by-r identity."""
    eye = T.Tensor(np.eye(a.shape[0], dtype=a.dtype))
    return T.frobenius_sq(T.sub(T.matmul(a, T.transpose(a)), eye))


def penalty_value(a):
    """Plain-number penalty of an attention matrix given as an array."""
    a = np.asarray(getattr(a, "data", a))
    d = a @ a.T - np.eye(a.shape[0], dtype=a.dtype)
    return float((d * d).sum())


def overlap(a_i, a_j):
    """Shared probability mass of two hops: sum_k a_k^i a_k^j, in [0, 1]."""
    a_i = np.asarray(getattr(a_i, "data", a_i))
    a_j = np.asarray(getattr(a_j, "data", a_j))
    return float((a_i * a_j).sum())


def mean_pairwise_overlap(a):
    """Average overlap over distinct hop pairs; zero for a single hop."""
    a = np.asarray(getattr(a, "data", a))
    r = a.shape[0]
    if r < 2:
        return 0.0
    gram = a @ a.T
    off = gram.sum() - np.trace(gram)
    return float(off / (r * (r - 1)))


def overall_attention(a):
    """Column sums of A scaled by 1/r: the sentence-level focus summary."""
    a = np.asarray(getattr(a, "data", a))
    return a.sum(axis=0) / a.shape[0]
