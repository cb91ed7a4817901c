"""Multi-hop self-attention over hidden states, pooling, and the redundancy penalty.

The attention weights form a row-stochastic r-by-n matrix A (one hop per row),
the pooled sentence embedding is M = A @ H, and the penalty
||A A^T - I||_F^2 pushes hops toward focused, mutually disjoint distributions.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T


def attend(h, w1, w2):
    """Annotation matrix A = softmax_rows(w2 @ tanh(w1 @ H^T)) over the n rows of H.

    The bias-free attention MLP has w1 d_a-by-2u and w2 r-by-d_a.
    """
    scores = T.matmul(w2, T.tanh_elem(T.matmul(w1, T.transpose(h))))
    return T.softmax_rows(scores)


def pool(a, h):
    """Matrix embedding M = A @ H; each row of M is a convex mix of rows of H.

    A of n columns needs H of n rows; ``matmul`` raises ``ShapeError`` otherwise.
    """
    return T.matmul(a, h)


def penalty(a):
    """Redundancy measure ||A A^T - I||_F^2 with the r-by-r identity.

    A A^T - I is computed as A A^T + (-I), which has the same bits.
    """
    neg_eye = T.Tensor(-np.eye(a.shape[0], dtype=a.dtype))
    return T.frobenius_sq(T.add(T.matmul(a, T.transpose(a)), neg_eye))


def penalty_value(a):
    """Plain-number ``penalty`` of an attention matrix given as an array or a tensor.

    No command calls it: ``perfbench``'s tracer keeps it by wrapping its
    name, and it goes with ROADMAP item 12 step 3."""
    return penalty(T.Tensor(getattr(a, "data", a))).item()


def mean_pairwise_overlap(a):
    """Average overlap sum_k a_k^i a_k^j (shared probability mass, in [0, 1])
    over distinct hop pairs i != j of the tensor ``a``; zero for a single hop."""
    a = a.data
    r = a.shape[0]
    if r < 2:
        return 0.0
    gram = a @ a.T
    off = gram.sum() - np.trace(gram)
    return float(off / (r * (r - 1)))


def overall_attention(a):
    """Column sums of the tensor A scaled by 1/r, as an array: the sentence-level focus summary."""
    a = a.data
    return a.sum(axis=0) / a.shape[0]
