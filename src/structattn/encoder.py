"""Token embedding and bidirectional LSTM encoding.

A sentence enters as a padded id sequence plus a boolean mask (True = real
token, padding only at the tail) and leaves as an n-by-2u hidden-state matrix
whose padded rows are exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T

PAD_ID = 0
UNK_ID = 1


def embed(tokens, table):
    """Look up token ids: row i of the result is the table row of token i."""
    return T.gather_rows(table, np.asarray(tokens))


def lstm_step(x_t, h_prev, c_prev, w_x, w_h, bias):
    """One LSTM recurrence: sigmoid input/forget/output gates, tanh candidate.

    Gates are stacked input/forget/cell/output along the rows of ``w_x``,
    ``w_h`` and ``bias``.
    """
    u = w_h.shape[1]
    z = T.add(T.add(T.matmul(w_x, x_t), T.matmul(w_h, h_prev)), bias)
    i = T.sigmoid(T.slice_rows(z, 0, u))
    f = T.sigmoid(T.slice_rows(z, u, 2 * u))
    g = T.tanh_elem(T.slice_rows(z, 2 * u, 3 * u))
    o = T.sigmoid(T.slice_rows(z, 3 * u, 4 * u))
    c = T.add(T.mul(f, c_prev), T.mul(i, g))
    h = T.mul(o, T.tanh_elem(c))
    return h, c


@dataclass
class HiddenStates:
    """n-by-2u hidden-state matrix plus its token mask (True = real token)."""

    h: T.Tensor
    mask: np.ndarray


def bilstm(s, mask, fwd, bwd):
    """Run both LSTM directions over the real tokens of an embedded sentence.

    The forward scan runs left to right, the backward scan starts from the
    last real token; per-position states are concatenated and padded rows of
    the result are zero, so padding cannot influence any real position.
    ``fwd`` and ``bwd`` are each one direction's ``(w_x, w_h, bias)``, in
    ``lstm_scan``'s argument order.
    """
    mask = np.asarray(mask, dtype=bool)
    n = s.shape[0]
    if n == 0:
        raise ValueError("empty sequence")
    if mask.shape != (n,):
        raise T.ShapeError(f"mask shape {mask.shape} does not match {n} tokens")
    n_real = int(mask.sum())
    if n_real == 0:
        raise ValueError("mask leaves no real tokens")
    if not mask[:n_real].all():
        raise ValueError("padding must be contiguous at the end of the sequence")

    x = s if n_real == n else T.slice_rows(s, 0, n_real)
    h = T.concat([T.lstm_scan(x, *fwd), T.lstm_scan(x, *bwd, reverse=True)], axis=1)
    if n_real < n:
        h = T.concat([h, T.zeros((n - n_real, h.shape[1]), h.dtype)])
    return HiddenStates(h, mask.copy())
