"""Token embedding and bidirectional LSTM encoding.

A sentence enters as the ids of its real tokens (padding ends in
``model.Classifier.encode``) and leaves as an n-by-2u hidden-state matrix.
"""

from __future__ import annotations

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
    z = T.add(T.add(T.matmul(w_x, x_t), T.matmul(w_h, h_prev)), bias)
    gates = T.reshape(z, (4, w_h.shape[1]))
    i = T.sigmoid(T.gather_rows(gates, 0))
    f = T.sigmoid(T.gather_rows(gates, 1))
    g = T.tanh_elem(T.gather_rows(gates, 2))
    o = T.sigmoid(T.gather_rows(gates, 3))
    c = T.add(T.mul(f, c_prev), T.mul(i, g))
    h = T.mul(o, T.tanh_elem(c))
    return h, c


def bilstm(s, fwd, bwd):
    """Run both LSTM directions over an embedded sentence.

    The forward scan runs left to right, the backward scan right to left, and
    row t of the n-by-2u result concatenates their states at token t.
    ``fwd`` and ``bwd`` are each one direction's ``(w_x, w_h, bias)``, in
    ``lstm_scan``'s argument order.
    """
    return T.concat([T.lstm_scan(s, *fwd), T.lstm_scan(s, *bwd, reverse=True)], axis=1)
