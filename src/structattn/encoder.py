"""Token embedding and bidirectional LSTM encoding.

A sentence enters as the ids of its real tokens (padding ends in
``model.Classifier``). A batch is encoded packed: its sentences' embedded
rows one after another, and their lengths. It leaves as the packed rows of
their n-by-2u hidden-state matrices.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T

PAD_ID = 0
UNK_ID = 1


def embed(tokens, table):
    """Look up token ids: row i of the result is the table row of token i."""
    return T.gather_rows(table, np.asarray(tokens))


def bilstm(s, lengths, fwd, bwd):
    """Run both LSTM directions over a packed batch of embedded sentences.

    ``s`` holds the rows of sentences of the given ``lengths``, one sentence
    after another. Each direction is one ``lstm_scan`` over the whole batch:
    the forward scan runs each sentence left to right, the backward scan right
    to left, and row r of the result concatenates their states at row r, so
    the rows of each sentence form its n-by-2u hidden-state matrix. ``fwd``
    and ``bwd`` are each one direction's ``(w_x, w_h, bias)``, in
    ``lstm_scan``'s argument order.
    """
    return T.concat([T.lstm_scan(s, lengths, *fwd), T.lstm_scan(s, lengths, *bwd, reverse=True)], axis=1)
