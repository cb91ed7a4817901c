"""Attention heat maps rendered to static HTML and CSV.

Both renderings come from the same document; the CSV carries the exact
weights and is the ground truth, the HTML colors each token on a linear
white-to-red scale normalized to the sentence's maximum weight.
"""

from __future__ import annotations

import csv
import html
import io
from dataclasses import dataclass

import numpy as np


@dataclass
class HeatmapDoc:
    sentence_id: int
    tokens: list
    hop_weights: np.ndarray       # r x n
    overall: np.ndarray           # n
    model_id: str = ""
    predicted: int | None = None
    confidence: float | None = None


def _color(weight, max_weight):
    x = 0.0 if max_weight <= 0 else min(weight / max_weight, 1.0)
    level = int(round(255 * (1.0 - x)))
    return f"rgb(255,{level},{level})"


def _row_html(tokens, weights, max_weight):
    spans = []
    for tok, w in zip(tokens, weights):
        spans.append(
            f'<span class="tok" style="background:{_color(float(w), max_weight)}" '
            f'title="{float(w):.6f}">{html.escape(tok)}</span>'
        )
    return "".join(spans)


def render_html(docs, mode="overall"):
    """One section per sentence; per-hop mode shows every attention row."""
    parts = [
        "<!doctype html>",
        '<html><head><meta charset="utf-8"><title>attention heatmap</title>',
        "<style>",
        "body{font-family:sans-serif;margin:2em}",
        ".tok{display:inline-block;padding:2px 4px;margin:1px;border-radius:3px}",
        ".row{margin:4px 0}",
        ".label{color:#555;margin-right:6px;font-size:smaller}",
        "</style></head><body>",
    ]
    for doc in docs:
        title = f"sentence {doc.sentence_id}"
        if doc.predicted is not None:
            title += f" &mdash; predicted {doc.predicted}"
            if doc.confidence is not None:
                title += f" ({doc.confidence:.3f})"
        parts.append(f"<h3>{title}</h3>")
        if mode == "per-hop":
            max_w = float(doc.hop_weights.max())
            for hop in range(doc.hop_weights.shape[0]):
                parts.append(
                    f'<div class="row"><span class="label">hop {hop}</span>'
                    + _row_html(doc.tokens, doc.hop_weights[hop], max_w) + "</div>"
                )
        else:
            max_w = float(doc.overall.max())
            parts.append('<div class="row">' + _row_html(doc.tokens, doc.overall, max_w) + "</div>")
    parts.append("</body></html>")
    return "\n".join(parts)


def render_csv(docs, mode="overall"):
    """Long-format CSV: sentence, hop (index or 'overall'), position, token, weight."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sentence", "hop", "position", "token", "weight"])
    for doc in docs:
        if mode == "per-hop":
            for hop in range(doc.hop_weights.shape[0]):
                for pos, (tok, w) in enumerate(zip(doc.tokens, doc.hop_weights[hop])):
                    writer.writerow([doc.sentence_id, hop, pos, tok, repr(float(w))])
        else:
            for pos, (tok, w) in enumerate(zip(doc.tokens, doc.overall)):
                writer.writerow([doc.sentence_id, "overall", pos, tok, repr(float(w))])
    return buf.getvalue()


def render_embedding_csv(blocks):
    """Matrix embeddings as CSV, one r-row block per sentence.

    Every field is an int or a float written with ``repr`` (the shortest
    string that reads back to the same value), so no field needs quoting.
    """
    width = blocks[0][1].shape[1] if blocks else 0
    lines = [",".join(["sentence", "hop"] + [f"dim{j}" for j in range(width)])]
    for sentence_id, m in blocks:
        lines.extend(",".join([str(sentence_id), str(hop), *map(repr, row)])
                     for hop, row in enumerate(m.tolist()))
    return "\n".join(lines) + "\n"
