"""Attention heat maps rendered to static HTML and CSV, one sentence at a time.

Both renderings come from the same rows of a document (every hop, or the
overall row); the CSV carries the exact weights and is the ground truth, the
HTML colors each token on a linear white-to-red scale normalized to the
largest weight the section shows. A file is its head, then each sentence's
section or rows, then (for HTML) its tail, so a caller can write it as it goes.
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
    model_id: str = ""            # set only by perfbench, read by no renderer (ROADMAP item 12 step 3)
    predicted: int | None = None
    confidence: float | None = None


def _color(weight, max_weight):
    x = 0.0 if max_weight <= 0 else min(weight / max_weight, 1.0)
    level = int(round(255 * (1.0 - x)))
    return f"rgb(255,{level},{level})"


def _row_html(tokens, weights, max_weight):
    return "".join(f'<span class="tok" style="background:{_color(float(w), max_weight)}" '
                   f'title="{float(w):.6f}">{html.escape(tok)}</span>' for tok, w in zip(tokens, weights))


def _rows(doc, mode):
    """A document's heat map: the hop labels and the matching rows of weights,
    every hop in per-hop mode, else the one ``overall`` row."""
    if mode == "per-hop":
        return range(len(doc.hop_weights)), doc.hop_weights
    return ("overall",), doc.overall[None]


HTML_HEAD = "\n".join([
    "<!doctype html>",
    '<html><head><meta charset="utf-8"><title>attention heatmap</title>',
    "<style>",
    "body{font-family:sans-serif;margin:2em}",
    ".tok{display:inline-block;padding:2px 4px;margin:1px;border-radius:3px}",
    ".row{margin:4px 0}",
    ".label{color:#555;margin-right:6px;font-size:smaller}",
    "</style></head><body>\n",
])
HTML_TAIL = "</body></html>"
CSV_HEADER = "sentence,hop,position,token,weight\n"


def heatmap_html(doc, mode="overall"):
    """The HTML section of one sentence; every line ends in a newline. The
    colors are scaled to the largest weight the section shows."""
    title = f"sentence {doc.sentence_id}"
    if doc.predicted is not None:
        title += f" &mdash; predicted {doc.predicted}"
        if doc.confidence is not None:
            title += f" ({doc.confidence:.3f})"
    labels, weights = _rows(doc, mode)
    max_w = float(weights.max())
    lines = [f"<h3>{title}</h3>\n"]
    for hop, row in zip(labels, weights):
        label = "" if hop == "overall" else f'<span class="label">hop {hop}</span>'
        lines.append(f'<div class="row">{label}' + _row_html(doc.tokens, row, max_w) + "</div>\n")
    return "".join(lines)


def heatmap_csv(doc, mode="overall"):
    """The CSV rows of one sentence: sentence, hop (index or 'overall'),
    position, token, weight (``repr`` of the float)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for hop, row in zip(*_rows(doc, mode)):
        writer.writerows([doc.sentence_id, hop, pos, tok, repr(float(w))]
                         for pos, (tok, w) in enumerate(zip(doc.tokens, row)))
    return buf.getvalue()


def render_html(docs, mode="overall"):
    """One section per sentence; per-hop mode shows every attention row.

    No command calls it (``visualize`` writes each section as it goes):
    ``perfbench`` keeps it, and it goes with ROADMAP item 12 step 3."""
    return "".join([HTML_HEAD, *(heatmap_html(doc, mode) for doc in docs), HTML_TAIL])


def render_csv(docs, mode="overall"):
    """Long-format CSV: sentence, hop (index or 'overall'), position, token, weight.

    No command calls it (``visualize`` writes each sentence's rows as it
    goes): ``perfbench`` keeps it, and it goes with ROADMAP item 12 step 3."""
    return "".join([CSV_HEADER, *(heatmap_csv(doc, mode) for doc in docs)])


# The embedding CSV holds exactly ``repr(float(v))`` for every value v, written
# in bulk for float32 blocks. A float32 v with 1e-4 <= |v| < 1 prints as
# "[-]0.[0..]digits": with q = 16 - floor(log10 |v|) and |v| = m * 2**e (m its
# 24-bit significand), S = |v| * 10**q lies in [1e16, 1e17), and the float64
# neighbours of float(v) lie 2h away on that scale, h = 5**q * 2**(e-30+q). A
# decimal reads back to float(v) when it lies between S - h and S + h, which
# are never integers; repr gives the fewest digits there, and of those the
# nearest to S. S and h are exact in int64 (5**q is split at bit 32). The
# powers of two 2**-13 .. 2**-1, whose lower neighbour is nearer, need no
# exception: each is a decimal of at most 10 digits, so S itself is the one
# multiple of 100 in its interval. Ties, other magnitudes and non-finite values
# take ``repr`` one value at a time.
_CHUNK = 1 << 16  # values per numpy pass: temporaries stay a few MB


def _at_least(k):
    """Bits of the smallest float32 >= 10**-k."""
    e = -(10 ** k).bit_length()                    # 2**e < 10**-k < 2**(e+1)
    significand = -(-(1 << (23 - e)) // 10 ** k)   # ceil(10**-k * 2**(23-e))
    return ((e + 127) << 23) + significand - (1 << 23)


_LOW, _TOP = _at_least(4), 0x3F7FFFFF  # 1e-4 and the largest float32 below 1
_DECADES = [_at_least(k) for k in (3, 2, 1)]
_POW5 = np.array([5 ** q for q in range(17, 21)], dtype=np.int64)  # by q - 17
# "[-]0.[0..]d" for (sign, decade, leading digit), right-aligned in 8 bytes;
# the four digits of 0..9999 as 4 bytes each; and for (first, last) the mask
# of the bytes first..last of a 32-byte slot
_HEADS = np.array([(("-" if neg else "") + "0." + "0" * (3 - dec) + str(lead)).rjust(8).encode()
                   for neg in (0, 1) for dec in range(4) for lead in range(10)],
                  dtype="S8").view(np.uint64)
_DIGITS = np.array([b"%04d" % i for i in range(10000)], dtype="S4").view(np.uint32)
_SPANS = ((np.arange(32) >= np.arange(32)[:, None, None])
          & (np.arange(32) <= np.arange(32)[:, None])).reshape(1024, 32).view(np.uint64)


def _fast_fields(a, neg, slots, start, end):
    """Write the fields of the float32 magnitudes with bits ``a`` (in the fast
    range) and signs ``neg`` into ``slots``: 8 bytes of head, then 16 digits.
    Set each field's first byte and separator index in ``start`` and ``end``,
    and return the ties, which repr must decide instead."""
    dec = sum(a >= bound for bound in _DECADES)        # floor(log10 |v|) + 4
    p5 = np.take(_POW5, 3 - dec)                       # 5**q
    n = 130 - (a >> 23) + dec                          # S = m * 5**q / 2**n, 7 <= n <= 17
    m = (a & 0x7FFFFF) | 0x800000
    upper, lower = m * (p5 >> 32), m * (p5 & 0xFFFFFFFF)
    whole = (upper << (32 - n)) + (lower >> n)         # floor(S)
    frac = (lower & ((1 << n) - 1)) << 30              # (S - floor(S)) * 2**(n+30)
    one = 1 << (n + 30)                                # h = 5**q / one
    h_whole, h_frac = p5 >> (n + 30), p5 & (one - 1)
    lo = whole - h_whole + (frac > h_frac)             # ceil(S - h)
    hi = whole + h_whole + (frac + h_frac >= one)      # floor(S + h)

    # [lo, hi] spans at most 22 (h < 11.2), so the fewest digits are its one
    # multiple of 100 if it has one, else its multiple of 10 nearest to S,
    # else its integer nearest to S. Each nearest one lies within h of S, so
    # inside [lo, hi], whenever [lo, hi] holds any.
    half = one >> 1                                    # S - floor(S) = 1/2
    tens = whole // 10
    units = whole - 10 * tens
    has10 = hi // 10 * 10 >= lo
    has100 = hi // 100 * 100 >= lo
    c = np.where(has10, 10 * (tens + ((units > 5) | ((units == 5) & (frac > 0)))),
                 whole + (frac > half))
    c = np.where(has100, hi // 100 * 100, c)
    tie = ~has100 & np.where(has10, (units == 5) & (frac == 0), frac == half)

    # j = the trailing zeros of c
    j = has10 + has100.astype(np.int64)
    live = np.flatnonzero(has100)
    rest = c.reshape(-1)[live] // 100
    while live.size:
        shorter = rest // 10
        zero = shorter * 10 == rest
        live, rest = live[zero], shorter[zero]
        j.reshape(-1)[live] += 1

    lead = c // 10 ** 16
    top = c - lead * 10 ** 16
    low = top - top // 10 ** 8 * 10 ** 8
    top //= 10 ** 8
    slots.view(np.uint64)[..., 0] = np.take(_HEADS, (neg * 4 + dec) * 10 + lead)
    digits = slots.view(np.uint32)
    for at, group in ((2, top), (4, low)):
        first = group // 10000
        digits[..., at] = np.take(_DIGITS, first)
        digits[..., at + 1] = np.take(_DIGITS, group - 10000 * first)
    start[...] = 2 + dec - neg
    end[...] = 24 - j
    return tie


def _format_rows(pieces):
    """The CSV rows of ``pieces``, (sentence id, first hop, float32 rows) of one
    width, as bytes.

    Each row prefix and each value is a field in a 32-byte slot, with the
    index of its first byte and of its separator (a comma, or a newline at the
    end of a row); one mask over the slots then packs the fields into rows."""
    x = np.concatenate([rows for _, _, rows in pieces])
    r, w = x.shape
    slots = np.empty((r, w + 1, 32), dtype=np.uint8)
    start = np.zeros((r, w + 1), dtype=np.intp)
    end = np.empty((r, w + 1), dtype=np.intp)

    a = x.view(np.uint32).astype(np.int64)
    neg = a >> 31
    a &= 0x7FFFFFFF
    fast = (a >= _LOW) & (a <= _TOP)
    tie = _fast_fields(np.where(fast, a, _TOP), neg, slots[:, 1:], start[:, 1:], end[:, 1:])
    rows, cols = np.nonzero(tie | ~fast)

    # row prefixes and the values repr decides, left-aligned
    text = [f"{sid},{hop}".encode("utf-8")
            for sid, hop0, block in pieces for hop in range(hop0, hop0 + len(block))]
    text += [repr(v).encode("utf-8") for v in x[rows, cols].tolist()]
    rows = np.concatenate([np.arange(r), rows])
    cols = np.concatenate([np.zeros(r, dtype=np.intp), cols + 1])
    slots[rows, cols] = np.array(text, dtype="S32").view(np.uint8).reshape(-1, 32)
    start[rows, cols] = 0
    end[rows, cols] = [len(t) for t in text]

    flat = slots.reshape(-1)
    at = np.arange(0, flat.size, 32).reshape(r, w + 1) + end
    flat[at] = ord(",")
    flat[at[:, -1]] = ord("\n")
    return flat[np.take(_SPANS, start * 32 + end, axis=0).view(bool).reshape(-1)].tobytes()


def embedding_csv_header(width):
    """The header line of an embedding CSV whose rows hold ``width`` values."""
    return ",".join(["sentence", "hop"] + [f"dim{j}" for j in range(width)]).encode("utf-8") + b"\n"


def embedding_csv_rows(blocks):
    """Yield the rows of ``blocks``, (sentence id, r-by-k matrix) pairs, as bytes,
    through ``_format_rows`` about ``_CHUNK`` values at a time, across blocks.

    Every block is native float32 (checkpoints hold float32) and as wide as
    the first, and each row prefix ``sentence,hop`` fits its 32-byte slot; any
    other block is a ``ValueError``."""
    pieces, size, width = [], 0, None
    for sentence_id, m in blocks:
        width = m.shape[1] if width is None else width
        if m.dtype != np.float32 or m.shape[1] != width or len(f"{sentence_id},{m.shape[0]}") >= 32:
            raise ValueError(f"sentence {sentence_id}: embedding CSV rows need a native float32 block "
                             f"{width} wide and a row prefix under 32 bytes, got {m.dtype} {m.shape}")
        step = max(1, _CHUNK // max(width, 1))
        for hop in range(0, m.shape[0], step):
            pieces.append((sentence_id, hop, m[hop:hop + step]))
            size += pieces[-1][2].size
            if size >= _CHUNK:
                yield _format_rows(pieces)
                pieces, size = [], 0
    if pieces:
        yield _format_rows(pieces)


def render_embedding_csv(blocks):
    """Matrix embeddings as CSV, one r-row block per sentence.

    Every field is an int or a float written exactly as ``repr`` writes it
    (the shortest string that reads back to the same value), so no field
    needs quoting. No command calls it (``embed`` streams the rows):
    ``perfbench`` keeps it, and it goes with ROADMAP item 12 step 3.
    """
    width = blocks[0][1].shape[1] if blocks else 0
    # the rows joined into one buffer, decoded once: at most two copies of
    # the text are alive, and a buffer grown in place would fragment the heap
    return b"".join([embedding_csv_header(width), *embedding_csv_rows(blocks)]).decode("utf-8")
