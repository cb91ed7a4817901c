import csv
import io
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from structattn import attention, viz

from support import per_value_repr_csv


def make_doc(rng, sentence_id=0, r=3, tokens=("the", "cat", "<sat>")):
    hop = rng.dirichlet(np.ones(len(tokens)), size=r)
    return viz.HeatmapDoc(
        sentence_id=sentence_id, tokens=list(tokens), hop_weights=hop,
        overall=attention.overall_attention(hop), model_id="m", predicted=1, confidence=0.9)


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_csv_overall_matches_overall_attention_exactly(rng):
    doc = make_doc(rng)
    rows = parse_csv(viz.render_csv([doc], "overall"))
    weights = np.array([float(r["weight"]) for r in rows])
    assert np.array_equal(weights, doc.overall)
    assert [r["token"] for r in rows] == doc.tokens


def test_csv_per_hop_emits_r_rows_per_sentence(rng):
    docs = [make_doc(rng, 0), make_doc(rng, 1)]
    rows = parse_csv(viz.render_csv(docs, "per-hop"))
    assert len(rows) == 2 * 3 * 3
    hops = {r["hop"] for r in rows}
    assert hops == {"0", "1", "2"}
    for row in rows:
        doc = docs[int(row["sentence"])]
        stored = doc.hop_weights[int(row["hop"]), int(row["position"])]
        assert float(row["weight"]) == stored


def test_overall_weights_sum_to_one(rng):
    doc = make_doc(rng)
    rows = parse_csv(viz.render_csv([doc], "overall"))
    assert sum(float(r["weight"]) for r in rows) == 1.0 or \
        abs(sum(float(r["weight"]) for r in rows) - 1.0) < 1e-6


def test_html_contains_every_token_escaped(rng):
    doc = make_doc(rng)
    html_text = viz.render_html([doc], "overall")
    assert "the" in html_text and "cat" in html_text
    assert "&lt;sat&gt;" in html_text  # raw token text is escaped
    assert html_text.count('<span class="tok"') == 3


def test_html_per_hop_has_row_per_hop(rng):
    doc = make_doc(rng)
    html_text = viz.render_html([doc], "per-hop")
    assert html_text.count('<span class="label">hop') == 3
    assert html_text.count('<span class="tok"') == 9


def test_html_color_scale_peaks_at_max_weight(rng):
    doc = make_doc(rng)
    doc.overall = np.array([1.0, 0.0, 0.0])
    html_text = viz.render_html([doc], "overall")
    assert "rgb(255,0,0)" in html_text      # max weight is pure red
    assert "rgb(255,255,255)" in html_text  # zero weight is white


def golden_docs():
    """Two fixed float32 documents: tokens that need HTML escaping and CSV
    quoting, one with no prediction, one with a prediction and confidence."""
    h0 = np.array([[0.5, 0.25, 0.25], [0.125, 0.375, 0.5]], dtype=np.float32)
    h1 = np.array([[0.7, 0.3], [0.1, 0.9]], dtype=np.float32)
    return [viz.HeatmapDoc(0, ["the", 'a"b,c', "<x&y>"], h0, attention.overall_attention(h0)),
            viz.HeatmapDoc(7, ["kw", "é"], h1, attention.overall_attention(h1), predicted=1, confidence=0.875)]


GOLDEN_HEAD = (
    '<!doctype html>\n<html><head><meta charset="utf-8"><title>attention heatmap</title>\n<style>\n'
    'body{font-family:sans-serif;margin:2em}\n'
    '.tok{display:inline-block;padding:2px 4px;margin:1px;border-radius:3px}\n.row{margin:4px 0}\n'
    '.label{color:#555;margin-right:6px;font-size:smaller}\n</style></head><body>\n')
GOLDEN = {
    ("html", "overall"): GOLDEN_HEAD + (
        '<h3>sentence 0</h3>\n<div class="row">'
        '<span class="tok" style="background:rgb(255,42,42)" title="0.312500">the</span>'
        '<span class="tok" style="background:rgb(255,42,42)" title="0.312500">a&quot;b,c</span>'
        '<span class="tok" style="background:rgb(255,0,0)" title="0.375000">&lt;x&amp;y&gt;</span></div>\n'
        '<h3>sentence 7 &mdash; predicted 1 (0.875)</h3>\n<div class="row">'
        '<span class="tok" style="background:rgb(255,85,85)" title="0.400000">kw</span>'
        '<span class="tok" style="background:rgb(255,0,0)" title="0.600000">é</span></div>\n'
        '</body></html>'),
    ("html", "per-hop"): GOLDEN_HEAD + (
        '<h3>sentence 0</h3>\n<div class="row"><span class="label">hop 0</span>'
        '<span class="tok" style="background:rgb(255,0,0)" title="0.500000">the</span>'
        '<span class="tok" style="background:rgb(255,128,128)" title="0.250000">a&quot;b,c</span>'
        '<span class="tok" style="background:rgb(255,128,128)" title="0.250000">&lt;x&amp;y&gt;</span></div>\n'
        '<div class="row"><span class="label">hop 1</span>'
        '<span class="tok" style="background:rgb(255,191,191)" title="0.125000">the</span>'
        '<span class="tok" style="background:rgb(255,64,64)" title="0.375000">a&quot;b,c</span>'
        '<span class="tok" style="background:rgb(255,0,0)" title="0.500000">&lt;x&amp;y&gt;</span></div>\n'
        '<h3>sentence 7 &mdash; predicted 1 (0.875)</h3>\n<div class="row"><span class="label">hop 0</span>'
        '<span class="tok" style="background:rgb(255,57,57)" title="0.700000">kw</span>'
        '<span class="tok" style="background:rgb(255,170,170)" title="0.300000">é</span></div>\n'
        '<div class="row"><span class="label">hop 1</span>'
        '<span class="tok" style="background:rgb(255,227,227)" title="0.100000">kw</span>'
        '<span class="tok" style="background:rgb(255,0,0)" title="0.900000">é</span></div>\n'
        '</body></html>'),
    ("csv", "overall"): (
        'sentence,hop,position,token,weight\n0,overall,0,the,0.3125\n0,overall,1,"a""b,c",0.3125\n'
        '0,overall,2,<x&y>,0.375\n7,overall,0,kw,0.4000000059604645\n7,overall,1,é,0.6000000238418579\n'),
    ("csv", "per-hop"): (
        'sentence,hop,position,token,weight\n0,0,0,the,0.5\n0,0,1,"a""b,c",0.25\n0,0,2,<x&y>,0.25\n'
        '0,1,0,the,0.125\n0,1,1,"a""b,c",0.375\n0,1,2,<x&y>,0.5\n7,0,0,kw,0.699999988079071\n'
        '7,0,1,é,0.30000001192092896\n7,1,0,kw,0.10000000149011612\n7,1,1,é,0.8999999761581421\n'),
}


@pytest.mark.parametrize("kind, mode", list(GOLDEN))
def test_renderers_give_the_golden_bytes(kind, mode):
    render = {"html": viz.render_html, "csv": viz.render_csv}[kind]
    assert render(golden_docs(), mode) == GOLDEN[kind, mode]


@pytest.mark.parametrize("mode", ["overall", "per-hop"])
def test_files_are_head_then_each_document_then_tail(mode):
    docs = golden_docs()
    assert viz.render_html(docs, mode) == (viz.HTML_HEAD + "".join(viz.heatmap_html(d, mode) for d in docs)
                                           + viz.HTML_TAIL)
    assert viz.render_csv(docs, mode) == viz.CSV_HEADER + "".join(viz.heatmap_csv(d, mode) for d in docs)
    assert viz.render_html([], mode) == GOLDEN_HEAD + "</body></html>"
    assert viz.render_csv([], mode) == "sentence,hop,position,token,weight\n"


def test_embedding_csv_blocks(rng):
    m0 = rng.standard_normal((2, 4)).astype(np.float32)
    m1 = rng.standard_normal((2, 4)).astype(np.float32)
    rows = parse_csv(viz.render_embedding_csv([(0, m0), (1, m1)]))
    assert len(rows) == 4
    block0 = [r for r in rows if r["sentence"] == "0"]
    assert [float(block0[1][f"dim{j}"]) for j in range(4)] == list(m0[1].astype(float))
    with pytest.raises(ValueError, match="float64"):
        viz.render_embedding_csv([(0, m0), (1, m1.astype(np.float64))])


def test_prediction_metadata_optional(rng):
    doc = make_doc(rng)
    doc.predicted = None
    doc.confidence = None
    html_text = viz.render_html([doc], "overall")
    assert "predicted" not in html_text


def test_embedding_csv_bytes_match_per_value_repr(rng):
    tiny = np.finfo(np.float32).smallest_subnormal
    m = rng.standard_normal((3, 5)).astype(np.float32)
    m[0, :4] = [0.0, -0.0, tiny, np.finfo(np.float32).max]
    blocks = [(0, m), (7, rng.standard_normal((3, 5)).astype(np.float32))]
    text = viz.render_embedding_csv(blocks)
    assert text.encode("utf-8") == per_value_repr_csv(blocks).encode("utf-8")
    assert ",-0.0," in text and "e-45," in text
    assert viz.render_embedding_csv([]) == per_value_repr_csv([])
    with pytest.raises(ValueError, match="float64"):
        viz.render_embedding_csv(blocks + [(8, rng.standard_normal((3, 5)))])


def as_blocks(values, r=30, width=600):
    """float32 values as r-by-width blocks (the last one shorter), padded with 0.5."""
    values = np.concatenate([values, np.full(-values.size % width, 0.5, dtype=np.float32)])
    rows = values.reshape(-1, width)
    return [(i, rows[start:start + r]) for i, start in enumerate(range(0, len(rows), r))]


def from_bits(bits):
    return np.asarray(bits, dtype=np.int64).astype(np.uint32).view(np.float32)


def assert_same_bytes(blocks):
    assert viz.render_embedding_csv(blocks).encode("utf-8") == per_value_repr_csv(blocks).encode("utf-8")


def test_decade_bounds_are_the_first_float32_at_or_above_each_power_of_ten():
    for k, bound in zip((4, 3, 2, 1), [viz._LOW] + viz._DECADES):
        below, at = (Fraction(float(v)) for v in from_bits([bound - 1, bound]))
        assert below < Fraction(1, 10 ** k) < at
    assert from_bits([viz._TOP])[0] == np.nextafter(np.float32(1), np.float32(0))


def test_strided_sweep_of_the_fast_range_both_signs():
    """Every 257th float32 pattern from just below 1e-4 to just above 1, with
    each sign: about 0.9 M values, almost all formatted in bulk."""
    bits = np.arange(viz._LOW - 2570, 0x3F800000 + 2570, 257)
    assert_same_bytes(as_blocks(np.concatenate([from_bits(bits), from_bits(bits | 1 << 31)])))


def test_strided_sweep_of_every_float32():
    """Every 65 537th pattern of the whole space: NaNs, infinities, subnormals
    and magnitudes far outside [1e-4, 1), beside signed zeros and powers of two."""
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 0.5, -0.25, 2.0 ** -13, 1.0, 1e-45],
                       dtype=np.float32)
    values = np.concatenate([from_bits(np.arange(0, 2 ** 32, 65537)), special])
    assert_same_bytes(as_blocks(values))
    assert ",-0.0," in per_value_repr_csv(as_blocks(special))


def test_edges_of_the_fast_range():
    low = np.float32(1e-4)
    edges = [np.nextafter(low, np.float32(0)), low, np.nextafter(low, np.float32(1)),
             np.nextafter(np.float32(1), np.float32(0)), np.float32(0.1), np.float32(0.01),
             np.float32(0.001), np.float32(0.375), np.float32(0.1015625)]
    edges += [np.float32(2.0 ** -k) for k in range(1, 15)]  # 2**-14 < 1e-4 < 2**-13
    values = np.array(edges + [-v for v in edges], dtype=np.float32)
    text = viz.render_embedding_csv([(0, values.reshape(2, -1))])
    assert text == per_value_repr_csv([(0, values.reshape(2, -1))])
    assert ",0.375," in text and "9.99999901978299e-05" in text


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1), (0, 4), (3, 0)])
def test_block_shapes(rng, shape):
    m = (rng.standard_normal(shape) * 0.1).astype(np.float32)
    assert_same_bytes([(0, m), (12, m)])
    assert_same_bytes([(13, m[:, :1])])
    if m.shape[1] > 1:  # one file holds one width, the header's
        with pytest.raises(ValueError, match=f"{m.shape[1]} wide"):
            viz.render_embedding_csv([(0, m), (12, m), (13, m[:, :1])])


def test_other_dtypes_and_long_ids_are_an_error(rng):
    m = (rng.standard_normal((3, 4)) * 0.1).astype(np.float32)
    assert_same_bytes([(1, m), (4, m)])
    for sentence_id, block in [(0, m.astype(np.float64)), (2, m.astype(np.float16)), (10 ** 40, m),
                               (3, m.astype(">f4"))]:
        for blocks in ([(sentence_id, block)], [(1, m), (sentence_id, block), (4, m)]):
            with pytest.raises(ValueError, match=f"^sentence {sentence_id}: embedding CSV rows need"):
                viz.render_embedding_csv(blocks)
    assert viz.render_embedding_csv([]) == per_value_repr_csv([]) == "sentence,hop\n"


def test_rows_come_in_chunks_of_whole_rows(rng):
    """Float32 rows are formatted about _CHUNK values at a time, across blocks:
    four 30-by-600 blocks (72 000 values) reach 65 536."""
    assert viz._CHUNK == 65536
    blocks = [(i, (rng.standard_normal((30, 600)) * 0.1).astype(np.float32)) for i in range(9)]
    chunks = list(viz.embedding_csv_rows(blocks))
    assert [c.count(b"\n") for c in chunks] == [120, 120, 30]
    assert all(c.endswith(b"\n") for c in chunks)
    assert b"".join(chunks).decode("utf-8") == per_value_repr_csv(blocks).split("\n", 1)[1]


def test_peak_memory_is_near_one_output_buffer_and_its_text():
    """The per-value loop peaks at 3.0 times its text on these blocks; one
    output buffer decoded once stays near 2 times."""
    rng = np.random.default_rng(0)
    blocks = [(i, (rng.standard_normal((30, 600)) * 0.1).astype(np.float32)) for i in range(100)]
    tracemalloc.start()
    try:
        text = viz.render_embedding_csv(blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)
