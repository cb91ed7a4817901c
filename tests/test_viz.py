import csv
import io

import numpy as np

from structattn import attention, viz


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


def test_embedding_csv_blocks(rng):
    m0 = rng.standard_normal((2, 4))
    m1 = rng.standard_normal((2, 4))
    rows = parse_csv(viz.render_embedding_csv([(0, m0), (1, m1)]))
    assert len(rows) == 4
    block0 = [r for r in rows if r["sentence"] == "0"]
    assert [float(block0[1][f"dim{j}"]) for j in range(4)] == list(m0[1].astype(float))


def test_prediction_metadata_optional(rng):
    doc = make_doc(rng)
    doc.predicted = None
    doc.confidence = None
    html_text = viz.render_html([doc], "overall")
    assert "predicted" not in html_text


def per_value_repr_csv(blocks):
    """The embedding CSV as csv.writer writes it with repr(float(v)) per value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    width = blocks[0][1].shape[1] if blocks else 0
    writer.writerow(["sentence", "hop"] + [f"dim{j}" for j in range(width)])
    for sentence_id, block in blocks:
        for hop in range(block.shape[0]):
            writer.writerow([sentence_id, hop] + [repr(float(v)) for v in block[hop]])
    return buf.getvalue()


def test_embedding_csv_bytes_match_per_value_repr(rng):
    tiny = np.finfo(np.float32).smallest_subnormal
    m = rng.standard_normal((3, 5)).astype(np.float32)
    m[0, :4] = [0.0, -0.0, tiny, np.finfo(np.float32).max]
    blocks = [(0, m), (7, rng.standard_normal((3, 5)).astype(np.float32)), (8, rng.standard_normal((3, 5)))]
    text = viz.render_embedding_csv(blocks)
    assert text.encode("utf-8") == per_value_repr_csv(blocks).encode("utf-8")
    assert ",-0.0," in text and "e-45," in text
    assert viz.render_embedding_csv([]) == per_value_repr_csv([])
