"""The benchmark workloads and the cycle a run repeats.

A cycle does what a user of the ``structattn`` commands does, through the
same library calls: parse the inputs and build the model (``train``), train
it with ``training.train``, score the dev set with ``training.evaluate``
(``eval``), and embed every sentence of a sentences file under ``no_grad``
and render its heat maps (``visualize``). ``paper-embed-pruned`` instead
trains only to produce the checkpoint it then restores, embeds with and
renders both heat maps and matrix embeddings from (``embed``).

Every cycle of a run starts from the same files and seed, so every cycle does
the same work and must produce the same digest.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from structattn import attention, checkpoint, config, data, model, training, viz
from structattn import tensor as T
from structattn.encoder import PAD_ID

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True)
class Workload:
    name: str
    config: str             # config file, relative to the repository root
    task: str               # input generator: keyword | pair | zipf (see gen.py)
    n_train: int
    n_dev: int
    min_len: int
    max_len: int
    batch_size: int
    epochs: int = 1         # early stopping is off: patience = epochs
    overrides: tuple = ()   # extra ``key=value`` config overrides
    n_embed: int = 0        # sentences embedded per cycle, lengths on an even grid
    vocab_size: int = 0     # zipf only; the vocabulary has exactly this many rows
    classes: int = 2
    embed_only: bool = False


# BENCHMARK.json gates the two paper-scale workloads and records why each
# exists; the toy ones run by name only (see README.md for why).
WORKLOADS = {w.name: w for w in (
    # README quickstart: tiny matrices, so time is per-graph-node overhead.
    Workload("toy-train", "configs/toy.cfg", "keyword", n_train=200, n_dev=50,
             n_embed=100, min_len=5, max_len=15, batch_size=16, epochs=1),
    # The only path through PairBatch, gated_encode and adagrad_step.
    Workload("toy-pair-train", "configs/toy.cfg", "pair", n_train=120, n_dev=40,
             n_embed=100, min_len=4, max_len=8, batch_size=16, epochs=1,
             overrides=("head=gated-pair", "optimizer=adagrad", "k=8")),
    # Paper shapes: time is in the 54M-weight head, its L2 term and SGD;
    # lengths 10-100 make padding real.
    Workload("paper-train-dense", "configs/params_yelp_dense.cfg", "zipf", n_train=8, n_dev=16,
             n_embed=100, min_len=10, max_len=100, batch_size=8, vocab_size=100000, classes=5),
    # Forward-only inference from a restored pruned-head checkpoint.
    Workload("paper-embed-pruned", "configs/params_yelp_pruned.cfg", "zipf", n_train=8, n_dev=4,
             n_embed=100, min_len=10, max_len=100, batch_size=8, vocab_size=100000, classes=5,
             embed_only=True),
)}


@dataclass
class Cycle:
    setup_s: float = 0.0
    train_s: float = 0.0
    trained: int = 0        # training examples processed (a pair counts as one)
    eval_s: float = 0.0
    evaluated: int = 0
    latencies_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    digest: dict = field(default_factory=dict)

    def count(self, ops, ok=True):
        self.attempted += ops
        if not ok:
            self.failed += ops


@contextlib.contextmanager
def _no_span(name):
    yield


def _report(what):
    print(f"operation failed: {what}", flush=True)
    traceback.print_exc()


def _load(w, paths, seed):
    """Config, vocabulary, datasets and a fresh model, as ``structattn train`` builds them."""
    overrides = [f"train_path={paths['train']}", f"dev_path={paths['dev']}",
                 f"batch_size={w.batch_size}", f"max_epochs={w.epochs}",
                 f"patience={w.epochs}", f"seed={seed}", *w.overrides]
    cfg = config.load_run_config(os.path.join(ROOT, w.config), overrides)
    pairs = cfg.head == "gated-pair"
    corpus = data.corpus_tokens(paths["train"], pairs, cfg.lowercase)
    if "lexicon" in paths:
        corpus = data.corpus_tokens(paths["lexicon"]) + corpus
    vocab = data.build_vocab(corpus, cfg.min_count)
    train_set = data.load_dataset(paths["train"], vocab, pairs, cfg.lowercase)
    dev_set = data.load_dataset(paths["dev"], vocab, pairs, cfg.lowercase)
    net = model.build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
    return cfg, vocab, train_set, dev_set, net


def _read_sentences(path, vocab, lowercase):
    with open(path, encoding="utf-8") as fh:
        token_lists = [(line.lower() if lowercase else line).split() for line in fh]
    return [(tokens, vocab.encode(tokens)) for tokens in token_lists if tokens]


def _train(c, w, net, train_set, dev_set, cfg):
    """``training.train`` then the best-dev restore, as ``structattn train`` does."""
    steps = math.ceil(len(train_set) / cfg.batch_size) * cfg.max_epochs
    try:
        t0 = perf_counter()
        result = training.train(net, train_set, dev_set, cfg)
        c.train_s = perf_counter() - t0
    except Exception:
        _report(f"{w.name}: training")
        c.count(steps, ok=False)
        return
    c.trained = len(train_set) * len(result.history)
    c.count(steps, ok=all(np.isfinite(r.train_loss) for r in result.history))
    c.digest["history"] = [[r.epoch, repr(r.train_loss), repr(r.dev_acc), repr(r.mean_penalty),
                            repr(r.mean_overlap)] for r in result.history]
    training.restore_params(net, result.best_params)


def _evaluate(c, w, net, dev_set):
    try:
        t0 = perf_counter()
        acc = training.evaluate(net, dev_set)
        c.eval_s = perf_counter() - t0
    except Exception:
        _report(f"{w.name}: evaluate")
        c.count(len(dev_set), ok=False)
        return
    c.evaluated = len(dev_set)
    c.count(len(dev_set), ok=0.0 <= acc <= 1.0)
    c.digest["dev_acc"] = repr(acc)


def _embed(c, w, net, cfg, sentences):
    """Matrix embeddings and heat maps for every sentence, as ``embed`` and
    ``visualize`` make them; returns per-sentence (A, M, logits) for checking
    and the rendered documents."""
    single = cfg.head != "gated-pair"
    outputs = []
    blocks, docs = [], []
    with T.no_grad():
        for idx, (tokens, ids) in enumerate(sentences):
            try:
                t0 = perf_counter()
                _, a, m = net.encode(ids)
                logits = predicted = confidence = None
                if single:
                    logits, a = net.forward(ids)
                c.latencies_ms.append((perf_counter() - t0) * 1e3)
                if single:
                    z = logits.data - logits.data.max()
                    probs = np.exp(z) / np.exp(z).sum()
                    predicted, confidence = int(np.argmax(probs)), float(probs.max())
            except Exception:
                _report(f"{w.name}: embedding sentence {idx}")
                c.latencies_ms.append(float("nan"))
                outputs.append(None)
                continue
            outputs.append((a.data, m.data, None if logits is None else logits.data))
            blocks.append((idx, m.data))
            docs.append(viz.HeatmapDoc(
                sentence_id=idx, tokens=tokens, hop_weights=a.data.copy(),
                overall=attention.overall_attention(a), model_id=w.name,
                predicted=predicted, confidence=confidence))
        rendered = [viz.render_html(docs), viz.render_csv(docs)]
        if w.embed_only:
            # Training workloads skip the embedding CSV: at paper shapes it
            # costs as much as a training step and is not what they measure.
            rendered.append(viz.render_embedding_csv(blocks))
    return outputs, rendered


def _rows_ok(a, mask):
    """Rows of A sum to 1 within 1e-5 and put exactly zero weight on padding."""
    return (np.all(np.isfinite(a)) and np.allclose(a.sum(axis=1), 1.0, rtol=0, atol=1e-5)
            and not np.any(a[:, ~mask]))


def _check_embeddings(c, cfg, outputs):
    shape = (cfg.r, 2 * cfg.u)
    for out in outputs:
        if out is None:
            c.count(1, ok=False)
            continue
        a, m, logits = out
        ok = (_rows_ok(a, np.ones(a.shape[1], dtype=bool)) and m.shape == shape
              and np.all(np.isfinite(m)) and (logits is None or np.all(np.isfinite(logits))))
        c.count(1, ok=ok)


def _check_padding(c, net, sentences, n):
    """Encode the first ``n`` sentences padded to a common width: padded
    columns of A must be zero and the real columns must match the unpadded A."""
    chunk = [ids for _, ids in sentences[:n]]
    width = max(len(ids) for ids in chunk)
    with T.no_grad():
        for ids in chunk:
            tokens = np.full(width, PAD_ID, dtype=ids.dtype)
            tokens[:len(ids)] = ids
            mask = np.arange(width) < len(ids)
            try:
                _, a_pad, _ = net.encode(tokens, mask)
                _, a, _ = net.encode(ids)
                ok = _rows_ok(a_pad.data, mask) and np.allclose(a_pad.data[:, mask], a.data,
                                                                rtol=0, atol=1e-6)
            except Exception:
                _report("padding check")
                ok = False
            c.count(1, ok=ok)


def _sha256(parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8") if isinstance(part, str) else part)
    return h.hexdigest()


def _params_sha256(net):
    return _sha256(part for name, p in net.named_parameters().items()
                   for part in (name, str(p.data.shape), np.ascontiguousarray(p.data).tobytes()))


def _file_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_cycle(w, paths, seed, span=_no_span):
    """One pass of the workload; ``span`` brackets each phase when traced."""
    c = Cycle()
    start = perf_counter()
    ckpt = os.path.join(os.path.dirname(paths["train"]), "model.ckpt")
    if w.embed_only:
        with span("phase.prepare"):
            cfg, vocab, train_set, dev_set, net = _load(w, paths, seed)
    else:
        with span("phase.setup"):
            t0 = perf_counter()
            cfg, vocab, train_set, dev_set, net = _load(w, paths, seed)
            sentences = _read_sentences(paths["sentences"], vocab, cfg.lowercase)
            c.setup_s = perf_counter() - t0
    with span("phase.train"):
        _train(c, w, net, train_set, dev_set, cfg)
        checkpoint.save_model(ckpt, net, vocab)  # as ``structattn train`` does
    if w.embed_only:
        del net
        with span("phase.setup"):
            t0 = perf_counter()
            net, vocab, cfg = checkpoint.restore_model(ckpt)
            sentences = _read_sentences(paths["sentences"], vocab, cfg.lowercase)
            c.setup_s = perf_counter() - t0
    else:
        with span("phase.eval"):
            _evaluate(c, w, net, dev_set)
    with span("phase.embed"):
        t0 = perf_counter()
        outputs, rendered = _embed(c, w, net, cfg, sentences)
        if w.embed_only:
            c.eval_s = perf_counter() - t0
            c.evaluated = len(sentences)
    with span("phase.check"):
        _check_embeddings(c, cfg, outputs)
        _check_padding(c, net, sentences, 4)
        if w.embed_only:
            resaved = ckpt + ".resaved"
            checkpoint.save_model(resaved, net, vocab)
            if _file_bytes(resaved) != _file_bytes(ckpt):
                print("checkpoint changed across save -> load -> save", flush=True)
                c.failed = c.attempted
        c.digest["params_sha256"] = _params_sha256(net)
        c.digest["outputs_sha256"] = _sha256(rendered)
    c.wall_s = perf_counter() - start
    for path in (ckpt, ckpt + ".resaved"):  # up to 0.3 GB each at paper scale
        if os.path.exists(path):
            os.remove(path)
    return c
