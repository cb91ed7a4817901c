"""Command-line interface: train, eval, embed, visualize, params, gradcheck, sweep.

Every command is argument handling over the library: it parses its arguments,
checks its outputs, restores or reads its inputs, opens its files and prints;
results go to stdout (or the requested output files), errors go to stderr with
a nonzero exit code. Three public functions here hold the work of the commands
and are its only copy: ``load_sets`` loads ``train``'s and ``sweep``'s data,
``write_embeddings`` writes ``embed``'s file, and ``heatmap_doc`` makes one
sentence's document for ``visualize``. ``embed`` encodes packed batches of the
checkpoint's ``batch_size`` and writes each batch's rows before it encodes the
next; ``visualize`` reads and checks the whole sentences file, then writes each
sentence's heat-map section and CSV rows before it encodes the next.
``train``, ``sweep``, ``embed`` and ``visualize`` check every output path,
against the other outputs and against their input files, before they load
anything. A training run that diverges prints its error alone: the warnings
shown while it trained are dropped.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import os
import sys
import warnings
from dataclasses import astuple, fields, replace

import numpy as np

from . import attention, checkpoint, checks, data, model as model_mod, training, viz
from . import tensor as T
from .config import ConfigError, load_run_config, parse_value

HISTORY_FIELDS = tuple(f.name for f in fields(training.EpochRecord))

_ERRORS = (ConfigError, data.DataError, checkpoint.CheckpointError, training.TrainingDiverged,
           T.ShapeError, T.LabelError, ValueError, IndexError, OSError)


def _history_rows(records, prefix=()):
    for r in records:
        yield list(prefix) + [repr(v) if isinstance(v, float) else v for v in astuple(r)]


def _write_history(path, records):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HISTORY_FIELDS)
        writer.writerows(_history_rows(records))


def _check_outputs(paths, inputs):
    """Fail before any work when an output cannot be written. ``paths`` and
    ``inputs`` map each output's and each input's option to its path; an empty
    output path, a directory, a path in a missing directory and an output that
    names the file of another output or of an input are errors."""
    seen = {os.path.realpath(path): name for name, path in inputs.items() if path}
    for name, path in paths.items():
        if not path:
            raise ValueError(f"{name}: empty output path")
        if os.path.isdir(path):
            raise IsADirectoryError(f"{path}: is a directory")
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"{path}: no such directory {folder}")
        other = seen.setdefault(os.path.realpath(path), name)
        if other != name:
            raise ValueError(f"{path}: {name} is the same file as {other}")


def _config_inputs(args, cfg):
    """The input files of ``train`` and ``sweep``, by option."""
    return {"--config": args.config, "train_path": cfg.train_path, "dev_path": cfg.dev_path,
            "embeddings_path": cfg.embeddings_path}


def load_sets(cfg):
    """The vocabulary, the train and dev sets and the pretrained vectors (or
    ``None``); each file is parsed once."""
    pairs = cfg.head == "gated-pair"
    if not cfg.train_path or not cfg.dev_path:
        raise ConfigError("train_path and dev_path must be set")
    records = data.read_dataset(cfg.train_path, pairs, cfg.lowercase)
    vocab = data.build_vocab(data.sentences(records), cfg.min_count)
    train_set = data.encode_dataset(records, vocab)
    dev_set = data.load_dataset(cfg.dev_path, vocab, pairs, cfg.lowercase)
    _check_labels("train set", train_set, cfg.classes)
    _check_labels("dev set", dev_set, cfg.classes)
    vectors = data.read_pretrained(cfg.embeddings_path, vocab, cfg.d, T.DEFAULT_DTYPE) \
        if cfg.embeddings_path else None
    return vocab, train_set, dev_set, vectors


def _check_labels(name, dataset, classes):
    top = max(ex.label for ex in dataset)
    if top >= classes:
        raise data.DataError(f"{name} has label {top} but config declares {classes} classes")


@contextlib.contextmanager
def _warnings_unless_diverged():
    """Hold the warnings shown inside the block and show them as it exits,
    unless it raises ``TrainingDiverged``: numpy's overflow and NaN warnings
    of the steps that diverged say less than the error, which then stands
    alone on stderr. Filters and their once-per-location registries work as
    before; only the showing (``warnings.showwarning``) waits."""
    held = []
    show = warnings.showwarning
    warnings.showwarning = lambda *shown: held.append(shown)
    try:
        yield
    except training.TrainingDiverged:
        held.clear()
        raise
    finally:
        warnings.showwarning = show
        for shown in held:
            show(*shown)


def _run_training(cfg, sets):
    vocab, train_set, dev_set, vectors = sets
    rng = np.random.default_rng(cfg.seed)
    net = model_mod.build_model(cfg, len(vocab), rng)
    if vectors is not None:
        coverage = data.write_pretrained(net.named_parameters()["embedding.table"].data, vectors)
        print(f"pretrained embedding coverage: {coverage:.3f}")
    with _warnings_unless_diverged():
        result = training.train(net, train_set, dev_set, cfg,
                                log=lambda r: print(f"epoch {r.epoch}: train_loss={r.train_loss:.4f} "
                                                    f"dev_acc={r.dev_acc:.4f} penalty={r.mean_penalty:.4f} "
                                                    f"overlap={r.mean_overlap:.4f}"))
    training.restore_params(net, result.best_params)
    return net, vocab, result


def write_embeddings(net, sentences, fh):
    """Write the embedding CSV of ``sentences`` (id arrays) to the binary file
    ``fh``: the header, then the rows of packed batches of the model's
    ``batch_size``, in which M has the bits of each sentence encoded alone.
    Everything written so far is flushed before the next batch is encoded."""
    fh.write(viz.embedding_csv_header(2 * net.cfg.u))
    with T.no_grad():
        for start in range(0, len(sentences), net.cfg.batch_size):
            fh.flush()
            encoded = net.encode_batch(sentences[start:start + net.cfg.batch_size])
            fh.writelines(viz.embedding_csv_rows((start + i, m.data) for i, (_, _, m) in enumerate(encoded)))


def heatmap_doc(net, vocab, idx, tokens):
    """The heat-map document of sentence ``idx``, ``tokens``: the annotation
    matrix of a B = 1 ``forward`` with the softmax prediction and its
    confidence, or of ``encode`` (no prediction) for a gated-pair model."""
    # One sentence at a time. In a batch, rows of the classes-wide head
    # products (dense w2, pruned w_out) get other low bits than the sentence
    # alone, and running one sentence as a 2-row GEMM does not restore them
    # (on the paper's dense head.w1 it also takes 2-4 times as long as the
    # GEMV), so the B = 1 ``forward`` stays the reference.
    predicted = confidence = None
    with T.no_grad():
        if net.cfg.head == "gated-pair":
            _, a, _ = net.encode(vocab.encode(tokens))
        else:
            logits, a = net.forward(vocab.encode(tokens))
            z = logits.data - logits.data.max()
            probs = np.exp(z) / np.exp(z).sum()
            predicted, confidence = int(np.argmax(probs)), float(probs.max())
    return viz.HeatmapDoc(idx, tokens, a.data, attention.overall_attention(a),
                          predicted=predicted, confidence=confidence)


def cmd_train(args):
    cfg = load_run_config(args.config, args.set)
    _check_outputs({"checkpoint_path": cfg.checkpoint_path, "history_path": cfg.history_path},
                   _config_inputs(args, cfg))
    net, vocab, result = _run_training(cfg, load_sets(cfg))
    checkpoint.save_model(cfg.checkpoint_path, net, vocab)
    _write_history(cfg.history_path, result.history)
    print(f"best dev accuracy {result.best_dev_acc:.4f} at epoch {result.best_epoch}")
    print(f"checkpoint: {cfg.checkpoint_path}")
    print(f"history: {cfg.history_path}")
    return 0


def cmd_eval(args):
    net, vocab, cfg = checkpoint.restore_model(args.checkpoint)
    dataset = data.load_dataset(args.data, vocab, cfg.head == "gated-pair", cfg.lowercase)
    _check_labels(args.data, dataset, cfg.classes)
    print(f"{training.evaluate(net, dataset):.4f}")
    return 0


def cmd_embed(args):
    _check_outputs({"--out": args.out}, {"--checkpoint": args.checkpoint, "--sentences": args.sentences})
    net, vocab, cfg = checkpoint.restore_model(args.checkpoint)
    sentences = [vocab.encode(tokens) for tokens in data.read_sentences(args.sentences, cfg.lowercase)]
    with open(args.out, "wb") as fh:
        write_embeddings(net, sentences, fh)
    print(f"wrote {len(sentences)} embedding blocks to {args.out}")
    return 0


def cmd_visualize(args):
    _check_outputs({"--out-html": args.out_html, "--out-csv": args.out_csv},
                   {"--checkpoint": args.checkpoint, "--sentences": args.sentences})
    net, vocab, cfg = checkpoint.restore_model(args.checkpoint)
    sentences = data.read_sentences(args.sentences, cfg.lowercase)
    with open(args.out_html, "w", encoding="utf-8") as html_fh, \
            open(args.out_csv, "w", encoding="utf-8", newline="") as csv_fh:
        html_fh.write(viz.HTML_HEAD)
        csv_fh.write(viz.CSV_HEADER)
        for idx, tokens in enumerate(sentences):
            doc = heatmap_doc(net, vocab, idx, tokens)
            html_fh.write(viz.heatmap_html(doc, args.mode))
            csv_fh.write(viz.heatmap_csv(doc, args.mode))
        html_fh.write(viz.HTML_TAIL)
    print(f"wrote heatmaps for {len(sentences)} sentences to {args.out_html} and {args.out_csv}")
    return 0


def cmd_params(args):
    cfg = load_run_config(args.config, args.set)
    print(model_mod.count_model_params(cfg).format())
    return 0


def cmd_gradcheck(args):
    cfg = load_run_config(args.config, args.set)
    results = checks.run_all_checks(cfg, seed=cfg.seed)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        failed += not r.passed
        print(f"{r.name:<24}{r.max_rel_err:>12.3e}  {status}")
    if failed:
        print(f"{failed} of {len(results)} checks FAILED (tolerance {checks.TOLERANCE})")
        return 1
    print(f"all {len(results)} checks passed (tolerance {checks.TOLERANCE})")
    return 0


def cmd_sweep(args):
    cfg = load_run_config(args.config, args.set)
    _check_outputs({"--out": args.out}, _config_inputs(args, cfg))
    values = [parse_value(args.param, v) for v in args.values.split(",")]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("param", "value", "seed") + HISTORY_FIELDS)
    # Early stopping is disabled so every value contributes a full curve. Every
    # run's config is validated before the first one trains. The swept keys do
    # not touch the data, so the files are loaded once for every run.
    run_cfgs = [replace(cfg, patience=cfg.max_epochs, seed=cfg.seed + 1000 * idx,
                        **{args.param: value}).validate() for idx, value in enumerate(values)]
    sets = load_sets(cfg)
    for value, run_cfg in zip(values, run_cfgs):
        print(f"sweep {args.param}={value} (seed {run_cfg.seed})")
        _, _, result = _run_training(run_cfg, sets)
        writer.writerows(_history_rows(result.history, prefix=[args.param, value, run_cfg.seed]))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())
    print(f"wrote sweep results to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="structattn",
        description="matrix sentence embeddings with multi-hop self-attention")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key")

    p = sub.add_parser("train", help="train a model and write checkpoint + history CSV")
    add_config_args(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="print dataset accuracy of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("embed", help="write matrix embeddings for a sentences file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sentences", required=True, help="one whitespace-tokenized sentence per line")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("visualize", help="render attention heatmaps to HTML and CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--sentences", required=True)
    p.add_argument("--mode", choices=("per-hop", "overall"), default="overall")
    p.add_argument("--out-html", required=True)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(fn=cmd_visualize)

    p = sub.add_parser("params", help="print the trainable-parameter audit")
    add_config_args(p)
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("gradcheck", help="finite-difference check of all ops and the full loss")
    add_config_args(p)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("sweep", help="train once per value of r or penalty_coeff")
    add_config_args(p)
    p.add_argument("--param", choices=("r", "penalty_coeff"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", required=True, help="combined history CSV path")
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's failed allocations, in the calling thread or a helper
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
