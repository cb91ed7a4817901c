"""Command-line interface: train, eval, embed, visualize, params, gradcheck, sweep.

Every command is a thin shell over the library; results go to stdout (or the
requested output files), errors go to stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import replace

import numpy as np

from . import attention, checkpoint, checks, data, model as model_mod, training, viz
from . import tensor as T
from .config import ConfigError, load_run_config

HISTORY_FIELDS = ("epoch", "train_loss", "dev_acc", "mean_penalty", "mean_overlap")

_ERRORS = (ConfigError, data.DataError, checkpoint.CheckpointError, training.TrainingDiverged,
           T.ShapeError, T.MaskError, T.LabelError, ValueError, IndexError, OSError)


def _history_rows(records, prefix=()):
    for r in records:
        yield list(prefix) + [r.epoch, repr(r.train_loss), repr(r.dev_acc),
                              repr(r.mean_penalty), repr(r.mean_overlap)]


def _write_history(path, records):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HISTORY_FIELDS)
        writer.writerows(_history_rows(records))


def _load_sets(cfg):
    pairs = cfg.head == "gated-pair"
    if not cfg.train_path or not cfg.dev_path:
        raise ConfigError("train_path and dev_path must be set")
    vocab = data.build_vocab(data.corpus_tokens(cfg.train_path, pairs, cfg.lowercase), cfg.min_count)
    train_set = data.load_dataset(cfg.train_path, vocab, pairs, cfg.lowercase)
    dev_set = data.load_dataset(cfg.dev_path, vocab, pairs, cfg.lowercase)
    _check_labels("train set", train_set, cfg.classes)
    _check_labels("dev set", dev_set, cfg.classes)
    return vocab, train_set, dev_set


def _check_labels(name, dataset, classes):
    top = max(ex.label for ex in dataset)
    if top >= classes:
        raise data.DataError(f"{name} has label {top} but config declares {classes} classes")


def _build_model(cfg, vocab, rng):
    net = model_mod.build_model(cfg, len(vocab), rng)
    if cfg.embeddings_path:
        table = net.named_parameters()["embedding.table"].data
        coverage = data.load_pretrained(cfg.embeddings_path, vocab, table)
        print(f"pretrained embedding coverage: {coverage:.3f}")
    return net


def _run_training(cfg):
    vocab, train_set, dev_set = _load_sets(cfg)
    rng = np.random.default_rng(cfg.seed)
    net = _build_model(cfg, vocab, rng)
    result = training.train(net, train_set, dev_set, cfg,
                            log=lambda r: print(f"epoch {r.epoch}: train_loss={r.train_loss:.4f} "
                                                f"dev_acc={r.dev_acc:.4f} penalty={r.mean_penalty:.4f} "
                                                f"overlap={r.mean_overlap:.4f}"))
    training.restore_params(net, result.best_params)
    return net, vocab, result


def cmd_train(args):
    cfg = load_run_config(args.config, args.set)
    net, vocab, result = _run_training(cfg)
    _write_history(cfg.history_path, result.history)
    checkpoint.save_model(cfg.checkpoint_path, net, vocab)
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


def _read_sentences(path, lowercase):
    """(index, tokens) per non-empty line; empty lines are skipped with a warning."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = (line.lower() if lowercase else line).split()
            if not tokens:
                print(f"warning: {path}:{lineno}: empty sentence line skipped", file=sys.stderr)
                continue
            out.append(tokens)
    if not out:
        raise data.DataError(f"{path}: no sentences")
    return out


def cmd_embed(args):
    net, vocab, cfg = checkpoint.restore_model(args.checkpoint)
    blocks = []
    with T.no_grad():
        for idx, tokens in enumerate(_read_sentences(args.sentences, cfg.lowercase)):
            _, _, m = net.encode(vocab.encode(tokens))
            blocks.append((idx, m.data))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(viz.render_embedding_csv(blocks))
    print(f"wrote {len(blocks)} embedding blocks to {args.out}")
    return 0


def cmd_visualize(args):
    net, vocab, cfg = checkpoint.restore_model(args.checkpoint)
    single = cfg.head in ("dense", "pruned")
    docs = []
    with T.no_grad():
        for idx, tokens in enumerate(_read_sentences(args.sentences, cfg.lowercase)):
            ids = vocab.encode(tokens)
            predicted = confidence = None
            if single:
                logits, a = net.forward(ids)
                z = logits.data - logits.data.max()
                probs = np.exp(z) / np.exp(z).sum()
                predicted, confidence = int(np.argmax(probs)), float(probs.max())
            else:
                _, a, _ = net.encode(ids)
            docs.append(viz.HeatmapDoc(
                sentence_id=idx, tokens=tokens, hop_weights=a.data.copy(),
                overall=attention.overall_attention(a), model_id=args.checkpoint,
                predicted=predicted, confidence=confidence))
    with open(args.out_html, "w", encoding="utf-8") as fh:
        fh.write(viz.render_html(docs, args.mode))
    with open(args.out_csv, "w", encoding="utf-8", newline="") as fh:
        fh.write(viz.render_csv(docs, args.mode))
    print(f"wrote heatmaps for {len(docs)} sentences to {args.out_html} and {args.out_csv}")
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
    if args.param == "r":
        values = [int(v) for v in args.values.split(",")]
    else:
        values = [float(v) for v in args.values.split(",")]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("param", "value", "seed") + HISTORY_FIELDS)
    # Early stopping is disabled so every value contributes a full curve. Every
    # run's config is validated before the first one trains.
    run_cfgs = [replace(cfg, patience=cfg.max_epochs, seed=cfg.seed + 1000 * idx,
                        **{args.param: value}).validate() for idx, value in enumerate(values)]
    for value, run_cfg in zip(values, run_cfgs):
        print(f"sweep {args.param}={value} (seed {run_cfg.seed})")
        _, _, result = _run_training(run_cfg)
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


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
