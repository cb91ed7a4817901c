"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import csv
import shutil
import time
from dataclasses import replace

import numpy as np

from structattn import attention, checkpoint, checks, cli, data, heads, training
from structattn import model as model_mod
from structattn import tensor as T
from structattn.config import load_run_config
from structattn.synth import make_keyword_task, write_lines

from support import ACCEPTANCE_LINES, CONFIG_DIR
from test_attention import params as attention_params
from test_heads import gated_params


def report(num, text):
    line = f"[PASS] criterion {num}: {text}"
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)


def toy_run_config(tmp_path, **extra):
    train, dev = make_keyword_task(n_train=200, n_dev=50, classes=2, keywords_per_class=3,
                                   plants_per_sentence=1, n_fillers=80,
                                   min_len=5, max_len=15, seed=7)
    write_lines(tmp_path / "train.txt", train)
    write_lines(tmp_path / "dev.txt", dev)
    overrides = {
        "train_path": str(tmp_path / "train.txt"),
        "dev_path": str(tmp_path / "dev.txt"),
        "checkpoint_path": str(tmp_path / "model.ckpt"),
        "history_path": str(tmp_path / "history.csv"),
    }
    overrides.update({k: str(v) for k, v in extra.items()})
    return load_run_config(CONFIG_DIR / "toy.cfg", [f"{k}={v}" for k, v in overrides.items()])


def test_criterion_1_gradient_integrity(capsys):
    start = time.time()
    rc = cli.main(["gradcheck", "--config", str(CONFIG_DIR / "gradcheck.cfg")])
    elapsed = time.time() - start
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    errors = [float(line.split()[1]) for line in out.splitlines() if "PASS" in line]
    assert errors and max(errors) < 1e-4
    assert "full_model_loss" in out
    assert elapsed < 60.0
    report(1, f"all {len(errors)} gradient checks < 1e-4 (worst {max(errors):.2e}, {elapsed:.1f}s)")


def test_criterion_2_penalty_semantics():
    disjoint = T.Tensor(np.array([[1.0, 0, 0, 0], [0.0, 0, 1, 0]]))
    assert attention.penalty(disjoint).item() == 0.0

    uniform = T.Tensor(np.full((2, 4), 0.25))
    assert abs(attention.penalty(uniform).item() - 1.25) <= 1e-6

    assert attention.mean_pairwise_overlap(np.array([[1.0, 0, 0], [0.0, 1, 0]])) == 0.0
    one_hot = np.array([0.0, 0, 1.0])
    assert attention.mean_pairwise_overlap(np.stack([one_hot, one_hot])) == 1.0
    report(2, "penalty 0 for disjoint one-hot, 1.25 for uniform r=2 n=4, overlap endpoints 0 and 1")


def test_criterion_3_parameter_count_oracle(capsys):
    values = {}
    for preset, expect in [("params_yelp_dense.cfg", "54000000"),
                           ("params_age_dense.cfg", "72000000"),
                           ("params_yelp_pruned.cfg", "2700000")]:
        assert cli.main(["params", "--config", str(CONFIG_DIR / preset)]) == 0
        out = capsys.readouterr().out
        assert expect in out, (preset, expect)
        values[preset] = expect
    # group totals, not substring luck
    yelp = model_mod.count_model_params(load_run_config(CONFIG_DIR / "params_yelp_dense.cfg"))
    age = model_mod.count_model_params(load_run_config(CONFIG_DIR / "params_age_dense.cfg"))
    pruned = model_mod.count_model_params(load_run_config(CONFIG_DIR / "params_yelp_pruned.cfg"))
    assert yelp.group_totals["hidden_layer"] == 54_000_000
    assert age.group_totals["hidden_layer"] == 72_000_000
    assert dict((name, c) for _, name, _, c in pruned.rows)["head.w_v"] == 2_700_000
    report(3, "hidden-layer counts 54,000,000 / 72,000,000 and pruned row-group count 2,700,000")


def test_criterion_4_toy_task_learning(tmp_path):
    cfg = toy_run_config(tmp_path)
    vocab, train_set, dev_set, _ = cli.load_sets(cfg)
    assert len(vocab) <= 100 + 2
    assert all(5 <= len(ex.tokens) <= 15 for ex in train_set)
    start = time.time()
    net = model_mod.build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
    result = training.train(net, train_set, dev_set, cfg)
    elapsed = time.time() - start
    assert result.best_epoch <= 100
    assert result.best_dev_acc >= 0.95
    assert elapsed < 300.0
    report(4, f"dev accuracy {result.best_dev_acc:.2f} at epoch {result.best_epoch} ({elapsed:.0f}s)")


def test_criterion_5_penalty_lowers_overlap(tmp_path):
    base = toy_run_config(tmp_path, classes=5, optimizer="adagrad", learning_rate=0.05,
                          clip="none", max_epochs=12, patience=12)
    train, dev = make_keyword_task(n_train=150, n_dev=60, classes=5, keywords_per_class=4,
                                   plants_per_sentence=1, n_fillers=80,
                                   min_len=6, max_len=12, seed=11)
    write_lines(tmp_path / "train.txt", train)
    write_lines(tmp_path / "dev.txt", dev)
    vocab, train_set, dev_set, _ = cli.load_sets(base)

    outcomes = []
    for seed in (1, 2, 3):
        overlap_at_best = {}
        for coeff in (1.0, 0.0):
            cfg = replace(base, penalty_coeff=coeff, seed=seed)
            net = model_mod.build_model(cfg, len(vocab), np.random.default_rng(cfg.seed))
            result = training.train(net, train_set, dev_set, cfg)
            overlap_at_best[coeff] = result.history[result.best_epoch - 1].mean_overlap
        assert overlap_at_best[1.0] < overlap_at_best[0.0], (seed, overlap_at_best)
        outcomes.append((seed, overlap_at_best[1.0], overlap_at_best[0.0]))
    summary = "; ".join(f"seed {s}: {p:.3f} < {n:.3f}" for s, p, n in outcomes)
    report(5, f"penalized overlap strictly lower over 3 seeds ({summary})")


def test_criterion_6_single_hop_reduction_and_r_sweep(tmp_path, rng, capsys):
    # exact r=1 equivalence in 64-bit mode
    n, width, d_a = 6, 8, 5
    hidden = T.Tensor(rng.standard_normal((n, width)))
    w1, w2 = attention_params(rng, d_a, 1, width)
    full = attention.attend(hidden, w1, w2)
    single = checks.attend_vector(hidden, w1, T.gather_rows(w2, 0))
    assert np.array_equal(full.data[0], single.data)

    cfg = toy_run_config(tmp_path, max_epochs=2, patience=2)
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text("\n".join(f"{k} = {v if v is not None else 'none'}"
                                  for k, v in cfg.to_dict().items() if v != "") + "\n",
                        encoding="utf-8")
    out_csv = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", str(cfg_path), "--param", "r",
                   "--values", "1,5,10,30", "--out", str(out_csv)])
    capsys.readouterr()
    assert rc == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 4  # epochs x values
    assert [r["value"] for r in rows[::2]] == ["1", "5", "10", "30"]
    for row in rows:
        for field in ("train_loss", "dev_acc", "mean_penalty", "mean_overlap"):
            assert np.isfinite(float(row[field]))
        assert 0.0 <= float(row["dev_acc"]) <= 1.0
    report(6, "r=1 equals the vector path exactly; r sweep over {1,5,10,30} well formed")


def test_criterion_7_structural_invariants(tmp_path, rng, capsys):
    # row-stochastic attention with masked columns zero, for a padded sentence
    for n, hops in [(4, 1), (6, 3), (9, 5)]:
        mask = np.ones(n, dtype=bool)
        mask[n - 2:] = False
        cfg64 = load_run_config(CONFIG_DIR / "toy.cfg", [f"r={hops}", "d_a=4", "u=3"])
        net64 = model_mod.build_model(cfg64, 30, rng, dtype=np.float64)
        a = net64.encode(rng.integers(2, 30, size=n), mask)[1].data
        assert a.shape == (hops, n)
        assert np.abs(a.sum(axis=1) - 1.0).max() <= 1e-6
        assert (a[:, ~mask] == 0).all()

    # padding inertness through the full model, single vs batched
    cfg32 = load_run_config(CONFIG_DIR / "toy.cfg", ["dropout=0.0"])
    net32 = model_mod.build_model(cfg32, 30, np.random.default_rng(1))
    tokens = np.array([3, 9, 4, 17, 2])
    with T.no_grad():
        alone, _ = net32.forward(tokens)
        padded = np.concatenate([tokens, np.zeros(4, dtype=tokens.dtype)])
        mask = np.concatenate([np.ones(5, dtype=bool), np.zeros(4, dtype=bool)])
        batched, _ = net32.forward(padded, mask)
    assert np.array_equal(alone.data, batched.data)

    # pruned head equals the zero-masked dense twin exactly in 64-bit
    # (dyadic inputs keep every summation order exact, so this is bitwise)
    from test_heads import dense_twin_logits, dyadic, dyadic_pruned_head
    head = dyadic_pruned_head(rng, 3, 4, 2, 2, 3)
    m = dyadic(rng, (3, 4))
    assert np.array_equal(heads.pruned_forward(T.Tensor(m[None], dtype=np.float64), *head).data[0],
                          dense_twin_logits(m, head))

    # gated encoder annihilates a zero embedding
    out = heads.gated_encode(T.zeros((3, 4), np.float64),
                             T.Tensor(rng.standard_normal((3, 4))), *gated_params(rng, 3, 4, 5))
    assert (out.data == 0.0).all()

    # checkpoint round trip is bitwise; seeded reruns are bitwise identical
    cfg = toy_run_config(tmp_path, max_epochs=3, patience=3)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("\n".join(f"{k} = {v if v is not None else 'none'}"
                                  for k, v in cfg.to_dict().items() if v != "") + "\n",
                        encoding="utf-8")
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    shutil.copy(cfg.checkpoint_path, tmp_path / "first.ckpt")
    shutil.copy(cfg.history_path, tmp_path / "first.csv")
    assert cli.main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert open(cfg.history_path, "rb").read() == open(tmp_path / "first.csv", "rb").read()
    assert open(cfg.checkpoint_path, "rb").read() == open(tmp_path / "first.ckpt", "rb").read()

    ck = checkpoint.load_checkpoint(cfg.checkpoint_path)
    resaved = tmp_path / "resaved.ckpt"
    checkpoint.save_checkpoint(resaved, ck.arrays, ck.config, ck.vocab)
    assert open(resaved, "rb").read() == open(cfg.checkpoint_path, "rb").read()

    report(7, "row-stochastic A, padding inertness, dense-twin equality, gated annihilation, "
              "bitwise checkpoints and reruns")
