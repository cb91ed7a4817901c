"""Tests of the benchmark itself, on smoke-size copies of every workload.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import io
import json
import os

import numpy as np
import pytest

import bench
import compare
import gen
from structattn import tensor as T
from structattn import training
from tracer import LAYERS, TENSOR_OPS, Tracer
from workloads import ROOT, WORKLOADS, run_cycle

# Same code paths as the real workloads, at shapes that run in a second.
TINY_PAPER = ("d=8", "u=6", "d_a=5", "r=3", "b=10", "p=4", "q=2")
SMOKE = {
    "toy-train": dict(n_train=24, n_dev=8, n_embed=10),
    "toy-pair-train": dict(n_train=16, n_dev=6, n_embed=10),
    "paper-train-dense": dict(n_train=4, n_dev=2, n_embed=6, min_len=3, max_len=12,
                              vocab_size=300, batch_size=4, overrides=TINY_PAPER),
    "paper-embed-pruned": dict(n_train=4, n_dev=2, n_embed=6, min_len=3, max_len=12,
                               vocab_size=300, batch_size=4, overrides=TINY_PAPER),
}


def smoke(name):
    return dataclasses.replace(WORKLOADS[name], **SMOKE[name])


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _targets():
    targets = [(T, name) for name in TENSOR_OPS]
    targets += [(owner, attr) for owner, attrs in LAYERS.values() for attr in attrs]
    return targets


def test_benchmark_json_workloads_exist():
    assert {w["name"] for w in _spec()["workloads"]} <= set(WORKLOADS)


def test_tracer_puts_back_every_wrapped_attribute():
    before = {(owner, attr): vars(owner)[attr] for owner, attr in _targets()}
    with pytest.raises(RuntimeError):
        with Tracer():
            for (owner, attr), original in before.items():
                assert vars(owner)[attr] is not original, f"{attr} was not wrapped"
            raise RuntimeError("leave the block by an exception")
    for (owner, attr), original in before.items():
        assert vars(owner)[attr] is original, f"{attr} was not restored"


def test_inputs_are_a_function_of_the_seed(tmp_path):
    w = smoke("paper-embed-pruned")

    def files(seed, sub):
        paths, _ = gen.write_inputs(w, seed, str(tmp_path / sub))
        return {key: open(p, "rb").read() for key, p in paths.items()}

    assert files(5, "a") == files(5, "b")
    assert files(5, "a")["train"] != files(6, "c")["train"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_cycle_reproduces_untraced_digest_within_wall_time(name, tmp_path):
    w = smoke(name)
    paths, _ = gen.write_inputs(w, 3, str(tmp_path))
    plain = run_cycle(w, paths, 3)
    with Tracer() as tracer:
        traced = run_cycle(w, paths, 3, span=tracer.span)
    assert plain.failed == 0 and traced.failed == 0
    assert traced.digest == plain.digest
    assert set(traced.digest) >= {"history", "params_sha256", "outputs_sha256"}

    times = tracer.self_times(0)
    assert all(s >= -1e-9 for s, _ in times.values())
    assert sum(s for s, _ in times.values()) <= traced.wall_s
    assert set(LAYERS) <= set(times), "every workload calls every layer"


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(name, trace, tmp_path):
    spec = _spec()
    result, _ = bench.run(smoke(name), 1, 0.0, trace, str(tmp_path))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert set(wanted) <= set(result["metrics"])
    # End-to-end metrics and per-layer times are never zero on any workload.
    assert all(result["metrics"][m] > 0 for m in wanted if not trace or m.endswith("_s"))
    assert set(result["environment"]) == {"python", "numpy", "blas", "blas_threads", "nproc",
                                          "cpu", "commit"}


def test_a_raising_operation_counts_as_failed(tmp_path, monkeypatch):
    w = smoke("toy-train")
    paths, _ = gen.write_inputs(w, 2, str(tmp_path))

    def broken(model, examples):
        raise FloatingPointError("injected")

    monkeypatch.setattr(training, "evaluate", broken)
    c = run_cycle(w, paths, 2)
    assert c.failed == w.n_dev and c.attempted > c.failed


def test_nonstochastic_attention_fails_the_row_check(tmp_path, monkeypatch):
    w = smoke("toy-train")
    paths, _ = gen.write_inputs(w, 2, str(tmp_path))
    softmax = T.softmax_rows
    monkeypatch.setattr(T, "softmax_rows", lambda x, mask=None: T.scale(softmax(x, mask), 1.1))
    c = run_cycle(w, paths, 2)
    assert c.failed >= w.n_embed


def test_main_prints_result_as_last_line(capsys):
    assert bench.main(["--workload", "toy-train", "--seed", "4", "--seconds", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    units = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units
    assert all(np.isfinite(v["value"]) for v in last["metrics"].values())


def test_diff_flags_results_from_different_environments():
    def summary(threads):
        return {"toy-train": {"environment": {"blas_threads": [threads], "commit": ["x"]},
                              "end_to_end": {"setup_s": {"median": 1.0}}}}

    out = io.StringIO()
    assert compare.diff(summary("1"), summary("2"), out=out) == 0
    assert "environment differs in blas_threads" in out.getvalue()
