"""Benchmark core: runs a workload's cycles and computes its metrics.

``run.py`` is the command-line entry point; tests import this module.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
from time import perf_counter

import numpy as np

import gen
import stamp
from tracer import LAYERS, Tracer
from workloads import ROOT, WORKLOADS, run_cycle

OUT = os.path.join(ROOT, ".bench_out")

# A run makes at least this many cycles, so the digest check has a second
# cycle to compare with.
MIN_CYCLES = 2


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(cycles):
    """End-to-end metrics of an untraced run: medians over its identical
    cycles, and latency percentiles over every sentence embedded in the run."""
    lat = [ms for c in cycles for ms in c.latencies_ms]
    return {
        "setup_s": _median([c.setup_s for c in cycles]),
        "train_sent_per_s": _median([c.trained / c.train_s for c in cycles if c.train_s]),
        "eval_sent_per_s": _median([c.evaluated / c.eval_s for c in cycles if c.eval_s]),
        "embed_ms_p50": float(np.nanpercentile(lat, 50)),
        "embed_ms_p90": float(np.nanpercentile(lat, 90)),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, pairs):
    runs = range(len(pairs))
    times = [tracer.self_times(run) for run in runs]
    out = {}
    for name in LAYERS:
        out[f"{name}_s"] = _median([t.get(name, (0.0, 0))[0] for t in times])
        # cycles are identical, so every traced cycle makes the same calls
        out[f"{name}.calls"] = times[0].get(name, (0.0, 0))[1]
    passes = [t.get("encoder.bilstm", (0.0, 0))[1] for t in times]
    out["tensor.ops"] = _median([tracer.ops[run] / n for run, n in zip(runs, passes) if n])
    padded, positions = tracer.padding[0]
    out["data.pad_ratio"] = padded / positions if positions else 0.0
    out["trace.overhead_ratio"] = _median([t.wall_s / p.wall_s - 1.0 for p, t in pairs])
    return out, times


def _fits(start, done, seconds):
    """Whether one more cycle, as long as the mean so far, ends within ``seconds``."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / done <= seconds


def run(w, seed, seconds, trace, out_dir):
    """Generate inputs, then repeat cycles while another fits in ``seconds``
    (and at least ``MIN_CYCLES`` times); returns the result dict and, for a
    traced run, the tracer that holds its spans."""
    paths, props = gen.write_inputs(w, seed, os.path.join(out_dir, "inputs", f"{w.name}-{seed}"))
    start = perf_counter()
    tracer = None
    if trace:
        tracer, pairs = Tracer(), []
        while len(pairs) < MIN_CYCLES or _fits(start, len(pairs), seconds):
            plain = run_cycle(w, paths, seed)
            tracer.run = len(pairs)
            with tracer:
                traced = run_cycle(w, paths, seed, span=tracer.span)
            pairs.append((plain, traced))
        cycles = [c for pair in pairs for c in pair]
        metrics, times = per_layer(tracer, pairs)
        extra = {"phases": {name: _median([t[name][0] for t in times])
                            for name in times[0] if name.startswith("phase.")}}
    else:
        cycles = []
        while len(cycles) < MIN_CYCLES or _fits(start, len(cycles), seconds):
            cycles.append(run_cycle(w, paths, seed))
        metrics = end_to_end(cycles)
        extra = {"embed_samples": sum(len(c.latencies_ms) for c in cycles),
                 "samples": [{"setup_s": c.setup_s, "train_s": c.train_s, "eval_s": c.eval_s,
                              "latencies_ms": c.latencies_ms} for c in cycles]}
    # Every cycle repeats the same work from the same files, traced or not,
    # so each must reproduce the first cycle's digest bit for bit.
    for c in cycles[1:]:
        if c.digest != cycles[0].digest:
            print("digest differs from the first cycle's", flush=True)
            c.failed = c.attempted
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    result = {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(bool(trace)),
        "cycles": len(cycles), "correct": failed == 0, "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "metrics": metrics, "inputs": props, "digest": cycles[0].digest,
        "environment": stamp.environment(ROOT), **extra,
    }
    return result, tracer


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv=None):
    parser = argparse.ArgumentParser(description="run one benchmark workload and print its metrics")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    e2e_units, layer_units = _units()
    units = layer_units if args.trace else e2e_units
    result, tracer = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, OUT)
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        with open(os.path.join(OUT, "traces", f"{tag}.jsonl"), "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")

    print(f"{args.workload} seed {args.seed}: {result['cycles']} cycles, "
          f"fail_ratio {result['failed']}/{result['attempted']} = {result['fail_ratio']:.4f}")
    for name, m in metrics.items():
        print(f"  {name:<30}{m['value']:>16.6g} {m['unit']}")
    for key in ("phases", "embed_samples", "cycles", "inputs"):
        if key in result:
            print(f"  {key}: {result[key]}")
    print(f"  environment: {result['environment']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0

