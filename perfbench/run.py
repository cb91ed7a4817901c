"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-embed-pruned --seed 1 --seconds 50 --trace 0

Run from the repository root. Inputs are generated from ``--seed`` before
any timing. The workload's cycle (see ``workloads.py``) repeats while
another one fits in ``--seconds``, and at least twice. ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json with tracing off.
``--trace 1`` alternates untraced and traced cycles and reports the per-layer
metrics: self time and calls of each layer, tensor ops per sentence pass,
the pad ratio of the training batches and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result (with
the environment stamp, input properties and digest) is written to
``.bench_out/results/``; the spans of a traced run to ``.bench_out/traces/``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

if __name__ == "__main__":
    import stamp

    stamp.pin_blas_threads()  # before numpy loads
    import bench

    raise SystemExit(bench.main())
