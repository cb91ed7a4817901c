"""Summarize benchmark results and compare two summaries.

    python3 perfbench/compare.py summarize .bench_out/results/*.json > new.json
    python3 perfbench/compare.py diff perfbench/baseline.json new.json

``summarize`` groups result files by workload. For every end-to-end metric
it gives the median and quartiles over the untraced runs. From traced runs it
gives each layer's self time as a share of the traced cycle's span time.
``diff`` prints old and new medians per workload and metric, the change as a
share of the old median, and whether it is worse than the metric's bound in
BENCHMARK.json. It flags every environment field whose value differs between
the two summaries, because such figures do not compare.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(paths):
    runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            r = json.load(fh)
        runs.setdefault(r["workload"], []).append(r)
    out = {}
    for workload, results in sorted(runs.items()):
        plain = [r for r in results if not r["trace"]]
        traced = [r for r in results if r["trace"]]
        entry = {"environment": {}, "runs": len(plain), "seeds": sorted(r["seed"] for r in plain),
                 "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results), "end_to_end": {}}
        for r in results:
            for key, value in r["environment"].items():
                entry["environment"].setdefault(key, set()).add(str(value))
        entry["environment"] = {k: sorted(v) for k, v in entry["environment"].items()}
        for name in (plain[0]["metrics"] if plain else {}):
            q1, med, q3 = _quartiles([r["metrics"][name] for r in plain])
            entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3,
                                         "spread": (q3 - q1) / med if med else None}
        if traced:
            t = traced[0]
            total = sum(t["phases"].values()) + sum(
                v for k, v in t["metrics"].items() if k.endswith("_s"))
            entry["per_layer"] = t["metrics"]
            entry["layer_share"] = {k[:-2]: v / total for k, v in t["metrics"].items()
                                    if k.endswith("_s") and v}
        out[workload] = entry
    return out


def diff(old, new, out=sys.stdout):
    """Print the comparison; return the number of metrics worse than their bound."""
    spec = _spec()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    worse = 0
    for workload in sorted(set(old) & set(new)):
        a, b = old[workload], new[workload]
        for label, summary in (("old", a), ("new", b)):
            for key, values in summary["environment"].items():
                if key != "commit" and len(values) > 1:
                    print(f"WARNING {workload}: {label} runs mix environments in {key}: {values}",
                          file=out)
        for key in sorted(set(a["environment"]) | set(b["environment"])):
            if key != "commit" and a["environment"].get(key) != b["environment"].get(key):
                print(f"WARNING {workload}: environment differs in {key}: "
                      f"{a['environment'].get(key)} vs {b['environment'].get(key)}", file=out)
        for name, m in metrics.items():
            if name not in a["end_to_end"] or name not in b["end_to_end"]:
                continue
            x, y = a["end_to_end"][name]["median"], b["end_to_end"][name]["median"]
            change = (y - x) / x
            loss = change if m["better"] == "lower" else -change
            flag = "WORSE" if loss > m["bound"] else ""
            worse += bool(flag)
            print(f"{workload:<20}{name:<18}{x:>12.5g}{y:>12.5g}{change:>+9.1%}  "
                  f"bound {m['bound']:.0%} {flag}", file=out)
    return worse


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("summarize", help="summarize result files as JSON on stdout")
    p.add_argument("results", nargs="+")
    p = sub.add_parser("diff", help="compare two summaries")
    p.add_argument("old")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "summarize":
        json.dump(summarize(args.results), sys.stdout, indent=1)
        print()
        return 0
    with open(args.old, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    return 1 if diff(old, new) else 0


if __name__ == "__main__":
    raise SystemExit(main())
