#!/usr/bin/env python3
"""Runs one workload k times, each with its own seed, and prints the median
and quartiles of every metric: the evidence behind BENCHMARK.json's bounds.

    python3 perfbench/repeat.py --workload serve_churn --runs 10 [--seconds 20]
        [--first-seed 1] [--trace]

Without --trace it reports the end-to-end metrics; with --trace it makes the
same number of traced runs too and reports the per-layer metrics plus the
tracing overhead (traced ops_s against untraced ops_s).  "spread" is
(q3 - q1) / median with statistics.quantiles(values, n=4), the figure each
end-to-end metric's bound must exceed.  Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def bench_config():
    return json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), p.returncode))
    res = json.loads(lines[-1])
    if not res["correct"]:
        raise SystemExit("output check failed: " + " ".join(cmd))
    return {k: v["value"] for k, v in res["metrics"].items()}, res


def summarize(runs, bounds):
    print("%-24s %14s %14s %14s %8s %6s" %
          ("metric", "median", "q1", "q3", "spread", "bound"))
    for name in runs[0]:
        vals = [r[name] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        print("%-24s %14.6g %14.6g %14.6g %8.4f %6s" %
              (name, med, q1, q3, spread, "-" if bound is None else bound))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    a = ap.parse_args()
    cfg = bench_config()
    seconds = a.seconds or cfg["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    seeds = range(a.first_seed, a.first_seed + a.runs)

    e2e = []
    for s in seeds:
        m, res = one_run(a.workload, s, seconds, False)
        print("seed %d: %s" % (s, json.dumps(m)), flush=True)
        e2e.append(m)
    print("\n%s, %d runs of %d s, end-to-end:" % (a.workload, len(e2e), seconds))
    summarize(e2e, bounds)
    if not a.trace:
        return
    layers = []
    for s in seeds:
        m, _ = one_run(a.workload, s, seconds, True)
        layers.append(m)
    print("\n%s, %d traced runs, per-layer:" % (a.workload, len(layers)))
    summarize(layers, {})
    untraced = statistics.median(r["ops_s"] for r in e2e)
    traced = statistics.median(r["traced.ops_s"] for r in layers)
    print("\ntracing overhead: traced ops_s %.6g vs untraced %.6g (%+.2f%%)" %
          (traced, untraced, 100.0 * (traced / untraced - 1.0)))


if __name__ == "__main__":
    main()
