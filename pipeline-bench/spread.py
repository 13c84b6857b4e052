#!/usr/bin/env python3
"""Run the pipeline benchmark on several seeds and summarise each metric.

Usage (from the repository root):

    python3 pipeline-bench/spread.py [--workloads a,b] [--seeds 1-10]
        [--seconds N] [--trace 0|1]

For every workload and metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median, and checks each end-to-end spread against a third of
the metric's bound in BENCHMARK.json. It also reports the share of
failed operations per workload. Exits 1 if any run failed or any spread
is over a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values, shares = {}, []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", args.trace]
            start = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.monotonic() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                ok = False
            shares.append(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s wall, correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed", flush=True)
        print(f"== {workload}: failed share per run {sorted(set(shares))}")
        for name, vs in values.items():
            if len(vs) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds.get(name) if args.trace == "0" else None
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- over a third of the bound"
                ok = False
            print(f"  {name:<28} median {q2:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f}" + (f" (bound {bound})" if bound is not None else "") + flag)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
