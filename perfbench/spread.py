#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workload NAME ...]

Runs the benchmark (untraced) once per seed on each workload and prints,
for every end-to-end metric, the median of the runs and the distance
between their first and third quartiles as a share of the median. A
spread at or above a third of the metric's bound in BENCHMARK.json is
flagged (setup_s is reported but not flagged). Exits 1 if any run fails,
is incorrect, or any spread is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(bench, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append",
                    default=None, help="repeatable; default: all")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    flagged = False
    for w in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res = run_once(bench, w, seed, args.seconds)
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}")
                flagged = True
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print(f"== {w} ({args.runs} runs, {args.seconds} s)")
        for name, bound in bounds.items():
            v = values[name]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            mark = ""
            if name != "setup_s" and spread >= bound / 3:
                mark = "  <-- spread >= bound/3"
                flagged = True
            print(f"  {name:22s} median {med:14.6f}  spread {spread:8.4f}  bound {bound}{mark}")
            print("    values", " ".join(f"{x:.6g}" for x in v))
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
