#!/usr/bin/env python3
"""Short-run smoke test of the benchmark.

    python3 perfbench/smoke.py [--seconds 1] [--workload NAME ...]

For every workload, runs the benchmark twice untraced and twice traced
with the same seed, and checks that:

- each run is correct and nothing failed (`ok_ratio` is 1);
- every metric BENCHMARK.json names appears, with its unit;
- the count and byte metrics repeat exactly across the two runs
  (scheduler gauges excepted);
- each traced run wrote its Perfetto file, and it parses.

Exits 1 on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts that follow the scheduler or the operating system, not the
# computation, and so may differ between two runs.
GAUGES = {"math.pool_runs", "math.pool_steals", "net.server_threads_peak"}


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def run(workload, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        fail(f"{workload} trace={trace}: exit code {out.returncode}")
    lines = out.stdout.strip().splitlines()
    record = json.loads(lines[-2])["run_record"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload}: result keys {sorted(result)}")
    return record, result


def check(workload, specs, record, result, trace):
    tag = f"{workload} trace={trace}"
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{tag}: correct={result['correct']} failed={result['failed']} "
             f"attempted={result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != {s["name"] for s in specs}:
        missing = {s["name"] for s in specs} - set(metrics)
        extra = set(metrics) - {s["name"] for s in specs}
        fail(f"{tag}: missing {sorted(missing)}, unlisted {sorted(extra)}")
    for s in specs:
        got = metrics[s["name"]]
        if got["unit"] != s["unit"]:
            fail(f"{tag}: {s['name']} unit {got['unit']!r}, expected {s['unit']!r}")
        if not isinstance(got["value"], (int, float)):
            fail(f"{tag}: {s['name']} value {got['value']!r}")
    if not trace and metrics["ok_ratio"]["value"] != 1:
        fail(f"{tag}: ok_ratio {metrics['ok_ratio']['value']}")
    if trace:
        with open(record["perfetto"]) as f:
            events = json.load(f)["traceEvents"]
        if not any(e.get("cat") == "perfbench" for e in events):
            fail(f"{tag}: Perfetto file holds no benchmark spans")


def exact(specs):
    return [s["name"] for s in specs
            if s["unit"] in ("count", "B") and s["name"] not in GAUGES]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=1)
    ap.add_argument("--workload", action="append", default=None)
    args = ap.parse_args()
    for w in args.workload or [w["name"] for w in bench["workloads"]]:
        for trace, specs in [(0, bench["end_to_end"]), (1, bench["per_layer"])]:
            runs = [run(w, args.seconds, trace) for _ in range(2)]
            for record, result in runs:
                check(w, specs, record, result, trace)
            for name in exact(specs):
                a, b = (r["metrics"][name]["value"] for _, r in runs)
                if a != b:
                    fail(f"{w} trace={trace}: {name} differs across runs: {a} vs {b}")
            print(f"smoke: {w} trace={trace}: ok ({len(specs)} metrics, "
                  f"{len(exact(specs))} exact)")
    print("smoke: OK")


if __name__ == "__main__":
    main()
