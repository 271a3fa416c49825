#!/usr/bin/env python3
"""Seconds-scale smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload twice untraced and once traced with the same seed at
--seconds 1 (the query-count floors apply), and checks that:
  - every metric BENCHMARK.json names appears with its unit, in the right mode;
  - the exact counts (ks_mean, msgs/bytes/wire bytes per estimate) and the
    estimate digest repeat across invocations, traced runs included;
  - probe-sim and probe-wire produce the same digest and counts;
  - no estimate failed and no run used more threads than the host has CPUs.
A traced run exits non-zero by itself when its replay does not reproduce the
estimates bit for bit, so a passing traced run is the replay check.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = "7"
EXACT = ("ks_mean", "msgs_per_estimate", "bytes_per_estimate",
         "wire_bytes_per_estimate")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "1",
           "--trace", trace]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {out.returncode}\n"
                 f"{out.stderr[-2000:]}")
    lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
    info = next(line["info"] for line in lines if "info" in line)
    return info, lines[-1]


def check_schema(result, schema, where):
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in schema}
    if set(metrics) != set(want):
        sys.exit(f"FAIL {where}: metrics {sorted(set(metrics) ^ set(want))} "
                 "differ from BENCHMARK.json")
    for name, unit in want.items():
        if metrics[name]["unit"] != unit:
            sys.exit(f"FAIL {where}: {name} has unit {metrics[name]['unit']}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    digests = {}
    exact = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, "0"), run(workload, "0"), run(workload, "1")]
        for i, (_, result) in enumerate(runs):
            traced = i == 2
            check_schema(result, bench["per_layer" if traced else "end_to_end"],
                         f"{workload} trace={int(traced)}")
            if result["failed"] != 0:
                sys.exit(f"FAIL {workload}: {result['failed']} estimates failed")
        if len({info["digest"] for info, _ in runs}) != 1:
            sys.exit(f"FAIL {workload}: estimate digests differ across runs")
        counts = [{k: r["metrics"][k]["value"] for k in EXACT}
                  for _, r in runs[:2]]
        if counts[0] != counts[1]:
            sys.exit(f"FAIL {workload}: exact counts differ: {counts}")
        threads = runs[2][1]["metrics"]["proc.threads_max"]["value"]
        if threads > (os.cpu_count() or 1):
            sys.exit(f"FAIL {workload}: {threads} threads on "
                     f"{os.cpu_count()} CPUs")
        digests[workload] = runs[0][0]["digest"]
        exact[workload] = counts[0]
        print(f"ok {workload}: digest {digests[workload]}, "
              f"{int(threads)} threads max")
    if (digests["probe-sim"] != digests["probe-wire"] or
            exact["probe-sim"] != exact["probe-wire"]):
        sys.exit("FAIL probe-sim and probe-wire estimates differ")
    print("ok probe-sim and probe-wire agree bit for bit")


if __name__ == "__main__":
    main()
