#!/usr/bin/env python3
"""Run-to-run stability of the serving benchmark.

    python3 perfbench/stability.py [--workloads serve-hot,serve-cold] [--runs 10]
                                   [--first-seed 1] [--seconds 10] [--trace 0]

Runs perfbench/run.py N times per workload, each time with the next seed,
and prints per metric the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median.  For
end-to-end metrics it also prints the bound from BENCHMARK.json and flags a
spread at or above a third of it.  The summary is also written to
.bench_build/out/stability-<workload>-trace<t>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, wall, result, proc.stderr


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))
    return med, q1, q3, spread


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out_dir = ROOT / ".bench_build" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    all_ok = True
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        walls = []
        incorrect = []
        for i in range(args.runs):
            seed = args.first_seed + i
            code, wall, result, err = run_once(workload, seed, args.seconds, args.trace)
            walls.append(wall)
            if code != 0 or not result.get("correct", False):
                incorrect.append(seed)
                sys.stderr.write(f"{workload} seed {seed}: exit {code}\n{err[-2000:]}")
            for name, metric in result.get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"\n== {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds:g} s each, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s per run")
        if incorrect:
            all_ok = False
            print(f"   runs with failed checks or non-zero exit: seeds {incorrect}")
        print(f"   {'metric':40s} {'unit':9s} {'median':>14s} {'q1':>14s} {'q3':>14s}"
              f" {'spread':>8s} {'bound':>6s}")
        summary = {}
        for name, vals in sorted(values.items()):
            med, q1, q3, spread = summarize(vals)
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
                all_ok = False
            print(f"   {name:40s} {units[name]:9s} {med:14.6g} {q1:14.6g} {q3:14.6g}"
                  f" {spread:8.4f} {bound if bound is not None else '':>6}{flag}")
            summary[name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                             "spread": spread, "unit": units[name]}
        path = out_dir / f"stability-{workload}-trace{args.trace}.json"
        path.write_text(json.dumps({"args": vars(args), "walls": walls,
                                    "incorrect_seeds": incorrect, "metrics": summary},
                                   indent=1))
    sys.exit(0 if all_ok else 1)


if __name__ == "__main__":
    main()
