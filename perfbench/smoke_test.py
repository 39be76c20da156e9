#!/usr/bin/env python3
"""Smoke test of the serving benchmark.

    python3 perfbench/smoke_test.py [--workloads serve-hot,...] [--seconds 1]

For every workload, runs perfbench/run.py briefly with --trace 0 and
--trace 1 and asserts that the run exits 0, that every output check passed,
and that every metric BENCHMARK.json names for that mode is printed with its
unit.  It also copies BENCHMARK.json and perfbench/ alone into a temporary
directory under .bench_build/ and asserts that the benchmark fails there
without printing a result, and that serve-cold with windows in arrival order
still shows the known serial-vs-async defect (perfbench/README.md): once the
serving loop is fixed, this check fails and serve-cold can go back to
arrival order.  Runs everything, then exits non-zero if any of these checks
failed.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def check_run(workload, trace, seconds, spec):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    problems = []
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return [f"no JSON result line (exit {proc.returncode}): {proc.stderr[-500:]}"]
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        failed = [l for l in proc.stderr.splitlines() if "CHECK FAILED" in l]
        problems.append(f"checks failed: {failed}")
    if result.get("attempted", 0) < 1 or result.get("failed", 1) != 0:
        problems.append(f"attempted {result.get('attempted')} failed {result.get('failed')}")
    metrics = result.get("metrics", {})
    expected = spec["per_layer" if trace else "end_to_end"]
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {m['name']} printed as {got}")
    extra = set(metrics) - {m["name"] for m in expected}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def check_bare_checkout():
    """Without the sources beside it the benchmark must fail, printing no result."""
    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "serve-hot",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("exit code 0")
    if '"metrics"' in proc.stdout:
        problems.append("printed a result")
    return problems


def check_known_defect():
    """serve-cold in arrival order fails exactly its serial-vs-async check."""
    cmd = [str(ROOT / ".bench_build" / "perfbench" / "serve_bench"),
           "--workload", "serve-cold", "--seed", "1", "--seconds", "1", "--trace", "0",
           "--out-dir", str(ROOT / ".bench_build" / "out"), "--window-order", "arrival"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)
    failed = [l for l in proc.stderr.splitlines() if l.startswith("CHECK FAILED")]
    if proc.returncode == 0:
        return ["serve-cold passes in arrival order: the defect is fixed, so set "
                "sorted_windows back to false in workloads.cpp"]
    if failed != ["CHECK FAILED: serial call digest equals async digest"]:
        return [f"exit {proc.returncode}, failed checks {failed}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()

    failures = 0
    for workload in args.workloads.split(","):
        for trace in (0, 1):
            problems = check_run(workload, trace, args.seconds, spec)
            status = "PASS" if not problems else "FAIL"
            print(f"{status} {workload} --trace {trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    problems = check_known_defect()
    print(f"{'PASS' if not problems else 'FAIL'} serve-cold in arrival order shows the known defect")
    for p in problems:
        print(f"     {p}")
    failures += bool(problems)
    problems = check_bare_checkout()
    print(f"{'PASS' if not problems else 'FAIL'} fails without the sources")
    for p in problems:
        print(f"     {p}")
    failures += bool(problems)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
