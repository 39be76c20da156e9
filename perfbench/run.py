#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 10 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
.bench_build/perfbench under the repository root, runs it, and prints one
JSON object as the last line of standard output:

    {"correct": true, "attempted": n, "failed": n, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer metrics.  Exits non-zero when the build fails,
an output check fails or a metric is missing.  See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BUILD_DIR = BUILD / "perfbench"
OUT_DIR = BUILD / "out"
BINARY = BUILD_DIR / "serve_bench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then rebuilds incrementally; the log stays on disk."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "perfbench-build.log"
    with open(log_path, "w") as log:
        if not (BUILD_DIR / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False, log_path
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "serve_bench", "-j", jobs]
        ok = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode == 0
    return ok, log_path


def run_binary(args):
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"serve_bench timed out after {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"serve_bench printed nothing (exit {proc.returncode})")
    try:
        last = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"serve_bench's last line is not JSON (exit {proc.returncode})")
    return proc.returncode, lines[:-1], last


def expected_metrics(trace):
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    ok, log_path = build()
    if not ok:
        sys.stderr.write(log_path.read_text()[-4000:])
        fail("build failed")
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    code, info, result = run_binary(args)
    for line in info:
        print(line)
    metrics = result.get("metrics", {})

    expected = expected_metrics(args.trace)
    missing = []
    if expected is not None:
        for name, unit in expected.items():
            if metrics.get(name, {}).get("unit") != unit:
                missing.append(name)
        if missing:
            result["correct"] = False
            print(f"perfbench: missing or mis-unitted metrics: {missing}", file=sys.stderr)

    record = {"args": vars(args), "info": info, "result": result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    sys.exit(0 if code == 0 and not missing and result.get("correct") else 1)


if __name__ == "__main__":
    main()
