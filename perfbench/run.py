#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <serve_read|serve_mixed|crossmatch> \
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/CMakeLists.txt (the library
under src/ plus the benchmark program in perfbench/src/) into .bench_build/perfbench;
later runs rebuild only what changed. The program's report goes to standard
output, ending in one JSON line with the run's metrics; the same report is
kept under .bench_build/perfbench/results/. A traced run also writes its
spans under .bench_build/perfbench/traces/.

Exit codes: 0 on a correct run, 1 when a correctness check failed, 2 when
the benchmark could not be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_read", "serve_mixed", "crossmatch")
# A run must end within 180 s, or 900 s when it also builds.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds; returns True when anything was built."""
    if not os.path.isfile(os.path.join(ROOT, "src", "probe.h")):
        fail(f"library sources not found under {os.path.join(ROOT, 'src')}")
    fresh = not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt"))
    if fresh:
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    if subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return fresh


def expected_metrics(trace):
    """Metric names BENCHMARK.json lists for this kind of run, if present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    started = time.monotonic()
    built = build()
    # Flush what the build (or an earlier run) left dirty, so that its
    # writeback does not compete with the run's fsyncs.
    os.sync()
    budget = BUILD_BUDGET_S if built else RUN_BUDGET_S
    remaining = budget - (time.monotonic() - started)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(BUILD, "run", f"{tag}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    for sub in ("results", "traces"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        cmd += ["--trace-out", os.path.join(BUILD, "traces", f"{tag}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, remaining))
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {budget} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.splitlines()
    with open(os.path.join(BUILD, "results", f"{tag}.txt"), "w") as f:
        f.write(proc.stdout)
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"perfbench exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("perfbench's last line is not a JSON result")
    want = expected_metrics(args.trace)
    if want is not None and sorted(want) != sorted(result["metrics"]):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("reported metrics differ from BENCHMARK.json: "
             f"{sorted(set(want) ^ set(result['metrics']))}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
