#!/usr/bin/env python3
"""Builds the end-to-end benchmark and runs it.

Run from the repository root:

    python3 e2e_bench/run.py --workload read_mostly --seed 1 --seconds 30 --trace 0

builds e2e_bench/ (CMake, into $CARGO_TARGET_DIR/e2e_bench, default
.bench_build/e2e_bench), runs the workload in its own process, prints every
metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (spans written to <build>/traces/). --workload all runs
every workload with both --trace 0 and --trace 1, one process each.

Exits nonzero when the build fails, an output check fails, or the run
does not finish in time; no result line is printed then, unless the run
itself reported the failed check.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("read_mostly", "write_contended", "service_striped")
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "e2e_bench")


def build(directory):
    """Configures (once) and builds the driver; output goes to stderr."""
    if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", directory, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", directory, "--target", "e2e_bench", "-j", jobs]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def run_one(directory, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result or None)."""
    command = [os.path.join(directory, "e2e_bench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = os.path.join(directory, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        print(done.stdout, end="")
        print(f"error: {workload} exited {done.returncode} without a result", file=sys.stderr)
        return done.returncode or 1, None
    print("\n".join(lines[:-1]))
    return done.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    directory = build_dir()
    if not build(directory):
        print("error: build failed", file=sys.stderr)
        return 1
    if args.workload != "all":
        code, result = run_one(directory, args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return code or 1
        print(json.dumps(result))
        return code
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_one(directory, workload, args.seed, args.seconds, trace)
            status = status or code
            if result is not None:
                print(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
