#!/usr/bin/env python3
"""Builds and runs the CloudViews end-to-end benchmark.

Usage, from the root of a source tree:

    python3 e2e_bench/run.py --workload table1 --seed 1 --seconds 10 --trace 0

The first run configures and builds e2e_bench/ (which compiles the engine
from src/) into .bench_build/e2e_bench; later runs rebuild incrementally.
Each run then runs the driver's arithmetic tests, the output-correctness
check over a prefix of the workload, and the timed measurement. The last
line of standard output is the measurement's JSON result. The exit code is
non-zero when the sources are missing, the build fails, a check fails or a
job fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2e_bench")
WORKLOADS = ("table1", "fleet_history", "burst_shared")


def fail(message):
    print(f"e2e_bench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture=False):
    """Runs cmd, waiting for it to end; build chatter goes to stderr."""
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                              stdout=subprocess.PIPE if capture else sys.stderr)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("engine sources (src/) not found next to e2e_bench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        if run(["cmake", "-S", HERE, "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"], 300).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if run(["cmake", "--build", BUILD, "-j", jobs], 840).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    test = os.path.join(BUILD, "bench_math_test")
    if os.path.isfile(test):
        if run([test], 60, capture=True).returncode != 0:
            fail("arithmetic tests failed")

    binary = os.path.join(BUILD, "e2e_bench")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    check = run([binary, "check"] + common, 120, capture=True)
    print(check.stdout, end="", flush=True)
    if check.returncode != 0:
        fail("output check failed")

    cmd = [binary, "measure"] + common + [
        "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    measure = run(cmd, args.seconds + 120, capture=True)
    print(measure.stdout, end="", flush=True)
    sys.exit(measure.returncode)


if __name__ == "__main__":
    main()
