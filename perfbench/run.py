#!/usr/bin/env python3
"""Repository benchmark: build the benchmark binary from source, run one workload.

    python3 perfbench/run.py --workload <single_loop|fleet|long_horizon> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to build-perfbench/ at the repository root (CMake, Release).
Build output goes to stderr; the binary's report lines and, last, its JSON
result line go to stdout.  Exits non-zero, without a result line, when the
build or the run fails.  See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-perfbench")
BINARY = os.path.join(BUILD, "awd_perfbench")
WORKLOADS = ("single_loop", "fleet", "long_horizon")
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then let CMake rebuild whatever changed."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "awd_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("perfbench: --seed must be >= 0 and --seconds > 0")

    build()
    out_dir = os.path.join(BUILD, "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: benchmark binary exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: last line is not a JSON result")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: result line has unexpected keys")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
