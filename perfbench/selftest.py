#!/usr/bin/env python3
"""Benchmark self-test: a short run of every workload, untraced and traced.

    python3 perfbench/selftest.py [--seed N]

Checks, for each workload in BENCHMARK.json:
  * the run exits 0 and its last stdout line is the JSON result;
  * every correctness check passed (correct, failed == 0);
  * the untraced run prints exactly the end_to_end metrics and the traced
    run exactly the per_layer metrics, each with the unit BENCHMARK.json
    gives, and every value is finite (end-to-end values also non-zero);
  * the exact work counts (sim.allocs_per_step, detect.evals_per_step,
    ckpt.bytes_growth_per_kstep) repeat bit for bit in a second traced run
    at the same seed.
Exits 1 on the first failed check.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_COUNTS = ("sim.allocs_per_step", "detect.evals_per_step", "ckpt.bytes_growth_per_kstep")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("%s trace=%d exited %d" % (workload, trace, proc.returncode))
    return json.loads(proc.stdout.splitlines()[-1])


def fail(why):
    print("selftest: FAIL: " + why)
    sys.exit(1)


def check(workload, trace, result, expected, nonzero):
    label = "%s trace=%d" % (workload, trace)
    if not result["correct"] or result["failed"] != 0:
        fail("%s: correctness checks failed (%d of %d)" %
             (label, result["failed"], result["attempted"]))
    got = result["metrics"]
    if sorted(got) != sorted(expected):
        fail("%s: metric names differ: missing %s, extra %s" %
             (label, sorted(set(expected) - set(got)), sorted(set(got) - set(expected))))
    for name, unit in expected.items():
        value = got[name]["value"]
        if got[name]["unit"] != unit:
            fail("%s: %s has unit %r, expected %r" % (label, name, got[name]["unit"], unit))
        if not math.isfinite(value) or (nonzero and value == 0):
            fail("%s: %s = %r" % (label, name, value))
    print("selftest: %s ok (%d metrics, %d operations)" %
          (label, len(got), result["attempted"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        check(workload, 0, run(workload, args.seed, 0), end_to_end, nonzero=True)
        first = run(workload, args.seed, 1)
        check(workload, 1, first, per_layer, nonzero=False)
        second = run(workload, args.seed, 1)
        for name in EXACT_COUNTS:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b:
                fail("%s: %s differs between runs at seed %d: %r vs %r" %
                     (workload, name, args.seed, a, b))
        print("selftest: %s exact counts repeat: %s" %
              (workload, ", ".join("%s=%r" % (n, first["metrics"][n]["value"])
                                   for n in EXACT_COUNTS)))
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
