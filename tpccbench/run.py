#!/usr/bin/env python3
"""Build the TPC-C benchmark from source and run one workload.

    python3 tpccbench/run.py --workload tpcc-regions --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/tpccbench (default .bench_build) under the
checkout root. The benchmark binary prints a detail record and, as its last
line, the result object; this script checks that object's shape and prints
it as the last line of its own output. Exit status is the benchmark's: 0 only
when every correctness check passed. A failed build or a missing engine
source tree exits non-zero without printing a result.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tpcc-regions", "tpcc-resident", "tpcc-snapshot-idle")
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "tpccbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "tpccbench"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    if not build(out):
        print("tpccbench: build failed", file=sys.stderr)
        return 1
    cmd = [os.path.join(out, "tpccbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(out, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans, "%s-seed%d.csv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("tpccbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("tpccbench: no result line (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        print("tpccbench: malformed result line", file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
