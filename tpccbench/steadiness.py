#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and report each metric's
median and spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles).

    python3 tpccbench/steadiness.py --seconds 20 --seeds 1-10 \
        [--workloads tpcc-regions,tpcc-resident] [--trace 0] [--out FILE] \
        [--compare EARLIER.json]

Every run must pass its correctness checks. With --out the per-run values,
medians and spreads are written as JSON. With --compare each median is also
given as its change from the same metric's median in an earlier --out file,
and the digests and simulated-clock values are compared seed by seed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402

# End-to-end metrics of the simulated clock: equal for equal seeds.
SIM_METRICS = ("throughput_sim", "resp_p50_ms_sim", "resp_p999_ms_sim",
               "stocklevel_p50_ms_sim", "write_amp", "read_ios_per_txn")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)["workloads"]

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            start = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            elapsed = time.time() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed,
                                                        proc.returncode))
                ok = False
                continue
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            ok = ok and result["correct"]
            runs.append({"seed": seed, "elapsed_s": round(elapsed, 1),
                         "digest": detail["digest"],
                         "samples": detail["samples"],
                         "setup_samples_s": detail["setup_samples_s"],
                         "metrics": {k: v["value"]
                                     for k, v in result["metrics"].items()}})
            print("%s seed %d: %.1f s, correct=%s" %
                  (workload, seed, elapsed, result["correct"]), flush=True)
        before = earlier.get(workload, {})
        summary = {}
        for name in runs[0]["metrics"] if runs else []:
            values = [r["metrics"][name] for r in runs]
            summary[name] = {"median": statistics.median(values),
                             "spread": spread(values)}
            line = "  %-34s median %14.6g  spread %6.2f%%" % (
                name, summary[name]["median"], 100 * summary[name]["spread"])
            old = before.get("summary", {}).get(name)
            if old and old["median"]:
                summary[name]["moved"] = summary[name]["median"] / old["median"] - 1
                line += "  moved %+6.2f%%" % (100 * summary[name]["moved"])
            print(line)
        if before:
            old_runs = {r["seed"]: r for r in before["runs"]}
            same = [r["seed"] for r in runs if r["seed"] in old_runs and
                    r["digest"] == old_runs[r["seed"]]["digest"] and
                    all(r["metrics"][k] == old_runs[r["seed"]]["metrics"][k]
                        for k in r["metrics"] if k in SIM_METRICS)]
            print("  digest and simulated-clock metrics equal to the earlier set on "
                  "%d of %d seeds" % (len(same), len(runs)))
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
