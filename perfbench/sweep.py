#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 perfbench/sweep.py --out results.jsonl [--workloads a,b]
                               [--seeds 1-10] [--trace 0] [--seconds S]

Run from the repository root. Each run's result is appended to --out as one
JSON line (the input format of perfbench/compare.py). Afterwards, per
workload and metric, prints the median, the quartile spread as a share of
the median, and the metric's bound from BENCHMARK.json, flagging spreads at
or above a third of the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    failed = False
    for workload in args.workloads.split(","):
        results = []
        for seed in seed_list(args.seeds):
            t0 = time.time()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = proc.returncode == 0 and result["correct"]
            failed = failed or not ok
            print("%s seed %d: exit %d correct %s, %.1f s" %
                  (workload, seed, proc.returncode, result["correct"], time.time() - t0),
                  flush=True)
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "trace": args.trace, "result": result}) + "\n")
            results.append(result)
        for m in metrics:
            vals = compare.values(results, m["name"])
            bound = m.get("bound")
            s = compare.spread(vals)
            flag = bound is not None and s >= bound / 3
            print("  %-36s median %14.6g  spread %6.1f%%  bound %s%s" %
                  (m["name"], statistics.median(vals), 100 * s,
                   "-" if bound is None else "%.0f%%" % (100 * bound),
                   "  <-- spread >= bound/3" if flag else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
