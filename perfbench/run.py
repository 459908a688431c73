#!/usr/bin/env python3
"""Builds and runs one workload of the Clusterfile benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the pfm
library and the cfbench driver from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls reuse that build. The last line
of standard output is the driver's JSON result; the exit status is non-zero
when the build fails or any correctness check does.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("small_strided_mismatch", "bulk_replicated_file", "relayout_view_churn")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures and builds cfbench; returns the binary path or exits."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", build_dir, "--target", "cfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % log_path)
    return os.path.join(build_dir, "cfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(target, "perfbench"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", os.path.join(target, "perfbench-out")]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: cfbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        sys.exit("perfbench: cfbench printed nothing (exit %d)" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: cfbench's last line is not JSON (exit %d)" % proc.returncode)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        sys.stderr.write("perfbench: metrics or units differ from BENCHMARK.json: %s\n"
                         % sorted(set(got.items()) ^ set(expected.items())))
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
