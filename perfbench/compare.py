#!/usr/bin/env python3
"""Compares two benchmark result files metric by metric.

    python3 perfbench/compare.py BASE NEW [--bench BENCHMARK.json]
    python3 perfbench/compare.py --self-test

A result file holds one JSON object per line, as perfbench/sweep.py writes
them: {"workload": ..., "seed": ..., "trace": ..., "result": <the run's last
output line>}. For every workload in both files and every end-to-end metric of
BENCHMARK.json, the tool takes the median of each side and reports how much
worse NEW is than BASE as a share of BASE's median. A change worse than the
metric's bound is a regression; when either side's quartile spread (Q3 - Q1
over the median) exceeds the bound the metric is unresolved instead, unless
every NEW run beats every BASE run. Each workload gets its own summary row.
Exit status 1 when any metric regressed. Standard library only.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_results(path, trace=0):
    """{workload: [result, ...]} of the runs with the given trace flag."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("trace", 0) == trace:
                runs.setdefault(rec["workload"], []).append(rec["result"])
    return runs


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def spread(vals):
    """Quartile spread as a share of the median (0 for fewer than 2 values)."""
    if len(vals) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse_share(base, new, better):
    """How much worse new is than base, as a share of base (< 0: better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / base
    return change if better == "lower" else -change


def compare(base_runs, new_runs, metrics):
    """Rows of (workload, metric, base_med, new_med, worse, bound, verdict)."""
    rows = []
    for workload in sorted(set(base_runs) & set(new_runs)):
        for m in metrics:
            b, n = values(base_runs[workload], m["name"]), values(new_runs[workload], m["name"])
            if not b or not n:
                rows.append((workload, m["name"], None, None, None, m["bound"], "missing"))
                continue
            bm, nm = statistics.median(b), statistics.median(n)
            worse = worse_share(bm, nm, m["better"])
            lower = m["better"] == "lower"
            all_better = max(n) < min(b) if lower else min(n) > max(b)
            if max(spread(b), spread(n)) > m["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict = "regression"
            else:
                verdict = "ok"
            rows.append((workload, m["name"], bm, nm, worse, m["bound"], verdict))
    return rows


def report(rows, out=sys.stdout):
    by_workload = {}
    for row in rows:
        by_workload.setdefault(row[0], []).append(row)
    out.write("%-24s %-8s %s\n" % ("workload", "verdict", "regressed metrics; unresolved"))
    for workload, wrows in by_workload.items():
        bad = [r[1] for r in wrows if r[6] == "regression"]
        unsure = [r[1] for r in wrows if r[6] in ("unresolved", "missing")]
        verdict = "REGRESS" if bad else ("UNSURE" if unsure else "ok")
        detail = ", ".join(bad)
        if unsure:
            detail += ("; " if bad else "") + "unresolved: " + ", ".join(unsure)
        out.write("%-24s %-8s %s\n" % (workload, verdict, detail))
    out.write("\n%-24s %-18s %14s %14s %9s %6s  %s\n" %
              ("workload", "metric", "base median", "new median", "worse", "bound", "verdict"))
    for w, m, bm, nm, worse, bound, verdict in rows:
        if bm is None:
            out.write("%-24s %-18s %14s %14s %9s %6.2f  %s\n" % (w, m, "-", "-", "-", bound, verdict))
        else:
            out.write("%-24s %-18s %14.4g %14.4g %+8.1f%% %6.2f  %s\n" %
                      (w, m, bm, nm, 100 * worse, bound, verdict))
    return any(r[6] == "regression" for r in rows)


def self_test():
    fixtures = os.path.join(HERE, "fixtures")
    with open(os.path.join(fixtures, "bench.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base = load_results(os.path.join(fixtures, "base.jsonl"))
    new = load_results(os.path.join(fixtures, "new.jsonl"))
    verdicts = {(r[0], r[1]): r[6] for r in compare(base, base, metrics)}
    assert set(verdicts.values()) == {"ok"}, verdicts
    verdicts = {(r[0], r[1]): r[6] for r in compare(base, new, metrics)}
    expected = {
        ("alpha", "latency_us"): "regression",  # 20% slower, bound 10%
        ("alpha", "ops_per_s"): "ok",           # 5% slower, bound 10%
        ("beta", "latency_us"): "ok",           # faster
        ("beta", "ops_per_s"): "unresolved",    # new side spreads past the bound
    }
    assert verdicts == expected, verdicts
    assert abs(spread([1, 2, 3, 4, 5]) - 1.0) < 1e-9
    assert worse_share(100, 90, "higher") == 0.1 and worse_share(100, 90, "lower") == -0.1
    with open(os.devnull, "w") as sink:
        assert report(compare(base, new, metrics), sink) is True
        assert report(compare(base, base, metrics), sink) is False
    print("compare.py self-test passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?")
    ap.add_argument("new", nargs="?")
    ap.add_argument("--bench", default=os.path.join(HERE, "..", "BENCHMARK.json"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        ap.error("BASE and NEW result files are required")
    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    rows = compare(load_results(args.base), load_results(args.new), metrics)
    return 1 if report(rows) else 0


if __name__ == "__main__":
    sys.exit(main())
