#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread, one run per seed.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--out FILE]
    python3 perfbench/steady.py --compare FIRST SECOND

Run from the repository root. For each workload it runs
`perfbench/run.py --trace 0` once per seed and reports, for every
end-to-end metric, the median, and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median next
to the metric's bound from BENCHMARK.json. `--out` keeps the raw results;
`--compare` checks that the medians of two such files agree within the
bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def relative_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(command, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d)"
                           % (workload, seed, run.returncode))
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s seed %d: incorrect output" % (workload, seed))
    return result


def report(spec, results):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload, runs in results.items():
        print("\n%s (%d runs)" % (workload, len(runs)))
        print("  %-16s %14s %9s %7s" % ("metric", "median", "IQR/med",
                                          "bound"))
        for name in sorted(bounds):
            values = [r["metrics"][name]["value"] for r in runs]
            spread = relative_spread(values)
            flag = "" if spread < bounds[name] / 3 else (
                "  over bound/3" if spread <= bounds[name] else "  OVER BOUND")
            print("  %-16s %14.6g %9.4f %7.3f%s" % (
                name, statistics.median(values), spread, bounds[name], flag))


def compare(spec, first, second):
    """The second set's medians may not be worse than the first's by more
    than each metric's bound."""
    ok = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower_is_better = metric["better"] == "lower"
        for workload in first:
            a = statistics.median(r["metrics"][name]["value"]
                                  for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"]
                                  for r in second[workload])
            change = (b - a) / a if lower_is_better else (a - b) / a
            status = "ok" if change <= bound else "WORSE"
            ok &= change <= bound
            print("%-12s %-16s %12.6g %12.6g %+8.4f %s" % (
                workload, name, a, b, change, status))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="FILE")
    args = parser.parse_args()
    spec = load_spec()

    if args.compare:
        with open(args.compare[0]) as f:
            first = json.load(f)
        with open(args.compare[1]) as f:
            second = json.load(f)
        return 0 if compare(spec, first, second) else 1

    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    results = {}
    for workload in workloads:
        results[workload] = []
        for seed in parse_seeds(args.seeds):
            results[workload].append(
                run_once(workload, seed, spec["run_seconds"]))
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f)
    report(spec, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
