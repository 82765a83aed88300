#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The library under src/ and the benchmark binary
under perfbench/src/ are compiled into $CARGO_TARGET_DIR (default .bench_build) by
perfbench/CMakeLists.txt; build output goes to stderr. The binary's last
stdout line, one JSON object, is checked against the metric names that
BENCHMARK.json declares for the mode and then printed as this script's last
line. Exits nonzero, printing no result, when the build or that check fails.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run must end within 180 s; leave the rest for the build check.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir, target):
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", out_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out_dir, "-j", jobs, "--target",
                    target], stdout=sys.stderr, check=True)


def without_aslr(command):
    """Prefixes `command` with `setarch -R` when that works here.

    Address-space randomization moves the library's large arrays relative
    to each other from process to process; on a 4-core VM that alone made
    whole runs ~30% slower in about a third of processes. A fixed layout
    keeps one process comparable with the next.
    """
    probe = ["setarch", platform.machine(), "-R", "true"]
    try:
        if subprocess.run(probe, stderr=subprocess.DEVNULL).returncode == 0:
            return probe[:3] + command
    except OSError:
        pass
    return command


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns None when `line` is a well-formed result, else the problem."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "unexpected keys %s" % sorted(result)
    declared = declared_metrics(trace)
    if declared is not None and set(result["metrics"]) != declared:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s" % (
            sorted(declared - set(result["metrics"])),
            sorted(set(result["metrics"]) - declared))
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own checks instead")
    args = parser.parse_args()

    out_dir = build_dir()
    try:
        if args.selftest:
            build(out_dir, "perfbench_selftest")
            native = subprocess.run(
                [os.path.join(out_dir, "perfbench_selftest")]).returncode
            script = subprocess.run(
                [sys.executable, "-B",
                 os.path.join(BENCH_DIR, "test_steady.py")]).returncode
            return native or script
        if not args.workload:
            parser.error("--workload is required")
        build(out_dir, "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 2

    # The out-of-core engine spills its block file under TMPDIR.
    tmp = os.path.join(out_dir, "tmp")
    traces = os.path.join(out_dir, "traces")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    command = [os.path.join(out_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        run = subprocess.run(without_aslr(command), stdout=subprocess.PIPE, text=True,
                             env=dict(os.environ, TMPDIR=tmp),
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the workload did not finish in %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 2
    lines = run.stdout.strip().splitlines()
    if not lines:
        print("run.py: the workload printed no result (exit %d)"
              % run.returncode, file=sys.stderr)
        return run.returncode or 2
    problem = check_result(lines[-1], args.trace)
    if problem:
        print("run.py: %s" % problem, file=sys.stderr)
        return 2
    print(lines[-1])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
