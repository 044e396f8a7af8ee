#!/usr/bin/env python3
"""Build and run lfo_bench, libLFO's serving and learning-loop benchmark.

    python3 lfo_bench/run.py --workload hot_zipf --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout. The first run configures and
builds lfo_bench/ (which compiles ../src) into .bench_build/; later runs
only rebuild what changed. The last line of stdout is the result object
({"correct", "attempted", "failed", "metrics"}); --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones, and
the traced run also writes its spans to .bench_build/spans/. Build output
goes to stderr. Exit codes: 0 all checks passed, 1 a check or exchange
failed, 2 bad arguments or the build failed, 3 the result does not match
BENCHMARK.json.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "lfo_bench")
RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build lfo_bench; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "lfo_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=880)
        except (OSError, subprocess.TimeoutExpired) as err:
            log("build step failed:", err)
            return False
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def validate(result, trace):
    """Problems with the result object, as a list of strings."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    expected = expected_metrics(trace)
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append("metric names differ from BENCHMARK.json: "
                        "missing %s, extra %s" % (
                            sorted(set(expected) - set(metrics)),
                            sorted(set(metrics) - set(expected))))
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s is not a finite number: %r" % (name, value))
        if m.get("unit") != unit:
            problems.append("%s has unit %r, expected %r" % (
                name, m.get("unit"), unit))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (for the benchmark's tests)")
    args = parser.parse_args()

    started = time.monotonic()
    if not build():
        return 2
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(10, RUN_TIMEOUT_S -
                                          (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        log("lfo_bench timed out")
        return 1
    lines = done.stdout.splitlines()
    if done.returncode == 2 or not lines:
        log("lfo_bench exited with", done.returncode)
        return 2 if done.returncode == 2 else 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line is not a result object:", lines[-1])
        return 1
    problems = validate(result, args.trace)
    for problem in problems:
        log(problem)
    print(json.dumps(result), flush=True)
    if problems:
        return 3
    return 0 if done.returncode == 0 and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
