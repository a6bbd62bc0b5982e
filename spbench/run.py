#!/usr/bin/env python3
"""Build and run the spstream benchmark from the root of a checkout.

    python3 spbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds spbench/ (which compiles the library from src/) into
.bench_build/spbench, runs the benchmark's self-tests, runs one workload and
prints its result as the last line of standard output: one JSON object with
the keys correct, attempted, failed and metrics. Build output and
diagnostics go to standard error. A traced run also writes its spans as
Chrome trace JSON under .bench_build/traces/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "spbench")


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            fail("cmake configure failed")
    compile_ = subprocess.run(
        ["cmake", "--build", BUILD, "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if compile_.returncode != 0:
        fail("build failed")


def check_metric_names(spec):
    """The binary's metric and workload names must be BENCHMARK.json's."""
    listing = subprocess.run(
        [os.path.join(BUILD, "spbench"), "--list-metrics"],
        capture_output=True, text=True)
    if listing.returncode != 0:
        fail("spbench --list-metrics failed")
    declared = {"end_to_end": [], "per_layer": [], "workload": []}
    for line in listing.stdout.splitlines():
        kind, name = line.split()[:2]
        declared[kind].append(name)
    for kind in ("end_to_end", "per_layer"):
        names = [m["name"] for m in spec[kind]]
        if sorted(names) != sorted(declared[kind]):
            fail("%s metrics differ from BENCHMARK.json: %s vs %s"
                 % (kind, sorted(declared[kind]), sorted(names)))
    workloads = [w["name"] for w in spec["workloads"]]
    if sorted(workloads) != sorted(declared["workload"]):
        fail("workloads differ from BENCHMARK.json")


def check_result(spec, result, trace):
    """Every printed metric must be one BENCHMARK.json lists, with its unit."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("unexpected result keys %s" % sorted(result))
    expected = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    if sorted(result["metrics"]) != sorted(units):
        fail("printed metrics %s are not BENCHMARK.json's %s"
             % (sorted(result["metrics"]), sorted(units)))
    for name, metric in result["metrics"].items():
        if metric["unit"] != units[name]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (name, metric["unit"], units[name]))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %s" % args.workload)

    build()
    selftest = subprocess.run([os.path.join(BUILD, "spbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        fail("self-tests failed")
    check_metric_names(spec)

    command = [os.path.join(BUILD, "spbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True)
    if run.returncode != 0:
        fail("spbench exited with %d" % run.returncode)
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("spbench printed no result")
    result = json.loads(lines[-1])
    check_result(spec, result, args.trace == 1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
