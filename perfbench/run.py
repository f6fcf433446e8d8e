#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload suite_cycle --seed 1 --seconds 15 --trace 0

Builds the Azul library and the benchmark binary from source into
.bench_build/ (first run only), runs one workload, checks that the
binary reported every metric BENCHMARK.json lists for the mode with the
listed unit, and prints the result as one JSON object on the last line
of standard output. Any failure exits non-zero without printing a
result.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
BINARY = os.path.join(BUILD_DIR, "azul_perfbench")
WORKLOADS = ("suite_cycle", "serve_mixed", "timestep_drift")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures and builds the binary; a lock serialises concurrent runs."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(2, f"no Azul sources under {ROOT}/src; run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "azul_perfbench", "-j", jobs])
        for cmd in steps:
            try:
                # Build output goes to stderr: stdout ends with the result.
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(3, f"build step {' '.join(cmd)} failed: {e}")
            if done.returncode != 0:
                fail(3, f"build step {' '.join(cmd)} exited {done.returncode}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def validate(result, trace):
    """Returns a reason the binary's result is malformed, or None."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"unexpected result keys {sorted(result)}"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return f"{key} is not a whole number"
    if result["attempted"] < 1:
        return "no operation was attempted"
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        return (f"metric names differ from BENCHMARK.json: missing "
                f"{sorted(set(want) - set(got))}, extra "
                f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        value = got[name].get("value")
        if got[name].get("unit") != unit:
            return f"{name} has unit {got[name].get('unit')}, expected {unit}"
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return f"{name} is not a finite number"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--corrupt-check", type=int, default=0,
                        help="corrupt the K-th checked answer (tests)")
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail(2, "--seconds must be >= 1 and --seed >= 0")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORK_DIR]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_check:
        cmd += ["--corrupt-check", str(args.corrupt_check)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(4, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(4, f"{args.workload} exited {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(4, "the benchmark binary printed no result line")
    problem = validate(result, bool(args.trace))
    if problem:
        fail(4, problem)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
