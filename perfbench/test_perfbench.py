#!/usr/bin/env python3
"""Tests of the repository benchmark itself (perfbench/NOTES.md).

    python3 perfbench/test_perfbench.py

Runs every workload at a tiny size through perfbench/run.py and checks
that each mode emits every metric BENCHMARK.json names with its unit,
that the deterministic metrics repeat exactly, that a corrupted answer
is counted as a failure, and that the benchmark refuses to run without
the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("suite_cycle", "serve_mixed", "timestep_drift")

# Simulated or counted per-layer metrics that must repeat bit for bit.
EXACT_LAYER = (
    "sim.cycles_per_iter", "sim.class_cycles.spmv",
    "sim.class_cycles.sptrsv_fwd", "sim.class_cycles.sptrsv_bwd",
    "sim.class_cycles.vector", "sim.fpu_util.spmv", "sim.fpu_util.sptrsv_fwd",
    "sim.fpu_util.sptrsv_bwd", "sim.fpu_util.vector", "sim.stall_frac",
    "sim.idle_frac", "sim.link_activations_per_iter", "sim.messages_per_iter",
    "sim.spilled_frac", "sim.sram_accesses_per_iter", "mapping.traffic_msgs",
    "mapping.tile_imbalance", "mapping.cache_hits", "mapping.cache_misses",
)
EXACT_E2E = ("sim_gflops", "iters_per_solve")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seed=1, extra=(), script=RUN, cwd=ROOT):
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(workload, trace, seed=1, extra=()):
    done = run(workload, trace, seed, ("--tiny", *extra))
    if done.returncode != 0:
        raise AssertionError(f"{workload} failed:\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().split("\n")[-1])


class MetricsTest(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        s = spec()
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in s[key]}
            for w in WORKLOADS:
                with self.subTest(workload=w, trace=trace):
                    r = result(w, trace)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreater(r["attempted"], 0)
                    got = {k: v["unit"] for k, v in r["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        for name, v in r["metrics"].items():
                            self.assertGreater(v["value"], 0, name)

    def test_deterministic_metrics_repeat_exactly(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, b = result(w, 0, seed=7), result(w, 0, seed=7)
                for name in EXACT_E2E:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)
                a, b = result(w, 1, seed=7), result(w, 1, seed=7)
                for name in EXACT_LAYER:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)

    def test_corrupted_answer_is_a_failure(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r = result(w, 0, extra=("--corrupt-check", "1"))
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)

    def test_refuses_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "test-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            done = run("suite_cycle", 0, script=os.path.join(
                bare, "perfbench", "run.py"), cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
