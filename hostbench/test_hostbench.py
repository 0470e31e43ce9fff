#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest hostbench/test_hostbench.py

They drive hostbench/run.py end to end (building on first use): a short
untraced smoke run of every workload, one short traced run of every workload
with its bypass checks, a run whose expected answer is deliberately
corrupted, and a run in a tree that holds only the benchmark.
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
WORKLOADS = ("local_direct", "kv_ring", "shm_bulk")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, seconds=1, extra=(), cwd=ROOT, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def bypassed(proc):
    """Per-layer metrics run.py filled in as 0 for this workload."""
    for line in proc.stderr.splitlines():
        if "bypassed, reported as 0:" in line:
            return set(line.split(":", 2)[2].split())
    return set()


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class HostBenchTest(unittest.TestCase):
    traced = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            cls.traced[w] = run(w, trace=1)

    def check_ok(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        res = result_of(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(set(res["metrics"]), set(names))
        return res

    def test_smoke_untraced_every_workload(self):
        want = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = self.check_ok(run(w, trace=0), want)
                for name, m in res["metrics"].items():
                    self.assertEqual(m["unit"], want[name])
                    self.assertGreater(m["value"], 0, name)

    def test_traced_names_match_benchmark_json(self):
        want = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        never_measured = set(want)
        for w in WORKLOADS:
            with self.subTest(workload=w):
                res = self.check_ok(self.traced[w], want)
                for name, m in res["metrics"].items():
                    self.assertEqual(m["unit"], want[name])
                never_measured &= bypassed(self.traced[w])
        # Every per-layer metric is measured by some workload.
        self.assertEqual(never_measured, set())

    def test_traced_runs_confirm_each_bypass(self):
        local = result_of(self.traced["local_direct"])["metrics"]
        self.assertEqual(local["xcall.posts_per_op"]["value"], 0)
        self.assertEqual(local["rt.direct_frac"]["value"], 1)
        ring = result_of(self.traced["kv_ring"])["metrics"]
        self.assertEqual(ring["xcall.direct_frac"]["value"], 0)
        self.assertGreater(ring["xcall.posts_per_op"]["value"], 0)
        bulk = result_of(self.traced["shm_bulk"])["metrics"]
        self.assertEqual(bulk["copy.cells_per_bulk_call"]["value"], 1.0)
        self.assertEqual(bulk["xcall.posts_per_op"]["value"], 0)

    def test_corrupted_expected_value_is_a_failed_op(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                proc = run(w, trace=0, extra=("--corrupt-check", "100"))
                self.assertNotEqual(proc.returncode, 0)
                res = result_of(proc)
                self.assertFalse(res["correct"])
                self.assertEqual(res["failed"], 1)

    def test_tree_without_sources_fails_without_a_result(self):
        top = os.path.join(ROOT, ".bench_build", "selftest-nosrc")
        shutil.rmtree(top, ignore_errors=True)
        os.makedirs(top)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), top)
        shutil.copytree(HERE, os.path.join(top, "hostbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        cmd = [sys.executable, os.path.join("hostbench", "run.py"),
               "--workload", "kv_ring", "--seed", "1", "--seconds", "1",
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=top, env=env, capture_output=True,
                              text=True, timeout=180)
        shutil.rmtree(top, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
