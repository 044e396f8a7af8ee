#!/usr/bin/env python3
"""Tests of lfo_bench itself: a tiny run of every workload in both modes.

    python3 lfo_bench/test_lfo_bench.py

Each run must pass its own output checks and report every metric that
BENCHMARK.json names for its mode, finite and with that unit. The traced
runs must also close the serving ledger: the per-layer parts of
LfoCache::access add up to ShardedLfoCache::access within LEDGER_BOUND.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The serving ledger closes when self + extract + observe + predict x
# predicts-per-request (all per request, timed per call) is within this
# share of the separately timed ShardedLfoCache::access. The gap holds
# the shard layer itself (hash, lock, stats reads): a few percent.
LEDGER_BOUND = 0.15


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_tiny(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done, result


class LfoBenchTest(unittest.TestCase):
    def test_spec_keys(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        e2e = {m["name"]: m for m in spec["end_to_end"]}
        self.assertIn("setup_s", e2e)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25, m["name"])
        # setup_s carries the largest bound: its spread is not gated.
        self.assertEqual(e2e["setup_s"]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def check_run(self, workload, trace):
        spec = load_spec()
        done, result = run_tiny(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        rows = spec["per_layer"] if trace else spec["end_to_end"]
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {row["name"] for row in rows})
        for row in rows:
            m = metrics[row["name"]]
            self.assertTrue(math.isfinite(m["value"]), row["name"])
            self.assertEqual(m["unit"], row["unit"], row["name"])
        return metrics

    def check_ledger(self, metrics):
        v = {name: m["value"] for name, m in metrics.items()}
        access = v["sharded_cache.access_ns_per_req"]
        parts = (v["lfo_cache.self_ns_per_req"] +
                 v["features.extract_ns_per_req"] +
                 v["features.observe_ns_per_req"] +
                 v["gbdt.predict_ns_per_call"] * v["gbdt.predicts_per_req"])
        self.assertGreater(v["lfo_cache.self_ns_per_req"], 0.0,
                           "extract + observe + predict exceed the access")
        self.assertLessEqual(abs(access - parts) / access, LEDGER_BOUND,
                             "ledger parts %.1f ns vs access %.1f ns" %
                             (parts, access))
        self.assertAlmostEqual((access - parts) / access,
                               v["obs.ledger_gap_frac"], places=6)


def add_workload_tests():
    for row in load_spec()["workloads"]:
        name = row["name"]

        def untraced(self, name=name):
            metrics = self.check_run(name, 0)
            self.assertGreater(metrics["throughput_rps"]["value"], 0.0)

        def traced(self, name=name):
            metrics = self.check_run(name, 1)
            self.check_ledger(metrics)
            self.assertGreaterEqual(metrics["rollout.activated"]["value"], 1)

        setattr(LfoBenchTest, "test_%s_untraced" % name, untraced)
        setattr(LfoBenchTest, "test_%s_traced" % name, traced)


add_workload_tests()

if __name__ == "__main__":
    unittest.main()
