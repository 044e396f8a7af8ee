#!/usr/bin/env python3
"""Tests for tools/bench_diff.py — the bench-history regression gate.

Synthesizes BENCH_history.jsonl fixtures in a temp dir and checks the
exit-code contract run_bench.sh and CI rely on:
  0 — no baseline yet, or no throughput metric dropped > threshold
  1 — a `*_per_sec`-style metric regressed by more than the threshold
  2 — unusable input (missing history, no shared numeric metrics)
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIFF = REPO_ROOT / "tools" / "bench_diff.py"


def run_diff(*argv, cwd):
    return subprocess.run(
        [sys.executable, str(BENCH_DIFF), *argv],
        cwd=cwd, capture_output=True, text=True)


def history_entry(revision, per_sec, extra=None):
    result = {"bench": "fig7_throughput",
              "flat_single_preds_per_sec": per_sec,
              "ns_per_pred": 1e9 / per_sec}
    if extra:
        result.update(extra)
    return {"revision": revision, "date": "2026-08-07T00:00:00Z",
            "bench": "BENCH_fig7.json", "result": result}


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = pathlib.Path(self._tmp.name)
        self.addCleanup(self._tmp.cleanup)

    def write_history(self, entries, name="BENCH_history.jsonl"):
        path = self.dir / name
        with path.open("w") as f:
            for entry in entries:
                f.write(json.dumps(entry) + "\n")
        return path

    def test_missing_history_is_an_error(self):
        proc = run_diff("--history", "nope.jsonl", cwd=self.dir)
        self.assertEqual(proc.returncode, 2, proc.stderr)

    def test_single_entry_has_no_baseline_and_passes(self):
        self.write_history([history_entry("aaa", 1.0e6)])
        proc = run_diff(cwd=self.dir)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("nothing to diff", proc.stdout)

    def test_improvement_passes(self):
        self.write_history([history_entry("aaa", 1.0e6),
                            history_entry("bbb", 1.3e6)])
        proc = run_diff(cwd=self.dir)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("OK", proc.stdout)
        self.assertIn("improvement", proc.stdout)

    def test_small_drop_within_threshold_passes(self):
        self.write_history([history_entry("aaa", 1.0e6),
                            history_entry("bbb", 0.95e6)])
        proc = run_diff(cwd=self.dir)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_regression_beyond_threshold_fails(self):
        self.write_history([history_entry("aaa", 1.0e6),
                            history_entry("bbb", 0.8e6)])
        proc = run_diff(cwd=self.dir)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)
        self.assertIn("flat_single_preds_per_sec", proc.stderr)

    def test_threshold_is_configurable(self):
        self.write_history([history_entry("aaa", 1.0e6),
                            history_entry("bbb", 0.8e6)])
        proc = run_diff("--threshold", "0.25", cwd=self.dir)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_latency_keys_do_not_gate(self):
        # ns_per_pred doubling alone (same throughput) must not fail:
        # only *_per_sec style keys gate.
        self.write_history([
            history_entry("aaa", 1.0e6, extra={"ns_per_pred": 100.0}),
            history_entry("bbb", 1.0e6, extra={"ns_per_pred": 500.0}),
        ])
        proc = run_diff(cwd=self.dir)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_bench_filter_compares_only_matching_entries(self):
        # Interleave runs of a different bench; --bench must skip them so
        # a regression in the other bench's ledger doesn't mask ours.
        other = history_entry("xxx", 5.0e6)
        other["bench"] = "BENCH_scenarios.json"
        self.write_history([history_entry("aaa", 1.0e6), other,
                            history_entry("bbb", 0.5e6)])
        proc = run_diff("--bench", "BENCH_fig7.json", cwd=self.dir)
        self.assertEqual(proc.returncode, 1, proc.stdout)

    def test_unparsable_lines_are_skipped_with_warning(self):
        path = self.write_history([history_entry("aaa", 1.0e6)])
        with path.open("a") as f:
            f.write("this is not json\n")
            f.write(json.dumps(history_entry("bbb", 1.1e6)) + "\n")
        proc = run_diff(cwd=self.dir)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("unparsable", proc.stderr)

    def test_explicit_baseline_candidate_mode(self):
        base = self.dir / "old.json"
        cand = self.dir / "new.json"
        base.write_text(json.dumps({"x_per_sec": 100.0}))
        cand.write_text(json.dumps({"x_per_sec": 50.0}))
        proc = run_diff("--baseline", str(base), "--candidate", str(cand),
                        cwd=self.dir)
        self.assertEqual(proc.returncode, 1, proc.stdout)

    def test_require_keys_present_passes(self):
        self.write_history([
            history_entry("aaa", 1.0e6),
            history_entry("bbb", 1.0e6, extra={
                "flat_single_preds_per_sec": 5.0e6}),
        ])
        proc = run_diff("--require-keys",
                        "flat_single_preds_per_sec", cwd=self.dir)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_require_keys_missing_fails(self):
        # A run that silently stops emitting a required engine metric must
        # fail loudly instead of the key just dropping out of the shared
        # intersection.
        self.write_history([
            history_entry("aaa", 1.0e6, extra={
                "flat_single_preds_per_sec": 5.0e6}),
            history_entry("bbb", 1.0e6),
        ])
        proc = run_diff("--require-keys",
                        "flat_single_preds_per_sec,"
                        "tree_walk_preds_per_sec",
                        cwd=self.dir)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("missing required metric", proc.stderr)

    def test_growth_from_zero_baseline_reports_without_classifying(self):
        # A throughput metric growing from a 0 baseline has no defined
        # relative change: it must neither print `inf` nor count as an
        # improvement — only be reported as new-from-zero.
        base = self.dir / "old.json"
        cand = self.dir / "new.json"
        base.write_text(json.dumps({"x_per_sec": 0.0, "y_per_sec": 100.0}))
        cand.write_text(json.dumps({"x_per_sec": 500.0, "y_per_sec": 100.0}))
        proc = run_diff("--baseline", str(base), "--candidate", str(cand),
                        cwd=self.dir)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertNotIn("inf", proc.stdout.lower())
        self.assertNotIn("improvement", proc.stdout)
        self.assertIn("new from zero baseline", proc.stdout)

    def test_regression_to_zero_fails(self):
        # Collapsing to 0 is a full (-100%) regression and must gate.
        base = self.dir / "old.json"
        cand = self.dir / "new.json"
        base.write_text(json.dumps({"x_per_sec": 100.0}))
        cand.write_text(json.dumps({"x_per_sec": 0.0}))
        proc = run_diff("--baseline", str(base), "--candidate", str(cand),
                        cwd=self.dir)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("REGRESSION", proc.stdout)
        self.assertIn("-100.00%", proc.stdout)

    def test_nan_baseline_is_skipped_not_compared(self):
        # json.dumps happily emits NaN; a NaN baseline must drop out of
        # the numeric set (not crash, not gate) while finite keys still
        # compare.
        base = self.dir / "old.json"
        cand = self.dir / "new.json"
        base.write_text(json.dumps({"x_per_sec": float("nan"),
                                    "y_per_sec": 100.0}))
        cand.write_text(json.dumps({"x_per_sec": 100.0,
                                    "y_per_sec": 100.0}))
        proc = run_diff("--baseline", str(base), "--candidate", str(cand),
                        cwd=self.dir)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertNotIn("x_per_sec", proc.stdout)
        self.assertNotIn("nan", proc.stdout.lower())

    def test_disjoint_metrics_are_an_error(self):
        base = self.dir / "old.json"
        cand = self.dir / "new.json"
        base.write_text(json.dumps({"a_per_sec": 100.0}))
        cand.write_text(json.dumps({"b_per_sec": 100.0}))
        proc = run_diff("--baseline", str(base), "--candidate", str(cand),
                        cwd=self.dir)
        self.assertEqual(proc.returncode, 2, proc.stdout)


if __name__ == "__main__":
    unittest.main()
