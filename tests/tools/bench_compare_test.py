#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py gating behavior.

Runs the tool as a subprocess against temp BENCH json pairs and checks
exit codes: 0 = ok, 1 = gated regression / missing / non-numeric metric.
"""

import glob
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir)
TOOL = os.path.join(ROOT, "tools", "bench_compare.py")

# Every numeric key (derived or row field) in bench/baselines/*.json that
# gates higher-is-better; every other numeric key there is
# lower-is-better. A new baseline key must be added here (if higher) so
# its direction is a reviewed decision, not a substring accident.
HIGHER_IS_BETTER_BASELINE_KEYS = {
    "best_p99_improvement", "bgp_storm_p99_improvement",
    "cluster_shift_p99_improvement", "dependency_violation_free_rate",
    "erase_drain_speedup", "erase_insert_speedup",
    "fault_sweep_p99_improvement", "fdrc_vs_lfu_hit_improvement",
    "fdrc_vs_lru_hit_improvement", "find_speedup",
    "fleet_1t_scale_flatness", "fleet_determinism_rate",
    "fleet_virtual_mods_per_s", "hermes_batch512_speedup",
    "hermes_batch64_speedup", "hermes_batch8_speedup", "hit_rate",
    "lookup_speedup_miss", "lookup_speedup_uniform", "lookup_speedup_zipf",
    "mlookups_per_sec", "mods_per_sec", "multi_tenant_qos_p99_improvement",
    "q_policy_no_regression_rate", "reroute_storm_p99_improvement",
    "speedup_vs_1t", "spill_admission_rate", "tcam_insert_batch_speedup",
    "update_segway_speedup", "update_segway_violation_free_rate",
    "update_two_phase_loop_rate",
}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def doc(derived=None, results=None):
    return {
        "schema_version": 1,
        "benchmark": "unit_test_bench",
        "derived": derived or {},
        "results": results or [],
    }


def run_compare(base_doc, cand_doc, *extra_args):
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        cand_path = os.path.join(tmp, "cand.json")
        with open(base_path, "w", encoding="utf-8") as fh:
            json.dump(base_doc, fh)
        with open(cand_path, "w", encoding="utf-8") as fh:
            json.dump(cand_doc, fh)
        proc = subprocess.run(
            [sys.executable, TOOL, base_path, cand_path, *extra_args],
            capture_output=True, text=True)
    return proc


class BenchCompareTest(unittest.TestCase):
    def test_identical_docs_pass(self):
        d = doc(derived={"hermes_speedup": 4.0})
        proc = run_compare(d, d)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_improvement_passes(self):
        proc = run_compare(doc(derived={"hermes_speedup": 4.0}),
                           doc(derived={"hermes_speedup": 5.0}))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_regression_beyond_threshold_fails(self):
        proc = run_compare(doc(derived={"hermes_speedup": 4.0}),
                           doc(derived={"hermes_speedup": 2.0}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("regression", proc.stderr)

    def test_lower_is_better_direction(self):
        # No higher-is-better token in the name: a drop is an improvement.
        proc = run_compare(doc(derived={"median_ns": 100.0}),
                           doc(derived={"median_ns": 50.0}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        proc = run_compare(doc(derived={"median_ns": 100.0}),
                           doc(derived={"median_ns": 200.0}))
        self.assertEqual(proc.returncode, 1)

    def test_missing_derived_metric_fails(self):
        proc = run_compare(doc(derived={"hermes_speedup": 4.0}),
                           doc(derived={}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing from", proc.stderr)

    def test_non_numeric_derived_metric_fails(self):
        # report.h serializes NaN/inf as null; that must gate, not skip.
        proc = run_compare(doc(derived={"hermes_speedup": 4.0}),
                           doc(derived={"hermes_speedup": None}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("non-numeric", proc.stderr)

    def test_non_numeric_row_field_fails_by_default(self):
        # Structural breakage in rows gates even under --gate derived: a
        # bench whose row field turned null is broken, not noisy.
        base = doc(results=[{"case": "a", "ns": 10.0}])
        cand = doc(results=[{"case": "a", "ns": None}])
        proc = run_compare(base, cand)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("non-numeric", proc.stderr)

    def test_missing_row_field_fails_by_default(self):
        base = doc(results=[{"case": "a", "ns": 10.0}])
        cand = doc(results=[{"case": "a"}])
        proc = run_compare(base, cand)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("missing from", proc.stderr)

    def test_missing_row_fails_by_default(self):
        base = doc(results=[{"case": "a", "ns": 10.0},
                            {"case": "b", "ns": 20.0}])
        cand = doc(results=[{"case": "a", "ns": 10.0}])
        proc = run_compare(base, cand)
        self.assertEqual(proc.returncode, 1)
        self.assertIn("row[b]", proc.stderr)

    def test_row_value_regression_ungated_by_default(self):
        # VALUE changes in rows are machine-dependent: reported, no gate.
        base = doc(results=[{"case": "a", "ns": 10.0}])
        cand = doc(results=[{"case": "a", "ns": 100.0}])
        proc = run_compare(base, cand)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertIn("worse", proc.stdout)

    def test_row_value_regression_fails_with_gate_all(self):
        base = doc(results=[{"case": "a", "ns": 10.0}])
        cand = doc(results=[{"case": "a", "ns": 100.0}])
        proc = run_compare(base, cand, "--gate", "all")
        self.assertEqual(proc.returncode, 1)

    def test_benchmark_name_mismatch_is_usage_error(self):
        base = doc()
        cand = dict(doc(), benchmark="other_bench")
        proc = run_compare(base, cand)
        self.assertEqual(proc.returncode, 2)


class DirectionTest(unittest.TestCase):
    def test_committed_baseline_keys_keep_their_direction(self):
        tool = load_tool()
        keys = set()
        for path in glob.glob(os.path.join(ROOT, "bench", "baselines",
                                           "*.json")):
            with open(path, "r", encoding="utf-8") as fh:
                base = json.load(fh)
            rows = [base.get("derived", {}) or {}]
            rows += base.get("results", []) or []
            for row in rows:
                keys.update(k for k, v in row.items()
                            if isinstance(v, (int, float))
                            and not isinstance(v, bool))
        self.assertTrue(HIGHER_IS_BETTER_BASELINE_KEYS <= keys,
                        HIGHER_IS_BETTER_BASELINE_KEYS - keys)
        for key in sorted(keys):
            self.assertEqual(tool.higher_is_better(key),
                             key in HIGHER_IS_BETTER_BASELINE_KEYS, key)

    def test_whole_tokens_not_substrings(self):
        tool = load_tool()
        # "per_switch" starts with the characters "per_s".
        self.assertFalse(tool.higher_is_better("bytes_per_switch_empty"))
        self.assertTrue(tool.higher_is_better("fleet_1t_scale_flatness"))
        self.assertTrue(tool.higher_is_better("parallel_efficiency"))
        self.assertTrue(tool.higher_is_better("ops_per_s"))
        self.assertTrue(tool.higher_is_better("mods_per_sec"))
        self.assertFalse(tool.higher_is_better("accurate_ns"))

    def test_bytes_per_switch_growth_fails(self):
        proc = run_compare(doc(derived={"bytes_per_switch_empty": 5000.0}),
                           doc(derived={"bytes_per_switch_empty": 8000.0}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("lower-is-better", proc.stderr)
        proc = run_compare(doc(derived={"bytes_per_switch_empty": 5000.0}),
                           doc(derived={"bytes_per_switch_empty": 2000.0}))
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_flatness_drop_fails(self):
        proc = run_compare(doc(derived={"fleet_1t_scale_flatness": 0.8}),
                           doc(derived={"fleet_1t_scale_flatness": 0.4}))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("higher-is-better", proc.stderr)
        proc = run_compare(doc(derived={"fleet_1t_scale_flatness": 0.8}),
                           doc(derived={"fleet_1t_scale_flatness": 1.0}))
        self.assertEqual(proc.returncode, 0, proc.stderr)


class WriteBaselineTest(unittest.TestCase):
    def run_write(self, cand_doc, base_doc=None):
        """Run --write-baseline; returns (proc, written-doc-or-None)."""
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            cand_path = os.path.join(tmp, "cand.json")
            if base_doc is not None:
                with open(base_path, "w", encoding="utf-8") as fh:
                    json.dump(base_doc, fh)
            with open(cand_path, "w", encoding="utf-8") as fh:
                json.dump(cand_doc, fh)
            proc = subprocess.run(
                [sys.executable, TOOL, base_path, cand_path,
                 "--write-baseline"],
                capture_output=True, text=True)
            written = None
            if os.path.exists(base_path):
                with open(base_path, "r", encoding="utf-8") as fh:
                    written = json.load(fh)
        return proc, written

    def test_creates_missing_baseline(self):
        cand = doc(derived={"hermes_speedup": 4.0},
                   results=[{"case": "a", "ns": 10.0}])
        proc, written = self.run_write(cand)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(written, cand)
        self.assertIn("hermes_speedup", proc.stdout)

    def test_drops_metrics_export(self):
        # The obs export is never compared, so it is not committed.
        cand = dict(doc(derived={"hermes_speedup": 4.0},
                        results=[{"case": "a", "ns": 10.0}]),
                    metrics={"schema_version": 1,
                             "counters": {"gate.guaranteed": 3}})
        proc, written = self.run_write(cand)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertNotIn("metrics", written)
        self.assertEqual(written["derived"], cand["derived"])
        self.assertEqual(written["results"], cand["results"])

    def test_overwrites_same_benchmark(self):
        old = doc(derived={"hermes_speedup": 2.0})
        new = doc(derived={"hermes_speedup": 4.0})
        proc, written = self.run_write(new, base_doc=old)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(written["derived"]["hermes_speedup"], 4.0)

    def test_written_baseline_round_trips_through_compare(self):
        # The regenerated file must be a valid comparison baseline.
        cand = doc(derived={"hermes_speedup": 4.0},
                   results=[{"case": "a", "ns": 10.0}])
        with tempfile.TemporaryDirectory() as tmp:
            base_path = os.path.join(tmp, "base.json")
            cand_path = os.path.join(tmp, "cand.json")
            with open(cand_path, "w", encoding="utf-8") as fh:
                json.dump(cand, fh)
            write = subprocess.run(
                [sys.executable, TOOL, base_path, cand_path,
                 "--write-baseline"], capture_output=True, text=True)
            self.assertEqual(write.returncode, 0, write.stderr)
            compare = subprocess.run(
                [sys.executable, TOOL, base_path, cand_path],
                capture_output=True, text=True)
        self.assertEqual(compare.returncode, 0, compare.stderr)

    def test_refuses_cross_benchmark_overwrite(self):
        old = doc(derived={"hermes_speedup": 2.0})
        new = dict(doc(derived={"hermes_speedup": 4.0}),
                   benchmark="other_bench")
        proc, written = self.run_write(new, base_doc=old)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("refusing", proc.stderr)
        # The existing baseline is untouched.
        self.assertEqual(written["benchmark"], "unit_test_bench")
        self.assertEqual(written["derived"]["hermes_speedup"], 2.0)

    def test_refuses_non_numeric_derived(self):
        cand = doc(derived={"hermes_speedup": None})
        proc, written = self.run_write(cand)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("non-numeric", proc.stderr)
        self.assertIsNone(written)

    def test_refuses_bad_schema(self):
        cand = dict(doc(derived={"x": 1.0}), schema_version=2)
        proc, written = self.run_write(cand)
        self.assertEqual(proc.returncode, 2)
        self.assertIsNone(written)

    def test_refuses_missing_benchmark_name(self):
        cand = doc(derived={"x": 1.0})
        del cand["benchmark"]
        proc, written = self.run_write(cand)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("benchmark name", proc.stderr)
        self.assertIsNone(written)


if __name__ == "__main__":
    unittest.main()
