#!/usr/bin/env python3
"""Self-tests for tools/check_bench.py — the CI perf gate.

Every perf and serving job trusts check_bench.py's exit-code contract:
0 = pass, 1 = regression, failed --ratio or zero overlap, 2 = malformed
report, bad argument, or a --require'd benchmark or --ratio leg missing.
These tests pin that contract (and the diagnosis text for the exit-2 paths)
by invoking the script the way CI does: as a subprocess on real files.
Stdlib unittest only, so the suite runs anywhere python3 exists; ctest runs
it as check_bench.self_tests:

    python3 tools/test_check_bench.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_bench.py")


def benchmark_json(times_ms, aggregates=(), medians=None):
    """Google-benchmark JSON with per-iteration rows (times in ms).

    `aggregates` adds unnamed aggregate rows with huge times; `medians`
    ({name: ms}) adds median aggregate rows the way
    --benchmark_repetitions writes them.
    """
    rows = [{"name": name, "run_type": "iteration", "real_time": ms,
             "cpu_time": ms, "time_unit": "ms"}
            for name, ms in times_ms.items()]
    rows += [{"name": name, "run_type": "aggregate", "real_time": 1e9,
              "cpu_time": 1e9, "time_unit": "ms"} for name in aggregates]
    for name, ms in (medians or {}).items():
        for aggregate, value in (("mean", 1e9), ("median", ms),
                                 ("stddev", 1e9)):
            rows.append({"name": f"{name}_{aggregate}", "run_name": name,
                         "run_type": "aggregate", "aggregate_name": aggregate,
                         "real_time": value, "cpu_time": value,
                         "time_unit": "ms"})
    return {"benchmarks": rows}


def runreport_json(times_ms, metric="real"):
    """drcshap runreport.json carrying bench gauges (times in ms)."""
    gauges = {f"bench/{name}/{metric}_time_ms": ms
              for name, ms in times_ms.items()}
    return {"schema_version": 1, "tool": "test", "gauges": gauges}


class CheckBenchTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory(prefix="check_bench_test_")
        self.addCleanup(self.dir.cleanup)

    def write(self, name, content):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(content if isinstance(content, str)
                    else json.dumps(content))
        return path

    def run_gate(self, baseline, report, *extra):
        return subprocess.run(
            [sys.executable, CHECK_BENCH, baseline, report, *extra],
            capture_output=True, text=True)

    # ------------------------------------------------------- exit 0 paths

    def test_within_tolerance_passes(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", runreport_json({"bm_a": 11.0}))
        result = self.run_gate(baseline, report, "--tolerance", "0.25")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("OK", result.stdout)

    def test_benchmark_json_candidate_accepted(self):
        # The candidate may be a raw --benchmark_out dump, not a runreport.
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", benchmark_json({"bm_a": 10.0}))
        self.assertEqual(self.run_gate(baseline, report).returncode, 0)

    def test_aggregate_rows_ignored(self):
        # mean/median/stddev rows must not be gated (their huge times here
        # would otherwise read as regressions).
        baseline = self.write("base.json", benchmark_json(
            {"bm_a": 10.0}, aggregates=["bm_a_mean"]))
        report = self.write("report.json", runreport_json({"bm_a": 10.0}))
        result = self.run_gate(baseline, report,
                               "--require", "bm_a")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_baseline_median_row_beats_iteration_rows(self):
        # Repetitions write both the samples and their median: the gate
        # reads the median (10.0), not the last sample (20.0) or the mean.
        rows = benchmark_json({}, medians={"bm_a": 10.0})
        rows["benchmarks"][:0] = benchmark_json(
            {"bm_a": 20.0})["benchmarks"] * 3
        baseline = self.write("base.json", rows)
        report = self.write("report.json", runreport_json({"bm_a": 12.0}))
        result = self.run_gate(baseline, report, "--tolerance", "0.25",
                               "--require", "bm_a")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("10.000ms", result.stdout)

    def test_runreport_median_gauge_beats_other_aggregates(self):
        # --benchmark_report_aggregates_only leaves <name>_mean/_median/
        # _stddev/_cv gauges; only the median is gated, under <name>.
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", runreport_json({
            "bm_a_mean": 1e9, "bm_a_median": 11.0, "bm_a_stddev": 1e9,
            "bm_a_cv": 1e9}))
        result = self.run_gate(baseline, report, "--require", "bm_a")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("11.000ms", result.stdout)
        slow = self.write("slow.json", runreport_json({"bm_a_median": 13.0}))
        self.assertEqual(self.run_gate(baseline, slow).returncode, 1)

    def test_ratio_met_passes(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", runreport_json({
            "bm_a": 10.0, "bm_slow_median": 30.0, "bm_fast_median": 9.0}))
        result = self.run_gate(baseline, report,
                               "--ratio", "bm_slow", "bm_fast", "3",
                               "--ratio", "bm_a", "bm_fast", "1")
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("2 ratio(s) met", result.stdout)

    def test_gates_on_selected_metric(self):
        # cpu gauges only; --metric cpu finds them, --metric real has no
        # overlap and must fail rather than silently pass.
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json",
                            runreport_json({"bm_a": 10.0}, metric="cpu"))
        self.assertEqual(
            self.run_gate(baseline, report, "--metric", "cpu").returncode, 0)
        self.assertEqual(
            self.run_gate(baseline, report, "--metric", "real").returncode, 1)

    # ------------------------------------------------------- exit 1 paths

    def test_regression_fails(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", runreport_json({"bm_a": 13.0}))
        result = self.run_gate(baseline, report, "--tolerance", "0.25")
        self.assertEqual(result.returncode, 1)
        self.assertIn("REGRESSION", result.stdout)

    def test_zero_overlap_fails(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", runreport_json({"bm_b": 10.0}))
        result = self.run_gate(baseline, report)
        self.assertEqual(result.returncode, 1)
        self.assertIn("no benchmarks in common", result.stderr)

    def test_ratio_below_min_fails(self):
        # Computed from the candidate alone: the absolute check passes, the
        # in-run speedup does not.
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", runreport_json({
            "bm_a": 10.0, "bm_slow": 29.0, "bm_fast": 10.0}))
        result = self.run_gate(baseline, report,
                               "--ratio", "bm_slow", "bm_fast", "3")
        self.assertEqual(result.returncode, 1)
        self.assertIn("RATIO BELOW MIN", result.stdout)
        self.assertIn("bm_slow / bm_fast", result.stderr)

    # ------------------------------------------------------- exit 2 paths

    def test_ratio_leg_missing_diagnosed(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", runreport_json({
            "bm_a": 10.0, "bm_slow": 30.0}))
        result = self.run_gate(baseline, report,
                               "--ratio", "bm_slow", "bm_fast", "3")
        self.assertEqual(result.returncode, 2)
        self.assertIn("bm_fast", result.stderr)

    def test_non_numeric_ratio_min_diagnosed(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", runreport_json({
            "bm_a": 10.0, "bm_slow": 30.0, "bm_fast": 10.0}))
        for bound in ("three", "nan", "0"):
            result = self.run_gate(baseline, report,
                                   "--ratio", "bm_slow", "bm_fast", bound)
            self.assertEqual(result.returncode, 2, bound)
            self.assertIn("not a positive number", result.stderr)

    def test_empty_report_diagnosed(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", "")
        result = self.run_gate(baseline, report)
        self.assertEqual(result.returncode, 2)
        self.assertIn("empty", result.stderr)

    def test_truncated_json_diagnosed(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", '{"gauges": {"bench/bm_a')
        result = self.run_gate(baseline, report)
        self.assertEqual(result.returncode, 2)
        self.assertIn("not valid JSON", result.stderr)

    def test_non_object_json_diagnosed(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", "[1, 2, 3]")
        result = self.run_gate(baseline, report)
        self.assertEqual(result.returncode, 2)
        self.assertIn("expected an object", result.stderr)

    def test_non_numeric_gauge_diagnosed(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", {
            "gauges": {"bench/bm_a/real_time_ms": "fast"}})
        result = self.run_gate(baseline, report)
        self.assertEqual(result.returncode, 2)
        self.assertIn("not a number", result.stderr)

    def test_missing_file_diagnosed(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        result = self.run_gate(baseline,
                               os.path.join(self.dir.name, "absent.json"))
        self.assertEqual(result.returncode, 2)
        self.assertIn("cannot read", result.stderr)

    def test_required_benchmark_missing_fails(self):
        # The anti-shrinkage contract: a gated benchmark disappearing from
        # the candidate (deleted, renamed, filtered out) is exit 2, even
        # though the remaining overlap would pass.
        baseline = self.write("base.json",
                              benchmark_json({"bm_a": 10.0, "bm_b": 5.0}))
        report = self.write("report.json", runreport_json({"bm_a": 10.0}))
        result = self.run_gate(baseline, report, "--require", "bm_")
        self.assertEqual(result.returncode, 2)
        self.assertIn("bm_b", result.stderr)
        # The same files pass when --require only names what is present.
        self.assertEqual(
            self.run_gate(baseline, report, "--require", "bm_a").returncode,
            0)

    def test_bad_require_regex_diagnosed(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", runreport_json({"bm_a": 10.0}))
        result = self.run_gate(baseline, report, "--require", "bm_(")
        self.assertEqual(result.returncode, 2)
        self.assertIn("bad --require regex", result.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
