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

import contextlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import traceback
import unittest

CHECK_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_bench.py")


def load_gate_module():
    """check_bench.py as a module, so the fuzz cases run in-process."""
    spec = importlib.util.spec_from_file_location("check_bench", CHECK_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_gate_in_process(module, argv):
    """(exit code, stderr) of check_bench's main() on `argv`.

    An exception escaping main() is what a script run prints as a
    traceback, so it is rendered into the returned stderr the same way.
    """
    err = io.StringIO()
    saved_argv = sys.argv
    sys.argv = [CHECK_BENCH, *argv]
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = module.main()
    except SystemExit as stop:
        code = stop.code
    except BaseException:  # noqa: BLE001 — the invariant under test
        code = 1
        err.write(traceback.format_exc())
    finally:
        sys.argv = saved_argv
    return code, err.getvalue()


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

    def test_non_finite_or_negative_tolerance_diagnosed(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", runreport_json({"bm_a": 99.0}))
        for tolerance in ("nan", "inf", "-0.1"):
            result = self.run_gate(baseline, report, "--tolerance", tolerance)
            self.assertEqual(result.returncode, 2, tolerance)
            self.assertIn("--tolerance", result.stderr)

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

    def test_deeply_nested_json_diagnosed(self):
        baseline = self.write("base.json", benchmark_json({"bm_a": 10.0}))
        report = self.write("report.json", '{"a": ' * 100000)
        result = self.run_gate(baseline, report)
        self.assertEqual(result.returncode, 2)
        self.assertIn("nests too deeply", result.stderr)
        self.assertNotIn("Traceback", result.stderr)

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

    def test_non_finite_or_non_positive_time_diagnosed(self):
        # NaN compares false both ways, so before this check a NaN time
        # printed "nanx ok" and passed. Every time the gate reads, in a
        # baseline row, a median row and a runreport gauge, must be finite
        # and > 0.
        valid = self.write("valid.json", benchmark_json({"bm_a": 10.0}))
        for spelling in ("NaN", "Infinity", "-Infinity", "1e999", "0",
                         "-0.0", "-5", "true", '"nan"', '"inf"'):
            for case, doc in (
                    ("row", benchmark_json({"bm_a": "@"})),
                    ("median", benchmark_json({}, medians={"bm_a": "@"})),
                    ("gauge", runreport_json({"bm_a": "@"}))):
                text = json.dumps(doc).replace('"@"', spelling)
                bad = self.write("bad.json", text)
                pairs = [(valid, bad)]  # a runreport is never a baseline
                if case != "gauge":
                    pairs.append((bad, valid))
                for baseline, report in pairs:
                    result = self.run_gate(baseline, report)
                    self.assertEqual(result.returncode, 2,
                                     f"{case} {spelling}: {result.stdout}")
                    self.assertIn("not a number", result.stderr)
        # Only gated times are read: a zero spread gauge is no error.
        spread = self.write("spread.json", runreport_json(
            {"bm_a_median": 10.0, "bm_a_stddev": 0.0, "bm_a_cv": 0.0}))
        self.assertEqual(self.run_gate(valid, spread).returncode, 0)

    def test_non_string_name_diagnosed(self):
        valid = self.write("valid.json", benchmark_json({"bm_a": 10.0}))
        row = benchmark_json({"bm_a": 10.0})
        row["benchmarks"][0]["name"] = ["bm_a"]
        median = benchmark_json({}, medians={"bm_a": 10.0})
        for r in median["benchmarks"]:
            r["run_name"] = {"bm": "a"}
        for doc in (row, median):
            bad = self.write("bad.json", doc)
            for baseline, report in ((bad, valid), (valid, bad)):
                result = self.run_gate(baseline, report)
                self.assertEqual(result.returncode, 2, result.stderr)
                self.assertIn("is not a string", result.stderr)
                self.assertNotIn("Traceback", result.stderr)

    def test_seeded_fuzz_of_both_report_formats(self):
        # Every truncation and 500 seeded 1-3-byte flips of a valid
        # baseline and of a valid runreport (each gated against the other,
        # valid, file). Whatever the damage, the gate answers with its exit
        # contract and a diagnosis, never a traceback.
        module = load_gate_module()
        baseline = json.dumps(benchmark_json(
            {"bm_a": 10.0, "bm_b": 2.5}, medians={"bm_c": 4.0})).encode()
        report = json.dumps(runreport_json(
            {"bm_a": 11.0, "bm_b": 2.4, "bm_c_median": 4.1})).encode()
        rng = random.Random(0xbe7c)
        valid = {"base": self.write("base.json", baseline.decode()),
                 "report": self.write("report.json", report.decode())}
        damaged = os.path.join(self.dir.name, "damaged.json")
        failures = []
        for side, text in (("base", baseline), ("report", report)):
            cases = [text[:n] for n in range(len(text))]
            for _ in range(500):
                flipped = bytearray(text)
                for _ in range(rng.randint(1, 3)):
                    flipped[rng.randrange(len(flipped))] = rng.randrange(256)
                cases.append(bytes(flipped))
            for i, case in enumerate(cases):
                with open(damaged, "wb") as f:
                    f.write(case)
                argv = ([damaged, valid["report"]] if side == "base"
                        else [valid["base"], damaged])
                code, err = run_gate_in_process(module, argv)
                if code not in (0, 1, 2) or "Traceback" in err:
                    failures.append(f"{side} case {i} {case!r}: exit {code}"
                                    f"\n{err}")
        self.assertEqual(failures[:3], [])


if __name__ == "__main__":
    unittest.main(verbosity=2)
