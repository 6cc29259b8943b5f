#!/usr/bin/env python3
"""Perf-regression gate: compare a bench run against the checked-in baseline.

Usage:
    tools/check_bench.py BENCH_shap.json runreport.json [--tolerance 0.25]
        [--metric cpu] [--require REGEX] [--ratio NUM DEN MIN ...]

The only place a CI speed verdict is computed. The baseline is
google-benchmark JSON (a checked-in BENCH_*.json). The candidate is either:
  * a drcshap runreport.json (schema_version 1) whose gauges carry
    "bench/<name>/real_time_ms" and ".../cpu_time_ms" entries written by
    ObsRecordingReporter, or
  * raw google-benchmark JSON (--benchmark_out=... format).

Medians, not samples: CI runs every gated leg with
--benchmark_repetitions=5 --benchmark_report_aggregates_only=true. Where a
file holds a median aggregate for a benchmark (a "<name>_median" row or
gauge), that median is the benchmark's time for every check; a benchmark
without one reads its iteration row.

Only benchmarks present in BOTH files are compared (CI runs a reduced
filter), but zero overlap is an error — a silently empty comparison must
not pass. A benchmark regresses when its time exceeds
baseline * (1 + tolerance); faster-than-baseline results only warn when
they are more than `tolerance` below baseline (a stale baseline?).

--require REGEX hardens a gate against silent shrinkage: every baseline
benchmark whose name matches the regex must be present in the candidate
report, otherwise the gate fails (exit 2). CI passes a --require matching
each job's --benchmark_filter, so deleting or renaming a gated benchmark
can never slip through as "0 skipped, OK".

--ratio NUM DEN MIN (repeatable) checks an in-run speedup from the
candidate report alone: time(NUM) / time(DEN) must be at least MIN. Both
legs ran in one process on one host, so the ratio does not rot when the
runner fleet drifts away from the baseline host.

Every time the gate reads must be a finite number > 0 and every benchmark
name a string; anything else (a NaN would pass every comparison) makes
the report malformed.

Exit status: 0 = pass, 1 = regression, failed ratio or no overlap,
2 = usage/IO error, malformed report, a --require'd benchmark or a ratio
leg missing from the candidate report.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

TO_MS = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}
MEDIAN = "_median"
# The other aggregate gauges of a repeated run: never gated, so never read
# (a spread can be 0).
UNREAD_AGGREGATES = ("_mean", "_stddev", "_cv")


class ReportError(Exception):
    """A report file is unreadable, truncated, or malformed."""


def load_json_object(path: str) -> dict:
    """Parse `path` as a JSON object, failing with an actionable message.

    A truncated or half-written report (e.g. a run killed mid-benchmark)
    must produce a clear one-line diagnosis, not a traceback or a silently
    empty comparison.
    """
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as err:
        raise ReportError(f"check_bench: cannot read {path}: {err}")
    except UnicodeDecodeError as err:
        raise ReportError(
            f"check_bench: {path} is not UTF-8 text ({err.reason} at byte "
            f"{err.start}) — corrupt report; re-run the benchmarks")
    if not text.strip():
        raise ReportError(
            f"check_bench: {path} is empty — the producing run likely "
            "crashed before writing the report; re-run the benchmarks")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ReportError(
            f"check_bench: {path} is not valid JSON (line {err.lineno}, "
            f"col {err.colno}: {err.msg}) — truncated or corrupt report; "
            "re-run the benchmarks")
    except RecursionError:
        raise ReportError(
            f"check_bench: {path} nests too deeply to parse — corrupt "
            "report; re-run the benchmarks")
    if not isinstance(doc, dict):
        raise ReportError(
            f"check_bench: {path} holds a JSON {type(doc).__name__}, "
            "expected an object (runreport or google-benchmark format)")
    return doc


def time_ms(value: object, scale: float, path: str, what: str) -> float:
    """`value` * `scale` as a time in ms, which must be finite and > 0.

    A NaN time would pass every comparison (and a zero or negative one
    would make every ratio meaningless), so such a report is corrupt.
    """
    try:
        ms = math.nan if isinstance(value, bool) else float(value) * scale
    except (TypeError, ValueError, OverflowError):
        ms = math.nan
    if not (math.isfinite(ms) and ms > 0):
        raise ReportError(
            f"check_bench: {path}: {what} is {value!r}, which is not a "
            "number (finite, > 0) — corrupt report")
    return ms


def load_baseline(path: str, metric: str) -> dict[str, float]:
    """Google-benchmark JSON -> {benchmark name: time in ms}."""
    doc = load_json_object(path)
    benches = doc.get("benchmarks", [])
    if not isinstance(benches, list):
        raise ReportError(f"check_bench: {path}: 'benchmarks' is not a list")
    out: dict[str, float] = {}
    medians: dict[str, float] = {}
    for bench in benches:
        if not isinstance(bench, dict):
            raise ReportError(f"check_bench: {path}: malformed benchmark row")
        is_median = bench.get("aggregate_name") == "median"
        if bench.get("run_type", "iteration") != "iteration" and not is_median:
            continue  # mean/stddev/cv rows
        try:
            scale = TO_MS[bench.get("time_unit", "ns")]
            value = bench[f"{metric}_time"]
            name = bench["run_name" if is_median else "name"]
        except (KeyError, TypeError) as err:
            raise ReportError(
                f"check_bench: {path}: benchmark row missing/invalid "
                f"field {err} — corrupt report")
        if not isinstance(name, str):
            raise ReportError(
                f"check_bench: {path}: benchmark name {name!r} is not a "
                "string — corrupt report")
        ms = time_ms(value, scale, path, f"benchmark '{name}' {metric}_time")
        if is_median:
            medians[name] = ms
        else:
            out[name] = ms
    return out | medians


def load_candidate(path: str, metric: str) -> dict[str, float]:
    """runreport.json or google-benchmark JSON -> {name: time in ms}."""
    doc = load_json_object(path)
    if "benchmarks" in doc:
        return load_baseline(path, metric)
    gauges = doc.get("gauges", {})
    if not isinstance(gauges, dict):
        raise ReportError(f"check_bench: {path}: 'gauges' is not an object")
    out: dict[str, float] = {}
    medians: dict[str, float] = {}
    prefix, suffix = "bench/", f"/{metric}_time_ms"
    for key, value in gauges.items():
        if not (key.startswith(prefix) and key.endswith(suffix)):
            continue
        name = key[len(prefix):-len(suffix)]
        if name.endswith(UNREAD_AGGREGATES):
            continue
        ms = time_ms(value, 1.0, path, f"gauge '{key}'")
        if name.endswith(MEDIAN):
            medians[name.removesuffix(MEDIAN)] = ms
        else:
            out[name] = ms
    return out | medians


def parse_ratios(raw: list[list[str]]) -> list[tuple[str, str, float]]:
    """--ratio triples -> (num, den, min); a bad MIN raises ValueError."""
    ratios = []
    for num, den, text in raw:
        try:
            bound = float(text)
        except ValueError:
            bound = 0.0
        if not bound > 0:  # also rejects nan
            raise ValueError(f"--ratio {num} {den}: MIN '{text}' is not a "
                             "positive number")
        ratios.append((num, den, bound))
    return ratios


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="checked-in google-benchmark JSON")
    parser.add_argument("report", help="runreport.json or benchmark JSON")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed slowdown fraction (default 0.25)")
    parser.add_argument("--metric", choices=["real", "cpu"], default="real",
                        help="which time to gate on; cpu is robust to "
                             "runner load but meaningless for UseRealTime "
                             "thread-pool benches (default real)")
    parser.add_argument("--require", metavar="REGEX", default=None,
                        help="baseline benchmarks matching REGEX must be "
                             "present in the report, else fail (exit 2)")
    parser.add_argument("--ratio", nargs=3, action="append", default=[],
                        metavar=("NUM", "DEN", "MIN"),
                        help="require time(NUM) / time(DEN) >= MIN in the "
                             "report (repeatable)")
    args = parser.parse_args()
    try:
        required = re.compile(args.require) if args.require else None
        ratios = parse_ratios(args.ratio)
        if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
            # a NaN tolerance would pass every comparison
            raise ValueError(f"--tolerance {args.tolerance} is not a "
                             "finite number >= 0")
    except re.error as err:
        print(f"check_bench: bad --require regex: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"check_bench: {err}", file=sys.stderr)
        return 2

    try:
        baseline = load_baseline(args.baseline, args.metric)
        candidate = load_candidate(args.report, args.metric)
    except ReportError as err:
        print(str(err), file=sys.stderr)
        return 2

    if required is not None:
        missing = sorted(name for name in baseline
                         if required.search(name) and name not in candidate)
        if missing:
            print(f"check_bench: FAIL — {len(missing)} required baseline "
                  f"benchmark(s) missing from {args.report} (deleted, "
                  f"renamed, or filtered out?): {', '.join(missing)}",
                  file=sys.stderr)
            return 2
    absent_legs = sorted({leg for num, den, _ in ratios for leg in (num, den)
                          if leg not in candidate})
    if absent_legs:
        print(f"check_bench: FAIL — ratio leg(s) missing from "
              f"{args.report}: {', '.join(absent_legs)}", file=sys.stderr)
        return 2

    common = sorted(set(baseline) & set(candidate))
    if not common:
        print("check_bench: FAIL — no benchmarks in common between "
              f"{args.baseline} ({len(baseline)} entries) and "
              f"{args.report} ({len(candidate)} entries)", file=sys.stderr)
        return 1

    width = max(len(name) for name in common)
    failures = []
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'current':>12}  "
          f"{'ratio':>7}  verdict")
    for name in common:
        base_ms, cur_ms = baseline[name], candidate[name]
        ratio = cur_ms / base_ms  # both finite and > 0 (time_ms)
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            failures.append(name)
        elif ratio < 1.0 - args.tolerance:
            verdict = "fast (stale baseline?)"
        else:
            verdict = "ok"
        print(f"{name:<{width}}  {base_ms:>10.3f}ms  {cur_ms:>10.3f}ms  "
              f"{ratio:>6.2f}x  {verdict}")
    for num, den, bound in ratios:
        num_ms, den_ms = candidate[num], candidate[den]
        ratio = num_ms / den_ms
        if ratio < bound:
            failures.append(f"{num} / {den}")
        print(f"ratio {num} / {den} = {num_ms:.3f}ms / {den_ms:.3f}ms = "
              f"{ratio:.2f}x (min {bound:g}x)  "
              f"{'ok' if ratio >= bound else 'RATIO BELOW MIN'}")

    skipped = len(baseline) - len(common)
    if skipped:
        print(f"note: {skipped} baseline benchmark(s) absent from the "
              "report (reduced run) — not compared")
    if failures:
        print(f"check_bench: FAIL — {len(failures)} check(s) failed "
              f"(tolerance +{args.tolerance:.0%}): {', '.join(failures)}",
              file=sys.stderr)
        return 1
    met = f", {len(ratios)} ratio(s) met" if ratios else ""
    print(f"check_bench: OK — {len(common)} benchmark(s) within "
          f"+{args.tolerance:.0%} of baseline{met}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
