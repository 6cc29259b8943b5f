#pragma once
// Machine-readable run reports: one JSON document per tool invocation that
// captures the observability registry (per-stage timers, counters, gauges)
// plus enough build/provenance metadata (git sha, compiler, flags, thread
// count, seed) to interpret — and gate on — the numbers later. The CI
// perf-regression job diffs these against the checked-in BENCH_shap.json
// baseline via tools/check_bench.py.

#include <cstdint>
#include <map>
#include <string>

#include "obs/json.hpp"

namespace drcshap::obs {

struct RunReportOptions {
  std::string tool;           ///< binary / scenario name
  std::uint64_t seed = 0;     ///< dominant RNG seed of the run (0 = n/a)
  std::size_t n_threads = 0;  ///< configured worker threads (0 = default)
  /// Free-form extra provenance (benchmark scale, dataset id, ...).
  std::map<std::string, std::string> extra;
};

/// Build-time provenance baked in by CMake (git sha, compiler, flags,
/// build type) plus runtime facts (hardware threads, obs switch state).
JsonValue provenance_json(const RunReportOptions& options);

/// Assemble the full report: {"schema_version", "tool", "provenance",
/// "counters", "gauges", "timers"} from the current registry snapshot.
JsonValue build_run_report(const RunReportOptions& options);

/// Serialize build_run_report() to `path` (pretty-printed, trailing
/// newline). Throws std::runtime_error if the file cannot be written.
void write_run_report(const std::string& path,
                      const RunReportOptions& options);

/// $DRCSHAP_RUNREPORT if set and non-empty, else "runreport.json" in the
/// current working directory. Each process writes its own report; give
/// cooperating processes (say the serving daemon and its load generator)
/// distinct paths.
std::string default_report_path();

/// write_run_report(default_report_path(), options), never throwing: report
/// emission must not turn a successful bench run into a failure. Returns
/// the path written, or an empty string on error.
std::string write_default_run_report(const RunReportOptions& options);

}  // namespace drcshap::obs
