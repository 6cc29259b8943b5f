#include "obs/run_report.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <thread>

#include "obs/registry.hpp"
#include "util/artifact.hpp"

// Build provenance is injected by CMake as compile definitions on this
// translation unit only; default to "unknown" so the file also compiles
// standalone (e.g. in IDE indexers).
#ifndef DRCSHAP_GIT_SHA
#define DRCSHAP_GIT_SHA "unknown"
#endif
#ifndef DRCSHAP_COMPILER_INFO
#define DRCSHAP_COMPILER_INFO "unknown"
#endif
#ifndef DRCSHAP_BUILD_TYPE
#define DRCSHAP_BUILD_TYPE "unknown"
#endif
#ifndef DRCSHAP_CXX_FLAGS
#define DRCSHAP_CXX_FLAGS ""
#endif

namespace drcshap::obs {

namespace {

std::string utc_timestamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm_utc{};
  gmtime_r(&now, &tm_utc);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm_utc);
  return buf;
}

}  // namespace

JsonValue provenance_json(const RunReportOptions& options) {
  JsonValue p = JsonValue::make_object();
  p["git_sha"] = DRCSHAP_GIT_SHA;
  p["compiler"] = DRCSHAP_COMPILER_INFO;
  p["build_type"] = DRCSHAP_BUILD_TYPE;
  p["cxx_flags"] = DRCSHAP_CXX_FLAGS;
  p["timestamp_utc"] = utc_timestamp();
  p["hardware_threads"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  p["n_threads"] = static_cast<std::uint64_t>(options.n_threads);
  p["seed"] = options.seed;
  for (const auto& [key, value] : options.extra) p[key] = value;
  return p;
}

JsonValue build_run_report(const RunReportOptions& options) {
  const Snapshot snap = snapshot();

  JsonValue report = JsonValue::make_object();
  report["schema_version"] = std::uint64_t{1};
  report["tool"] = options.tool;
  report["provenance"] = provenance_json(options);

  JsonValue counters = JsonValue::make_object();
  for (const auto& [name, value] : snap.counters) counters[name] = value;
  report["counters"] = std::move(counters);

  JsonValue gauges = JsonValue::make_object();
  for (const auto& [name, value] : snap.gauges) gauges[name] = value;
  report["gauges"] = std::move(gauges);

  JsonValue notes = JsonValue::make_object();
  for (const auto& [name, value] : snap.notes) notes[name] = value;
  report["notes"] = std::move(notes);

  JsonValue timers = JsonValue::make_object();
  for (const auto& [name, stat] : snap.timers) {
    JsonValue t = JsonValue::make_object();
    t["count"] = stat.count;
    t["total_ms"] = stat.total_ms();
    t["mean_ms"] = stat.mean_ms();
    t["max_ms"] = static_cast<double>(stat.max_ns) * 1e-6;
    timers[name] = std::move(t);
  }
  report["timers"] = std::move(timers);
  return report;
}

void write_run_report(const std::string& path,
                      const RunReportOptions& options) {
  // Atomic temp+rename commit: a gate (tools/check_bench.py) or a monitoring
  // scraper reading mid-write must see the previous report or the new one,
  // never a torn JSON prefix. The report stays unframed JSON — its consumers
  // are external.
  throw_if_error(write_file_atomic(path, build_run_report(options).dump(2)));
}

std::string default_report_path() {
  const char* env = std::getenv("DRCSHAP_RUNREPORT");
  return env != nullptr && env[0] != '\0' ? env : "runreport.json";
}

std::string write_default_run_report(const RunReportOptions& options) {
  const std::string path = default_report_path();
  try {
    write_run_report(path, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run_report: %s\n", e.what());
    return {};
  }
  return path;
}

}  // namespace drcshap::obs
