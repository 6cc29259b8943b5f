#pragma once
// Shared run-report plumbing for the bench binaries. Google-benchmark
// binaries use ObsRecordingReporter + run_benchmarks_with_report() so every
// completed benchmark lands in the obs registry as gauges
// ("bench/<name>/real_time_ms", ".../cpu_time_ms", ".../items_per_second")
// next to the library's own stage timers; the emitted runreport.json is what
// tools/check_bench.py gates against the BENCH_*.json baselines in CI (with
// --benchmark_repetitions, each aggregate lands as "bench/<name>_median/..."
// and so on, and the gate reads the median). Table/figure
// binaries just call drcshap::obs::write_default_run_report() before exit.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/run_report.hpp"

namespace drcshap {

class ObsRecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const std::string prefix = "bench/" + run.benchmark_name();
      obs::gauge_set(prefix + "/real_time_ms",
                     to_ms(run.GetAdjustedRealTime(), run.time_unit));
      obs::gauge_set(prefix + "/cpu_time_ms",
                     to_ms(run.GetAdjustedCPUTime(), run.time_unit));
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        obs::gauge_set(prefix + "/items_per_second", items->second.value);
      }
      obs::counter_add("bench/benchmarks_run");
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  static double to_ms(double value, benchmark::TimeUnit unit) {
    switch (unit) {
      case benchmark::kNanosecond: return value * 1e-6;
      case benchmark::kMicrosecond: return value * 1e-3;
      case benchmark::kMillisecond: return value;
      case benchmark::kSecond: return value * 1e3;
    }
    return value;
  }
};

/// Drop-in replacement for BENCHMARK_MAIN()'s body: run the registered
/// benchmarks through the recording reporter, then write the default run
/// report tagged with `tool`.
inline int run_benchmarks_with_report(int argc, char** argv,
                                      const std::string& tool) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ObsRecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  obs::RunReportOptions options;
  options.tool = tool;
  obs::write_default_run_report(options);
  return 0;
}

}  // namespace drcshap
