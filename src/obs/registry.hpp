#pragma once
// Pipeline observability: monotonic counters, gauges and scoped wall-clock
// timers in a process-global registry. Updates go to per-thread shards (one
// uncontended mutex each), so instrumented code is safe and cheap inside
// ThreadPool::parallel_for; snapshot() merges every live shard plus the
// folded data of exited threads into one deterministic view.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace drcshap::obs {

struct TimerStat {
  std::uint64_t count = 0;     ///< completed scopes
  std::uint64_t total_ns = 0;  ///< summed wall time
  std::uint64_t max_ns = 0;    ///< longest single scope

  double total_ms() const { return static_cast<double>(total_ns) * 1e-6; }
  double mean_ms() const {
    return count == 0 ? 0.0 : total_ms() / static_cast<double>(count);
  }
};

/// One merged, ordered view of the registry. Counters and timer totals are
/// integer sums over shards, so the merged value is independent of shard
/// enumeration order and thread scheduling; gauges and notes keep the most
/// recent set() (global sequence stamp).
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, std::string> notes;
  std::map<std::string, TimerStat> timers;
};

/// Add `delta` to the named monotonic counter (thread-safe, shard-local).
void counter_add(std::string_view name, std::uint64_t delta = 1);

/// Set the named gauge; the last write in program order wins in snapshots.
void gauge_set(std::string_view name, double value);

/// Set a string annotation (e.g. why a design/fold was quarantined); the
/// last write wins, like a gauge. Notes reach runreport.json verbatim.
void note_set(std::string_view name, std::string_view value);

/// Record one completed timer scope of `elapsed_ns` (used by ScopedTimer;
/// callable directly for externally measured durations).
void timer_record(std::string_view name, std::uint64_t elapsed_ns);

/// Merge all shards (live and retired) into one ordered snapshot.
Snapshot snapshot();

/// Clear every counter/gauge/timer in every shard. Meant for tests and for
/// bench binaries that emit one report per configuration.
void reset();

/// Monotonic wall clock in nanoseconds (steady_clock).
std::uint64_t now_ns();

/// RAII wall-clock timer: records one TimerStat sample on destruction.
/// The name must be a string literal: the timer keeps only a view of it, so
/// a scope costs two clock reads and one timer_record, with no allocation.
class ScopedTimer {
 public:
  template <std::size_t N>
  explicit ScopedTimer(const char (&name)[N])
      : name_(name, N - 1), start_ns_(now_ns()) {}
  ~ScopedTimer() { timer_record(name_, now_ns() - start_ns_); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::string_view name_;
  std::uint64_t start_ns_;
};

}  // namespace drcshap::obs

// Convenience: time the rest of the enclosing scope under `name`. Expands
// to a uniquely named local so several can coexist in one function.
#define DRCSHAP_OBS_CONCAT_INNER(a, b) a##b
#define DRCSHAP_OBS_CONCAT(a, b) DRCSHAP_OBS_CONCAT_INNER(a, b)
#define DRCSHAP_OBS_TIMER(name) \
  ::drcshap::obs::ScopedTimer DRCSHAP_OBS_CONCAT(obs_timer_, __LINE__)(name)
