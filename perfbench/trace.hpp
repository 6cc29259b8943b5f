#pragma once
// Tracing for the per-layer run, recorded entirely from the benchmark side:
//
//   * spans around each call into a public library function (name, start,
//     end, parent), kept in memory and written out once at exit. A span's
//     parent is the innermost open span on the same thread, or an explicit
//     parent for work handed to pool workers;
//   * deltas of the library's own obs registry (timers and counters) taken
//     around composite calls such as EcoEngine::apply, which already
//     separate route replay, DRC/feature rescoring, predict and explain.
//
// When tracing is off (the end-to-end run) a Span reads no clock and
// records nothing, so the untraced run carries no tracing cost.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"

namespace perfbench::trace {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;  ///< small per-process thread number

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

void set_enabled(bool enabled);
bool enabled();

/// RAII span. `parent` 0 inherits the innermost open span of this thread.
class Span {
 public:
  explicit Span(std::string_view name, std::uint64_t parent = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return record_.id; }

 private:
  SpanRecord record_;
};

/// Records a span measured elsewhere, e.g. a request sent by one thread and
/// answered on another. Returns its id; no-op (0) when tracing is off.
std::uint64_t record(std::string_view name, std::uint64_t parent,
                     std::uint64_t start_ns, std::uint64_t end_ns);

/// The spans closed so far, in closing order, from index `from` on (pass
/// span_count() taken earlier to get only the spans of one operation).
std::vector<SpanRecord> spans(std::size_t from = 0);
std::size_t span_count();

/// Per span name: count, summed duration, and summed self time (duration
/// minus the part of it covered by the union of its child spans).
struct LayerTime {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double max_ms = 0.0;
};
std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans);

/// Writes the spans as a JSON array of {id, parent, name, thread, start_us,
/// end_us} objects (times relative to the first span's start).
void write_spans(const std::string& path, const std::vector<SpanRecord>& spans);

/// Difference of two obs snapshots: counters and timer count/total only
/// (a timer's max does not subtract).
struct ObsDelta {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, drcshap::obs::TimerStat> timers;

  std::uint64_t counter(const std::string& name) const;
  double timer_ms(const std::string& name) const;
  std::uint64_t timer_count(const std::string& name) const;
  ObsDelta& operator+=(const ObsDelta& other);
};
ObsDelta obs_delta(const drcshap::obs::Snapshot& before,
                   const drcshap::obs::Snapshot& after);

}  // namespace perfbench::trace
