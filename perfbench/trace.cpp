#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <utility>

#include "obs/json.hpp"
#include "util/artifact.hpp"

namespace perfbench::trace {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_thread{1};

std::mutex g_mu;  // guards g_spans
std::vector<SpanRecord> g_spans;

thread_local std::vector<std::uint64_t> t_open;  // innermost span last
thread_local std::uint32_t t_thread = 0;

std::uint32_t thread_number() {
  if (t_thread == 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

}  // namespace

void set_enabled(bool enabled) { g_enabled.store(enabled); }
bool enabled() { return g_enabled.load(); }

Span::Span(std::string_view name, std::uint64_t parent) {
  if (!enabled()) return;
  record_.id = g_next_id.fetch_add(1);
  record_.parent = parent != 0 ? parent : (t_open.empty() ? 0 : t_open.back());
  record_.name = std::string(name);
  record_.thread = thread_number();
  t_open.push_back(record_.id);
  record_.start_ns = drcshap::obs::now_ns();
}

Span::~Span() {
  if (record_.id == 0) return;
  record_.end_ns = drcshap::obs::now_ns();
  t_open.pop_back();
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(std::move(record_));
}

std::uint64_t record(std::string_view name, std::uint64_t parent,
                     std::uint64_t start_ns, std::uint64_t end_ns) {
  if (!enabled()) return 0;
  SpanRecord span;
  span.id = g_next_id.fetch_add(1);
  span.parent = parent;
  span.name = std::string(name);
  span.thread = thread_number();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(std::move(span));
  return g_spans.back().id;
}

std::vector<SpanRecord> spans(std::size_t from) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (from >= g_spans.size()) return {};
  return {g_spans.begin() + static_cast<std::ptrdiff_t>(from), g_spans.end()};
}

std::size_t span_count() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans.size();
}

std::map<std::string, LayerTime> layer_times(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, LayerTime> out;
  for (const SpanRecord& span : spans) {
    // Union of the child intervals, clipped to the parent: children of one
    // span may overlap when they run on different pool workers.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    if (const auto it = children.find(span.id); it != children.end()) {
      for (const SpanRecord* child : it->second) {
        const std::uint64_t lo = std::max(child->start_ns, span.start_ns);
        const std::uint64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t covered_ns = 0;
    std::uint64_t reach = span.start_ns;
    for (const auto& [lo, hi] : covered) {
      const std::uint64_t from = std::max(lo, reach);
      if (hi > from) covered_ns += hi - from;
      reach = std::max(reach, hi);
    }
    LayerTime& layer = out[span.name];
    ++layer.count;
    layer.total_ms += span.ms();
    layer.self_ms +=
        static_cast<double>(span.end_ns - span.start_ns - covered_ns) * 1e-6;
    layer.max_ms = std::max(layer.max_ms, span.ms());
  }
  return out;
}

void write_spans(const std::string& path,
                 const std::vector<SpanRecord>& spans) {
  std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& span : spans) origin = std::min(origin, span.start_ns);
  drcshap::obs::JsonValue doc = drcshap::obs::JsonValue::make_array();
  for (const SpanRecord& span : spans) {
    drcshap::obs::JsonValue item = drcshap::obs::JsonValue::make_object();
    item["id"] = span.id;
    item["parent"] = span.parent;
    item["name"] = span.name;
    item["thread"] = static_cast<std::uint64_t>(span.thread);
    item["start_us"] = static_cast<double>(span.start_ns - origin) * 1e-3;
    item["end_us"] = static_cast<double>(span.end_ns - origin) * 1e-3;
    doc.push_back(std::move(item));
  }
  drcshap::throw_if_error(drcshap::write_file_atomic(path, doc.dump(1) + "\n"));
}

std::uint64_t ObsDelta::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double ObsDelta::timer_ms(const std::string& name) const {
  const auto it = timers.find(name);
  return it == timers.end() ? 0.0 : it->second.total_ms();
}

std::uint64_t ObsDelta::timer_count(const std::string& name) const {
  const auto it = timers.find(name);
  return it == timers.end() ? 0 : it->second.count;
}

ObsDelta& ObsDelta::operator+=(const ObsDelta& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, stat] : other.timers) {
    drcshap::obs::TimerStat& mine = timers[name];
    mine.count += stat.count;
    mine.total_ns += stat.total_ns;
  }
  return *this;
}

ObsDelta obs_delta(const drcshap::obs::Snapshot& before,
                   const drcshap::obs::Snapshot& after) {
  ObsDelta delta;
  for (const auto& [name, value] : after.counters) {
    const auto it = before.counters.find(name);
    const std::uint64_t base = it == before.counters.end() ? 0 : it->second;
    if (value > base) delta.counters[name] = value - base;
  }
  for (const auto& [name, stat] : after.timers) {
    const auto it = before.timers.find(name);
    drcshap::obs::TimerStat base;
    if (it != before.timers.end()) base = it->second;
    if (stat.count > base.count) {
      drcshap::obs::TimerStat& d = delta.timers[name];
      d.count = stat.count - base.count;
      d.total_ns = stat.total_ns - base.total_ns;
    }
  }
  return delta;
}

}  // namespace perfbench::trace
