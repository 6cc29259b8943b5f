#include "obs/registry.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <vector>

namespace drcshap::obs {

namespace {

// A gauge remembers when it was last set so the merge can pick the most
// recent write no matter which shard it landed in.
struct GaugeCell {
  double value = 0.0;
  std::uint64_t seq = 0;
};

// Notes reuse the gauge discipline (last global write wins) with a string
// payload.
struct NoteCell {
  std::string value;
  std::uint64_t seq = 0;
};

// Plain (non-atomic) metric maps guarded by one mutex per shard. The mutex
// is only ever contended by snapshot()/reset() walking the registry — the
// owning thread is the sole updater — so the fast path is an uncontended
// lock plus a map operation, cheap at the stage granularity we instrument.
struct Shard {
  std::mutex mu;
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, GaugeCell, std::less<>> gauges;
  std::map<std::string, NoteCell, std::less<>> notes;
  std::map<std::string, TimerStat, std::less<>> timers;

  void clear() {
    counters.clear();
    gauges.clear();
    notes.clear();
    timers.clear();
  }
};

// The one merge rule, used both when a thread retires its shard and when a
// snapshot combines shards: counters and timer count/total add, timer max
// maxes, and a gauge or note keeps whichever cell carries the higher seq
// (the later global write).
void fold(const Shard& from, Shard& into) {
  for (const auto& [name, value] : from.counters) into.counters[name] += value;
  for (const auto& [name, cell] : from.gauges) {
    GaugeCell& dst = into.gauges[name];
    if (cell.seq > dst.seq) dst = cell;
  }
  for (const auto& [name, cell] : from.notes) {
    NoteCell& dst = into.notes[name];
    if (cell.seq > dst.seq) dst = cell;
  }
  for (const auto& [name, stat] : from.timers) {
    TimerStat& dst = into.timers[name];
    dst.count += stat.count;
    dst.total_ns += stat.total_ns;
    dst.max_ns = std::max(dst.max_ns, stat.max_ns);
  }
}

// Process-global registry. Live shards are shared_ptrs so a snapshot taken
// while a thread exits stays valid; when a thread dies its shard contents
// fold into `retired_` (keeping memory bounded by the live thread count,
// not by how many ThreadPools have ever existed). Lock order is always
// registry mutex -> shard mutex. The registry itself is intentionally
// leaked: main-thread thread_local destructors still retire safely at exit.
class Registry {
 public:
  static Registry& get() {
    static Registry* instance = new Registry();
    return *instance;
  }

  std::uint64_t next_gauge_seq() {
    return gauge_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  Shard& local_shard() {
    thread_local ShardRef ref(*this);
    return *ref.shard;
  }

  Snapshot snapshot() {
    Shard merged;
    {
      std::lock_guard<std::mutex> registry_lock(mu_);
      fold(retired_, merged);
      for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> shard_lock(shard->mu);
        fold(*shard, merged);
      }
    }
    Snapshot out;
    out.counters.insert(merged.counters.begin(), merged.counters.end());
    for (auto& [name, cell] : merged.gauges) out.gauges[name] = cell.value;
    for (auto& [name, cell] : merged.notes) {
      out.notes[name] = std::move(cell.value);
    }
    out.timers.insert(merged.timers.begin(), merged.timers.end());
    return out;
  }

  void reset() {
    std::lock_guard<std::mutex> registry_lock(mu_);
    retired_.clear();
    for (const auto& shard : shards_) {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      shard->clear();
    }
  }

 private:
  struct ShardRef {
    explicit ShardRef(Registry& registry)
        : owner(&registry), shard(std::make_shared<Shard>()) {
      std::lock_guard<std::mutex> lock(owner->mu_);
      owner->shards_.push_back(shard);
    }
    ~ShardRef() { owner->retire(shard); }

    Registry* owner;
    std::shared_ptr<Shard> shard;
  };

  void retire(const std::shared_ptr<Shard>& shard) {
    std::lock_guard<std::mutex> registry_lock(mu_);
    {
      std::lock_guard<std::mutex> shard_lock(shard->mu);
      fold(*shard, retired_);
    }
    shards_.erase(std::remove(shards_.begin(), shards_.end(), shard),
                  shards_.end());
  }

  std::mutex mu_;
  std::vector<std::shared_ptr<Shard>> shards_;
  Shard retired_;  // mu unused: guarded by mu_
  std::atomic<std::uint64_t> gauge_seq_{0};
};

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void counter_add(std::string_view name, std::uint64_t delta) {
  Shard& shard = Registry::get().local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.counters.find(name);
  if (it == shard.counters.end()) {
    shard.counters.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void gauge_set(std::string_view name, double value) {
  Registry& registry = Registry::get();
  const std::uint64_t seq = registry.next_gauge_seq();
  Shard& shard = registry.local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.gauges.find(name);
  if (it == shard.gauges.end()) {
    shard.gauges.emplace(std::string(name), GaugeCell{value, seq});
  } else {
    it->second = {value, seq};
  }
}

void note_set(std::string_view name, std::string_view value) {
  Registry& registry = Registry::get();
  const std::uint64_t seq = registry.next_gauge_seq();
  Shard& shard = registry.local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.notes.find(name);
  if (it == shard.notes.end()) {
    shard.notes.emplace(std::string(name), NoteCell{std::string(value), seq});
  } else {
    it->second = {std::string(value), seq};
  }
}

void timer_record(std::string_view name, std::uint64_t elapsed_ns) {
  Shard& shard = Registry::get().local_shard();
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.timers.find(name);
  if (it == shard.timers.end()) {
    it = shard.timers.emplace(std::string(name), TimerStat{}).first;
  }
  TimerStat& stat = it->second;
  ++stat.count;
  stat.total_ns += elapsed_ns;
  stat.max_ns = std::max(stat.max_ns, elapsed_ns);
}

Snapshot snapshot() { return Registry::get().snapshot(); }

void reset() { Registry::get().reset(); }

}  // namespace drcshap::obs
