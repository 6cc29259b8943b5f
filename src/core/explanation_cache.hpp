#pragma once
// Bounded, sharded LRU cache of per-sample SHAP rows, keyed by the
// u16-quantized feature vector of the compiled forest.
//
// Two g-cells whose features quantize to the same codes take the same
// branch at every split of every tree, so their SHAP vectors are equal
// bit for bit (the monotone quantization resolves every split exactly as
// the float compare does). That makes the quantized code vector a sound
// cache key: a hit returns exactly the doubles a recompute would
// produce. ECO-style traffic re-asks about mostly-unchanged cells, so
// repeat rate across requests is high and hits skip the whole
// O(trees * leaves * depth^2) TreeSHAP walk.
//
// Entries store the full code vector next to the phi row and verify it on
// lookup, so a 64-bit digest collision degrades to a miss, never to a
// wrong explanation. An ensemble that cannot quantize keys on the raw
// float row bytes instead via the same digest+verify scheme — byte-equal
// rows are trivially explanation-equal.
//
// Shards are independently mutex-guarded LRU lists; concurrent explain
// batches (and the serving daemon's batch runner) hit different shards in
// parallel. Model hot swaps get cache coherence structurally: every loaded
// ServedModel owns a fresh cache, so stale entries die with the retired
// model instead of being invalidated in place (version-keyed by identity).
//
// $DRCSHAP_EXPLAIN_CACHE=0 is the kill switch (mirroring $DRCSHAP_SIMD):
// explainers skip an attached cache entirely, for A/B runs and for proving
// the fast path correct with caching out of the picture.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace drcshap {

/// Lifetime counters of one cache instance (monotonic; snapshot via
/// ExplanationCache::stats). hit_rate() is hits / lookups, 0 when idle.
struct ExplanationCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t capacity = 0;

  double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

class ExplanationCache {
 public:
  /// `capacity` bounds the total entry count across all shards (rounded up
  /// to a multiple of the shard count; at ~n_features doubles plus
  /// n_features u16 codes per entry, the default ~4096 rows of 387
  /// features is ~16 MiB).
  explicit ExplanationCache(std::size_t capacity = kDefaultCapacity,
                            std::size_t n_shards = kDefaultShards);

  static constexpr std::size_t kDefaultCapacity = 4096;
  static constexpr std::size_t kDefaultShards = 8;

  /// Looks up the row keyed by (`salt`, `key_bytes`) — the salt is the
  /// explainer's structural model digest, so one cache accidentally shared
  /// by two models misses instead of serving the wrong model's phi.
  /// `key_bytes` is the quantized code vector, or the raw float row when
  /// the forest cannot be quantized. On a hit copies the stored phi row into
  /// `phi_out` (must hold n_values doubles) and returns true. Touches LRU
  /// recency.
  bool lookup(std::uint64_t salt, const void* key_bytes, std::size_t key_len,
              double* phi_out, std::size_t n_values);

  /// Inserts (or refreshes) the row keyed by (`salt`, `key_bytes`). Evicts
  /// the least recently used entry of the target shard when full.
  void insert(std::uint64_t salt, const void* key_bytes, std::size_t key_len,
              const double* phi, std::size_t n_values);

  /// Drops every entry (counters are kept: they describe lifetime traffic).
  void clear();

  ExplanationCacheStats stats() const;
  std::size_t capacity() const { return capacity_; }

  /// False when $DRCSHAP_EXPLAIN_CACHE is "0"/"off"/"false" — explainers
  /// then bypass any attached cache. Unset or anything else means enabled;
  /// re-read on every call so tests can flip it per scope.
  static bool enabled_by_env();

 private:
  struct Entry {
    std::uint64_t key_digest;
    std::uint64_t salt;
    std::vector<std::uint8_t> key;  ///< full key bytes, verified on lookup
    std::vector<double> phi;
  };
  struct Shard {
    std::mutex mu;
    std::list<Entry> lru;  ///< front = most recently used
    /// digest -> every resident entry with that digest (collisions chain).
    std::unordered_map<std::uint64_t, std::vector<std::list<Entry>::iterator>>
        index;
  };

  Shard& shard_for(std::uint64_t key_digest) {
    return *shards_[key_digest % shards_.size()];
  }

  std::size_t capacity_ = 0;        ///< total, across shards
  std::size_t shard_capacity_ = 0;  ///< per shard
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> entries_{0};
};

}  // namespace drcshap
