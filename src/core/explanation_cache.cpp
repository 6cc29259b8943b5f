#include "core/explanation_cache.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "util/artifact.hpp"

namespace drcshap {

ExplanationCache::ExplanationCache(std::size_t capacity, std::size_t n_shards) {
  n_shards = std::max<std::size_t>(1, n_shards);
  capacity = std::max<std::size_t>(1, capacity);
  shard_capacity_ = (capacity + n_shards - 1) / n_shards;
  capacity_ = shard_capacity_ * n_shards;
  shards_.reserve(n_shards);
  for (std::size_t i = 0; i < n_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool ExplanationCache::enabled_by_env() {
  const char* env = std::getenv("DRCSHAP_EXPLAIN_CACHE");
  if (env == nullptr) return true;
  const std::string_view value(env);
  return !(value == "0" || value == "off" || value == "false" ||
           value == "OFF" || value == "FALSE");
}

namespace {
/// FNV-1a of a salted key (shard selector and bucket key): the salt folded
/// in before the key bytes.
std::uint64_t salted_digest(std::uint64_t salt, const void* bytes,
                            std::size_t len) {
  return fnv1a(bytes, len, fnv1a(&salt, sizeof(salt)));
}
}  // namespace

bool ExplanationCache::lookup(std::uint64_t salt, const void* key_bytes,
                              std::size_t key_len, double* phi_out,
                              std::size_t n_values) {
  const std::uint64_t d = salted_digest(salt, key_bytes, key_len);
  Shard& shard = shard_for(d);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto bucket = shard.index.find(d);
  if (bucket != shard.index.end()) {
    for (const auto& it : bucket->second) {
      if (it->salt == salt && it->key.size() == key_len &&
          std::memcmp(it->key.data(), key_bytes, key_len) == 0) {
        if (it->phi.size() != n_values) break;  // shape changed: treat as miss
        std::memcpy(phi_out, it->phi.data(), n_values * sizeof(double));
        shard.lru.splice(shard.lru.begin(), shard.lru, it);
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void ExplanationCache::insert(std::uint64_t salt, const void* key_bytes,
                              std::size_t key_len, const double* phi,
                              std::size_t n_values) {
  const std::uint64_t d = salted_digest(salt, key_bytes, key_len);
  Shard& shard = shard_for(d);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto bucket = shard.index.find(d);
  if (bucket != shard.index.end()) {
    for (const auto& it : bucket->second) {
      if (it->salt == salt && it->key.size() == key_len &&
          std::memcmp(it->key.data(), key_bytes, key_len) == 0) {
        // Refresh in place — identical key means identical phi, so only
        // recency changes.
        shard.lru.splice(shard.lru.begin(), shard.lru, it);
        return;
      }
    }
  }
  if (shard.lru.size() >= shard_capacity_) {
    const Entry& victim = shard.lru.back();
    auto victim_bucket = shard.index.find(victim.key_digest);
    if (victim_bucket != shard.index.end()) {
      auto& chain = victim_bucket->second;
      const auto victim_it = std::prev(shard.lru.end());
      chain.erase(std::remove(chain.begin(), chain.end(), victim_it),
                  chain.end());
      if (chain.empty()) shard.index.erase(victim_bucket);
    }
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    entries_.fetch_sub(1, std::memory_order_relaxed);
  }
  Entry entry;
  entry.key_digest = d;
  entry.salt = salt;
  entry.key.assign(static_cast<const std::uint8_t*>(key_bytes),
                   static_cast<const std::uint8_t*>(key_bytes) + key_len);
  entry.phi.assign(phi, phi + n_values);
  shard.lru.push_front(std::move(entry));
  shard.index[d].push_back(shard.lru.begin());
  entries_.fetch_add(1, std::memory_order_relaxed);
}

void ExplanationCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    entries_.fetch_sub(shard->lru.size(), std::memory_order_relaxed);
    shard->lru.clear();
    shard->index.clear();
  }
}

ExplanationCacheStats ExplanationCache::stats() const {
  ExplanationCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.capacity = capacity_;
  return s;
}

}  // namespace drcshap
