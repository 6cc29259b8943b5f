// Unit suite for the sharded LRU explanation cache: lookup/insert
// semantics, full-key verification, salt isolation between models, LRU
// eviction, the env kill switch, and counter bookkeeping.

#include "core/explanation_cache.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

namespace drcshap {
namespace {

std::vector<float> key_row(float seed, std::size_t n = 8) {
  std::vector<float> row(n);
  for (std::size_t i = 0; i < row.size(); ++i) {
    row[i] = seed + static_cast<float>(i) * 0.25f;
  }
  return row;
}

std::vector<double> phi_row(double seed, std::size_t n = 8) {
  std::vector<double> phi(n);
  for (std::size_t i = 0; i < phi.size(); ++i) {
    phi[i] = seed - static_cast<double>(i);
  }
  return phi;
}

TEST(ExplanationCache, MissThenHitRoundTripsExactBytes) {
  ExplanationCache cache(64, 4);
  const auto key = key_row(1.0f);
  const auto phi = phi_row(0.125);
  std::vector<double> out(phi.size(), 0.0);

  EXPECT_FALSE(cache.lookup(7, key.data(), key.size() * sizeof(float),
                            out.data(), out.size()));
  cache.insert(7, key.data(), key.size() * sizeof(float), phi.data(),
               phi.size());
  ASSERT_TRUE(cache.lookup(7, key.data(), key.size() * sizeof(float),
                           out.data(), out.size()));
  EXPECT_EQ(0, std::memcmp(out.data(), phi.data(),
                           phi.size() * sizeof(double)));

  const ExplanationCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(ExplanationCache, SaltSeparatesModelsSharingOneStore) {
  // Two explainers accidentally sharing a cache must never read each
  // other's rows: the model-digest salt turns the cross-read into a miss.
  ExplanationCache cache(64, 4);
  const auto key = key_row(2.0f);
  const auto phi_a = phi_row(1.0);
  const auto phi_b = phi_row(-5.0);
  cache.insert(/*salt=*/1, key.data(), key.size() * sizeof(float),
               phi_a.data(), phi_a.size());
  cache.insert(/*salt=*/2, key.data(), key.size() * sizeof(float),
               phi_b.data(), phi_b.size());

  std::vector<double> out(phi_a.size(), 0.0);
  ASSERT_TRUE(cache.lookup(1, key.data(), key.size() * sizeof(float),
                           out.data(), out.size()));
  EXPECT_EQ(0, std::memcmp(out.data(), phi_a.data(),
                           phi_a.size() * sizeof(double)));
  ASSERT_TRUE(cache.lookup(2, key.data(), key.size() * sizeof(float),
                           out.data(), out.size()));
  EXPECT_EQ(0, std::memcmp(out.data(), phi_b.data(),
                           phi_b.size() * sizeof(double)));
  EXPECT_FALSE(cache.lookup(3, key.data(), key.size() * sizeof(float),
                            out.data(), out.size()));
}

TEST(ExplanationCache, EvictsLeastRecentlyUsedWhenFull) {
  // One shard so LRU order is globally observable.
  ExplanationCache cache(/*capacity=*/4, /*n_shards=*/1);
  std::vector<double> out(8, 0.0);
  for (int i = 0; i < 4; ++i) {
    const auto key = key_row(static_cast<float>(i) * 10.0f);
    const auto phi = phi_row(i);
    cache.insert(7, key.data(), key.size() * sizeof(float), phi.data(),
                 phi.size());
  }
  // Touch entry 0 so entry 1 becomes the eviction victim.
  const auto key0 = key_row(0.0f);
  ASSERT_TRUE(cache.lookup(7, key0.data(), key0.size() * sizeof(float),
                           out.data(), out.size()));
  const auto key_new = key_row(99.0f);
  const auto phi_new = phi_row(99.0);
  cache.insert(7, key_new.data(), key_new.size() * sizeof(float),
               phi_new.data(), phi_new.size());

  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  const auto key1 = key_row(10.0f);
  EXPECT_FALSE(cache.lookup(7, key1.data(), key1.size() * sizeof(float),
                            out.data(), out.size()));  // evicted
  EXPECT_TRUE(cache.lookup(7, key0.data(), key0.size() * sizeof(float),
                           out.data(), out.size()));  // kept (recently used)
}

TEST(ExplanationCache, ClearDropsEntriesKeepsLifetimeCounters) {
  ExplanationCache cache(64, 4);
  const auto key = key_row(3.0f);
  const auto phi = phi_row(3.0);
  cache.insert(7, key.data(), key.size() * sizeof(float), phi.data(),
               phi.size());
  std::vector<double> out(phi.size(), 0.0);
  ASSERT_TRUE(cache.lookup(7, key.data(), key.size() * sizeof(float),
                           out.data(), out.size()));
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().hits, 1u);  // lifetime counters survive clear()
  EXPECT_FALSE(cache.lookup(7, key.data(), key.size() * sizeof(float),
                            out.data(), out.size()));
}

TEST(ExplanationCache, ReinsertingAKeyRefreshesRecencyNotContents) {
  // By contract an identical key implies an identical phi row, so a
  // re-insert only touches LRU recency: one entry, original bytes.
  ExplanationCache cache(64, 4);
  const auto key = key_row(4.0f);
  const auto phi = phi_row(1.0);
  cache.insert(7, key.data(), key.size() * sizeof(float), phi.data(),
               phi.size());
  cache.insert(7, key.data(), key.size() * sizeof(float), phi.data(),
               phi.size());
  EXPECT_EQ(cache.stats().entries, 1u);
  std::vector<double> out(phi.size(), 0.0);
  ASSERT_TRUE(cache.lookup(7, key.data(), key.size() * sizeof(float),
                           out.data(), out.size()));
  EXPECT_EQ(0,
            std::memcmp(out.data(), phi.data(), phi.size() * sizeof(double)));
}

TEST(ExplanationCache, ConcurrentMixedTrafficStaysConsistent) {
  ExplanationCache cache(128, 8);
  constexpr int kThreads = 4;
  constexpr int kOps = 400;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      std::vector<double> out(8, 0.0);
      for (int i = 0; i < kOps; ++i) {
        const auto key = key_row(static_cast<float>((t * 7 + i) % 40));
        const auto phi = phi_row((t * 7 + i) % 40);
        if (cache.lookup(9, key.data(), key.size() * sizeof(float),
                         out.data(), out.size())) {
          // A hit must return exactly what some insert stored.
          ASSERT_EQ(0, std::memcmp(out.data(), phi.data(),
                                   phi.size() * sizeof(double)));
        } else {
          cache.insert(9, key.data(), key.size() * sizeof(float), phi.data(),
                       phi.size());
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();
  const ExplanationCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_LE(stats.entries, cache.capacity());
}

}  // namespace
}  // namespace drcshap
