// Byte-identity suite for the batched fast TreeSHAP path and the
// explanation cache: whatever combination of walk (reference recursion /
// scalar fast / AVX2 fast), thread count, and cache configuration runs,
// every phi double must match the reference recursion bit for bit. The
// fast path is only allowed to change speed, never a single output bit —
// same contract the compiled inference backend makes, now for explanations.

#include "core/tree_shap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>

#include "benchsuite/pipeline.hpp"
#include "benchsuite/suite.hpp"
#include "core/explanation_cache.hpp"
#include "core/random_forest.hpp"
#include "features/feature_names.hpp"
#include "obs/registry.hpp"
#include "util/rng.hpp"

namespace drcshap {
namespace {

void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_TRUE(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Temporarily pins one environment variable, restoring on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_ = false;
};

Dataset random_data(std::size_t n, std::size_t n_features,
                    std::uint64_t seed) {
  Dataset d(n_features);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> x(n_features);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    double score = x[0] + x[1 % n_features] + x[2 % n_features];
    if (x[0] > 0.5 && x[1 % n_features] > 0.5) score += 1.0;
    score += 0.3 * rng.normal();
    d.append_row(x, score > 1.6 ? 1 : 0, 0);
  }
  return d;
}

/// Evaluation rows engineered against the walks' branch decisions: values
/// exactly on fitted thresholds, one ulp to either side, NaN (comparisons
/// false, so the sample always goes right), signed zeros, infinities, and
/// duplicated rows (exercising the dedupe-scatter path).
Dataset adversarial_rows(const RandomForestClassifier& forest, std::size_t n,
                         std::uint64_t seed) {
  const FlatForest& flat = forest.flat();
  std::vector<float> thresholds;
  for (std::size_t node = 0; node < flat.n_nodes(); ++node) {
    if (flat.feature()[node] >= 0) {
      thresholds.push_back(flat.threshold()[node]);
    }
  }
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Dataset d(flat.n_features());
  Rng rng(seed);
  std::vector<float> x(flat.n_features());
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : x) {
      const int kind = static_cast<int>(rng.uniform() * 10.0);
      if (kind <= 2 && !thresholds.empty()) {
        float t = thresholds[static_cast<std::size_t>(rng.uniform() *
                             static_cast<double>(thresholds.size())) %
                             thresholds.size()];
        if (kind == 1) t = std::nextafter(t, kInf);
        if (kind == 2) t = std::nextafter(t, -kInf);
        v = t;
      } else if (kind == 3) {
        v = rng.bernoulli(0.5) ? 0.0f : -0.0f;
      } else if (kind == 4) {
        v = rng.bernoulli(0.5) ? kInf : -kInf;
      } else if (kind == 5) {
        v = std::nanf("");
      } else {
        v = static_cast<float>(rng.uniform() * 2.0 - 0.5);
      }
    }
    d.append_row(x, 0, 0);
    if (rng.bernoulli(0.3)) d.append_row(x, 0, 0);  // duplicate row
  }
  return d;
}

/// Ground truth: the reference recursion (fast path and SIMD disabled,
/// no cache attached), single-threaded.
ShapMatrix reference_phi(const RandomForestClassifier& forest,
                         const Dataset& data) {
  ScopedEnv fast("DRCSHAP_SHAP_FAST", "0");
  ScopedEnv cache("DRCSHAP_EXPLAIN_CACHE", "0");
  return TreeShapExplainer(forest).shap_values_batch(data, 1);
}

void check_all_configs(const RandomForestClassifier& forest,
                       const Dataset& data) {
  // The cache-on legs must work even when the CI job under test exports
  // DRCSHAP_EXPLAIN_CACHE=0 (the kill-switch leg); the env-disabled leg
  // below pins its own "0" scope.
  ScopedEnv cache_on("DRCSHAP_EXPLAIN_CACHE", "1");
  const ShapMatrix reference = reference_phi(forest, data);

  TreeShapExplainer explainer(forest);
  const auto cache = std::make_shared<ExplanationCache>();
  for (const bool with_cache : {false, true}) {
    SCOPED_TRACE(with_cache ? "cache=on" : "cache=off");
    explainer.set_cache(with_cache ? cache : nullptr);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      expect_bits_equal(reference.values,
                        explainer.shap_values_batch(data, threads).values);
    }
  }
  // Warm cache: every row now hits; the scatter must still reproduce the
  // reference bits exactly.
  explainer.set_cache(cache);
  expect_bits_equal(reference.values,
                    explainer.shap_values_batch(data, 2).values);
  EXPECT_GT(cache->stats().hits, 0u);

  {
    // Scalar fast walk (SIMD kill switch): same bits again.
    ScopedEnv simd("DRCSHAP_SIMD", "0");
    const TreeShapExplainer scalar_explainer(forest);
    expect_bits_equal(reference.values,
                      scalar_explainer.shap_values_batch(data, 1).values);
  }
  {
    // Cache attached but disabled by env: bypassed, bits unchanged.
    ScopedEnv off("DRCSHAP_EXPLAIN_CACHE", "0");
    const ExplanationCacheStats before = cache->stats();
    expect_bits_equal(reference.values,
                      explainer.shap_values_batch(data, 1).values);
    const ExplanationCacheStats after = cache->stats();
    EXPECT_EQ(before.hits + before.misses, after.hits + after.misses);
  }
}

TEST(ShapFastPath, FuzzForestsByteIdenticalAcrossAllConfigs) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Dataset train = random_data(240, 10, seed);
    RandomForestOptions options;
    options.n_trees = 20;
    options.seed = seed;
    RandomForestClassifier forest(options);
    forest.fit(train);
    const Dataset eval = adversarial_rows(forest, 40, seed + 100);
    check_all_configs(forest, eval);
  }
}

TEST(ShapFastPath, HandBuiltAdversarialTrees) {
  // Tree 0: duplicated split feature along one path, thresholds one ulp
  // apart — the unique-path folding and dup_index machinery must agree
  // with the reference recursion on which branch each value takes.
  const float t = 0.5f;
  const float t_up = std::nextafter(t, 2.0f);
  std::vector<TreeNode> dup(7);
  dup[0] = {0, t, 1, 2, 0.5, 100.0};
  dup[1] = {0, std::nextafter(t, -2.0f), 3, 4, 0.3, 60.0};
  dup[2] = {1, -0.0f, 5, 6, 0.8, 40.0};
  dup[3] = {-1, 0.0f, -1, -1, 0.1, 30.0};
  dup[4] = {-1, 0.0f, -1, -1, 0.5, 30.0};
  dup[5] = {-1, 0.0f, -1, -1, 0.7, 25.0};
  dup[6] = {-1, 0.0f, -1, -1, 0.9, 15.0};
  DecisionTree tree_dup;
  tree_dup.set_nodes(dup, 2);

  // Tree 1: threshold exactly -0.0 (x <= -0.0 is true for both zeros).
  std::vector<TreeNode> zero(3);
  zero[0] = {1, -0.0f, 1, 2, 0.4, 80.0};
  zero[1] = {-1, 0.0f, -1, -1, 0.2, 50.0};
  zero[2] = {-1, 0.0f, -1, -1, 0.75, 30.0};
  DecisionTree tree_zero;
  tree_zero.set_nodes(zero, 2);

  RandomForestClassifier forest(RandomForestOptions{});
  forest.set_trees({tree_dup, tree_zero}, RandomForestOptions{});

  Dataset eval(2);
  for (const float x0 : {t, t_up, std::nextafter(t, -2.0f), -0.0f,
                         std::nanf(""), 0.75f}) {
    for (const float x1 : {-0.0f, 0.0f, std::nanf(""), -1.0f, 1.0f}) {
      eval.append_row(std::vector<float>{x0, x1}, 0, 0);
    }
  }
  check_all_configs(forest, eval);
}

/// The full 14-design suite at test scale, one fitted forest: reference
/// recursion vs the fast path across thread counts and both cache
/// configurations, byte-identical on every design's real feature
/// distribution.
TEST(ShapFastPathSuite, AllSuiteDesignsByteIdentical) {
  ScopedEnv cache_on("DRCSHAP_EXPLAIN_CACHE", "1");
  PipelineOptions tiny;
  tiny.generator.scale = 16.0;

  Dataset train(FeatureSchema::kNumFeatures, FeatureSchema::names());
  std::vector<Dataset> designs;
  for (const BenchmarkSpec& spec : ispd2015_suite()) {
    designs.push_back(run_pipeline(spec, tiny).samples);
  }
  train.append(designs[0]);
  train.append(designs[1]);

  RandomForestOptions options;
  options.n_trees = 50;
  RandomForestClassifier forest(options);
  forest.fit(train);

  const auto cache = std::make_shared<ExplanationCache>();
  for (std::size_t i = 0; i < designs.size(); ++i) {
    SCOPED_TRACE("design " + ispd2015_suite()[i].name);
    if (designs[i].n_rows() == 0) continue;
    // Cap per-design rows: identity per row is what matters, not volume.
    std::vector<std::size_t> rows(
        std::min<std::size_t>(designs[i].n_rows(), 24));
    for (std::size_t r = 0; r < rows.size(); ++r) rows[r] = r;
    const Dataset d = designs[i].subset(rows);

    const ShapMatrix reference = reference_phi(forest, d);
    TreeShapExplainer explainer(forest);
    expect_bits_equal(reference.values,
                      explainer.shap_values_batch(d, 3).values);
    explainer.set_cache(cache);
    for (int pass = 0; pass < 2; ++pass) {  // cold inserts, then warm hits
      expect_bits_equal(reference.values,
                        explainer.shap_values_batch(d, 1).values);
    }
  }
  EXPECT_GT(cache->stats().hits, 0u);
}

/// Reads one obs counter (0 when absent or when obs is compiled out).
std::uint64_t counter(const char* name) {
  const obs::Snapshot snap = obs::snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// The explanation key is the row's u16 threshold-bucket codes, not its
/// float bytes. Rows that differ in float bytes but sit in the same bucket
/// of every split feature (a split feature moved inside its bucket, an
/// unsplit feature perturbed) must collapse inside one batch and be served
/// from the cache in the next. Raw-float keys fail every count below.
TEST(ShapFastPath, CodeKeysShareSameBucketRows) {
  ScopedEnv cache_on("DRCSHAP_EXPLAIN_CACHE", "1");
  // f0 splits at 0.25 and 0.5, f1 at 0.5; no tree splits on f2.
  std::vector<TreeNode> on_f0(5);
  on_f0[0] = {0, 0.5f, 1, 2, 0.5, 100.0};
  on_f0[1] = {0, 0.25f, 3, 4, 0.3, 60.0};
  on_f0[2] = {-1, 0.0f, -1, -1, 0.8, 40.0};
  on_f0[3] = {-1, 0.0f, -1, -1, 0.1, 25.0};
  on_f0[4] = {-1, 0.0f, -1, -1, 0.45, 35.0};
  std::vector<TreeNode> on_f1(3);
  on_f1[0] = {1, 0.5f, 1, 2, 0.4, 100.0};
  on_f1[1] = {-1, 0.0f, -1, -1, 0.2, 55.0};
  on_f1[2] = {-1, 0.0f, -1, -1, 0.7, 45.0};
  DecisionTree tree_f0;
  tree_f0.set_nodes(on_f0, 3);
  DecisionTree tree_f1;
  tree_f1.set_nodes(on_f1, 3);
  RandomForestClassifier forest(RandomForestOptions{});
  forest.set_trees({tree_f0, tree_f1}, RandomForestOptions{});
  ASSERT_NE(forest.compiled(), nullptr);

  // Every row: f0 in (0.25, 0.5], f1 in (0.5, inf) — one bucket each.
  Dataset first(3);
  first.append_row(std::vector<float>{0.3f, 0.7f, 1.0f}, 0, 0);
  first.append_row(std::vector<float>{0.4f, 0.6f, -5.0f}, 0, 0);
  Dataset second(3);
  second.append_row(std::vector<float>{0.5f, 0.9f, 2.0f}, 0, 0);
  second.append_row(std::vector<float>{0.26f, 0.51f, 100.0f}, 0, 0);

  TreeShapExplainer explainer(forest);
  const auto cache = std::make_shared<ExplanationCache>();
  explainer.set_cache(cache);
  for (const Dataset* batch : {&first, &second}) {
    const std::uint64_t unique_before = counter("shap/batch_unique_rows");
    const ShapMatrix phi = explainer.shap_values_batch(*batch, 2);
    if (obs::kEnabled) {
      EXPECT_EQ(counter("shap/batch_unique_rows") - unique_before, 1u);
    }
    expect_bits_equal(reference_phi(forest, *batch).values, phi.values);
    // Independently of any dedupe: each row's own single-sample recursion.
    for (std::size_t r = 0; r < batch->n_rows(); ++r) {
      const auto row = phi.row(r);
      expect_bits_equal(explainer.shap_values(batch->row(r)),
                        std::vector<double>(row.begin(), row.end()));
    }
  }
  // The two in-batch rows of `first` collapsed into one lookup (a miss),
  // and all of `second` was one hit: nothing was recomputed.
  EXPECT_EQ(cache->stats().misses, 1u);
  EXPECT_EQ(cache->stats().hits, 1u);
  EXPECT_EQ(cache->stats().entries, 1u);
}

}  // namespace
}  // namespace drcshap
