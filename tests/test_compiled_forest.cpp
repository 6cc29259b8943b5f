// Equivalence suite for the compiled inference backend: every test asserts
// *byte-identical* doubles between the exact FlatForest walk and the
// quantized/branch-free/SIMD CompiledForest paths — the backend is only
// allowed to change speed, never a single output bit.

#include "core/compiled_forest.hpp"

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
#include "core/tree_shap.hpp"
#include "features/feature_names.hpp"
#include "util/rng.hpp"

namespace drcshap {
namespace {

/// Bitwise equality for doubles (EXPECT_DOUBLE_EQ would accept 4 ulps and
/// conflate -0.0 with 0.0; the engines promise more than that).
void expect_bits_equal(const std::vector<double>& a,
                       const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_TRUE(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

Dataset noisy_data(std::size_t n, std::size_t n_features,
                   std::uint64_t seed) {
  Dataset d(n_features);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> x(n_features);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    const bool signal = x[0] > 0.6 && x[1 % n_features] > 0.4;
    d.append_row(x, rng.bernoulli(signal ? 0.9 : 0.05) ? 1 : 0, 0);
  }
  return d;
}

RandomForestClassifier small_forest(const Dataset& d, int n_trees = 30,
                                    std::uint64_t seed = 7) {
  RandomForestOptions options;
  options.n_trees = n_trees;
  options.seed = seed;
  RandomForestClassifier forest(options);
  forest.fit(d);
  return forest;
}

/// Temporarily pins one environment variable, restoring on destruction.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
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

TEST(CompiledForest, BuiltForEveryBinnedFit) {
  const Dataset d = noisy_data(300, 6, 1);
  const RandomForestClassifier forest = small_forest(d);
  ASSERT_NE(forest.compiled(), nullptr);
  EXPECT_EQ(forest.compiled()->n_trees(), 30u);
  EXPECT_EQ(forest.compiled()->n_features(), 6u);
  EXPECT_EQ(forest.compiled()->n_nodes(), forest.flat().n_nodes());
  EXPECT_EQ(forest.compiled()->max_depth(), forest.flat().max_depth());
}

TEST(CompiledForest, BatchMatchesExactBitwise) {
  const Dataset train = noisy_data(500, 8, 2);
  const Dataset eval = noisy_data(777, 8, 3);  // odd size: exercises tails
  const RandomForestClassifier forest = small_forest(train, 40);
  const auto exact = forest.predict_proba_all(eval, ForestEngine::kExact);
  const auto compiled =
      forest.predict_proba_all(eval, ForestEngine::kCompiled);
  expect_bits_equal(exact, compiled);
}

TEST(CompiledForest, SingleSampleMatchesExactBitwise) {
  const Dataset d = noisy_data(400, 5, 4);
  const RandomForestClassifier forest = small_forest(d);
  for (std::size_t i = 0; i < 64; ++i) {
    const auto x = d.row(i);
    const double exact = forest.predict_proba(x, ForestEngine::kExact);
    const double compiled = forest.predict_proba(x, ForestEngine::kCompiled);
    ASSERT_EQ(exact, compiled) << "row " << i;
  }
}

TEST(CompiledForest, SimdAndScalarKernelsBitIdentical) {
  const Dataset train = noisy_data(400, 7, 5);
  const Dataset eval = noisy_data(333, 7, 6);
  const RandomForestClassifier forest = small_forest(train);
  const CompiledForest* compiled = forest.compiled();
  ASSERT_NE(compiled, nullptr);
  std::vector<double> with_simd(eval.n_rows());
  std::vector<double> scalar(eval.n_rows());
  compiled->predict_batch(eval.features_flat().data(), eval.n_rows(),
                          with_simd.data(), CompiledForest::Simd::kAuto);
  compiled->predict_batch(eval.features_flat().data(), eval.n_rows(),
                          scalar.data(), CompiledForest::Simd::kScalar);
  expect_bits_equal(with_simd, scalar);
}

TEST(CompiledForest, EveryTailLengthMatchesSingleSample) {
  const Dataset train = noisy_data(300, 4, 7);
  const RandomForestClassifier forest = small_forest(train, 15);
  const CompiledForest* compiled = forest.compiled();
  ASSERT_NE(compiled, nullptr);
  const Dataset eval = noisy_data(17, 4, 8);
  for (std::size_t n = 1; n <= eval.n_rows(); ++n) {
    std::vector<double> batch(n);
    compiled->predict_batch(eval.features_flat().data(), n, batch.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(batch[i], compiled->predict(eval.row(i).data()))
          << "n=" << n << " row " << i;
    }
  }
}

/// Hand-built ensembles hitting the layout's corner cases: single-node
/// trees, duplicated thresholds, splits at float extremes, constant
/// features — probed with inputs exactly on thresholds, one ulp off, at
/// ±Inf, NaN and signed zero.
TEST(CompiledForest, AdversarialHandBuiltForests) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kMax = std::numeric_limits<float>::max();
  const float below_half = std::nextafter(0.5f, -kInf);
  const float above_half = std::nextafter(0.5f, kInf);

  std::vector<DecisionTree> trees(5);
  // Single leaf.
  trees[0].set_nodes({{-1, 0.0f, -1, -1, 0.25, 16.0}}, 3);
  // Root split on f0 at 0.5.
  trees[1].set_nodes({{0, 0.5f, 1, 2, 0.5, 10.0},
                      {-1, 0.0f, -1, -1, 0.1, 6.0},
                      {-1, 0.0f, -1, -1, 0.9, 4.0}},
                     3);
  // Duplicate threshold (same split value as trees[1], deeper).
  trees[2].set_nodes({{0, 0.5f, 1, 2, 0.5, 12.0},
                      {1, 0.5f, 3, 4, 0.3, 7.0},
                      {-1, 0.0f, -1, -1, 0.8, 5.0},
                      {-1, 0.0f, -1, -1, 0.2, 3.0},
                      {-1, 0.0f, -1, -1, 0.6, 4.0}},
                     3);
  // Split at float max: only +Inf (and NaN) goes right.
  trees[3].set_nodes({{1, kMax, 1, 2, 0.5, 8.0},
                      {-1, 0.0f, -1, -1, 0.4, 7.0},
                      {-1, 0.0f, -1, -1, 0.7, 1.0}},
                     3);
  // Split on a feature the probes keep constant, plus a signed-zero
  // threshold (0.0f == -0.0f, so both zeros go left).
  trees[4].set_nodes({{2, 0.0f, 1, 2, 0.5, 9.0},
                      {-1, 0.0f, -1, -1, 0.35, 5.0},
                      {-1, 0.0f, -1, -1, 0.65, 4.0}},
                     3);

  RandomForestClassifier forest;
  forest.set_trees(std::move(trees), RandomForestOptions{});
  ASSERT_NE(forest.compiled(), nullptr) << "adversarial forest must compile";

  const std::vector<std::vector<float>> probes = {
      {0.5f, 0.5f, 0.0f},          // exactly on the duplicated threshold
      {below_half, above_half, -0.0f},  // one ulp off, signed zero
      {above_half, below_half, 0.0f},
      {kMax, kMax, kMax},          // on the float-max threshold
      {kInf, -kInf, kInf},         // infinities both ways
      {std::nanf(""), 0.5f, std::nanf("")},  // NaN descends right
      {-kInf, std::nextafter(kMax, 0.0f), -0.0f},
  };
  std::vector<float> rows;
  for (const auto& p : probes) {
    const double exact =
        forest.predict_proba(p, ForestEngine::kExact);
    const double compiled =
        forest.predict_proba(p, ForestEngine::kCompiled);
    ASSERT_EQ(exact, compiled);
    rows.insert(rows.end(), p.begin(), p.end());
  }
  // Same probes through both block kernels.
  std::vector<double> batch_auto(probes.size());
  std::vector<double> batch_scalar(probes.size());
  forest.compiled()->predict_batch(rows.data(), probes.size(),
                                   batch_auto.data(),
                                   CompiledForest::Simd::kAuto);
  forest.compiled()->predict_batch(rows.data(), probes.size(),
                                   batch_scalar.data(),
                                   CompiledForest::Simd::kScalar);
  expect_bits_equal(batch_auto, batch_scalar);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(batch_auto[i],
              forest.predict_proba(probes[i], ForestEngine::kExact));
  }
}

TEST(CompiledForest, FallsBackToExactWhenUnquantizable) {
  // 65536 distinct thresholds on one feature exceeds the u16 code space, so
  // try_compile must refuse and every call must serve exact instead. One
  // stump per threshold keeps the forest shallow enough to explain.
  const int n_splits =
      static_cast<int>(CompiledForest::kMaxCutsPerFeature) + 1;
  std::vector<DecisionTree> trees(static_cast<std::size_t>(n_splits));
  for (int i = 0; i < n_splits; ++i) {
    const double left_cover = 1.0 + i % 3;
    trees[static_cast<std::size_t>(i)].set_nodes(
        {{0, static_cast<float>(i), 1, 2, 0.5, 4.0},
         {-1, 0.0f, -1, -1, 0.25 + 0.125 * (i % 4), left_cover},
         {-1, 0.0f, -1, -1, 0.75, 4.0 - left_cover}},
        2);
  }

  std::string reason;
  const FlatForest flat{std::span<const DecisionTree>(trees)};
  EXPECT_EQ(CompiledForest::try_compile(flat, &reason), nullptr);
  EXPECT_FALSE(reason.empty());

  RandomForestClassifier forest;
  forest.set_trees(std::move(trees), RandomForestOptions{});
  EXPECT_EQ(forest.compiled(), nullptr);
  EXPECT_EQ(forest.resolve_engine(ForestEngine::kCompiled),
            ForestEngine::kExact);
  const std::vector<float> x{3.5f, 0.0f};
  EXPECT_EQ(forest.predict_proba(x, ForestEngine::kCompiled),
            forest.predict_proba(x, ForestEngine::kExact));

  // With no quantizer the explainer keys its dedupe and cache on the raw
  // float bytes; phi must still equal the reference recursion bit for bit,
  // cold and warm, at any thread count.
  Dataset eval(2);
  for (const float x0 : {3.5f, -1.0f, 40000.5f, 70000.0f, std::nanf("")}) {
    eval.append_row(std::vector<float>{x0, 0.0f}, 0, 0);
  }
  eval.append_row(std::vector<float>{3.5f, 0.0f}, 0, 0);  // duplicate row
  ShapMatrix reference;
  {
    ScopedEnv fast("DRCSHAP_SHAP_FAST", "0");
    ScopedEnv cache_off("DRCSHAP_EXPLAIN_CACHE", "0");
    reference = TreeShapExplainer(forest).shap_values_batch(eval, 1);
  }
  ScopedEnv cache_on("DRCSHAP_EXPLAIN_CACHE", "1");
  TreeShapExplainer explainer(forest);
  const auto cache = std::make_shared<ExplanationCache>();
  explainer.set_cache(cache);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_bits_equal(reference.values,
                      explainer.shap_values_batch(eval, threads).values);
  }
  EXPECT_EQ(cache->stats().misses, 5u);  // five distinct rows, explained once
  EXPECT_EQ(cache->stats().hits, 5u);    // ...then all served warm
}

TEST(CompiledForest, LayoutDigestDeterministic) {
  const Dataset d = noisy_data(300, 5, 11);
  const RandomForestClassifier forest = small_forest(d);
  ASSERT_NE(forest.compiled(), nullptr);
  const CompiledForest again(forest.flat());
  EXPECT_EQ(forest.compiled()->layout_digest(), again.layout_digest());
  // A different ensemble must not (realistically) collide.
  const RandomForestClassifier other = small_forest(d, 30, 8);
  ASSERT_NE(other.compiled(), nullptr);
  EXPECT_NE(forest.compiled()->layout_digest(),
            other.compiled()->layout_digest());
}

TEST(ForestEngine, EnvParsing) {
  {
    ScopedEnv env("DRCSHAP_FOREST_ENGINE", nullptr);
    EXPECT_EQ(forest_engine_from_env(), ForestEngine::kAuto);
  }
  {
    ScopedEnv env("DRCSHAP_FOREST_ENGINE", "");
    EXPECT_EQ(forest_engine_from_env(), ForestEngine::kAuto);
  }
  {
    ScopedEnv env("DRCSHAP_FOREST_ENGINE", "auto");
    EXPECT_EQ(forest_engine_from_env(), ForestEngine::kAuto);
  }
  {
    ScopedEnv env("DRCSHAP_FOREST_ENGINE", "exact");
    EXPECT_EQ(forest_engine_from_env(), ForestEngine::kExact);
  }
  {
    ScopedEnv env("DRCSHAP_FOREST_ENGINE", "compiled");
    EXPECT_EQ(forest_engine_from_env(), ForestEngine::kCompiled);
  }
  {
    ScopedEnv env("DRCSHAP_FOREST_ENGINE", "vectorized");
    EXPECT_THROW(forest_engine_from_env(), std::invalid_argument);
  }
}

TEST(ForestEngine, EnvSelectsBackend) {
  const Dataset d = noisy_data(300, 4, 12);
  const RandomForestClassifier forest = small_forest(d, 10);
  ASSERT_NE(forest.compiled(), nullptr);
  {
    ScopedEnv env("DRCSHAP_FOREST_ENGINE", "exact");
    EXPECT_EQ(forest.resolve_engine(ForestEngine::kAuto),
              ForestEngine::kExact);
  }
  {
    ScopedEnv env("DRCSHAP_FOREST_ENGINE", "compiled");
    EXPECT_EQ(forest.resolve_engine(ForestEngine::kAuto),
              ForestEngine::kCompiled);
  }
  {
    ScopedEnv env("DRCSHAP_FOREST_ENGINE", nullptr);
    EXPECT_EQ(forest.resolve_engine(ForestEngine::kAuto),
              ForestEngine::kCompiled);
  }
  // An explicit per-call engine wins over the environment.
  {
    ScopedEnv env("DRCSHAP_FOREST_ENGINE", "compiled");
    EXPECT_EQ(forest.resolve_engine(ForestEngine::kExact),
              ForestEngine::kExact);
  }
}

TEST(ForestEngine, NamesRoundTrip) {
  EXPECT_EQ(forest_engine_name(ForestEngine::kAuto), "auto");
  EXPECT_EQ(forest_engine_name(ForestEngine::kExact), "exact");
  EXPECT_EQ(forest_engine_name(ForestEngine::kCompiled), "compiled");
}

/// Property-style cross-backend fuzz: random forests (shape, depth,
/// binning) against random matrices seasoned with exact threshold values
/// (to sit on every `<=` boundary), one-ulp neighbours, infinities and
/// NaNs. Seeds are logged so any failure replays deterministically.
TEST(CompiledForestFuzz, RandomForestsMatchExactBitwise) {
  constexpr int kForests = 25;
  for (int trial = 0; trial < kForests; ++trial) {
    SCOPED_TRACE("fuzz trial (seed) = " + std::to_string(trial));
    Rng rng(static_cast<std::uint64_t>(trial) * 7919 + 13);
    const std::size_t n_features = 3 + rng.index(6);
    const std::size_t n_rows = 60 + rng.index(140);

    Dataset train(n_features);
    for (std::size_t i = 0; i < n_rows; ++i) {
      std::vector<float> x(n_features);
      for (auto& v : x) {
        // Coarse grid so duplicate thresholds across trees are common.
        v = static_cast<float>(rng.index(32)) / 16.0f - 1.0f;
      }
      train.append_row(x, rng.bernoulli(x[0] > 0.0f ? 0.8 : 0.1) ? 1 : 0, 0);
    }

    RandomForestOptions options;
    options.n_trees = 3 + static_cast<int>(rng.index(20));
    options.max_depth =
        rng.bernoulli(0.3) ? -1 : 2 + static_cast<int>(rng.index(6));
    options.max_bins =
        rng.bernoulli(0.5) ? 64 : 4 + static_cast<int>(rng.index(12));
    options.seed = rng();
    RandomForestClassifier forest(options);
    forest.fit(train);
    ASSERT_NE(forest.compiled(), nullptr);

    // Collect the forest's split thresholds per feature.
    const FlatForest& flat = forest.flat();
    std::vector<std::vector<float>> cuts(n_features);
    for (std::size_t n = 0; n < flat.n_nodes(); ++n) {
      if (flat.feature()[n] >= 0) {
        cuts[static_cast<std::size_t>(flat.feature()[n])].push_back(
            flat.threshold()[n]);
      }
    }

    constexpr float kInf = std::numeric_limits<float>::infinity();
    Dataset eval(n_features);
    const std::size_t n_eval = 40 + rng.index(60);
    for (std::size_t i = 0; i < n_eval; ++i) {
      std::vector<float> x(n_features);
      for (std::size_t f = 0; f < n_features; ++f) {
        const std::uint64_t kind = rng.index(10);
        if (kind < 4 && !cuts[f].empty()) {
          // Exactly on a threshold, or one ulp either side.
          float t = cuts[f][rng.index(cuts[f].size())];
          if (kind == 1) t = std::nextafter(t, kInf);
          if (kind == 2) t = std::nextafter(t, -kInf);
          x[f] = t;
        } else if (kind == 8) {
          x[f] = rng.bernoulli(0.5) ? kInf : -kInf;
        } else if (kind == 9) {
          x[f] = std::nanf("");
        } else {
          x[f] = static_cast<float>(rng.uniform() * 4.0 - 2.0);
        }
      }
      eval.append_row(x, 0, 0);
    }

    const auto exact = forest.predict_proba_all(eval, ForestEngine::kExact);
    const auto compiled =
        forest.predict_proba_all(eval, ForestEngine::kCompiled);
    expect_bits_equal(exact, compiled);

    std::vector<double> scalar(eval.n_rows());
    forest.compiled()->predict_batch(eval.features_flat().data(),
                                     eval.n_rows(), scalar.data(),
                                     CompiledForest::Simd::kScalar);
    expect_bits_equal(exact, scalar);
  }
}

/// Engine equivalence on the real feature distribution: every design of the
/// paper's 14-design suite at test scale, one fitted forest, byte-identical
/// probabilities from both engines and both kernels.
TEST(CompiledForestSuite, AllSuiteDesignsByteIdentical) {
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
  ASSERT_NE(forest.compiled(), nullptr);

  for (std::size_t i = 0; i < designs.size(); ++i) {
    SCOPED_TRACE("design " + ispd2015_suite()[i].name);
    const Dataset& d = designs[i];
    if (d.n_rows() == 0) continue;
    const auto exact = forest.predict_proba_all(d, ForestEngine::kExact);
    const auto compiled =
        forest.predict_proba_all(d, ForestEngine::kCompiled);
    expect_bits_equal(exact, compiled);
    std::vector<double> scalar(d.n_rows());
    forest.compiled()->predict_batch(d.features_flat().data(), d.n_rows(),
                                     scalar.data(),
                                     CompiledForest::Simd::kScalar);
    expect_bits_equal(exact, scalar);
  }
}

}  // namespace
}  // namespace drcshap
