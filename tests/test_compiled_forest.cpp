// Equivalence suite for the compiled inference backend: every test asserts
// *byte-identical* doubles between the exact FlatForest walk and the
// quantized, branch-free CompiledForest batch path — the backend is only
// allowed to change speed, never a single output bit.

#include "core/compiled_forest.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>

#include "benchsuite/pipeline.hpp"
#include "benchsuite/suite.hpp"
#include "core/model_io.hpp"
#include "core/random_forest.hpp"
#include "features/feature_names.hpp"
#include "obs/registry.hpp"
#include "serve/model_registry.hpp"
#include "util/artifact.hpp"
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
  const auto compiled = forest.predict_proba_all(eval, ForestEngine::kAuto);
  expect_bits_equal(exact, compiled);
}

TEST(CompiledForest, SingleSampleMatchesExactBitwise) {
  // One row alone through the block kernel: seven padded lanes, one kept.
  const Dataset d = noisy_data(400, 5, 4);
  const RandomForestClassifier forest = small_forest(d);
  for (std::size_t i = 0; i < 64; ++i) {
    const auto x = d.row(i);
    double compiled = 0.0;
    forest.compiled()->predict_batch(x.data(), 1, &compiled);
    ASSERT_EQ(forest.predict_proba(x), compiled) << "row " << i;
  }
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
      ASSERT_EQ(batch[i], forest.predict_proba(eval.row(i)))
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
  for (const auto& p : probes) rows.insert(rows.end(), p.begin(), p.end());
  const auto exact = forest.predict_proba_all(rows, probes.size(),
                                              ForestEngine::kExact);
  const auto compiled = forest.predict_proba_all(rows, probes.size(),
                                                 ForestEngine::kAuto);
  expect_bits_equal(exact, compiled);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    ASSERT_EQ(compiled[i], forest.predict_proba(probes[i])) << "probe " << i;
  }
}

/// One stump per threshold on feature 0 of a 2-feature forest: with
/// kMaxCutsPerFeature + 1 stumps the feature exceeds the u16 code space.
std::vector<DecisionTree> unquantizable_stumps() {
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
  return trees;
}

/// save_forest's payload for `trees`, written here because no classifier
/// can hold an unquantizable forest to save it.
std::string forest_payload(const std::vector<DecisionTree>& trees) {
  std::ostringstream os;
  os << std::setprecision(17) << "FOREST " << trees.size() << " "
     << trees.front().n_features() << "\n";
  for (const DecisionTree& tree : trees) {
    os << "TREE " << tree.n_nodes() << "\n";
    for (const TreeNode& n : tree.nodes()) {
      os << n.feature << " " << n.threshold << " " << n.left << " "
         << n.right << " " << n.value << " " << n.cover << "\n";
    }
  }
  os << "END\n";
  return std::move(os).str();
}

TEST(CompiledForest, RejectedForestIsTypedAndHarmless) {
  const std::vector<DecisionTree> stumps = unquantizable_stumps();

  // set_trees throws and the classifier keeps its trees and both layouts.
  const Dataset d = noisy_data(200, 2, 21);
  RandomForestClassifier forest = small_forest(d, 10);
  const auto flat_before = forest.flat_shared();
  const auto compiled_before = forest.compiled_shared();
  const std::vector<double> before = forest.predict_proba_all(d);
  EXPECT_THROW(forest.set_trees(stumps, RandomForestOptions{}),
               std::invalid_argument);
  EXPECT_EQ(forest.trees().size(), 10u);
  EXPECT_EQ(forest.options().n_trees, 10);
  EXPECT_EQ(forest.flat_shared(), flat_before);
  EXPECT_EQ(forest.compiled_shared(), compiled_before);
  expect_bits_equal(before, forest.predict_proba_all(d));

  // On disk it is a well-formed artifact holding a corrupt model.
  const std::string bad_path = "/tmp/drcshap_unquantizable.forest";
  throw_if_error(
      write_artifact_atomic(bad_path, "forest", forest_payload(stumps)));
  try {
    (void)load_forest_file(bad_path);
    ADD_FAILURE() << "an unquantizable forest loaded";
  } catch (const ArtifactError& err) {
    EXPECT_EQ(err.code(), StatusCode::kCorrupt) << err.what();
  }

  // A serving registry refuses it with a typed error and keeps serving the
  // version it had.
  const std::string good_path = "/tmp/drcshap_quantizable.forest";
  save_forest_file(forest, good_path);
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.load(good_path).ok());
  const auto serving = registry.current();
  EXPECT_EQ(registry.load(bad_path).code(), StatusCode::kCorrupt);
  EXPECT_EQ(registry.current(), serving);
  expect_bits_equal(before, registry.current()->forest.predict_proba_all(d));
  std::remove(bad_path.c_str());
  std::remove(good_path.c_str());
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

TEST(ForestEngine, AutoResolvesByModelAndCallShape) {
  const Dataset d = noisy_data(300, 4, 12);
  const RandomForestClassifier forest = small_forest(d, 10);
  // Batches score compiled unless the exact engine is pinned; the run
  // report's engine note names the backend that ran.
  const std::vector<double> batch = forest.predict_proba_all(d);
  EXPECT_EQ(obs::snapshot().notes.at("forest/engine"), "compiled");
  const std::vector<double> exact =
      forest.predict_proba_all(d, ForestEngine::kExact);
  EXPECT_EQ(obs::snapshot().notes.at("forest/engine"), "exact");
  expect_bits_equal(exact, batch);
  // A single sample runs exact; the bytes are the same either way.
  for (std::size_t r = 0; r < d.n_rows(); ++r) {
    const double single = forest.predict_proba(d.row(r));
    ASSERT_EQ(std::memcmp(&single, &batch[r], sizeof(double)), 0) << r;
  }
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
    const auto compiled = forest.predict_proba_all(eval, ForestEngine::kAuto);
    expect_bits_equal(exact, compiled);
  }
}

/// Engine equivalence on the real feature distribution: every design of the
/// paper's 14-design suite at test scale, one fitted forest, byte-identical
/// probabilities from both engines.
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
    const auto compiled = forest.predict_proba_all(d, ForestEngine::kAuto);
    expect_bits_equal(exact, compiled);
  }
}

}  // namespace
}  // namespace drcshap
