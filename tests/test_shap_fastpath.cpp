// Byte-identity suite for the batched fast TreeSHAP path, its leaf-pattern
// memo and the explanation cache: whatever combination of walk (reference
// recursion / scalar fast / AVX2 fast), thread count (which also sets the
// memo's row groups), and cache configuration runs, every phi double must
// match the reference recursion bit for bit. The
// fast path is only allowed to change speed, never a single output bit —
// same contract the compiled inference backend makes, now for explanations.

#include "core/tree_shap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>

#include "benchsuite/pipeline.hpp"
#include "benchsuite/suite.hpp"
#include "core/explanation_cache.hpp"
#include "core/random_forest.hpp"
#include "core/tree_shap_simd.hpp"
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

/// `data` explained by a fresh explainer (no cache attached) with the
/// per-tree walk pinned.
ShapMatrix pinned_walk_phi(const RandomForestClassifier& forest,
                           const Dataset& data, ShapWalk walk,
                           std::size_t threads = 1) {
  return TreeShapExplainer(forest).shap_values_batch(
      std::span<const float>(data.features_flat()), data.n_rows(), threads,
      walk);
}

/// Ground truth: the reference recursion, single-threaded.
ShapMatrix reference_phi(const RandomForestClassifier& forest,
                         const Dataset& data) {
  return pinned_walk_phi(forest, data, ShapWalk::kReference);
}

/// Reads one obs counter (0 when absent).
std::uint64_t counter(const char* name) {
  const obs::Snapshot snap = obs::snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Leaf visits the memo has seen so far, hits plus misses.
std::uint64_t memo_lookups() {
  return counter("shap/leaf_memo_hits") + counter("shap/leaf_memo_misses");
}

constexpr std::size_t kThreadCounts[] = {1, 3, 8};

/// Every production configuration against the reference recursion: the
/// kAuto walk (AVX2 where the CPU runs it) and the scalar walk, at 1, 3 and
/// 8 threads, with the cache detached, cold and warm, and detached again.
/// Each (walk, threads) pair gets a fresh cache, so its cold call walks
/// every unique row.
void check_all_configs(const RandomForestClassifier& forest,
                       const Dataset& data) {
  const ShapMatrix reference = reference_phi(forest, data);
  const std::span<const float> rows(data.features_flat());
  const std::size_t n = data.n_rows();
  for (const ShapWalk walk : {ShapWalk::kAuto, ShapWalk::kScalar}) {
    SCOPED_TRACE(walk == ShapWalk::kAuto ? "walk=auto" : "walk=scalar");
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      TreeShapExplainer explainer(forest);
      const auto run = [&] {
        return explainer.shap_values_batch(rows, n, threads, walk).values;
      };
      expect_bits_equal(reference.values, run());
      // Cold inserts every unique row, warm serves every row: the scatter
      // must reproduce the reference bits exactly.
      const auto cache = std::make_shared<ExplanationCache>();
      explainer.set_cache(cache);
      expect_bits_equal(reference.values, run());
      expect_bits_equal(reference.values, run());
      EXPECT_GT(cache->stats().hits, 0u);
      // Warm cache detached: every row is computed again, the cache sees
      // no traffic, and the bits are unchanged.
      explainer.set_cache(nullptr);
      const ExplanationCacheStats before = cache->stats();
      expect_bits_equal(reference.values, run());
      const ExplanationCacheStats after = cache->stats();
      EXPECT_EQ(before.hits + before.misses, after.hits + after.misses);
    }
  }
}

/// A hand-built tree grown depth-first: `make(level)` returns the split
/// feature of the next node at that level, or -1 for a leaf. Thresholds,
/// values and leaf covers are seeded-random; an internal cover is the sum
/// of its children's.
DecisionTree generated_tree(std::size_t n_features, std::uint64_t seed,
                            const std::function<int(int)>& make) {
  Rng rng(seed);
  std::vector<TreeNode> nodes;
  const std::function<std::int32_t(int)> grow = [&](int level) {
    const auto index = static_cast<std::int32_t>(nodes.size());
    nodes.push_back({make(level), static_cast<float>(rng.uniform()), -1, -1,
                     rng.uniform(), 1.0 + std::floor(rng.uniform() * 97.0)});
    if (nodes.back().feature < 0) return index;
    const std::int32_t left = grow(level + 1);
    const std::int32_t right = grow(level + 1);
    TreeNode& node = nodes[static_cast<std::size_t>(index)];
    node.left = left;
    node.right = right;
    node.cover = nodes[static_cast<std::size_t>(left)].cover +
                 nodes[static_cast<std::size_t>(right)].cover;
    return index;
  };
  grow(0);
  DecisionTree tree;
  tree.set_nodes(nodes, n_features);
  return tree;
}

Dataset uniform_rows(std::size_t n, std::size_t n_features,
                     std::uint64_t seed) {
  Dataset d(n_features);
  Rng rng(seed);
  std::vector<float> x(n_features);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    d.append_row(x, 0, 0);
  }
  return d;
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
/// recursion vs the scalar and production fast walks across thread counts
/// and both cache configurations, byte-identical on every design's real
/// feature distribution.
TEST(ShapFastPathSuite, AllSuiteDesignsByteIdentical) {
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
    expect_bits_equal(reference.values,
                      pinned_walk_phi(forest, d, ShapWalk::kScalar).values);
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

/// The explanation key is the row's u16 threshold-bucket codes, not its
/// float bytes. Rows that differ in float bytes but sit in the same bucket
/// of every split feature (a split feature moved inside its bucket, an
/// unsplit feature perturbed) must collapse inside one batch and be served
/// from the cache in the next. Raw-float keys fail every count below.
TEST(ShapFastPath, CodeKeysShareSameBucketRows) {
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
    EXPECT_EQ(counter("shap/batch_unique_rows") - unique_before, 1u);
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

// ---- leaf-pattern memo ----------------------------------------------------
// Rows of a work group share, per tree, the attribution products of each
// (leaf, one-fraction history) pattern. The tests below pin down the cases
// where a memo could silently change bits: patterns shared by distinct rows,
// groups of one row, trees too deep for the history word, and duplicate
// features whose unwinds make the folded path mask ambiguous.

TEST(ShapFastPath, LeafMemoServesDistinctRowsSharingLeafHistories) {
  // Distinct rows (no dedupe, no cache) over a 10-feature forest: most of a
  // row's leaves see the same hot/cold pattern as some earlier row's.
  const Dataset train = random_data(240, 10, 21);
  RandomForestOptions options;
  options.n_trees = 20;
  options.seed = 21;
  RandomForestClassifier forest(options);
  forest.fit(train);
  const Dataset eval = uniform_rows(48, 10, 121);
  const ShapMatrix reference = reference_phi(forest, eval);
  for (const ShapWalk walk : {ShapWalk::kAuto, ShapWalk::kScalar}) {
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      const std::uint64_t hits = counter("shap/leaf_memo_hits");
      expect_bits_equal(reference.values,
                        pinned_walk_phi(forest, eval, walk, threads).values);
      EXPECT_GT(counter("shap/leaf_memo_hits"), hits);
    }
  }
  check_all_configs(forest, eval);
}

TEST(ShapFastPath, OneRowGroupsRecordNothing) {
  const Dataset train = random_data(240, 10, 22);
  RandomForestOptions options;
  options.n_trees = 20;
  options.seed = 22;
  RandomForestClassifier forest(options);
  forest.fit(train);
  const Dataset eval = uniform_rows(3, 10, 122);

  // A 1-row batch is one 1-row group: it walks without the memo.
  for (std::size_t r = 0; r < eval.n_rows(); ++r) {
    const Dataset one = eval.subset(std::vector<std::size_t>{r});
    for (const ShapWalk walk : {ShapWalk::kAuto, ShapWalk::kScalar}) {
      const std::uint64_t lookups = memo_lookups();
      expect_bits_equal(reference_phi(forest, one).values,
                        pinned_walk_phi(forest, one, walk).values);
      EXPECT_EQ(memo_lookups(), lookups);
    }
  }
  // Three rows on one thread split into a 2-row and a 1-row group (two
  // units per worker); at 3 and 8 threads every group is one row.
  check_all_configs(forest, eval);
}

TEST(ShapFastPath, TreesDeeperThanTheHistoryWidthWalkWithoutMemo) {
  // A caterpillar 70 levels deep over three features: every internal node
  // has a leaf on its left, so the forest is deeper than the 64 bits of a
  // leaf's one-fraction history and must take the memo-free walk.
  int visited = 0;
  const auto caterpillar = [&visited](int level) {
    return (level < 70 && visited++ % 2 == 0) ? level % 3 : -1;
  };
  const auto complete = [](int level) {
    return level < 4 ? (level + 1) % 3 : -1;
  };
  const DecisionTree deep = generated_tree(3, 31, caterpillar);
  const DecisionTree shallow = generated_tree(3, 32, complete);
  RandomForestClassifier forest(RandomForestOptions{});
  forest.set_trees({deep, shallow, deep}, RandomForestOptions{});
  ASSERT_GT(forest.flat().max_depth(), 64);

  const Dataset eval = uniform_rows(24, 3, 131);
  const std::uint64_t lookups = memo_lookups();
  check_all_configs(forest, eval);
  EXPECT_EQ(memo_lookups(), lookups);
}

TEST(ShapFastPath, TreesDeeperThanTheVectorWalkBoundTakeTheScalarWalk) {
  // A caterpillar 200 levels deep over eight features: deeper than the
  // reciprocal table of the AVX2 kernels, so kAuto must fall back to the
  // scalar walk even where the CPU runs AVX2.
  int visited = 0;
  const auto caterpillar = [&visited](int level) {
    return (level < 200 && visited++ % 2 == 0) ? level % 8 : -1;
  };
  const DecisionTree deep = generated_tree(8, 51, caterpillar);
  RandomForestClassifier forest(RandomForestOptions{});
  forest.set_trees({deep, deep}, RandomForestOptions{});
  ASSERT_GT(forest.flat().max_depth(), shap_detail::kSimdWalkMaxDepth);

  const Dataset eval = uniform_rows(6, 8, 151);
  const ShapMatrix reference = reference_phi(forest, eval);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto phi = pinned_walk_phi(forest, eval, ShapWalk::kAuto, threads);
    expect_bits_equal(reference.values, phi.values);
    EXPECT_EQ(obs::snapshot().notes.at("shap/walk"), "scalar");
  }
}

TEST(ShapFastPath, DuplicateFeatureHeavyTreeKeysOnHistory) {
  // Complete trees nine levels deep over three features: every path splits
  // each feature about three times, so most leaves are reached through
  // folded duplicates. Two rows can then share a leaf's folded 0/1 mask
  // while their histories differ, and because UNWIND does not invert
  // EXTEND exactly, their products differ in the last bits: a memo keyed on
  // the mask would serve the wrong doubles.
  std::vector<DecisionTree> trees;
  for (std::uint64_t seed = 41; seed < 44; ++seed) {
    Rng pick(seed + 100);
    const auto any_of_three = [&pick](int level) {
      return level < 9 ? static_cast<int>(pick.uniform() * 3.0) : -1;
    };
    trees.push_back(generated_tree(3, seed, any_of_three));
  }
  RandomForestClassifier forest(RandomForestOptions{});
  forest.set_trees(std::move(trees), RandomForestOptions{});

  const Dataset eval = uniform_rows(64, 3, 141);
  const std::uint64_t hits = counter("shap/leaf_memo_hits");
  check_all_configs(forest, eval);
  EXPECT_GT(counter("shap/leaf_memo_hits"), hits);
}

/// The cache salt must cover every array phi depends on. Model B moves one
/// threshold of model A, model C swaps one node's children: a cache shared
/// with A must miss for B and C rather than serve A's rows. C keeps A's u16
/// codes, so a stale hit would hand out wrong phi.
TEST(ShapFastPath, ModelDigestCoversThresholdsAndChildLinks) {
  const auto stump = [](float cut, std::int32_t left, std::int32_t right) {
    std::vector<TreeNode> nodes(3);
    nodes[0] = {0, cut, left, right, 0.5, 100.0};
    nodes[1] = {-1, 0.0f, -1, -1, 0.2, 60.0};
    nodes[2] = {-1, 0.0f, -1, -1, 0.9, 40.0};
    DecisionTree tree;
    tree.set_nodes(nodes, 2);
    return tree;
  };
  std::vector<TreeNode> on_f1(3);
  on_f1[0] = {1, 0.5f, 1, 2, 0.4, 100.0};
  on_f1[1] = {-1, 0.0f, -1, -1, 0.3, 70.0};
  on_f1[2] = {-1, 0.0f, -1, -1, 0.6, 30.0};
  DecisionTree second;
  second.set_nodes(on_f1, 2);
  const auto model = [&](const DecisionTree& first) {
    RandomForestClassifier forest(RandomForestOptions{});
    forest.set_trees({first, second}, RandomForestOptions{});
    return forest;
  };
  const RandomForestClassifier a = model(stump(0.5f, 1, 2));
  const RandomForestClassifier b = model(stump(0.25f, 1, 2));
  const RandomForestClassifier c = model(stump(0.5f, 2, 1));

  Dataset rows(2);
  for (const float x0 : {0.1f, 0.4f, 0.7f}) {
    rows.append_row(std::vector<float>{x0, 0.8f}, 0, 0);
  }
  const auto cache = std::make_shared<ExplanationCache>();
  TreeShapExplainer explain_a(a);
  explain_a.set_cache(cache);
  (void)explain_a.shap_values_batch(rows, 1);
  for (const RandomForestClassifier* other : {&b, &c}) {
    TreeShapExplainer explainer(*other);
    EXPECT_NE(explainer.model_digest(), explain_a.model_digest());
    explainer.set_cache(cache);
    const std::uint64_t hits = cache->stats().hits;
    expect_bits_equal(reference_phi(*other, rows).values,
                      explainer.shap_values_batch(rows, 1).values);
    EXPECT_EQ(cache->stats().hits, hits);
  }
}

}  // namespace
}  // namespace drcshap
