// Pinned-output spec for forest training. The digests below were recorded
// from the sequential double-accumulation fit (one `+= weight` per sampled
// row into per-bin accumulators); the count-based fit must reproduce every
// bit of every node. They cover both class weights (1.0 is integer-exact,
// 7.3 is not), bootstrap on and off, all features and the sqrt subspace,
// min_samples_leaf 1 and 3, a depth cap, and RUSBoost's undersampled rows,
// on a seeded synthetic set and on the fft_1 suite design at scale 16.
//
// The synthetic set carries monotone variants of one integer feature
// (max(x, 5), min(x, 30)): they reach the same row partition as x through
// different bin groupings, so their gains differ in the last ulp under a
// non-integer weight and the scan's 1e-12 tie rule decides between them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "baselines/rusboost.hpp"
#include "benchsuite/pipeline.hpp"
#include "benchsuite/suite.hpp"
#include "core/random_forest.hpp"
#include "util/artifact.hpp"
#include "util/rng.hpp"

namespace drcshap {
namespace {

/// fnv1a over every TreeNode field, field by field (no padding bytes).
std::uint64_t trees_digest(std::span<const DecisionTree> trees) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const DecisionTree& tree : trees) {
    for (const TreeNode& n : tree.nodes()) {
      h = fnv1a(&n.feature, sizeof n.feature, h);
      h = fnv1a(&n.threshold, sizeof n.threshold, h);
      h = fnv1a(&n.left, sizeof n.left, h);
      h = fnv1a(&n.right, sizeof n.right, h);
      h = fnv1a(&n.value, sizeof n.value, h);
      h = fnv1a(&n.cover, sizeof n.cover, h);
    }
  }
  return h;
}

Dataset synthetic_data() {
  Dataset d(8);
  Rng rng(2024);
  for (std::size_t i = 0; i < 700; ++i) {
    const int x = static_cast<int>(rng.index(40));
    const double c = rng.uniform();
    const std::vector<float> row = {
        static_cast<float>(x),
        static_cast<float>(std::max(x, 5)),
        static_cast<float>(std::min(x, 30)),
        static_cast<float>(c),
        static_cast<float>(std::floor(c * 8.0) / 8.0),
        static_cast<float>(rng.uniform()),
        static_cast<float>(c),
        static_cast<float>(rng.normal())};
    const double p = x > 12 ? 0.65 : (c > 0.85 ? 0.5 : 0.08);
    d.append_row(row, rng.bernoulli(p) ? 1 : 0, 0);
  }
  return d;
}

const Dataset& fft_1_data() {
  static const Dataset data = [] {
    PipelineOptions options;
    options.generator.scale = 16.0;
    return run_pipeline(suite_spec("fft_1"), options).samples;
  }();
  return data;
}

struct FitCase {
  const char* name;
  double positive_weight;
  bool bootstrap;
  int max_features;
  std::size_t min_samples_leaf;
  int max_depth;
  std::uint64_t synthetic;  ///< pinned digest on synthetic_data()
  std::uint64_t fft_1;      ///< pinned digest on fft_1_data()
};

// clang-format off
const FitCase kCases[] = {
    {"w1_boot_all_leaf1",   1.0, true,  -1, 1, -1, 0xf2c992c11427da0bULL,
     0x701fd3bcdeb1f2deULL},
    {"w1_boot_all_leaf3",   1.0, true,  -1, 3, -1, 0x06748fbf1d3b432fULL,
     0x0aa0cbc16ec6367bULL},
    {"w1_boot_sqrt_leaf1",  1.0, true,   0, 1, -1, 0xb6d969e8b8b048a9ULL,
     0xc037c3b1b72bd2ecULL},
    {"w1_boot_sqrt_leaf3",  1.0, true,   0, 3, -1, 0x943d3f1781cc69c3ULL,
     0xca307ada8c3bb202ULL},
    {"w1_rows_all_leaf1",   1.0, false, -1, 1, -1, 0x35fcc0b61070c41bULL,
     0x7bf8ddf5751befd7ULL},
    {"w1_rows_all_leaf3",   1.0, false, -1, 3, -1, 0x79a946765e252ff7ULL,
     0x606f116f36fc252fULL},
    {"w1_rows_sqrt_leaf1",  1.0, false,  0, 1, -1, 0xe2e024d2be6d1736ULL,
     0xc05d04e67ef783e6ULL},
    {"w1_rows_sqrt_leaf3",  1.0, false,  0, 3, -1, 0xb25cd4ecdadceaffULL,
     0x11cf8b8ebff067ebULL},
    {"w1_boot_sqrt_depth4", 1.0, true,   0, 1,  4, 0x6bff48775cfb29f2ULL,
     0x418a0ed37214993fULL},
    {"w7_boot_all_leaf1",   7.3, true,  -1, 1, -1, 0xf31c8e55ecaf79feULL,
     0x89a928184f2daef3ULL},
    {"w7_boot_all_leaf3",   7.3, true,  -1, 3, -1, 0x38dd9536804b4785ULL,
     0xc4d2e1c17bc513deULL},
    {"w7_boot_sqrt_leaf1",  7.3, true,   0, 1, -1, 0xf098d6b2367ebd76ULL,
     0xf8b45245b8363374ULL},
    {"w7_boot_sqrt_leaf3",  7.3, true,   0, 3, -1, 0x59b028db6e3fccd6ULL,
     0xb27a1ad055a22311ULL},
    {"w7_rows_all_leaf1",   7.3, false, -1, 1, -1, 0x68816627f7d8ec6bULL,
     0xc4fc60bb56c83fefULL},
    {"w7_rows_all_leaf3",   7.3, false, -1, 3, -1, 0x4ccedbe2b60bdd9fULL,
     0x53b45383fde0b71fULL},
    {"w7_rows_sqrt_leaf1",  7.3, false,  0, 1, -1, 0x1ece5534b7041786ULL,
     0xeb0247649148428cULL},
    {"w7_rows_sqrt_leaf3",  7.3, false,  0, 3, -1, 0xc3f301bdb1f6c3dcULL,
     0x58f1b08650d26f3aULL},
    {"w7_boot_sqrt_depth4", 7.3, true,   0, 1,  4, 0x949060048b454e49ULL,
     0x7f5cf22bb669364dULL},
};
// clang-format on

/// RUSBoost: all positives once plus weighted negative draws with
/// replacement, depth-capped trees, re-weighted every round.
constexpr std::uint64_t kRusBoostSynthetic = 0xe3924c680822dd15ULL;
constexpr std::uint64_t kRusBoostFft1 = 0x28414e17a54b7fd9ULL;

std::uint64_t forest_digest(const Dataset& data, const FitCase& c) {
  RandomForestOptions options;
  options.n_trees = 6;
  options.positive_weight = c.positive_weight;
  options.bootstrap = c.bootstrap;
  options.max_features = c.max_features;
  options.min_samples_leaf = c.min_samples_leaf;
  options.max_depth = c.max_depth;
  options.seed = 77;
  RandomForestClassifier forest(options);
  forest.fit(data);
  return trees_digest(forest.trees());
}

std::uint64_t rusboost_digest(const Dataset& data) {
  RusBoostOptions options;
  options.n_rounds = 8;
  RusBoostClassifier model(options);
  model.fit(data);
  return trees_digest(model.trees());
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64 "ULL", v);
  return buf;
}

// Failure messages print the observed digest in source form, so a
// deliberate change to the fit is re-pinned by pasting them back.
TEST(ForestFit, MatchesPinnedGolden) {
  const Dataset synthetic = synthetic_data();
  const Dataset& fft_1 = fft_1_data();
  ASSERT_GT(fft_1.n_positives(), 0u);
  for (const FitCase& c : kCases) {
    EXPECT_EQ(hex(forest_digest(synthetic, c)), hex(c.synthetic))
        << c.name << " (synthetic)";
    EXPECT_EQ(hex(forest_digest(fft_1, c)), hex(c.fft_1))
        << c.name << " (fft_1)";
  }
  EXPECT_EQ(hex(rusboost_digest(synthetic)), hex(kRusBoostSynthetic))
      << "rusboost (synthetic)";
  EXPECT_EQ(hex(rusboost_digest(fft_1)), hex(kRusBoostFft1))
      << "rusboost (fft_1)";
}

std::uint64_t tree_digest(const DecisionTree& tree) {
  return trees_digest(std::span<const DecisionTree>(&tree, 1));
}

/// Every row of `data` three times, grouped: 0,0,0,1,1,1,...
std::vector<std::size_t> tripled_rows(const Dataset& data) {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < data.n_rows(); ++r) rows.insert(rows.end(), 3, r);
  return rows;
}

// fit_binned sees a multiset of rows: the layout of the duplicates and the
// order of the list must not matter, only each row's multiplicity.
TEST(ForestFit, TripledRowsMatchEquivalentBootstrapDraw) {
  const Dataset data = synthetic_data();
  const BinnedMatrix binned(data, 64);
  const std::vector<std::size_t> grouped = tripled_rows(data);
  std::vector<std::size_t> interleaved;
  for (int copy = 0; copy < 3; ++copy) {
    for (std::size_t r = 0; r < data.n_rows(); ++r) interleaved.push_back(r);
  }
  std::vector<std::size_t> drawn = grouped;
  Rng(3).shuffle(drawn);
  for (const double weight : {1.0, 7.3}) {
    DecisionTreeOptions options;
    options.positive_weight = weight;
    options.max_features = 0;
    options.seed = 5;
    DecisionTree a, b, c;
    EXPECT_EQ(a.fit_binned(binned, data, grouped, options), data.n_rows());
    EXPECT_EQ(b.fit_binned(binned, data, interleaved, options), data.n_rows());
    EXPECT_EQ(c.fit_binned(binned, data, drawn, options), data.n_rows());
    EXPECT_EQ(hex(tree_digest(a)), hex(tree_digest(b))) << "weight " << weight;
    EXPECT_EQ(hex(tree_digest(a)), hex(tree_digest(c))) << "weight " << weight;
  }
}

// min_samples_leaf and min_samples_split count duplicates. On tripled rows
// every non-empty node holds a multiple of 3 samples, so a leaf minimum of
// 3 and a split minimum of 6 bind nowhere, while 4 and 7 must.
TEST(ForestFit, MinSamplesCountDuplicates) {
  const Dataset data = synthetic_data();
  const BinnedMatrix binned(data, 64);
  const std::vector<std::size_t> rows = tripled_rows(data);
  auto fit = [&](std::size_t min_leaf, std::size_t min_split) {
    DecisionTreeOptions options;
    options.min_samples_leaf = min_leaf;
    options.min_samples_split = min_split;
    options.seed = 5;
    DecisionTree tree;
    tree.fit_binned(binned, data, rows, options);
    return tree;
  };
  const DecisionTree free_tree = fit(1, 2);
  // Weight 1.0: a node's cover is its sample count.
  bool single_row_leaf = false, two_row_split = false;
  for (const TreeNode& n : free_tree.nodes()) {
    single_row_leaf |= n.feature < 0 && n.cover == 3.0;
    two_row_split |= n.feature >= 0 && n.cover == 6.0;
  }
  ASSERT_TRUE(single_row_leaf);
  ASSERT_TRUE(two_row_split);

  EXPECT_EQ(hex(tree_digest(fit(3, 2))), hex(tree_digest(free_tree)));
  EXPECT_EQ(hex(tree_digest(fit(1, 6))), hex(tree_digest(free_tree)));

  const DecisionTree leaf_bound = fit(4, 2);
  EXPECT_NE(hex(tree_digest(leaf_bound)), hex(tree_digest(free_tree)));
  for (const TreeNode& n : leaf_bound.nodes()) EXPECT_GE(n.cover, 4.0);
  const DecisionTree split_bound = fit(1, 7);
  EXPECT_NE(hex(tree_digest(split_bound)), hex(tree_digest(free_tree)));
  for (const TreeNode& n : split_bound.nodes()) {
    if (n.feature >= 0) {
      EXPECT_GE(n.cover, 7.0);
    }
  }
}

}  // namespace
}  // namespace drcshap
