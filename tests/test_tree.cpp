#include "core/decision_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "core/flat_forest.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace drcshap {
namespace {

/// Labels = x0 > 0.5 (one clean threshold).
Dataset threshold_data(std::size_t n = 400) {
  Dataset d(3);
  Rng rng(1);
  for (std::size_t i = 0; i < n; ++i) {
    const float x0 = static_cast<float>(rng.uniform());
    const float x1 = static_cast<float>(rng.uniform());  // noise
    const float x2 = static_cast<float>(rng.uniform());  // noise
    d.append_row(std::vector<float>{x0, x1, x2}, x0 > 0.5f ? 1 : 0, 0);
  }
  return d;
}

/// XOR of two binary features: needs depth >= 2.
Dataset xor_data(std::size_t n = 400) {
  Dataset d(2);
  Rng rng(2);
  for (std::size_t i = 0; i < n; ++i) {
    const int a = rng.bernoulli(0.5);
    const int b = rng.bernoulli(0.5);
    d.append_row(std::vector<float>{static_cast<float>(a) + 0.01f * static_cast<float>(rng.normal()),
                                    static_cast<float>(b) + 0.01f * static_cast<float>(rng.normal())},
                 a ^ b, 0);
  }
  return d;
}

double dataset_accuracy(const DecisionTree& tree, const Dataset& d) {
  std::size_t correct = 0;
  for (std::size_t i = 0; i < d.n_rows(); ++i) {
    const int predicted = tree.predict_proba(d.row(i)) >= 0.5 ? 1 : 0;
    if (predicted == d.label(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(d.n_rows());
}

// -------------------------------------------------------------- binning

TEST(BinnedMatrix, FewDistinctValuesGetOwnBins) {
  Dataset d(1);
  for (const float v : {1.0f, 2.0f, 2.0f, 5.0f}) {
    d.append_row(std::vector<float>{v}, 0, 0);
  }
  const BinnedMatrix binned(d, 64);
  EXPECT_EQ(binned.n_bins(0), 3);
  EXPECT_EQ(binned.bin(0, 0), 0);
  EXPECT_EQ(binned.bin(1, 0), 1);
  EXPECT_EQ(binned.bin(2, 0), 1);  // duplicate value, same bin
  EXPECT_EQ(binned.bin(3, 0), 2);
}

TEST(BinnedMatrix, SplitThresholdSeparatesBins) {
  Dataset d(1);
  for (const float v : {1.0f, 2.0f, 5.0f}) {
    d.append_row(std::vector<float>{v}, 0, 0);
  }
  const BinnedMatrix binned(d, 64);
  EXPECT_FLOAT_EQ(binned.split_threshold(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(binned.split_threshold(0, 1), 3.5f);
}

TEST(BinnedMatrix, ManyValuesRespectMaxBins) {
  Dataset d(1);
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    d.append_row(std::vector<float>{static_cast<float>(rng.normal())}, 0, 0);
  }
  const BinnedMatrix binned(d, 16);
  EXPECT_LE(binned.n_bins(0), 16);
  EXPECT_GE(binned.n_bins(0), 8);
}

TEST(BinnedMatrix, BinsAreOrderedByValue) {
  Dataset d(1);
  Rng rng(4);
  std::vector<float> values;
  for (int i = 0; i < 1000; ++i) {
    values.push_back(static_cast<float>(rng.uniform(-5, 5)));
    d.append_row(std::vector<float>{values.back()}, 0, 0);
  }
  const BinnedMatrix binned(d, 32);
  for (std::size_t i = 0; i < values.size(); ++i) {
    for (std::size_t j = 0; j < values.size(); ++j) {
      if (values[i] < values[j]) {
        EXPECT_LE(binned.bin(i, 0), binned.bin(j, 0));
      }
    }
    if (i > 50) break;  // enough pairs
  }
}

TEST(BinnedMatrix, ConstantFeatureSingleBin) {
  Dataset d(1);
  for (int i = 0; i < 10; ++i) {
    d.append_row(std::vector<float>{7.0f}, 0, 0);
  }
  const BinnedMatrix binned(d, 64);
  EXPECT_EQ(binned.n_bins(0), 1);
}

TEST(BinnedMatrix, RejectsBadBinCount) {
  Dataset d = threshold_data(10);
  EXPECT_THROW(BinnedMatrix(d, 1), std::invalid_argument);
  EXPECT_THROW(BinnedMatrix(d, 257), std::invalid_argument);
}

// The bin code of a value is the number of split values strictly below it
// (std::lower_bound's index), so "bin <= b" and the prediction test
// "x <= split_threshold(b)" agree. Negative values, signed zeros,
// infinities and heavy duplication exercise the radix sort keys.
TEST(BinnedMatrix, BinIsCountOfSplitValuesBelow) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  Dataset d(3);
  Rng rng(6);
  for (int i = 0; i < 900; ++i) {
    const float special[] = {-0.0f, 0.0f, -kInf, kInf, -1.5f, 3.0f};
    const float integer = static_cast<float>(rng.index(200)) - 100.0f;
    d.append_row(std::vector<float>{static_cast<float>(rng.normal()),
                                    special[rng.index(6)], integer},
                 0, 0);
  }
  for (const int max_bins : {8, 64, 256}) {
    const BinnedMatrix binned(d, max_bins);
    for (std::size_t f = 0; f < d.n_features(); ++f) {
      std::vector<float> cuts;
      for (int b = 0; b + 1 < binned.n_bins(f); ++b) {
        cuts.push_back(binned.split_threshold(f, b));
      }
      ASSERT_TRUE(std::is_sorted(cuts.begin(), cuts.end()));
      for (std::size_t r = 0; r < d.n_rows(); ++r) {
        const float v = d.row(r)[f];
        const auto expected =
            std::lower_bound(cuts.begin(), cuts.end(), v) - cuts.begin();
        ASSERT_EQ(binned.bin(r, f), expected)
            << "max_bins " << max_bins << " f" << f << " row " << r;
      }
    }
  }
}

// A value equal to a split threshold goes left at prediction, so training
// must bin it at or below that threshold. Equality comes from rounding:
// next to +Inf (the midpoint of the largest finite value and +Inf is +Inf),
// next to -Inf, where a midpoint overflows, and between adjacent floats
// whose midpoint rounds onto one of them. Labels alternate along the
// distinct values, so an unpruned tree has to separate every neighbouring
// pair, and each training row must route through FlatForest to a leaf of
// its own label.
TEST(BinnedMatrix, TrainingPartitionMatchesPredictionRouting) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kMax = std::numeric_limits<float>::max();
  const auto up = [](float v) { return std::nextafter(v, kInf); };
  const float below_max = std::nextafter(kMax, 0.0f);
  // Adjacent-float midpoints round to even: 1.0 and a1 meet at 1.0 (the
  // lower value), a1 and a2 at a2 (the upper one).
  const float a1 = up(1.0f), a2 = up(a1), a3 = up(a2);
  const float b1 = up(3.0f), b2 = up(b1);
  std::vector<std::vector<float>> columns;
  columns.push_back({-kInf, -kMax, -1.0f, 0.0f, 1.0f, below_max, kMax, kInf});
  columns.push_back({1.0f, a1, a2, a3, 3.0f, b1, b2, kInf});
  for (const std::vector<float>& values : columns) {
    Dataset d(1);
    for (std::size_t rank = 0; rank < values.size(); ++rank) {
      for (int copy = 0; copy < 3; ++copy) {
        d.append_row(std::vector<float>{values[rank]},
                     static_cast<int>(rank % 2), 0);
      }
    }
    for (const int max_bins : {4, 64}) {
      SCOPED_TRACE("max_bins " + std::to_string(max_bins));
      const BinnedMatrix binned(d, max_bins);
      for (int b = 0; b + 1 < binned.n_bins(0); ++b) {
        const float cut = binned.split_threshold(0, b);
        for (std::size_t r = 0; r < d.n_rows(); ++r) {
          ASSERT_EQ(binned.bin(r, 0) <= b, d.row(r)[0] <= cut)
              << "value " << d.row(r)[0] << " cut " << cut;
        }
      }
    }
    EXPECT_EQ(BinnedMatrix(d, 64).n_bins(0), static_cast<int>(values.size()));
    DecisionTree tree;
    tree.fit(d);
    const FlatForest flat(std::span<const DecisionTree>(&tree, 1));
    for (std::size_t r = 0; r < d.n_rows(); ++r) {
      const double label = d.label(r);
      EXPECT_EQ(flat.predict_tree(0, d.row(r).data()), label) << d.row(r)[0];
    }
  }
}

TEST(BinnedMatrix, RejectsNaNNamingFeatureAndRow) {
  Dataset d(3);
  for (int i = 0; i < 20; ++i) {
    const float x = static_cast<float>(i);
    d.append_row(std::vector<float>{x, i == 13 ? std::nanf("") : x, x}, 0, 0);
  }
  try {
    const BinnedMatrix binned(d, 64);
    FAIL() << "NaN feature value was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("feature f1"), std::string::npos) << message;
    EXPECT_NE(message.find("row 13"), std::string::npos) << message;
  }
}

// Features are binned in parallel blocks; every width, and a call nested
// inside a parallel region (which runs serial), must produce the same bins
// and split values. 40 features span three blocks, one partial.
TEST(BinnedMatrix, IdenticalAcrossThreadCounts) {
  Dataset d(40);
  Rng rng(5);
  for (int i = 0; i < 600; ++i) {
    std::vector<float> row(40);
    for (std::size_t f = 0; f < row.size(); ++f) {
      // Odd features have few distinct values, even ones are continuous.
      row[f] = f % 2 ? static_cast<float>(rng.index(f + 2))
                     : static_cast<float>(rng.normal());
    }
    d.append_row(row, 0, 0);
  }
  const BinnedMatrix reference(d, 32, 1);
  auto expect_same = [&](const BinnedMatrix& other, const std::string& how) {
    for (std::size_t f = 0; f < d.n_features(); ++f) {
      ASSERT_EQ(reference.n_bins(f), other.n_bins(f)) << how << " f" << f;
      for (int b = 0; b + 1 < reference.n_bins(f); ++b) {
        ASSERT_EQ(reference.split_threshold(f, b), other.split_threshold(f, b))
            << how << " f" << f << " bin " << b;
      }
      for (std::size_t r = 0; r < d.n_rows(); ++r) {
        ASSERT_EQ(reference.bin(r, f), other.bin(r, f))
            << how << " f" << f << " row " << r;
      }
    }
  };
  for (const std::size_t width : {4u, 8u}) {
    expect_same(BinnedMatrix(d, 32, width), "width " + std::to_string(width));
  }
  std::vector<std::unique_ptr<BinnedMatrix>> nested(3);
  parallel_for_shared(
      nested.size(),
      [&](std::size_t i) {
        nested[i] = std::make_unique<BinnedMatrix>(d, 32, 8);
      },
      0, 1);
  for (const auto& binned : nested) expect_same(*binned, "nested");
}

// ----------------------------------------------------------------- tree

TEST(DecisionTree, LearnsSimpleThreshold) {
  const Dataset d = threshold_data();
  DecisionTree tree;
  tree.fit(d);
  EXPECT_GT(dataset_accuracy(tree, d), 0.97);
  // The root split should be on feature 0 near 0.5.
  EXPECT_EQ(tree.nodes()[0].feature, 0);
  EXPECT_NEAR(tree.nodes()[0].threshold, 0.5, 0.08);
}

TEST(DecisionTree, LearnsXor) {
  const Dataset d = xor_data();
  DecisionTree tree;
  tree.fit(d);
  EXPECT_GT(dataset_accuracy(tree, d), 0.99);
  EXPECT_GE(tree.depth(), 2);
}

TEST(DecisionTree, UnprunedTreeIsPureOnTrain) {
  const Dataset d = xor_data(200);
  DecisionTree tree;
  tree.fit(d);
  for (std::size_t i = 0; i < d.n_rows(); ++i) {
    const double p = tree.predict_proba(d.row(i));
    EXPECT_TRUE(p == 0.0 || p == 1.0) << p;
  }
}

TEST(DecisionTree, MaxDepthRespected) {
  const Dataset d = xor_data();
  DecisionTreeOptions options;
  options.max_depth = 1;
  DecisionTree stump;
  stump.fit(d, options);
  EXPECT_LE(stump.depth(), 1);
  // XOR cannot be solved by a stump.
  EXPECT_LT(dataset_accuracy(stump, d), 0.75);
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  const Dataset d = threshold_data(200);
  DecisionTreeOptions options;
  options.min_samples_leaf = 30;
  DecisionTree tree;
  tree.fit(d, options);
  for (const TreeNode& n : tree.nodes()) {
    if (n.feature < 0) {
      EXPECT_GE(n.cover, 30.0);
    }
  }
}

TEST(DecisionTree, CoverSumsAcrossChildren) {
  const Dataset d = threshold_data();
  DecisionTree tree;
  tree.fit(d);
  for (const TreeNode& n : tree.nodes()) {
    if (n.feature < 0) continue;
    const double child_total =
        tree.nodes()[static_cast<std::size_t>(n.left)].cover +
        tree.nodes()[static_cast<std::size_t>(n.right)].cover;
    EXPECT_NEAR(n.cover, child_total, 1e-9);
  }
  EXPECT_DOUBLE_EQ(tree.nodes()[0].cover, 400.0);
}

TEST(DecisionTree, ExpectedValueMatchesBaseRate) {
  const Dataset d = threshold_data();
  DecisionTree tree;
  tree.fit(d);
  const double base_rate =
      static_cast<double>(d.n_positives()) / static_cast<double>(d.n_rows());
  EXPECT_NEAR(tree.expected_value(), base_rate, 1e-9);
}

TEST(DecisionTree, DeterministicForSeed) {
  const Dataset d = xor_data();
  DecisionTreeOptions options;
  options.max_features = 1;
  options.seed = 5;
  DecisionTree a, b;
  a.fit(d, options);
  b.fit(d, options);
  ASSERT_EQ(a.n_nodes(), b.n_nodes());
  for (std::size_t i = 0; i < a.n_nodes(); ++i) {
    EXPECT_EQ(a.nodes()[i].feature, b.nodes()[i].feature);
    EXPECT_FLOAT_EQ(a.nodes()[i].threshold, b.nodes()[i].threshold);
  }
}

TEST(DecisionTree, ClassWeightShiftsLeafValues) {
  const Dataset d = threshold_data();
  DecisionTreeOptions weighted;
  weighted.positive_weight = 10.0;
  weighted.max_depth = 0;  // root only: leaf value = weighted base rate
  DecisionTree tree;
  tree.fit(d, weighted);
  const double base_rate =
      static_cast<double>(d.n_positives()) / static_cast<double>(d.n_rows());
  EXPECT_GT(tree.predict_proba(d.row(0)), base_rate);
}

TEST(DecisionTree, SingleClassDataYieldsLeafOnly) {
  Dataset d(2);
  for (int i = 0; i < 50; ++i) {
    d.append_row(std::vector<float>{static_cast<float>(i), 0.0f}, 0, 0);
  }
  DecisionTree tree;
  tree.fit(d);
  EXPECT_EQ(tree.n_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict_proba(d.row(0)), 0.0);
}

TEST(DecisionTree, PredictValidation) {
  DecisionTree tree;
  EXPECT_THROW(tree.predict_proba(std::vector<float>{1.0f}),
               std::logic_error);
  const Dataset d = threshold_data(50);
  tree.fit(d);
  EXPECT_THROW(tree.predict_proba(std::vector<float>{1.0f}),
               std::invalid_argument);
}

TEST(DecisionTree, FitOnBootstrapRows) {
  const Dataset d = threshold_data();
  const BinnedMatrix binned(d, 64);
  Rng rng(9);
  const auto rows = rng.bootstrap_indices(d.n_rows());
  DecisionTree tree;
  tree.fit_binned(binned, d, rows, {});
  EXPECT_GT(dataset_accuracy(tree, d), 0.9);
  EXPECT_DOUBLE_EQ(tree.nodes()[0].cover, static_cast<double>(rows.size()));
}

TEST(DecisionTree, MeanDepthBetweenZeroAndMax) {
  const Dataset d = xor_data();
  DecisionTree tree;
  tree.fit(d);
  EXPECT_GT(tree.mean_depth(), 0.0);
  EXPECT_LE(tree.mean_depth(), static_cast<double>(tree.depth()));
}

TEST(DecisionTree, LeafCountConsistent) {
  const Dataset d = threshold_data();
  DecisionTree tree;
  tree.fit(d);
  // Binary tree: leaves = internal nodes + 1.
  EXPECT_EQ(tree.n_leaves(), (tree.n_nodes() + 1) / 2);
}

}  // namespace
}  // namespace drcshap
