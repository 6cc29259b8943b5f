#include "core/explanation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace drcshap {
namespace {

/// Label depends strongly on feature 0, weakly on feature 1, never on 2/3.
Dataset structured_data(std::size_t n, std::uint64_t seed) {
  Dataset d(4);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<float> x(4);
    for (auto& v : x) v = static_cast<float>(rng.uniform());
    const double score = 2.0 * x[0] + 0.4 * x[1] + 0.3 * rng.normal();
    d.append_row(x, score > 1.2 ? 1 : 0, 0);
  }
  return d;
}

/// The `n` probe rows (drawn without replacement, seed 7) the mean |SHAP|
/// ranking tests fold.
Dataset probe_rows(const Dataset& probe, std::size_t n) {
  Rng rng(7);
  return probe.subset(rng.sample_without_replacement(probe.n_rows(), n));
}

TEST(MeanAbsShap, RanksFeaturesByTrueInfluence) {
  const Dataset train = structured_data(1500, 1);
  RandomForestOptions options;
  options.n_trees = 40;
  RandomForestClassifier forest(options);
  forest.fit(train);
  const TreeShapExplainer explainer(forest);
  const Dataset probe = structured_data(300, 2);
  const auto importance =
      global_shap_summary(explainer, probe_rows(probe, 150)).mean_abs_all();
  ASSERT_EQ(importance.size(), 4u);
  EXPECT_GT(importance[0], importance[1]);
  EXPECT_GT(importance[1], importance[2]);
  EXPECT_GT(importance[1], importance[3]);
  for (const double v : importance) EXPECT_GE(v, 0.0);
}

TEST(GlobalShapSummary, MatchesMeanAbsShapAndAddsSignStats) {
  const Dataset train = structured_data(600, 11);
  RandomForestOptions options;
  options.n_trees = 20;
  RandomForestClassifier forest(options);
  forest.fit(train);
  const TreeShapExplainer explainer(forest);
  const Dataset probe = structured_data(80, 12);

  const GlobalShapSummary summary = global_shap_summary(explainer, probe);
  EXPECT_EQ(summary.n_rows(), probe.n_rows());
  // Mean |phi| straight from the batch engine's matrix.
  const ShapMatrix phi = explainer.shap_values_batch(probe);
  const auto streamed = summary.mean_abs_all();
  ASSERT_EQ(streamed.size(), probe.n_features());
  for (std::size_t f = 0; f < streamed.size(); ++f) {
    double sum_abs = 0.0;
    for (std::size_t r = 0; r < probe.n_rows(); ++r) {
      sum_abs += std::abs(phi.row(r)[f]);
    }
    EXPECT_DOUBLE_EQ(sum_abs / static_cast<double>(probe.n_rows()),
                     streamed[f]);
  }
  for (std::size_t f = 0; f < streamed.size(); ++f) {
    EXPECT_GE(summary.positive_fraction(f), 0.0);
    EXPECT_LE(summary.positive_fraction(f), 1.0);
    EXPECT_LE(std::abs(summary.mean_signed(f)), summary.mean_abs(f) + 1e-15);
  }
}

TEST(GlobalShapSummary, ShardMergeIsDeterministic) {
  const Dataset train = structured_data(400, 13);
  RandomForestOptions options;
  options.n_trees = 15;
  RandomForestClassifier forest(options);
  forest.fit(train);
  const TreeShapExplainer explainer(forest);
  const Dataset probe = structured_data(60, 14);
  const ShapMatrix phi = explainer.shap_values_batch(probe);

  GlobalShapSummary sequential(probe.n_features());
  sequential.add(phi);

  // Fixed-size row shards merged in block order: deterministic in the
  // sharding — two independent sharded runs agree bit for bit — and equal
  // to the sequential pass up to summation reassociation.
  const auto sharded = [&] {
    GlobalShapSummary merged(probe.n_features());
    for (std::size_t start = 0; start < phi.n_rows; start += 16) {
      GlobalShapSummary shard(probe.n_features());
      for (std::size_t r = start; r < std::min(phi.n_rows, start + 16); ++r) {
        shard.add(phi.row(r));
      }
      merged.merge(shard);
    }
    return merged;
  };
  const GlobalShapSummary merged_a = sharded();
  const GlobalShapSummary merged_b = sharded();
  EXPECT_EQ(sequential.n_rows(), merged_a.n_rows());
  for (std::size_t f = 0; f < probe.n_features(); ++f) {
    EXPECT_EQ(merged_a.mean_abs(f), merged_b.mean_abs(f));
    EXPECT_EQ(merged_a.mean_signed(f), merged_b.mean_signed(f));
    EXPECT_EQ(merged_a.positive_fraction(f), merged_b.positive_fraction(f));
    EXPECT_DOUBLE_EQ(sequential.mean_abs(f), merged_a.mean_abs(f));
    // Signed sums cancel, so compare on an absolute scale set by the
    // magnitude of the contributions rather than in ULPs of the residual.
    EXPECT_NEAR(sequential.mean_signed(f), merged_a.mean_signed(f),
                1e-12 * (1.0 + sequential.mean_abs(f)));
    // Sign counts are integers: identical no matter the association.
    EXPECT_EQ(sequential.positive_fraction(f), merged_a.positive_fraction(f));
  }
}

TEST(GlobalShapSummary, TopFeaturesMatchesFullSortWithBoundedHeap) {
  GlobalShapSummary summary(6);
  // Rows crafted so mean |SHAP| = {0.5, 0.1, 0.9, 0.5, 0.0, 0.3} with a
  // tie between features 0 and 3 (lower index must win).
  const std::vector<double> row{0.5, -0.1, 0.9, 0.5, 0.0, -0.3};
  summary.add(row);
  const auto top3 = summary.top_features(3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0], 2u);
  EXPECT_EQ(top3[1], 0u);
  EXPECT_EQ(top3[2], 3u);
  const auto all = summary.top_features(99);
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[5], 4u);
  const std::vector<std::string> names{"a", "b", "c", "d", "e", "f"};
  const std::string text = summary.to_text(names, 2);
  EXPECT_NE(text.find("1. c"), std::string::npos);
  EXPECT_NE(text.find("2. a"), std::string::npos);
}

TEST(SplitImportance, DebiasedDemotesNoiseFeatures) {
  const Dataset train = structured_data(1200, 21);
  RandomForestOptions options;
  options.n_trees = 30;
  RandomForestClassifier forest(options);
  forest.fit(train);

  const auto mdi = split_improvement_importance(forest.flat());
  ASSERT_EQ(mdi.size(), 4u);
  EXPECT_GT(mdi[0], mdi[2]);  // signal beats noise even before debiasing
  EXPECT_GT(mdi[0], mdi[3]);

  const Dataset probe = structured_data(600, 22);
  const auto debiased = debiased_split_importance(forest.flat(), probe);
  ASSERT_EQ(debiased.size(), 4u);
  EXPECT_GT(debiased[0], debiased[2]);
  EXPECT_GT(debiased[0], debiased[3]);
  // The debiasing signal: evaluated on fresh data, splits on the pure
  // noise features lose (relatively) more improvement than the signal
  // feature does.
  const auto noise_share = [](const std::vector<double>& imp) {
    const double noise = std::abs(imp[2]) + std::abs(imp[3]);
    return noise / (noise + std::abs(imp[0]) + std::abs(imp[1]));
  };
  EXPECT_LT(noise_share(debiased), noise_share(mdi));
}

TEST(SplitImportance, DebiasedValidatesProbe) {
  const Dataset train = structured_data(200, 23);
  RandomForestOptions options;
  options.n_trees = 5;
  RandomForestClassifier forest(options);
  forest.fit(train);
  Dataset empty(4);
  EXPECT_THROW(debiased_split_importance(forest.flat(), empty),
               std::invalid_argument);
  Dataset wrong_width(7);
  wrong_width.append_row(std::vector<float>(7, 0.0f), 0, 0);
  EXPECT_THROW(debiased_split_importance(forest.flat(), wrong_width),
               std::invalid_argument);
}

TEST(RankCorrelation, KnownValues) {
  const std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  const std::vector<double> up{10.0, 20.0, 30.0, 40.0};
  const std::vector<double> down{4.0, 3.0, 2.0, 1.0};
  EXPECT_NEAR(rank_correlation(a, up), 1.0, 1e-12);
  EXPECT_NEAR(rank_correlation(a, down), -1.0, 1e-12);
  const std::vector<double> constant{5.0, 5.0, 5.0, 5.0};
  EXPECT_DOUBLE_EQ(rank_correlation(a, constant), 0.0);
  const std::vector<double> short_vec{1.0};
  EXPECT_DOUBLE_EQ(rank_correlation(a, short_vec), 0.0);  // size mismatch
  // Ties get average ranks: {1, 2, 2, 3} vs a monotone vector correlates
  // strictly between 0 and 1.
  const std::vector<double> tied{1.0, 2.0, 2.0, 3.0};
  const double rho = rank_correlation(a, tied);
  EXPECT_GT(rho, 0.9);
  EXPECT_LT(rho, 1.0);
}

TEST(MeanAbsShapRegression, ShapRankingAgreesWithSplitImprovement) {
  // The satellite experiment in miniature: on structured data, mean |SHAP|
  // and (debiased) split improvement must largely agree on feature order.
  const Dataset train = structured_data(1000, 31);
  RandomForestOptions options;
  options.n_trees = 25;
  RandomForestClassifier forest(options);
  forest.fit(train);
  const TreeShapExplainer explainer(forest);
  const Dataset probe = structured_data(300, 32);
  const auto shap =
      global_shap_summary(explainer, probe_rows(probe, 150)).mean_abs_all();
  const auto debiased = debiased_split_importance(forest.flat(), probe);
  EXPECT_GT(rank_correlation(shap, debiased), 0.6);
}

}  // namespace
}  // namespace drcshap
