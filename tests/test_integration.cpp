// End-to-end integration: the complete Fig. 1 workflow on tiny instances —
// data acquisition, design-held-out training, metric evaluation, and SHAP
// explanation — all in one pass.

#include <gtest/gtest.h>

#include <numeric>

#include "baselines/rusboost.hpp"
#include "benchsuite/pipeline.hpp"
#include "core/explanation.hpp"
#include "core/tree_shap.hpp"
#include "features/labeler.hpp"
#include "ml/metrics.hpp"
#include "ml/scaler.hpp"

namespace drcshap {
namespace {

PipelineOptions tiny_options() {
  PipelineOptions options;
  options.generator.scale = 16.0;
  return options;
}

class IntegrationFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Built once for the whole suite: three small designs.
    train_ = new Dataset(FeatureSchema::kNumFeatures, FeatureSchema::names());
    for (const char* name : {"fft_2", "fft_1"}) {
      train_->append(run_pipeline(suite_spec(name), tiny_options()).samples);
    }
    test_ = new DesignRun(run_pipeline(suite_spec("bridge32_a"), tiny_options()));
  }
  static void TearDownTestSuite() {
    delete train_;
    delete test_;
    train_ = nullptr;
    test_ = nullptr;
  }

  static Dataset* train_;
  static DesignRun* test_;
};

Dataset* IntegrationFixture::train_ = nullptr;
DesignRun* IntegrationFixture::test_ = nullptr;

TEST_F(IntegrationFixture, DataHasBothClassesAndRarePositives) {
  ASSERT_GT(train_->n_rows(), 200u);
  EXPECT_GT(train_->n_positives(), 3u);
  // Rare positives, as in the paper's Table I.
  EXPECT_LT(train_->n_positives(), train_->n_rows() / 4);
}

TEST_F(IntegrationFixture, ForestBeatsChanceOnHeldOutDesign) {
  RandomForestOptions options;
  options.n_trees = 60;
  RandomForestClassifier forest(options);
  forest.fit(*train_);
  const auto scores = forest.predict_proba_all(test_->samples);
  const double chance = static_cast<double>(test_->samples.n_positives()) /
                        static_cast<double>(test_->samples.n_rows());
  if (test_->samples.n_positives() > 0) {
    EXPECT_GT(auprc(scores, test_->samples.labels()), chance);
    EXPECT_GT(auroc(scores, test_->samples.labels()), 0.6);
  }
}

TEST_F(IntegrationFixture, ExplanationAdditivityOnRealFeatures) {
  RandomForestOptions options;
  options.n_trees = 25;
  RandomForestClassifier forest(options);
  forest.fit(*train_);
  const TreeShapExplainer explainer(forest);
  for (const std::size_t i : {0u, 7u, 42u}) {
    const Explanation e = explain_sample(
        explainer, forest, test_->samples.row(i), FeatureSchema::names());
    EXPECT_LT(e.additivity_gap(), 1e-9);
    EXPECT_EQ(e.shap_values().size(), 387u);
  }
}

TEST_F(IntegrationFixture, ExplanationNamesUsePaperConvention) {
  RandomForestOptions options;
  options.n_trees = 25;
  RandomForestClassifier forest(options);
  forest.fit(*train_);
  const TreeShapExplainer explainer(forest);
  const Explanation e = explain_sample(
      explainer, forest, test_->samples.row(0), FeatureSchema::names());
  const std::string text = e.to_text(5);
  EXPECT_FALSE(text.empty());
  // All names come from the schema.
  for (const FeatureContribution& c : e.top(5)) {
    EXPECT_NO_THROW(FeatureSchema::index_of(c.feature_name));
  }
}

TEST_F(IntegrationFixture, ScaledFeaturesWorkWithBaselines) {
  Dataset train_copy = *train_;
  Dataset test_copy = test_->samples;
  StandardScaler scaler;
  scaler.fit_transform(train_copy);
  scaler.transform(test_copy);
  RusBoostOptions options;
  options.n_rounds = 10;
  RusBoostClassifier model(options);
  model.fit(train_copy);
  const auto scores = model.predict_proba_all(test_copy);
  EXPECT_EQ(scores.size(), test_copy.n_rows());
  for (const double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(IntegrationFixture, HotspotLabelsConsistentWithViolations) {
  const auto labels =
      hotspot_labels(test_->design.grid(), test_->drc.violations());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    EXPECT_EQ(labels[i], test_->samples.label(i) ? 1 : 0);
  }
}

TEST_F(IntegrationFixture, PipelineIsReproducible) {
  const DesignRun again = run_pipeline(suite_spec("bridge32_a"), tiny_options());
  ASSERT_EQ(again.samples.n_rows(), test_->samples.n_rows());
  EXPECT_EQ(again.samples.labels(), test_->samples.labels());
  for (const std::size_t i : {0u, 13u, 99u}) {
    for (std::size_t f = 0; f < 387u; ++f) {
      EXPECT_FLOAT_EQ(again.samples.row(i)[f], test_->samples.row(i)[f]);
    }
  }
}

}  // namespace
}  // namespace drcshap
