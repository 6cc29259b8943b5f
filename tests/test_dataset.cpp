#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include "ml/scaler.hpp"

namespace drcshap {
namespace {

Dataset tiny_dataset() {
  Dataset d(3, {"a", "b", "c"});
  d.append_row(std::vector<float>{1, 2, 3}, 0, 10);
  d.append_row(std::vector<float>{4, 5, 6}, 1, 10);
  d.append_row(std::vector<float>{7, 8, 9}, 0, 20);
  d.append_row(std::vector<float>{-1, 0, 1}, 1, 30);
  return d;
}

TEST(Dataset, BasicShapeAndAccess) {
  const Dataset d = tiny_dataset();
  EXPECT_EQ(d.n_rows(), 4u);
  EXPECT_EQ(d.n_features(), 3u);
  EXPECT_EQ(d.n_positives(), 2u);
  EXPECT_FLOAT_EQ(d.row(1)[2], 6.0f);
  EXPECT_EQ(d.label(1), 1);
  EXPECT_EQ(d.group(2), 20);
}

TEST(Dataset, RejectsBadConstruction) {
  EXPECT_THROW(Dataset(0), std::invalid_argument);
  EXPECT_THROW(Dataset(3, {"only", "two"}), std::invalid_argument);
}

TEST(Dataset, AppendRowChecksArity) {
  Dataset d(3);
  EXPECT_THROW(d.append_row(std::vector<float>{1, 2}, 0, 0),
               std::invalid_argument);
}

TEST(Dataset, AppendDatasetChecksSchema) {
  Dataset a(3), b(2);
  EXPECT_THROW(a.append(b), std::invalid_argument);
  Dataset c = tiny_dataset();
  Dataset d2 = tiny_dataset();
  c.append(d2);
  EXPECT_EQ(c.n_rows(), 8u);
}

TEST(Dataset, SubsetPreservesOrderAndMetadata) {
  const Dataset d = tiny_dataset();
  const std::vector<std::size_t> rows{3, 0};
  const Dataset s = d.subset(rows);
  EXPECT_EQ(s.n_rows(), 2u);
  EXPECT_FLOAT_EQ(s.row(0)[0], -1.0f);
  EXPECT_EQ(s.label(0), 1);
  EXPECT_EQ(s.group(1), 10);
  EXPECT_EQ(s.feature_names(), d.feature_names());
  EXPECT_THROW(d.subset(std::vector<std::size_t>{9}), std::out_of_range);
}

TEST(Dataset, GroupQueries) {
  const Dataset d = tiny_dataset();
  EXPECT_EQ(d.distinct_groups(), (std::vector<int>{10, 20, 30}));
  EXPECT_EQ(d.rows_in_groups(std::vector<int>{10}),
            (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(d.rows_not_in_groups(std::vector<int>{10}),
            (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(d.rows_in_groups(std::vector<int>{20, 30}),
            (std::vector<std::size_t>{2, 3}));
}

// -------------------------------------------------------------- scaler

TEST(Scaler, StandardizesToZeroMeanUnitVariance) {
  Dataset d(2);
  d.append_row(std::vector<float>{0, 100}, 0, 0);
  d.append_row(std::vector<float>{10, 200}, 0, 0);
  d.append_row(std::vector<float>{20, 300}, 1, 0);
  StandardScaler scaler;
  scaler.fit_transform(d);
  for (std::size_t f = 0; f < 2; ++f) {
    double mean = 0.0, var = 0.0;
    for (std::size_t i = 0; i < d.n_rows(); ++i) mean += d.row(i)[f];
    mean /= 3.0;
    for (std::size_t i = 0; i < d.n_rows(); ++i) {
      var += (d.row(i)[f] - mean) * (d.row(i)[f] - mean);
    }
    EXPECT_NEAR(mean, 0.0, 1e-6);
    EXPECT_NEAR(var / 3.0, 1.0, 1e-6);
  }
}

TEST(Scaler, ConstantFeatureMapsToZero) {
  Dataset d(1);
  d.append_row(std::vector<float>{5}, 0, 0);
  d.append_row(std::vector<float>{5}, 1, 0);
  StandardScaler scaler;
  scaler.fit_transform(d);
  EXPECT_FLOAT_EQ(d.row(0)[0], 0.0f);
  EXPECT_FLOAT_EQ(d.row(1)[0], 0.0f);
}

TEST(Scaler, TransformUsesTrainingStatistics) {
  Dataset train(1), test(1);
  train.append_row(std::vector<float>{0}, 0, 0);
  train.append_row(std::vector<float>{2}, 0, 0);
  test.append_row(std::vector<float>{4}, 0, 0);
  StandardScaler scaler;
  scaler.fit(train);
  scaler.transform(test);
  // mean 1, std 1 -> 4 maps to 3.
  EXPECT_FLOAT_EQ(test.row(0)[0], 3.0f);
}

TEST(Scaler, ChecksFittingAndShapes) {
  StandardScaler scaler;
  Dataset empty(2);
  EXPECT_THROW(scaler.fit(empty), std::invalid_argument);
  Dataset d = tiny_dataset();
  StandardScaler fitted;
  fitted.fit(d);
  Dataset wrong(2);
  wrong.append_row(std::vector<float>{1, 2}, 0, 0);
  EXPECT_THROW(fitted.transform(wrong), std::invalid_argument);
}

}  // namespace
}  // namespace drcshap
