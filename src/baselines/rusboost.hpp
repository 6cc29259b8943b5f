#pragma once
// RUSBoost (Seiffert et al.): AdaBoost.M1 where each round first random-
// undersamples the majority class, then fits a shallow decision tree. This
// is the boosting-ensemble baseline of Tabrizi et al. [4] in Table II. The
// paper runs 100 boosting iterations.

#include <cstdint>
#include <memory>

#include "core/decision_tree.hpp"
#include "core/flat_forest.hpp"
#include "ml/classifier.hpp"

namespace drcshap {

struct RusBoostOptions {
  int n_rounds = 100;
  int tree_max_depth = 6;
  std::size_t min_samples_leaf = 4;
  /// Majority samples kept per round, as a multiple of the minority count.
  double negative_ratio = 1.0;
  std::uint64_t seed = 29;
};

class RusBoostClassifier final : public BinaryClassifier {
 public:
  explicit RusBoostClassifier(RusBoostOptions options = {});

  void fit(const Dataset& data) override;
  double predict_proba(std::span<const float> features) const override;

  std::size_t n_parameters() const override;
  std::size_t prediction_ops() const override;
  std::string name() const override { return "RUSBoost"; }

  /// Boosting margin sum_t alpha_t h_t(x), h_t in {-1, +1}; predict_proba is
  /// a monotone logistic of this.
  double margin(std::span<const float> features) const;

  std::size_t n_rounds_used() const { return trees_.size(); }
  const std::vector<DecisionTree>& trees() const { return trees_; }

 private:
  RusBoostOptions options_;
  std::vector<DecisionTree> trees_;
  std::vector<double> alphas_;
  /// SoA snapshot of the kept round trees, rebuilt at the end of fit();
  /// margin/predict_proba walk this instead of the pointer-chasing
  /// per-node structs (leaf values are identical, so outputs are too).
  std::shared_ptr<const FlatForest> flat_;
  double alpha_total_ = 0.0;
};

}  // namespace drcshap
