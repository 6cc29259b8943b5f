#pragma once
// Human-readable per-prediction explanations (the Fig. 4 force plots):
// ranked signed feature contributions around the base value, rendered as
// text with the paper's feature-naming convention.

#include <span>
#include <string>
#include <vector>

#include "core/tree_shap.hpp"

namespace drcshap {

struct FeatureContribution {
  std::size_t feature_index = 0;
  std::string feature_name;
  double shap_value = 0.0;     ///< signed push from the base value
  double feature_value = 0.0;  ///< the sample's raw value of this feature
};

class Explanation {
 public:
  Explanation(double base_value, double prediction,
              std::vector<double> shap_values,
              std::vector<float> feature_values,
              std::vector<std::string> feature_names);

  double base_value() const { return base_value_; }
  double prediction() const { return prediction_; }
  const std::vector<double>& shap_values() const { return shap_values_; }

  /// All contributions ordered by |shap| descending.
  std::vector<FeatureContribution> ranked() const;

  /// The top_k strongest contributions.
  std::vector<FeatureContribution> top(std::size_t top_k) const;

  /// |prediction - (base + sum(shap))|: should be ~0 (additivity check).
  double additivity_gap() const;

  /// ASCII force plot: one line per top contribution, bar length scaled to
  /// |shap|, '+' bars push toward hotspot, '-' bars away (Fig. 4 pink/blue).
  std::string to_text(std::size_t top_k = 10) const;

 private:
  double base_value_;
  double prediction_;
  std::vector<double> shap_values_;
  std::vector<float> feature_values_;
  std::vector<std::string> feature_names_;
};

/// Convenience: run the explainer on one sample.
Explanation explain_sample(const TreeShapExplainer& explainer,
                           const RandomForestClassifier& forest,
                           std::span<const float> features,
                           std::vector<std::string> feature_names);

/// Explain every row of `data` through the batched engine (one SHAP pass and
/// one prediction pass over the thread pool instead of per-row calls);
/// returns one Explanation per row in row order.
std::vector<Explanation> explain_batch(const TreeShapExplainer& explainer,
                                       const RandomForestClassifier& forest,
                                       const Dataset& data,
                                       std::vector<std::string> feature_names,
                                       std::size_t n_threads = 0);

/// Streaming accumulator of the global SHAP summary (the Fig. 5 bar chart
/// at serving scale): per-feature mean |SHAP|, signed mean, and sign split,
/// built row by row in O(n_features) memory — no retained phi matrix. A
/// long-running daemon folds every explain batch in as it is served and can
/// answer "what drives hotspots globally" at any point without replaying
/// traffic.
///
/// Aggregation is a per-feature sum. add() folds rows in the order given;
/// merge() adds `other`'s partial sums onto `this`'s. A merge of shard
/// summaries therefore reassociates relative to one sequential pass — but
/// it is *deterministic in the sharding*: fix the row partition and the
/// merge order (e.g. fixed-size blocks merged in block order) and the
/// result is bit-identical no matter which worker computed which shard —
/// the same discipline the batched SHAP engine itself uses.
class GlobalShapSummary {
 public:
  GlobalShapSummary() = default;
  explicit GlobalShapSummary(std::size_t n_features);

  /// Folds one SHAP row (n_features doubles) into the summary.
  void add(std::span<const double> shap_row);
  /// Folds every row of a batch result, in row order.
  void add(const ShapMatrix& matrix);
  /// Adds `other`'s partial sums onto this accumulator's (deterministic
  /// shard merge: same shards + same merge order => same bits, regardless
  /// of which worker produced which shard).
  void merge(const GlobalShapSummary& other);

  std::size_t n_features() const { return sum_abs_.size(); }
  std::uint64_t n_rows() const { return rows_; }

  double mean_abs(std::size_t feature) const;
  double mean_signed(std::size_t feature) const;
  /// Fraction of folded rows whose phi for `feature` was > 0 (pushes toward
  /// hotspot). Rows with phi exactly 0.0 count as negative pushes.
  double positive_fraction(std::size_t feature) const;

  std::vector<double> mean_abs_all() const;

  /// Indices of the top_k features by mean |SHAP| (descending; ties broken
  /// by lower index). Selected with a bounded min-heap: O(F log k), no full
  /// sort of the feature axis.
  std::vector<std::size_t> top_features(std::size_t top_k) const;

  /// One line per top-k feature: rank, name, mean |SHAP|, signed mean,
  /// positive fraction — the text twin of the SHAP summary plot.
  std::string to_text(std::span<const std::string> feature_names,
                      std::size_t top_k = 10) const;

 private:
  std::vector<double> sum_abs_;
  std::vector<double> sum_;
  std::vector<std::uint64_t> positive_;
  std::uint64_t rows_ = 0;
};

/// Convenience: one batched SHAP pass over `data` folded into a summary
/// (rows in dataset order, so the result is thread-count independent like
/// shap_values_batch itself).
GlobalShapSummary global_shap_summary(const TreeShapExplainer& explainer,
                                      const Dataset& data,
                                      std::size_t n_threads = 0);

/// Classic split-improvement (MDI / Gini) importance from the fitted
/// ensemble: per split, the cover-weighted Gini impurity decrease evaluated
/// with the training statistics stored in the nodes, summed per feature and
/// normalized per tree. Known to be biased toward high-cardinality noise
/// features (Loecher 2020).
std::vector<double> split_improvement_importance(const FlatForest& flat);

/// Loecher-style debiased split improvement: the same per-split Gini
/// decrease, but evaluated by re-routing an *out-of-sample* probe set
/// through the trees and recomputing node class statistics from the probe
/// rows. Spurious splits that memorized training noise get ~zero (often
/// negative) improvement on fresh data, so the bias toward noise features
/// cancels instead of accumulating. Values are kept signed — a negative
/// importance is evidence of an anti-predictive (overfit) feature. Splits
/// no probe row reaches contribute zero.
std::vector<double> debiased_split_importance(const FlatForest& flat,
                                              const Dataset& probe);

/// Spearman rank correlation between two importance vectors (average ranks
/// for ties). Used to cross-check global SHAP rankings against
/// split-improvement rankings. Returns 0 for degenerate (constant) inputs.
double rank_correlation(std::span<const double> a, std::span<const double> b);

}  // namespace drcshap
