#pragma once
// CART decision-tree classifier, the base learner of the Random Forest
// (Section III-A) and of RUSBoost.
//
// Training uses histogram binning: quantile bins are computed once per
// dataset (BinnedMatrix: features binned in parallel blocks, each column
// ordered by a radix sort) and shared by every tree of a forest, which
// makes node splitting O(rows x candidate features) instead of
// O(rows log rows x features) -- the practical trick that keeps 500-tree
// forests on ~100k x 387 data cheap, as the paper's "low computational
// cost" argument requires.
//
// Split histograms are integer counts. fit_binned collapses its row list
// (a bootstrap draw, repeats allowed) into unique (row, multiplicity,
// label) entries, and each node histogram adds multiplicities per (bin,
// class). Every double the fit uses is then derived from counts: a class
// weight w summed over k samples is the per-fit table entry "w added k
// times from 0.0". That is exactly what a sequential per-row `+= w` into
// one accumulator produces, so node covers, values, gains and thus every
// split are bit-identical to a row-by-row double accumulation, and a
// node's result does not depend on row order, duplicate layout or thread
// count. min_samples_leaf / min_samples_split compare multiplicity sums
// (duplicates count).
//
// Predictions use raw feature values against real-valued thresholds, so a
// fitted tree is self-contained (and exactly what the SHAP tree explainer
// consumes).

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.hpp"
#include "util/rng.hpp"

namespace drcshap {

/// Quantile-binned view of a dataset, shared by all trees of a forest.
class BinnedMatrix {
 public:
  /// Largest max_bins: bin codes are u8. A feature then has at most
  /// kMaxBins - 1 split values, which bounds the distinct thresholds per
  /// feature of any fitted forest.
  static constexpr int kMaxBins = 256;

  /// Bins every feature of `data` into at most `max_bins` (<= kMaxBins)
  /// quantile bins. Distinct values fewer than max_bins get one bin each.
  /// Features are binned on up to `n_threads` shared-pool workers (0 =
  /// whole pool; serial when nested in a parallel region); the result is
  /// identical at any width. Throws std::invalid_argument on a NaN feature
  /// value (+-Inf are ordinary values).
  BinnedMatrix(const Dataset& data, int max_bins = 64,
               std::size_t n_threads = 0);

  std::size_t n_rows() const { return n_rows_; }
  std::size_t n_features() const { return n_features_; }

  std::uint8_t bin(std::size_t row, std::size_t feature) const {
    return bins_[feature * n_rows_ + row];
  }
  /// All rows' bin codes of one feature, contiguous.
  const std::uint8_t* column(std::size_t feature) const {
    return bins_.data() + feature * n_rows_;
  }
  /// Number of bins actually used by `feature` (>= 1).
  int n_bins(std::size_t feature) const { return n_bins_[feature]; }

  /// Real-valued threshold realizing the split "bin <= b": a row's bin is
  /// the number of thresholds strictly below its value, so bin <= b holds
  /// exactly when value <= threshold, the test prediction applies. The
  /// threshold is halfway between the largest value in bin b and the
  /// smallest in bin b+1; the lower value where rounding carries the
  /// midpoint onto the upper one, and the largest finite float below +Inf.
  /// Requires 0 <= b < n_bins(feature) - 1.
  float split_threshold(std::size_t feature, int b) const;

 private:
  std::size_t n_rows_;
  std::size_t n_features_;
  /// Column-major: a node histogram reads one feature over many rows.
  std::vector<std::uint8_t> bins_;
  std::vector<int> n_bins_;              ///< per feature
  std::vector<std::vector<float>> split_values_;  ///< per feature, size n_bins-1
};

/// One node of a fitted tree. Internal nodes split "x[feature] <= threshold
/// ? left : right"; leaves carry the positive-class probability. `cover`
/// (weighted training samples through the node) is what the SHAP tree
/// explainer uses to estimate conditional expectations.
struct TreeNode {
  std::int32_t feature = -1;  ///< -1 marks a leaf
  float threshold = 0.0f;
  std::int32_t left = -1;
  std::int32_t right = -1;
  double value = 0.0;  ///< P(y=1) among covered samples (leaves & internals)
  double cover = 0.0;
};

struct DecisionTreeOptions {
  int max_depth = -1;               ///< -1 = unpruned (grow until pure)
  std::size_t min_samples_leaf = 1;
  std::size_t min_samples_split = 2;
  /// Candidate features per split; -1 = all, 0 = floor(sqrt(n_features)).
  int max_features = -1;
  double positive_weight = 1.0;     ///< class weight on label 1
  std::uint64_t seed = 1;
};

class DecisionTree {
 public:
  DecisionTree() = default;

  /// Fit on all rows of `data` with a private binning.
  void fit(const Dataset& data, const DecisionTreeOptions& options = {},
           int max_bins = 64);

  /// Fit on the given rows (repeats allowed: bootstrap; order does not
  /// matter) against a shared binning. `binned` must have been built from
  /// `data`. Returns the number of distinct rows the tree was grown from.
  std::size_t fit_binned(const BinnedMatrix& binned, const Dataset& data,
                         std::span<const std::size_t> rows,
                         const DecisionTreeOptions& options);

  /// P(y=1 | x) from the leaf `x` falls into.
  double predict_proba(std::span<const float> features) const;

  bool fitted() const { return !nodes_.empty(); }
  const std::vector<TreeNode>& nodes() const { return nodes_; }
  std::size_t n_nodes() const { return nodes_.size(); }
  std::size_t n_leaves() const;
  /// Cached at fit/deserialization time: SHAP sizes its per-tree path
  /// scratch from this on every call, so it must not re-walk the tree.
  int depth() const { return depth_; }
  /// Mean leaf depth weighted by cover: expected comparisons per prediction.
  double mean_depth() const;
  /// Cover-weighted mean leaf value = E[f(x)] over the training data.
  double expected_value() const;
  std::size_t n_features() const { return n_features_; }

  /// Direct access for deserialization (model_io) and tests.
  void set_nodes(std::vector<TreeNode> nodes, std::size_t n_features);

 private:
  int compute_depth() const;

  std::vector<TreeNode> nodes_;  ///< nodes_[0] is the root
  std::size_t n_features_ = 0;
  int depth_ = 0;
};

}  // namespace drcshap
