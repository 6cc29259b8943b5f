#pragma once
// Row-major dataset container for the supervised classification problem:
// one row per g-cell sample, 387 feature columns, binary hotspot label, and
// a group id (which design the row came from) used by the design-held-out
// evaluation protocol of Section II.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace drcshap {

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::size_t n_features,
                   std::vector<std::string> feature_names = {});

  std::size_t n_features() const { return n_features_; }
  std::size_t n_rows() const { return y_.size(); }
  std::size_t n_positives() const;

  std::span<const float> row(std::size_t i) const {
    return {x_.data() + i * n_features_, n_features_};
  }
  int label(std::size_t i) const { return y_[i]; }
  int group(std::size_t i) const { return group_[i]; }

  const std::vector<float>& features_flat() const { return x_; }
  const std::vector<std::uint8_t>& labels() const { return y_; }
  const std::vector<int>& groups() const { return group_; }
  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }

  /// Appends one row (feature count must match).
  void append_row(std::span<const float> features, int label, int group = 0);

  /// Appends all rows of `other` (schemas must match).
  void append(const Dataset& other);

  /// New dataset with only the listed rows (in the given order).
  Dataset subset(std::span<const std::size_t> rows) const;

  /// Row indices whose group is in `groups`.
  std::vector<std::size_t> rows_in_groups(std::span<const int> groups) const;

  /// Row indices whose group is NOT in `groups`.
  std::vector<std::size_t> rows_not_in_groups(std::span<const int> groups) const;

  /// Distinct group ids, ascending.
  std::vector<int> distinct_groups() const;

  /// Writable access for in-place scaling.
  float* mutable_features() { return x_.data(); }

 private:
  std::size_t n_features_ = 0;
  std::vector<float> x_;
  std::vector<std::uint8_t> y_;
  std::vector<int> group_;
  std::vector<std::string> feature_names_;
};

}  // namespace drcshap
