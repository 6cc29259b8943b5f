#include "ml/dataset.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace drcshap {

Dataset::Dataset(std::size_t n_features,
                 std::vector<std::string> feature_names)
    : n_features_(n_features), feature_names_(std::move(feature_names)) {
  if (n_features_ == 0) throw std::invalid_argument("Dataset: 0 features");
  if (!feature_names_.empty() && feature_names_.size() != n_features_) {
    throw std::invalid_argument("Dataset: feature name count mismatch");
  }
}

std::size_t Dataset::n_positives() const {
  return static_cast<std::size_t>(std::count(y_.begin(), y_.end(), 1));
}

void Dataset::append_row(std::span<const float> features, int label,
                         int group) {
  if (features.size() != n_features_) {
    throw std::invalid_argument("Dataset::append_row: feature count mismatch");
  }
  x_.insert(x_.end(), features.begin(), features.end());
  y_.push_back(label ? 1 : 0);
  group_.push_back(group);
}

void Dataset::append(const Dataset& other) {
  if (other.n_features_ != n_features_) {
    throw std::invalid_argument("Dataset::append: schema mismatch");
  }
  x_.insert(x_.end(), other.x_.begin(), other.x_.end());
  y_.insert(y_.end(), other.y_.begin(), other.y_.end());
  group_.insert(group_.end(), other.group_.begin(), other.group_.end());
}

Dataset Dataset::subset(std::span<const std::size_t> rows) const {
  Dataset out(n_features_, feature_names_);
  out.x_.reserve(rows.size() * n_features_);
  out.y_.reserve(rows.size());
  out.group_.reserve(rows.size());
  for (const std::size_t r : rows) {
    if (r >= n_rows()) throw std::out_of_range("Dataset::subset");
    const auto row_span = row(r);
    out.x_.insert(out.x_.end(), row_span.begin(), row_span.end());
    out.y_.push_back(y_[r]);
    out.group_.push_back(group_[r]);
  }
  return out;
}

std::vector<std::size_t> Dataset::rows_in_groups(
    std::span<const int> groups) const {
  const std::set<int> wanted(groups.begin(), groups.end());
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n_rows(); ++i) {
    if (wanted.count(group_[i])) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> Dataset::rows_not_in_groups(
    std::span<const int> groups) const {
  const std::set<int> excluded(groups.begin(), groups.end());
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < n_rows(); ++i) {
    if (!excluded.count(group_[i])) out.push_back(i);
  }
  return out;
}

std::vector<int> Dataset::distinct_groups() const {
  const std::set<int> distinct(group_.begin(), group_.end());
  return {distinct.begin(), distinct.end()};
}

}  // namespace drcshap
