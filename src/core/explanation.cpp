#include "core/explanation.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "util/table.hpp"

namespace drcshap {

namespace {

/// "f<index>", the name of a feature that has no name. Appended rather than
/// built as `"f" + std::to_string(f)`, which sets off a GCC 12 -Wrestrict
/// false positive in Release builds.
std::string generic_feature_name(std::size_t f) {
  std::string name = "f";
  name += std::to_string(f);
  return name;
}

}  // namespace

Explanation::Explanation(double base_value, double prediction,
                         std::vector<double> shap_values,
                         std::vector<float> feature_values,
                         std::vector<std::string> feature_names)
    : base_value_(base_value),
      prediction_(prediction),
      shap_values_(std::move(shap_values)),
      feature_values_(std::move(feature_values)),
      feature_names_(std::move(feature_names)) {
  if (shap_values_.size() != feature_values_.size() ||
      (!feature_names_.empty() &&
       feature_names_.size() != shap_values_.size())) {
    throw std::invalid_argument("Explanation: size mismatch");
  }
}

std::vector<FeatureContribution> Explanation::ranked() const {
  std::vector<std::size_t> order(shap_values_.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::abs(shap_values_[a]) > std::abs(shap_values_[b]);
  });
  std::vector<FeatureContribution> out;
  out.reserve(order.size());
  for (const std::size_t f : order) {
    out.push_back({f,
                   feature_names_.empty() ? generic_feature_name(f)
                                          : feature_names_[f],
                   shap_values_[f], feature_values_[f]});
  }
  return out;
}

std::vector<FeatureContribution> Explanation::top(std::size_t top_k) const {
  auto all = ranked();
  if (all.size() > top_k) all.resize(top_k);
  return all;
}

double Explanation::additivity_gap() const {
  const double total =
      std::accumulate(shap_values_.begin(), shap_values_.end(), base_value_);
  return std::abs(prediction_ - total);
}

std::string Explanation::to_text(std::size_t top_k) const {
  std::ostringstream os;
  os << "prediction " << fmt_fixed(prediction_, 4) << " (base value "
     << fmt_fixed(base_value_, 4) << ", "
     << (base_value_ > 0.0 ? fmt_fixed(prediction_ / base_value_, 1) : "inf")
     << "x the average)\n";
  const auto contributions = top(top_k);
  double max_abs = 1e-12;
  for (const auto& c : contributions) {
    max_abs = std::max(max_abs, std::abs(c.shap_value));
  }
  for (const auto& c : contributions) {
    const int bar = std::max(
        1, static_cast<int>(std::lround(std::abs(c.shap_value) / max_abs * 40)));
    os << "  " << (c.shap_value >= 0.0 ? "+" : "-") << " "
       << c.feature_name << "=" << fmt_fixed(c.feature_value, 2) << "  "
       << std::string(static_cast<std::size_t>(bar),
                      c.shap_value >= 0.0 ? '#' : '-')
       << " " << fmt_fixed(c.shap_value, 4) << "\n";
  }
  return os.str();
}

Explanation explain_sample(const TreeShapExplainer& explainer,
                           const RandomForestClassifier& forest,
                           std::span<const float> features,
                           std::vector<std::string> feature_names) {
  return Explanation(explainer.base_value(), forest.predict_proba(features),
                     explainer.shap_values(features),
                     std::vector<float>(features.begin(), features.end()),
                     std::move(feature_names));
}

std::vector<Explanation> explain_batch(const TreeShapExplainer& explainer,
                                       const RandomForestClassifier& forest,
                                       const Dataset& data,
                                       std::vector<std::string> feature_names,
                                       std::size_t n_threads) {
  const std::vector<double> predictions = forest.predict_proba_all(data);
  const ShapMatrix phi = explainer.shap_values_batch(data, n_threads);
  std::vector<Explanation> out;
  out.reserve(data.n_rows());
  for (std::size_t r = 0; r < data.n_rows(); ++r) {
    const auto row_phi = phi.row(r);
    const auto features = data.row(r);
    out.emplace_back(explainer.base_value(), predictions[r],
                     std::vector<double>(row_phi.begin(), row_phi.end()),
                     std::vector<float>(features.begin(), features.end()),
                     feature_names);
  }
  return out;
}

// ----------------------------------------------------- GlobalShapSummary

GlobalShapSummary::GlobalShapSummary(std::size_t n_features)
    : sum_abs_(n_features, 0.0),
      sum_(n_features, 0.0),
      positive_(n_features, 0) {}

void GlobalShapSummary::add(std::span<const double> shap_row) {
  if (sum_abs_.empty()) {
    sum_abs_.assign(shap_row.size(), 0.0);
    sum_.assign(shap_row.size(), 0.0);
    positive_.assign(shap_row.size(), 0);
  }
  if (shap_row.size() != sum_abs_.size()) {
    throw std::invalid_argument("GlobalShapSummary: row width mismatch");
  }
  for (std::size_t f = 0; f < shap_row.size(); ++f) {
    sum_abs_[f] += std::abs(shap_row[f]);
    sum_[f] += shap_row[f];
    positive_[f] += shap_row[f] > 0.0 ? 1 : 0;
  }
  ++rows_;
}

void GlobalShapSummary::add(const ShapMatrix& matrix) {
  for (std::size_t r = 0; r < matrix.n_rows; ++r) add(matrix.row(r));
}

void GlobalShapSummary::merge(const GlobalShapSummary& other) {
  if (other.rows_ == 0) return;
  if (rows_ == 0 && sum_abs_.empty()) {
    *this = other;
    return;
  }
  if (other.sum_abs_.size() != sum_abs_.size()) {
    throw std::invalid_argument("GlobalShapSummary: merge width mismatch");
  }
  for (std::size_t f = 0; f < sum_abs_.size(); ++f) {
    sum_abs_[f] += other.sum_abs_[f];
    sum_[f] += other.sum_[f];
    positive_[f] += other.positive_[f];
  }
  rows_ += other.rows_;
}

double GlobalShapSummary::mean_abs(std::size_t feature) const {
  return rows_ == 0 ? 0.0 : sum_abs_[feature] / static_cast<double>(rows_);
}

double GlobalShapSummary::mean_signed(std::size_t feature) const {
  return rows_ == 0 ? 0.0 : sum_[feature] / static_cast<double>(rows_);
}

double GlobalShapSummary::positive_fraction(std::size_t feature) const {
  return rows_ == 0 ? 0.0
                    : static_cast<double>(positive_[feature]) /
                          static_cast<double>(rows_);
}

std::vector<double> GlobalShapSummary::mean_abs_all() const {
  std::vector<double> out(sum_abs_.size(), 0.0);
  for (std::size_t f = 0; f < out.size(); ++f) out[f] = mean_abs(f);
  return out;
}

std::vector<std::size_t> GlobalShapSummary::top_features(
    std::size_t top_k) const {
  const std::size_t k = std::min(top_k, sum_abs_.size());
  // Bounded min-heap of the best k seen so far; the root is the weakest
  // keeper, so a sweep over F features costs O(F log k) and never
  // materializes a full sorted axis. Comparator orders "worse first":
  // smaller mean |SHAP|, ties broken toward the *higher* index so the
  // lower index survives eviction.
  const auto worse = [&](std::size_t a, std::size_t b) {
    if (sum_abs_[a] != sum_abs_[b]) return sum_abs_[a] > sum_abs_[b];
    return a < b;
  };
  std::vector<std::size_t> heap;
  heap.reserve(k + 1);
  for (std::size_t f = 0; f < sum_abs_.size(); ++f) {
    if (heap.size() < k) {
      heap.push_back(f);
      std::push_heap(heap.begin(), heap.end(), worse);
    } else if (k > 0 && worse(f, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), worse);
      heap.back() = f;
      std::push_heap(heap.begin(), heap.end(), worse);
    }
  }
  // sort_heap orders ascending under the comparator; "worse" inverts the
  // value ordering, so ascending-under-worse is best-first already.
  std::sort_heap(heap.begin(), heap.end(), worse);
  return heap;
}

std::string GlobalShapSummary::to_text(
    std::span<const std::string> feature_names, std::size_t top_k) const {
  std::ostringstream os;
  os << "global SHAP summary over " << rows_ << " rows\n";
  const auto top = top_features(top_k);
  for (std::size_t rank = 0; rank < top.size(); ++rank) {
    const std::size_t f = top[rank];
    const std::string name = f < feature_names.size()
                                 ? feature_names[f]
                                 : generic_feature_name(f);
    os << "  " << (rank + 1) << ". " << name << "  mean|shap|="
       << fmt_fixed(mean_abs(f), 5) << "  mean=" << fmt_fixed(mean_signed(f), 5)
       << "  pos=" << fmt_fixed(positive_fraction(f) * 100.0, 1) << "%\n";
  }
  return os.str();
}

GlobalShapSummary global_shap_summary(const TreeShapExplainer& explainer,
                                      const Dataset& data,
                                      std::size_t n_threads) {
  GlobalShapSummary summary(data.n_features());
  summary.add(explainer.shap_values_batch(data, n_threads));
  return summary;
}

// ------------------------------------------- split-improvement importance

namespace {

double gini(double p) { return 2.0 * p * (1.0 - p); }

/// Sums cover-weighted Gini decreases per split feature; `count` and `pos`
/// are node-indexed sample statistics (training covers or probe recounts).
/// Normalizes by each tree's root count so every tree votes with weight 1,
/// then averages over trees.
std::vector<double> split_importance_from_counts(
    const FlatForest& flat, const std::vector<double>& count,
    const std::vector<double>& pos) {
  std::vector<double> importance(flat.n_features(), 0.0);
  const std::int32_t* feature = flat.feature();
  const std::int32_t* left = flat.left();
  const std::int32_t* right = flat.right();
  for (std::size_t t = 0; t < flat.n_trees(); ++t) {
    const auto root = static_cast<std::size_t>(flat.root(t));
    const double root_count = count[root];
    if (root_count <= 0.0) continue;
    std::vector<double> per_tree(flat.n_features(), 0.0);
    // Iterative DFS from the root; node ids within a tree are contiguous
    // but only reachability matters here.
    std::vector<std::size_t> stack = {root};
    while (!stack.empty()) {
      const std::size_t n = stack.back();
      stack.pop_back();
      if (feature[n] < 0) continue;
      const auto l = static_cast<std::size_t>(left[n]);
      const auto r = static_cast<std::size_t>(right[n]);
      stack.push_back(l);
      stack.push_back(r);
      if (count[n] <= 0.0) continue;  // no probe row reached this split
      const double p_node = pos[n] / count[n];
      const double g_left = count[l] > 0.0 ? gini(pos[l] / count[l]) : 0.0;
      const double g_right = count[r] > 0.0 ? gini(pos[r] / count[r]) : 0.0;
      const double decrease = count[n] * gini(p_node) - count[l] * g_left -
                              count[r] * g_right;
      per_tree[static_cast<std::size_t>(feature[n])] += decrease;
    }
    for (std::size_t f = 0; f < importance.size(); ++f) {
      importance[f] += per_tree[f] / root_count;
    }
  }
  for (double& v : importance) v /= static_cast<double>(flat.n_trees());
  return importance;
}

}  // namespace

std::vector<double> split_improvement_importance(const FlatForest& flat) {
  // Training statistics live in the nodes already: cover = sample count,
  // value = P(y=1) among covered samples, so pos = cover * value.
  const double* cover = flat.cover();
  const double* value = flat.value();
  std::vector<double> count(flat.n_nodes());
  std::vector<double> pos(flat.n_nodes());
  for (std::size_t n = 0; n < flat.n_nodes(); ++n) {
    count[n] = cover[n];
    pos[n] = cover[n] * value[n];
  }
  return split_importance_from_counts(flat, count, pos);
}

std::vector<double> debiased_split_importance(const FlatForest& flat,
                                              const Dataset& probe) {
  if (probe.n_rows() == 0) {
    throw std::invalid_argument("debiased_split_importance: empty probe set");
  }
  if (probe.n_features() != flat.n_features()) {
    throw std::invalid_argument(
        "debiased_split_importance: probe feature count mismatch");
  }
  // Re-route every probe row through every tree, recounting (count, pos)
  // at each node it crosses: fresh-data class statistics instead of the
  // memorized training ones.
  std::vector<double> count(flat.n_nodes(), 0.0);
  std::vector<double> pos(flat.n_nodes(), 0.0);
  const std::int32_t* feature = flat.feature();
  const float* threshold = flat.threshold();
  const std::int32_t* left = flat.left();
  const std::int32_t* right = flat.right();
  for (std::size_t r = 0; r < probe.n_rows(); ++r) {
    const auto row = probe.row(r);
    const double label = probe.label(r) != 0 ? 1.0 : 0.0;
    for (std::size_t t = 0; t < flat.n_trees(); ++t) {
      auto n = static_cast<std::size_t>(flat.root(t));
      for (;;) {
        count[n] += 1.0;
        pos[n] += label;
        if (feature[n] < 0) break;
        n = static_cast<std::size_t>(
            row[static_cast<std::size_t>(feature[n])] <= threshold[n]
                ? left[n]
                : right[n]);
      }
    }
  }
  return split_importance_from_counts(flat, count, pos);
}

double rank_correlation(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size() || a.size() < 2) return 0.0;
  // Average ranks for ties (fractional ranking), then Pearson over ranks.
  const auto ranks = [](std::span<const double> v) {
    std::vector<std::size_t> order(v.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t x, std::size_t y) { return v[x] < v[y]; });
    std::vector<double> rank(v.size(), 0.0);
    std::size_t i = 0;
    while (i < order.size()) {
      std::size_t j = i;
      while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) ++j;
      const double shared = (static_cast<double>(i) + static_cast<double>(j)) /
                                2.0 +
                            1.0;
      for (std::size_t k = i; k <= j; ++k) rank[order[k]] = shared;
      i = j + 1;
    }
    return rank;
  };
  const std::vector<double> ra = ranks(a);
  const std::vector<double> rb = ranks(b);
  const double n = static_cast<double>(a.size());
  double mean_a = 0.0, mean_b = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    mean_a += ra[i];
    mean_b += rb[i];
  }
  mean_a /= n;
  mean_b /= n;
  double cov = 0.0, var_a = 0.0, var_b = 0.0;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    const double da = ra[i] - mean_a;
    const double db = rb[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a == 0.0 || var_b == 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

}  // namespace drcshap
