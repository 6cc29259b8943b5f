#include "core/decision_tree.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/thread_pool.hpp"

namespace drcshap {

namespace {

/// Order-preserving map of a non-NaN float onto uint32. -0.0 maps just
/// below +0.0; the two compare equal as floats, so no cut or bin can tell.
std::uint32_t sort_key(float v) {
  const auto bits = std::bit_cast<std::uint32_t>(v);
  return bits & 0x80000000u ? ~bits : bits | 0x80000000u;
}

/// Quantile cuts of one feature column (see the BinnedMatrix constructor
/// doc) and its bin codes. `order` and `scratch` are caller-owned buffers.
void bin_column(std::span<const float> column, int max_bins,
                std::vector<std::uint64_t>& order,
                std::vector<std::uint64_t>& scratch, std::vector<float>& cuts,
                std::uint8_t* out) {
  const std::size_t n_rows = column.size();
  // LSD radix sort of (key << 32 | row) by key, one byte per pass; a pass
  // whose byte is the same for every row is skipped.
  order.resize(n_rows);
  scratch.resize(n_rows);
  std::size_t counts[4][256] = {};
  for (std::size_t r = 0; r < n_rows; ++r) {
    const std::uint32_t key = sort_key(column[r]);
    order[r] = static_cast<std::uint64_t>(key) << 32 | r;
    for (int d = 0; d < 4; ++d) ++counts[d][(key >> (8 * d)) & 0xff];
  }
  for (int d = 0; d < 4; ++d) {
    const int shift = 32 + 8 * d;
    if (counts[d][(order[0] >> shift) & 0xff] == n_rows) continue;
    std::size_t offset = 0;
    for (std::size_t& c : counts[d]) offset += std::exchange(c, offset);
    for (const std::uint64_t e : order) {
      scratch[counts[d][(e >> shift) & 0xff]++] = e;
    }
    order.swap(scratch);
  }
  auto sorted = [&](std::size_t i) { return column[order[i] & 0xffffffffu]; };

  // Candidate cut points: midpoints between distinct consecutive values,
  // thinned to quantile positions when there are too many. A cut must
  // satisfy lo <= cut < hi to separate lo from hi under `x <= cut`. Where
  // rounding carries the midpoint onto hi (adjacent floats) or overflow
  // carries it out of range, lo is the cut; below +Inf the cut is the
  // largest finite float, so every finite value stays on the left.
  const auto cut_between = [](float lo, float hi) {
    const float mid = (lo + hi) / 2.0f;
    if (lo <= mid && mid < hi) return mid;
    return std::isinf(hi) ? std::numeric_limits<float>::max() : lo;
  };
  cuts.clear();
  std::vector<float> distinct;
  for (std::size_t i = 0; i < n_rows; ++i) {
    const float v = sorted(i);
    if (distinct.empty() || v != distinct.back()) distinct.push_back(v);
  }
  if (static_cast<int>(distinct.size()) <= max_bins) {
    for (std::size_t k = 0; k + 1 < distinct.size(); ++k) {
      cuts.push_back(cut_between(distinct[k], distinct[k + 1]));
    }
  } else {
    // Quantile cuts over the raw (duplicated) distribution, deduplicated.
    for (int b = 1; b < max_bins; ++b) {
      const std::size_t pos = static_cast<std::size_t>(
          static_cast<double>(b) * static_cast<double>(n_rows) / max_bins);
      const float lo = sorted(std::min(pos, n_rows - 1));
      // Midpoint to the next distinct value so the cut separates values.
      const auto next = std::upper_bound(distinct.begin(), distinct.end(), lo);
      if (next == distinct.end()) continue;
      const float cut = cut_between(lo, *next);
      if (cuts.empty() || cut > cuts.back()) cuts.push_back(cut);
    }
  }
  // Bin code = number of cuts below value, by one walk in value order, so
  // "bin <= b" holds exactly when value <= cuts[b], the test prediction
  // applies.
  std::size_t bin = 0;
  for (std::size_t i = 0; i < n_rows; ++i) {
    const float v = sorted(i);
    while (bin < cuts.size() && cuts[bin] < v) ++bin;
    out[order[i] & 0xffffffffu] = static_cast<std::uint8_t>(bin);
  }
}

}  // namespace

BinnedMatrix::BinnedMatrix(const Dataset& data, int max_bins,
                           std::size_t n_threads)
    : n_rows_(data.n_rows()), n_features_(data.n_features()) {
  if (max_bins < 2 || max_bins > 256) {
    throw std::invalid_argument("BinnedMatrix: max_bins must be in [2, 256]");
  }
  if (n_rows_ == 0) throw std::invalid_argument("BinnedMatrix: empty dataset");
  if (n_rows_ > 0xffffffffu) {
    throw std::invalid_argument("BinnedMatrix: too many rows");
  }
  bins_.resize(n_rows_ * n_features_);
  n_bins_.resize(n_features_);
  split_values_.resize(n_features_);

  // Features are binned in blocks of kBlock: one pass over the row-major
  // matrix gathers a block's columns (64 bytes of each row), then each
  // column is binned alone. Blocks write disjoint features, so the result
  // is identical at any width.
  constexpr std::size_t kBlock = 16;
  const std::size_t n_blocks = (n_features_ + kBlock - 1) / kBlock;
  auto bin_block = [&](std::size_t block) {
    const std::size_t f0 = block * kBlock;
    const std::size_t width = std::min(kBlock, n_features_ - f0);
    std::vector<float> columns(width * n_rows_);
    for (std::size_t r = 0; r < n_rows_; ++r) {
      const float* row = data.row(r).data() + f0;
      for (std::size_t k = 0; k < width; ++k) {
        // NaN is unordered, so it has no place among the cuts; +-Inf do.
        if (std::isnan(row[k])) {
          const std::size_t f = f0 + k;
          const std::string name = data.feature_names().empty()
                                       ? "f" + std::to_string(f)
                                       : data.feature_names()[f];
          throw std::invalid_argument("BinnedMatrix: NaN in feature " + name +
                                      " at row " + std::to_string(r));
        }
        columns[k * n_rows_ + r] = row[k];
      }
    }
    std::vector<std::uint64_t> order, scratch;
    for (std::size_t k = 0; k < width; ++k) {
      const std::size_t f = f0 + k;
      bin_column({columns.data() + k * n_rows_, n_rows_}, max_bins, order,
                 scratch, split_values_[f], bins_.data() + f * n_rows_);
      n_bins_[f] = static_cast<int>(split_values_[f].size()) + 1;
    }
  };
  parallel_for_shared(n_blocks, bin_block, n_threads, 1);
}

float BinnedMatrix::split_threshold(std::size_t feature, int b) const {
  return split_values_.at(feature).at(static_cast<std::size_t>(b));
}

namespace {

/// A split must reduce the weighted Gini impurity by more than this.
constexpr double kMinImpurityDecrease = 0.0;

double gini(double w_neg, double w_pos) {
  const double total = w_neg + w_pos;
  if (total <= 0.0) return 0.0;
  const double p = w_pos / total;
  return 2.0 * p * (1.0 - p);
}

// Class counts of a row set, packed: negative multiplicity in the low 32
// bits, positive multiplicity in the high 32. Two packed counts add with
// one integer add (each half stays below 2^31, see fit_binned).
using PackedCounts = std::uint64_t;
constexpr std::uint64_t neg_count(PackedCounts c) { return c & 0xffffffffu; }
constexpr std::uint64_t pos_count(PackedCounts c) { return c >> 32; }

// One unique sampled row: row index in bits 0-31, label in bit 32,
// multiplicity in bits 33-63.
using Entry = std::uint64_t;
constexpr std::size_t entry_row(Entry e) { return e & 0xffffffffu; }
/// The entry's multiplicity as a PackedCounts of its own class.
constexpr PackedCounts entry_counts(Entry e) {
  return (e >> 33) << ((e >> 27) & 32);
}

struct SplitCandidate {
  bool valid = false;
  std::size_t feature = 0;
  int bin = 0;          ///< go left if bin(x) <= bin
  double gain = 0.0;
  PackedCounts left = 0;
};

}  // namespace

void DecisionTree::fit(const Dataset& data, const DecisionTreeOptions& options,
                       int max_bins) {
  const BinnedMatrix binned(data, max_bins);
  std::vector<std::size_t> rows(data.n_rows());
  std::iota(rows.begin(), rows.end(), 0);
  fit_binned(binned, data, rows, options);
}

std::size_t DecisionTree::fit_binned(const BinnedMatrix& binned,
                                     const Dataset& data,
                                     std::span<const std::size_t> rows,
                                     const DecisionTreeOptions& options) {
  if (binned.n_rows() != data.n_rows() ||
      binned.n_features() != data.n_features()) {
    throw std::invalid_argument("DecisionTree: binning/dataset mismatch");
  }
  if (rows.empty()) throw std::invalid_argument("DecisionTree: no rows");
  // Multiplicities and class counts are packed in 31 bits (Entry and
  // PackedCounts); BinnedMatrix already bounds the row index to 32.
  if (rows.size() >= (std::size_t{1} << 31)) {
    throw std::invalid_argument("DecisionTree: too many rows");
  }
  n_features_ = data.n_features();
  nodes_.clear();
  Rng rng(options.seed);

  std::size_t mtry;
  if (options.max_features < 0) {
    mtry = n_features_;
  } else if (options.max_features == 0) {
    mtry = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::sqrt(static_cast<double>(n_features_))));
  } else {
    mtry = std::min<std::size_t>(static_cast<std::size_t>(options.max_features),
                                 n_features_);
  }

  // Collapse the row list into unique entries in row order.
  std::vector<std::uint32_t> multiplicity(data.n_rows(), 0);
  for (const std::size_t row : rows) {
    if (row >= data.n_rows()) {
      throw std::invalid_argument("DecisionTree: row out of range");
    }
    ++multiplicity[row];
  }
  std::vector<Entry> index;
  PackedCounts root_counts = 0;
  for (std::size_t row = 0; row < multiplicity.size(); ++row) {
    if (multiplicity[row] == 0) continue;
    const Entry e = row | (static_cast<Entry>(data.label(row) ? 1 : 0) << 32) |
                    (static_cast<Entry>(multiplicity[row]) << 33);
    index.push_back(e);
    root_counts += entry_counts(e);
  }

  // sum_pos[k] is positive_weight added k times from 0.0: bit for bit the
  // sequential per-row accumulation. Negatives weigh 1.0, and 1.0 added k
  // times is exactly k.
  std::vector<double> sum_pos(rows.size() + 1);
  for (std::size_t k = 1; k < sum_pos.size(); ++k) {
    sum_pos[k] = sum_pos[k - 1] + options.positive_weight;
  }

  // Four split counters per bin break the dependent-add chain when
  // consecutive entries hit the same bin; integer sums merge exactly. Below
  // kSplitMinEntries, zeroing and merging the extra counters costs more
  // than it saves, so small nodes count into one.
  constexpr std::size_t kSplits = 4;
  constexpr std::size_t kSplitMinEntries = 64;
  std::vector<PackedCounts> hist(kSplits * 256);

  struct BuildItem {
    std::int32_t node;
    std::size_t begin, end;  ///< range of `index`
    int depth;
    PackedCounts counts;
  };
  std::vector<BuildItem> stack;

  auto make_node = [&](PackedCounts counts) {
    const double w_pos = sum_pos[pos_count(counts)];
    const double w_neg = static_cast<double>(neg_count(counts));
    TreeNode node;
    node.cover = w_pos + w_neg;
    node.value = node.cover > 0.0 ? w_pos / node.cover : 0.0;
    nodes_.push_back(node);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  const std::int32_t root = make_node(root_counts);
  stack.push_back({root, 0, index.size(), 0, root_counts});

  while (!stack.empty()) {
    const BuildItem item = stack.back();
    stack.pop_back();
    const std::size_t count = neg_count(item.counts) + pos_count(item.counts);
    TreeNode& node = nodes_[static_cast<std::size_t>(item.node)];

    const bool pure = node.value <= 0.0 || node.value >= 1.0;
    const bool too_deep =
        options.max_depth >= 0 && item.depth >= options.max_depth;
    if (pure || too_deep || count < options.min_samples_split) {
      continue;  // stays a leaf
    }

    // Candidate feature subset (random subspace).
    std::vector<std::size_t> candidates;
    if (mtry == n_features_) {
      candidates.resize(n_features_);
      std::iota(candidates.begin(), candidates.end(), 0);
    } else {
      candidates = rng.sample_without_replacement(n_features_, mtry);
    }

    const double node_neg = node.cover * (1.0 - node.value);
    const double node_pos = node.cover * node.value;
    const double parent_impurity = gini(node_neg, node_pos);
    const Entry* entries = index.data() + item.begin;
    const std::size_t n_entries = item.end - item.begin;
    SplitCandidate best;
    for (const std::size_t f : candidates) {
      const int nb = binned.n_bins(f);
      if (nb < 2) continue;
      const std::uint8_t* column = binned.column(f);
      const std::size_t splits =
          n_entries >= kSplitMinEntries ? kSplits : std::size_t{1};
      PackedCounts* h = hist.data();
      for (std::size_t s = 0; s < splits; ++s) {
        std::fill_n(h + s * 256, nb, PackedCounts{0});
      }
      std::size_t i = 0;
      if (splits == kSplits) {
        for (; i + kSplits <= n_entries; i += kSplits) {
          const Entry e0 = entries[i], e1 = entries[i + 1];
          const Entry e2 = entries[i + 2], e3 = entries[i + 3];
          h[column[entry_row(e0)]] += entry_counts(e0);
          h[256 + column[entry_row(e1)]] += entry_counts(e1);
          h[512 + column[entry_row(e2)]] += entry_counts(e2);
          h[768 + column[entry_row(e3)]] += entry_counts(e3);
        }
      }
      for (; i < n_entries; ++i) {
        h[column[entry_row(entries[i])]] += entry_counts(entries[i]);
      }
      if (splits == kSplits) {
        for (int b = 0; b < nb; ++b) {
          h[b] += h[256 + b] + h[512 + b] + h[768 + b];
        }
      }

      // Gain scan. An empty bin repeats the previous bin's split, which can
      // never beat it by the 1e-12 margin, so it is skipped.
      double left_neg = 0.0, left_pos = 0.0;
      PackedCounts left = 0;
      for (int b = 0; b + 1 < nb; ++b) {
        const PackedCounts in_bin = h[b];
        if (in_bin == 0) continue;
        left += in_bin;
        left_neg += static_cast<double>(neg_count(in_bin));
        left_pos += sum_pos[pos_count(in_bin)];
        const double wl = left_neg + left_pos;
        const double wr = node.cover - wl;
        if (wl <= 0.0 || wr <= 0.0) continue;
        const double right_neg = node_neg - left_neg;
        const double right_pos = node_pos - left_pos;
        const double gain =
            parent_impurity - (wl * gini(left_neg, left_pos) +
                               wr * gini(right_neg, right_pos)) /
                                  node.cover;
        if (gain > best.gain + 1e-12) {
          best = {true, f, b, gain, left};
        }
      }
    }

    if (!best.valid || best.gain <= kMinImpurityDecrease) continue;

    const PackedCounts right_counts = item.counts - best.left;
    const std::size_t n_left = neg_count(best.left) + pos_count(best.left);
    const std::size_t n_right =
        neg_count(right_counts) + pos_count(right_counts);
    if (n_left < options.min_samples_leaf ||
        n_right < options.min_samples_leaf || n_left == 0 || n_right == 0) {
      continue;
    }

    const std::uint8_t* column = binned.column(best.feature);
    const auto mid_it = std::partition(
        index.begin() + static_cast<std::ptrdiff_t>(item.begin),
        index.begin() + static_cast<std::ptrdiff_t>(item.end),
        [&](Entry e) { return column[entry_row(e)] <= best.bin; });
    const std::size_t mid = static_cast<std::size_t>(mid_it - index.begin());

    const std::int32_t left = make_node(best.left);
    const std::int32_t right = make_node(right_counts);
    // `node` reference may dangle after make_node reallocation: re-fetch.
    TreeNode& parent = nodes_[static_cast<std::size_t>(item.node)];
    parent.feature = static_cast<std::int32_t>(best.feature);
    parent.threshold = binned.split_threshold(best.feature, best.bin);
    parent.left = left;
    parent.right = right;
    stack.push_back({left, item.begin, mid, item.depth + 1, best.left});
    stack.push_back({right, mid, item.end, item.depth + 1, right_counts});
  }
  depth_ = compute_depth();
  return index.size();
}

double DecisionTree::predict_proba(std::span<const float> features) const {
  if (!fitted()) throw std::logic_error("DecisionTree: not fitted");
  if (features.size() != n_features_) {
    throw std::invalid_argument("DecisionTree: feature count mismatch");
  }
  std::int32_t node = 0;
  while (nodes_[static_cast<std::size_t>(node)].feature >= 0) {
    const TreeNode& n = nodes_[static_cast<std::size_t>(node)];
    node = features[static_cast<std::size_t>(n.feature)] <= n.threshold
               ? n.left
               : n.right;
  }
  return nodes_[static_cast<std::size_t>(node)].value;
}

std::size_t DecisionTree::n_leaves() const {
  std::size_t leaves = 0;
  for (const TreeNode& n : nodes_) {
    if (n.feature < 0) ++leaves;
  }
  return leaves;
}

int DecisionTree::compute_depth() const {
  if (!fitted()) return 0;
  // Iterative DFS carrying depth.
  int max_depth = 0;
  std::vector<std::pair<std::int32_t, int>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [node, d] = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[static_cast<std::size_t>(node)];
    if (n.feature < 0) {
      max_depth = std::max(max_depth, d);
    } else {
      stack.emplace_back(n.left, d + 1);
      stack.emplace_back(n.right, d + 1);
    }
  }
  return max_depth;
}

double DecisionTree::mean_depth() const {
  if (!fitted()) return 0.0;
  double weighted = 0.0;
  const double total = nodes_[0].cover;
  std::vector<std::pair<std::int32_t, int>> stack{{0, 0}};
  while (!stack.empty()) {
    const auto [node, d] = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[static_cast<std::size_t>(node)];
    if (n.feature < 0) {
      weighted += n.cover * d;
    } else {
      stack.emplace_back(n.left, d + 1);
      stack.emplace_back(n.right, d + 1);
    }
  }
  return total > 0.0 ? weighted / total : 0.0;
}

double DecisionTree::expected_value() const {
  if (!fitted()) return 0.0;
  double total = 0.0;
  for (const TreeNode& n : nodes_) {
    if (n.feature < 0) total += n.cover * n.value;
  }
  return nodes_[0].cover > 0.0 ? total / nodes_[0].cover : 0.0;
}

void DecisionTree::set_nodes(std::vector<TreeNode> nodes,
                             std::size_t n_features) {
  if (nodes.empty()) throw std::invalid_argument("set_nodes: empty tree");
  nodes_ = std::move(nodes);
  n_features_ = n_features;
  depth_ = compute_depth();
}

}  // namespace drcshap
