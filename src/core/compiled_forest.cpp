#include "core/compiled_forest.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "util/artifact.hpp"

namespace drcshap {

namespace detail {

void predict_block8_scalar(const CompiledForestView& forest,
                           const std::int32_t* blockq, double* sums) {
  for (std::size_t lane = 0; lane < CompiledForest::kBlock; ++lane) {
    sums[lane] = 0.0;
  }
  for (std::size_t t = 0; t < forest.n_trees; ++t) {
    std::int32_t node[CompiledForest::kBlock];
    for (auto& n : node) n = forest.roots[t];
    const std::int32_t depth = forest.depths[t];
    for (std::int32_t d = 0; d < depth; ++d) {
      for (std::size_t lane = 0; lane < CompiledForest::kBlock; ++lane) {
        const auto n = static_cast<std::size_t>(node[lane]);
        const std::int32_t qx =
            blockq[static_cast<std::size_t>(forest.feature[n]) *
                       CompiledForest::kBlock +
                   lane];
        node[lane] = forest.child[n] +
                     static_cast<std::int32_t>(qx > forest.qthreshold[n]);
      }
    }
    for (std::size_t lane = 0; lane < CompiledForest::kBlock; ++lane) {
      sums[lane] += forest.value[static_cast<std::size_t>(node[lane])];
    }
  }
}

}  // namespace detail

namespace {

constexpr std::int32_t kLeafThreshold =
    std::numeric_limits<std::int32_t>::max();

bool env_disables_simd() {
  const char* env = std::getenv("DRCSHAP_SIMD");
  if (env == nullptr) return false;
  const std::string_view v(env);
  return v == "0" || v == "off" || v == "OFF" || v == "false" || v == "FALSE";
}

/// Chains the length and then the bytes of `v` into `hash`.
template <class T>
std::uint64_t fnv1a_vector(const std::vector<T>& v, std::uint64_t hash) {
  const std::uint64_t len = v.size();
  hash = fnv1a(&len, sizeof(len), hash);
  return fnv1a(v.data(), v.size() * sizeof(T), hash);
}

}  // namespace

CompiledForest::CompiledForest(const FlatForest& flat)
    : n_features_(flat.n_features()), max_depth_(flat.max_depth()) {
  const std::size_t n_nodes = flat.n_nodes();

  // Pass 1: distinct sorted thresholds per feature; a split's code is its
  // rank. Duplicates collapse (codes stay dense), and the u16 ceiling is a
  // hard precondition: code_of must return values that fit the per-sample
  // u16 vectors.
  std::vector<std::vector<float>> per_feature(n_features_);
  for (std::size_t n = 0; n < n_nodes; ++n) {
    const std::int32_t f = flat.feature()[n];
    if (f >= 0) per_feature[static_cast<std::size_t>(f)].push_back(
        flat.threshold()[n]);
  }
  cut_begin_.assign(n_features_ + 1, 0);
  for (std::size_t f = 0; f < n_features_; ++f) {
    auto& cuts = per_feature[f];
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    if (cuts.size() > kMaxCutsPerFeature) {
      throw std::invalid_argument(
          "CompiledForest: feature " + std::to_string(f) + " has " +
          std::to_string(cuts.size()) +
          " distinct thresholds, exceeding the u16 code space");
    }
    cut_begin_[f + 1] =
        cut_begin_[f] + static_cast<std::int32_t>(cuts.size());
  }
  cuts_.reserve(static_cast<std::size_t>(cut_begin_[n_features_]));
  for (auto& cuts : per_feature) {
    cuts_.insert(cuts_.end(), cuts.begin(), cuts.end());
  }

  // Pass 2: renumber every tree breadth-first. Children are assigned
  // adjacent ids in pop order (left then right), leaves self-loop with an
  // always-false split so the fixed-depth descent parks on them.
  feature_.assign(n_nodes, 0);
  qthreshold_.assign(n_nodes, kLeafThreshold);
  child_.assign(n_nodes, 0);
  value_.assign(n_nodes, 0.0);
  roots_.reserve(flat.n_trees());
  depths_.reserve(flat.n_trees());

  std::vector<std::int32_t> queue;  // flat ids, in BFS (= new id) order
  std::int32_t base = 0;            // absolute id of the next tree's root
  for (std::size_t t = 0; t < flat.n_trees(); ++t) {
    queue.clear();
    queue.push_back(flat.root(t));
    roots_.push_back(base);
    depths_.push_back(flat.tree_depth(t));
    std::int32_t next_free = 1;  // tree-local id of the next unassigned slot
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const auto flat_id = static_cast<std::size_t>(queue[head]);
      const auto new_id =
          static_cast<std::size_t>(base + static_cast<std::int32_t>(head));
      value_[new_id] = flat.value()[flat_id];
      const std::int32_t f = flat.feature()[flat_id];
      if (f < 0) {
        // Leaf: self-loop, never-true split, feature 0 for safe gathers.
        child_[new_id] = static_cast<std::int32_t>(new_id);
        continue;
      }
      feature_[new_id] = f;
      const float threshold = flat.threshold()[flat_id];
      const float* begin =
          cuts_.data() + cut_begin_[static_cast<std::size_t>(f)];
      const float* end =
          cuts_.data() + cut_begin_[static_cast<std::size_t>(f) + 1];
      qthreshold_[new_id] = static_cast<std::int32_t>(
          std::lower_bound(begin, end, threshold) - begin);
      child_[new_id] = base + next_free;
      queue.push_back(flat.left()[flat_id]);
      queue.push_back(flat.right()[flat_id]);
      next_free += 2;
    }
    base += static_cast<std::int32_t>(queue.size());
  }
}

std::shared_ptr<const CompiledForest> CompiledForest::try_compile(
    const FlatForest& flat, std::string* reason) {
  try {
    return std::make_shared<const CompiledForest>(flat);
  } catch (const std::invalid_argument& err) {
    if (reason != nullptr) *reason = err.what();
    return nullptr;
  }
}

std::uint32_t CompiledForest::code_of(std::size_t feature, float value) const {
  const float* begin = cuts_.data() + cut_begin_[feature];
  const float* end = cuts_.data() + cut_begin_[feature + 1];
  if (std::isnan(value)) {
    // IEEE: NaN <= t is false for every t, i.e. always descend right.
    return static_cast<std::uint32_t>(end - begin);
  }
  return static_cast<std::uint32_t>(std::lower_bound(begin, end, value) -
                                    begin);
}

void CompiledForest::quantize_sample(const float* x,
                                     std::uint16_t* codes) const {
  for (std::size_t f = 0; f < n_features_; ++f) {
    codes[f] = static_cast<std::uint16_t>(code_of(f, x[f]));
  }
}

double CompiledForest::predict_coded(const std::uint16_t* codes) const {
  double total = 0.0;
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    std::int32_t node = roots_[t];
    const std::int32_t depth = depths_[t];
    for (std::int32_t d = 0; d < depth; ++d) {
      const auto n = static_cast<std::size_t>(node);
      const auto qx = static_cast<std::int32_t>(
          codes[static_cast<std::size_t>(feature_[n])]);
      node = child_[n] + static_cast<std::int32_t>(qx > qthreshold_[n]);
    }
    total += value_[static_cast<std::size_t>(node)];
  }
  return total / static_cast<double>(roots_.size());
}

double CompiledForest::predict(const float* x) const {
  std::vector<std::uint16_t> codes(n_features_);
  quantize_sample(x, codes.data());
  return predict_coded(codes.data());
}

void CompiledForest::predict_batch(const float* rows, std::size_t n_rows,
                                   double* out, Simd simd) const {
  const bool use_simd = simd == Simd::kAuto && simd_available();
  const detail::CompiledForestView forest = view();
  std::vector<std::int32_t> blockq(n_features_ * kBlock);
  double sums[kBlock];
  for (std::size_t begin = 0; begin < n_rows; begin += kBlock) {
    const std::size_t lanes = std::min(kBlock, n_rows - begin);
    // Interleave the lane codes as blockq[f*8 + lane]; pad short tails with
    // code 0 (a valid descent whose result is discarded) so one kernel
    // shape serves every block.
    if (lanes < kBlock) std::fill(blockq.begin(), blockq.end(), 0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const float* x = rows + (begin + lane) * n_features_;
      for (std::size_t f = 0; f < n_features_; ++f) {
        blockq[f * kBlock + lane] =
            static_cast<std::int32_t>(code_of(f, x[f]));
      }
    }
#if DRCSHAP_SIMD_ENABLED
    if (use_simd) {
      detail::predict_block8_avx2(forest, blockq.data(), sums);
    } else {
      detail::predict_block8_scalar(forest, blockq.data(), sums);
    }
#else
    (void)use_simd;
    detail::predict_block8_scalar(forest, blockq.data(), sums);
#endif
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      out[begin + lane] = sums[lane] / static_cast<double>(n_trees());
    }
  }
}

bool CompiledForest::simd_available() {
#if DRCSHAP_SIMD_ENABLED
  static const bool cpu_ok = detail::cpu_supports_avx2();
  return cpu_ok && !env_disables_simd();
#else
  return false;
#endif
}

std::uint64_t CompiledForest::layout_digest() const {
  const std::uint64_t shape[2] = {n_features_,
                                  static_cast<std::uint64_t>(max_depth_)};
  std::uint64_t hash = fnv1a(shape, sizeof(shape));
  hash = fnv1a_vector(cuts_, hash);
  hash = fnv1a_vector(cut_begin_, hash);
  hash = fnv1a_vector(feature_, hash);
  hash = fnv1a_vector(qthreshold_, hash);
  hash = fnv1a_vector(child_, hash);
  hash = fnv1a_vector(value_, hash);
  hash = fnv1a_vector(roots_, hash);
  return fnv1a_vector(depths_, hash);
}

}  // namespace drcshap
