#include "core/tree_shap.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "core/explanation_cache.hpp"
#include "core/tree_shap_simd.hpp"
#include "obs/registry.hpp"
#include "util/artifact.hpp"
#include "util/thread_pool.hpp"

namespace drcshap {

namespace {

using shap_detail::PathElement;
using shap_detail::ExactTraversal;
using shap_detail::ShapMeta;
using shap_detail::FastFrame;
using shap_detail::LeafMemo;
using shap_detail::extend_path_01;
using shap_detail::unwind_path;

/// Grow the path by one split (EXTEND).
void extend_path(PathElement* path, int unique_depth, double zero_fraction,
                 double one_fraction, int feature_index) {
  path[unique_depth] = {feature_index, zero_fraction, one_fraction,
                        unique_depth == 0 ? 1.0 : 0.0};
  for (int i = unique_depth - 1; i >= 0; --i) {
    path[i + 1].pweight += one_fraction * path[i].pweight * (i + 1) /
                           static_cast<double>(unique_depth + 1);
    path[i].pweight = zero_fraction * path[i].pweight * (unique_depth - i) /
                      static_cast<double>(unique_depth + 1);
  }
}

/// Total permutation weight if path_index were unwound (UNWOUND_PATH_SUM).
double unwound_path_sum(const PathElement* path, int unique_depth,
                        int path_index) {
  const double one_fraction = path[path_index].one_fraction;
  const double zero_fraction = path[path_index].zero_fraction;
  double next_one_portion = path[unique_depth].pweight;
  double total = 0.0;
  for (int i = unique_depth - 1; i >= 0; --i) {
    if (one_fraction != 0.0) {
      const double tmp = next_one_portion * (unique_depth + 1) /
                         static_cast<double>((i + 1) * one_fraction);
      total += tmp;
      next_one_portion = path[i].pweight -
                         tmp * zero_fraction * (unique_depth - i) /
                             static_cast<double>(unique_depth + 1);
    } else {
      total += path[i].pweight * (unique_depth + 1) /
               static_cast<double>(zero_fraction * (unique_depth - i));
    }
  }
  return total;
}

// Per-traversal state: the phi accumulator and the path scratch. Recursion
// level L uses the scratch slot starting at L * stride; a repeated feature
// shrinks unique_depth without changing the level, so slots are keyed by
// level.
struct ShapContext {
  ExactTraversal tree;
  double* phi;
  PathElement* path_storage;
  int stride;
};

void shap_recurse(const ShapContext& ctx, std::int32_t node_index,
                  int level, int unique_depth, const PathElement* parent_path,
                  double parent_zero_fraction, double parent_one_fraction,
                  int parent_feature_index) {
  // Copy the parent's path into this level's slot, then extend it.
  PathElement* path = ctx.path_storage +
                      static_cast<std::size_t>(level) *
                          static_cast<std::size_t>(ctx.stride);
  for (int i = 0; i < unique_depth; ++i) path[i] = parent_path[i];
  extend_path(path, unique_depth, parent_zero_fraction, parent_one_fraction,
              parent_feature_index);

  const auto node = static_cast<std::size_t>(node_index);
  if (ctx.tree.is_leaf(node)) {
    // Leaf: attribute to every feature on the unique path.
    const double leaf_value = ctx.tree.value[node];
    for (int i = 1; i <= unique_depth; ++i) {
      const double w = unwound_path_sum(path, unique_depth, i);
      ctx.phi[static_cast<std::size_t>(path[i].feature_index)] +=
          w * (path[i].one_fraction - path[i].zero_fraction) * leaf_value;
    }
    return;
  }

  const std::int32_t feature = ctx.tree.split_feature(node);
  const bool goes_left = ctx.tree.goes_left(node);
  const std::int32_t left = ctx.tree.left_child(node);
  const std::int32_t right = ctx.tree.right_child(node);
  const std::int32_t hot = goes_left ? left : right;
  const std::int32_t cold = goes_left ? right : left;
  const double hot_cover = ctx.tree.cover[static_cast<std::size_t>(hot)];
  const double cold_cover = ctx.tree.cover[static_cast<std::size_t>(cold)];

  double incoming_zero_fraction = 1.0;
  double incoming_one_fraction = 1.0;
  // If this feature was already on the path, undo its previous extension and
  // fold its fractions into this one.
  int path_index = 1;
  for (; path_index <= unique_depth; ++path_index) {
    if (path[path_index].feature_index == feature) break;
  }
  int depth_after = unique_depth;
  if (path_index <= unique_depth) {
    incoming_zero_fraction = path[path_index].zero_fraction;
    incoming_one_fraction = path[path_index].one_fraction;
    unwind_path(path, unique_depth, path_index);
    depth_after = unique_depth - 1;
  }

  const double cover = ctx.tree.cover[node];
  shap_recurse(ctx, hot, level + 1, depth_after + 1, path,
               hot_cover / cover * incoming_zero_fraction,
               incoming_one_fraction, feature);
  shap_recurse(ctx, cold, level + 1, depth_after + 1, path,
               cold_cover / cover * incoming_zero_fraction, 0.0, feature);
}

/// The forest's node arrays bound to sample `x` (nullptr for the
/// sample-independent structural pass).
ExactTraversal traversal(const FlatForest& forest, const float* x) {
  return {forest.feature(), forest.threshold(), forest.left(), forest.right(),
          forest.value(),   forest.cover(),     x};
}

/// Scratch sizing for one forest: a level-L path holds <= L+1 elements.
std::size_t path_scratch_len(const FlatForest& forest) {
  return static_cast<std::size_t>(forest.max_depth() + 1) *
         static_cast<std::size_t>(forest.max_depth() + 2);
}

/// Accumulate one tree's SHAP values for `x` into `phi` (not normalized).
/// `path_storage` must hold (forest.max_depth()+1) * stride elements with
/// stride >= forest.max_depth() + 2.
void flat_tree_shap(const FlatForest& forest, std::size_t tree, const float* x,
                    double* phi, PathElement* path_storage, int stride) {
  ShapContext ctx{traversal(forest, x), phi, path_storage, stride};
  shap_recurse(ctx, forest.root(tree), /*level=*/0, /*unique_depth=*/0,
               /*parent_path=*/nullptr, 1.0, 1.0, -1);
}

// ---------------------------------------------------------------------------
// Fast batch path.
//
// The per-row recursion above recomputes, at every node, quantities that do
// not depend on the sample at all: the sample enters Algorithm 2 only
// through goes_left (which child is hot). The zero_fraction of every edge
// is a product of cover ratios folded through duplicate features — purely
// structural — and the unique-path composition (which features sit at which
// path indices, and hence where a duplicate split feature is found) is
// structural too. A one-time DFS over the forest records both per node,
// with the *identical* floating-point expression order the recursion uses
// (`child_cover / cover * incoming_zero_fraction`), so the precomputed
// doubles are bit-equal to the ones the reference path derives per row.

/// Structural half of shap_recurse: walks one tree maintaining only the
/// (feature, zero_fraction) path with duplicate folding, recording per-node
/// metadata. Mirrors the reference op order exactly.
void build_meta_recurse(const ExactTraversal& tree, ShapMeta& meta,
                        std::int32_t node_index, int level, int unique_depth,
                        const PathElement* parent_path,
                        double parent_zero_fraction, int parent_feature_index,
                        PathElement* storage, int stride, int& leaf_count) {
  PathElement* path = storage + static_cast<std::size_t>(level) *
                                    static_cast<std::size_t>(stride);
  for (int i = 0; i < unique_depth; ++i) path[i] = parent_path[i];
  path[unique_depth] = {parent_feature_index, parent_zero_fraction, 0.0, 0.0};

  const auto node = static_cast<std::size_t>(node_index);
  meta.entry_zero_fraction[node] = parent_zero_fraction;
  if (tree.is_leaf(node)) {
    ++leaf_count;
    return;
  }

  const std::int32_t feature = tree.split_feature(node);
  int path_index = 1;
  for (; path_index <= unique_depth; ++path_index) {
    if (path[path_index].feature_index == feature) break;
  }
  double incoming_zero_fraction = 1.0;
  int depth_after = unique_depth;
  if (path_index <= unique_depth) {
    meta.dup_index[node] = path_index;
    incoming_zero_fraction = path[path_index].zero_fraction;
    for (int i = path_index; i < unique_depth; ++i) {
      path[i].feature_index = path[i + 1].feature_index;
      path[i].zero_fraction = path[i + 1].zero_fraction;
    }
    depth_after = unique_depth - 1;
  } else {
    meta.dup_index[node] = 0;
  }

  const std::int32_t left = tree.left_child(node);
  const std::int32_t right = tree.right_child(node);
  const double cover = tree.cover[node];
  // Same expression shape as the recursion's hot/cold arguments; which
  // child is hot only swaps which of the two symmetric expressions it
  // receives, so computing both per child here is bit-equivalent.
  build_meta_recurse(tree, meta, left, level + 1, depth_after + 1, path,
                     tree.cover[static_cast<std::size_t>(left)] / cover *
                         incoming_zero_fraction,
                     feature, storage, stride, leaf_count);
  build_meta_recurse(tree, meta, right, level + 1, depth_after + 1, path,
                     tree.cover[static_cast<std::size_t>(right)] / cover *
                         incoming_zero_fraction,
                     feature, storage, stride, leaf_count);
}

ShapMeta build_meta(const FlatForest& forest) {
  ShapMeta meta;
  meta.entry_zero_fraction.assign(forest.n_nodes(), 1.0);
  meta.dup_index.assign(forest.n_nodes(), 0);
  std::vector<PathElement> storage(path_scratch_len(forest));
  const ExactTraversal tree = traversal(forest, nullptr);
  for (std::size_t t = 0; t < forest.n_trees(); ++t) {
    int leaves = 0;
    build_meta_recurse(tree, meta, forest.root(t), /*level=*/0,
                       /*unique_depth=*/0, /*parent_path=*/nullptr, 1.0, -1,
                       storage.data(), forest.max_depth() + 2, leaves);
    if (leaves > meta.max_leaves) meta.max_leaves = leaves;
  }
  return meta;
}

/// Leaf attribution products w·(o−z)·v for unique-path elements 1..ud,
/// written to prod[0..ud), with the per-feature UNWOUND_PATH_SUM chains
/// interleaved four wide. Each chain is a serial recurrence through two
/// divisions per step (~40 cycles of latency the divider spends mostly
/// idle); the chains for different path elements only share the read-only
/// path, so running four in lockstep pipelines the divider without touching
/// any chain's operand order.
inline void leaf_products(const ExactTraversal& tree, std::size_t node,
                          const PathElement* path, int unique_depth,
                          double* prod) {
  const double leaf_value = tree.value[node];
  const double top_pweight = path[unique_depth].pweight;
  int i = 1;
  for (; i + 3 <= unique_depth; i += 4) {
    double total[4] = {0.0, 0.0, 0.0, 0.0};
    double next_one[4];
    double zf[4];
    double of[4];
    for (int k = 0; k < 4; ++k) {
      next_one[k] = top_pweight;
      zf[k] = path[i + k].zero_fraction;
      of[k] = path[i + k].one_fraction;
    }
    for (int j = unique_depth - 1; j >= 0; --j) {
      const double pw = path[j].pweight;
      for (int k = 0; k < 4; ++k) {
        if (of[k] != 0.0) {
          const double tmp = next_one[k] * (unique_depth + 1) /
                             static_cast<double>((j + 1) * of[k]);
          total[k] += tmp;
          next_one[k] = pw - tmp * zf[k] * (unique_depth - j) /
                                 static_cast<double>(unique_depth + 1);
        } else {
          total[k] += pw * (unique_depth + 1) /
                      static_cast<double>(zf[k] * (unique_depth - j));
        }
      }
    }
    for (int k = 0; k < 4; ++k) {
      prod[i + k - 1] = total[k] * (of[k] - zf[k]) * leaf_value;
    }
  }
  for (; i <= unique_depth; ++i) {
    const double w = unwound_path_sum(path, unique_depth, i);
    prod[i - 1] =
        w * (path[i].one_fraction - path[i].zero_fraction) * leaf_value;
  }
}

/// Iterative fast traversal of one tree for one sample. Visits leaves in
/// exactly the reference order (hot subtree fully, then cold — the LIFO
/// stack preserves DFS order), feeds EXTEND/UNWIND the same operands, and
/// uses the precomputed metadata only to *skip* recomputing structural
/// values (the two cover divisions and the duplicate search per node, and
/// one of the two path copies: a cold child extends its parent's slot in
/// place, because the parent path is dead once the hot subtree returned).
void fast_tree_shap(const ExactTraversal& tree, const ShapMeta& meta,
                    std::int32_t root, double* phi, PathElement* storage,
                    int stride, std::vector<FastFrame>& stack,
                    LeafMemo& memo) {
  stack.clear();
  stack.push_back({root, 0, 0, -1, 1.0, 0});
  while (!stack.empty()) {
    FastFrame frame = stack.back();
    stack.pop_back();
    std::int32_t node_index = frame.node;
    std::int32_t slot = frame.slot;
    int unique_depth = frame.unique_depth;
    double one_fraction = frame.one_fraction;
    int feature = frame.feature;
    std::uint64_t history = frame.history;
    PathElement* path = storage + static_cast<std::size_t>(slot) *
                                      static_cast<std::size_t>(stride);
    for (;;) {
      const auto node = static_cast<std::size_t>(node_index);
      if (tree.is_leaf(node)) {
        // A memo hit needs no path, so the leaf's own EXTEND runs only on a
        // miss. The adds go in ascending unique-path order either way.
        if (unique_depth > 0) {
          bool hit = false;
          const std::int32_t off =
              memo.find_or_reserve(node_index, history, unique_depth, hit);
          std::int32_t* feat = memo.feat.data() + off;
          double* prod = memo.prod.data() + off;
          if (!hit) {
            extend_path_01(path, unique_depth, meta.entry_zero_fraction[node],
                           one_fraction, feature);
            leaf_products(tree, node, path, unique_depth, prod);
            for (int i = 1; i <= unique_depth; ++i) {
              feat[i - 1] = path[i].feature_index;
            }
          }
          for (int k = 0; k < unique_depth; ++k) {
            phi[static_cast<std::size_t>(feat[k])] += prod[k];
          }
        }
        break;
      }
      extend_path_01(path, unique_depth, meta.entry_zero_fraction[node],
                     one_fraction, feature);
      feature = tree.split_feature(node);
      const int path_index = meta.dup_index[node];
      double incoming_one_fraction = 1.0;
      int depth_after = unique_depth;
      if (path_index != 0) {
        incoming_one_fraction = path[path_index].one_fraction;
        unwind_path(path, unique_depth, path_index);
        depth_after = unique_depth - 1;
      }
      const std::int32_t left = tree.left_child(node);
      const std::int32_t right = tree.right_child(node);
      const bool goes_left = tree.goes_left(node);
      const std::int32_t hot = goes_left ? left : right;
      const std::int32_t cold = goes_left ? right : left;
      stack.push_back(
          {cold, slot, depth_after + 1, feature, 0.0, history << 1});
      PathElement* hot_path = storage + static_cast<std::size_t>(slot + 1) *
                                            static_cast<std::size_t>(stride);
      for (int i = 0; i <= depth_after; ++i) hot_path[i] = path[i];
      path = hot_path;
      node_index = hot;
      ++slot;
      unique_depth = depth_after + 1;
      one_fraction = incoming_one_fraction;
      history = (history << 1) | (incoming_one_fraction != 0.0 ? 1u : 0u);
    }
  }
}

/// FNV-1a over every FlatForest array phi depends on: roots, split
/// features and thresholds, child links, values and covers. Two models that
/// differ anywhere, a single threshold included, get different salts.
std::uint64_t model_digest_of(const FlatForest& flat) {
  const std::size_t n_nodes = flat.n_nodes();
  const std::size_t n_trees = flat.n_trees();
  std::uint64_t h = fnv1a(&n_nodes, sizeof(n_nodes));
  h = fnv1a(&n_trees, sizeof(n_trees), h);
  for (std::size_t t = 0; t < n_trees; ++t) {
    const std::int32_t root = flat.root(t);
    h = fnv1a(&root, sizeof(root), h);
  }
  h = fnv1a(flat.feature(), n_nodes * sizeof(std::int32_t), h);
  h = fnv1a(flat.threshold(), n_nodes * sizeof(float), h);
  h = fnv1a(flat.left(), n_nodes * sizeof(std::int32_t), h);
  h = fnv1a(flat.right(), n_nodes * sizeof(std::int32_t), h);
  h = fnv1a(flat.value(), n_nodes * sizeof(double), h);
  return fnv1a(flat.cover(), n_nodes * sizeof(double), h);
}

// Trees per reduction block of the batch engine. The block partition is a
// function of the ensemble alone — never of the thread count or the batch
// size — so the merge structure, and therefore every last bit of the
// result, is the same no matter how work lands on workers.
constexpr std::size_t kTreesPerBlock = 64;

// Samples per in-flight slab when tree blocks force a partial buffer;
// bounds partial memory at ~kPartialBudget doubles per feature.
constexpr std::size_t kPartialBudget = 2048;

// Most rows sharing one leaf memo (G in LeafMemo's memory bound).
constexpr std::size_t kGroupRows = 128;

}  // namespace

namespace detail {

/// Lazily-built structural metadata. Shared (via shared_ptr) by every copy
/// of an explainer, so the serving daemon's per-batch explainer snapshots
/// reuse one build.
struct ShapMetaCell {
  std::once_flag once;
  ShapMeta meta;
};

}  // namespace detail

std::vector<double> TreeShapExplainer::tree_shap_values(
    const DecisionTree& tree, std::span<const float> features) {
  if (!tree.fitted()) throw std::logic_error("tree_shap: tree not fitted");
  if (features.size() != tree.n_features()) {
    throw std::invalid_argument("tree_shap: feature count mismatch");
  }
  const FlatForest flat(std::span<const DecisionTree>(&tree, 1));
  std::vector<double> phi(tree.n_features(), 0.0);
  std::vector<PathElement> path(path_scratch_len(flat));
  flat_tree_shap(flat, 0, features.data(), phi.data(), path.data(),
                 flat.max_depth() + 2);
  return phi;
}

TreeShapExplainer::TreeShapExplainer(const RandomForestClassifier& forest) {
  if (!forest.fitted()) {
    throw std::invalid_argument("TreeShapExplainer: forest not fitted");
  }
  flat_ = forest.flat_shared();
  compiled_ = forest.compiled_shared();
  meta_ = std::make_shared<detail::ShapMetaCell>();
  base_value_ = forest.expected_value();
  model_digest_ = model_digest_of(*flat_);
}

std::vector<double> TreeShapExplainer::shap_values(
    std::span<const float> features) const {
  const FlatForest& flat = *flat_;
  if (features.size() != flat.n_features()) {
    throw std::invalid_argument("tree_shap: feature count mismatch");
  }
  DRCSHAP_OBS_TIMER("shap/values");
  obs::counter_add("shap/samples");
  std::vector<double> phi(flat.n_features(), 0.0);
  std::vector<PathElement> path(path_scratch_len(flat));
  const int stride = flat.max_depth() + 2;
  for (std::size_t t = 0; t < flat.n_trees(); ++t) {
    flat_tree_shap(flat, t, features.data(), phi.data(), path.data(), stride);
  }
  const double inv = 1.0 / static_cast<double>(flat.n_trees());
  for (double& v : phi) v *= inv;
  return phi;
}

ShapMatrix TreeShapExplainer::shap_values_batch(const Dataset& data,
                                                std::size_t n_threads) const {
  if (data.n_features() != flat_->n_features()) {
    throw std::invalid_argument("shap_values_batch: feature count mismatch");
  }
  return shap_values_batch(std::span<const float>(data.features_flat()),
                           data.n_rows(), n_threads);
}

ShapMatrix TreeShapExplainer::shap_values_batch(std::span<const float> features,
                                                std::size_t n_rows,
                                                std::size_t n_threads,
                                                ShapWalk walk) const {
  const FlatForest& flat = *flat_;
  const std::size_t n_features = flat.n_features();
  if (features.size() != n_rows * n_features) {
    throw std::invalid_argument("shap_values_batch: matrix shape mismatch");
  }
  DRCSHAP_OBS_TIMER("shap/values_batch");
  obs::counter_add("shap/batch_samples", n_rows);
  ExplanationCache* cache = cache_.get();
  ShapMatrix out;
  out.n_rows = n_rows;
  out.n_features = n_features;
  out.values.assign(n_rows * n_features, 0.0);
  if (n_rows == 0) return out;

  ThreadPool& pool = ThreadPool::global();

  // Quantize every row once up front into its u16 codes: the explanation
  // key. Rows with equal codes fall in the same threshold bucket of every
  // split feature, so they take the same branch at every split and their
  // phi rows are bit-equal. An unquantizable forest keys on the raw float
  // bytes instead (byte-equal rows are trivially explanation-equal).
  const CompiledForest* compiled = compiled_.get();
  std::vector<std::uint16_t> codes;
  if (compiled != nullptr) {
    codes.resize(n_rows * n_features);
    pool.parallel_for(
        n_rows,
        [&](std::size_t r) {
          compiled->quantize_sample(features.data() + r * n_features,
                                    codes.data() + r * n_features);
        },
        /*grain=*/8, /*max_workers=*/n_threads);
  }
  const std::size_t key_len = compiled != nullptr
                                  ? n_features * sizeof(std::uint16_t)
                                  : n_features * sizeof(float);
  const auto key_ptr = [&](std::size_t r) -> const void* {
    if (compiled != nullptr) return codes.data() + r * n_features;
    return features.data() + r * n_features;
  };

  // --- Dedupe rows on their key: explain one representative, scatter to
  // the rest.
  std::vector<std::uint32_t> rep(n_rows);
  std::vector<std::uint32_t> uniques;
  uniques.reserve(n_rows);
  {
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> by_digest;
    by_digest.reserve(n_rows * 2);
    for (std::size_t r = 0; r < n_rows; ++r) {
      const std::uint64_t d = fnv1a(key_ptr(r), key_len);
      auto& chain = by_digest[d];
      const auto row32 = static_cast<std::uint32_t>(r);
      std::uint32_t found = row32;
      for (const std::uint32_t u : chain) {
        if (std::memcmp(key_ptr(u), key_ptr(r), key_len) == 0) {
          found = u;
          break;
        }
      }
      rep[r] = found;
      if (found == row32) {
        chain.push_back(row32);
        uniques.push_back(row32);
      }
    }
  }
  obs::counter_add("shap/batch_unique_rows", uniques.size());

  // --- Serve unique rows from the cache where possible.
  std::vector<std::uint32_t> pending;
  if (cache != nullptr) {
    pending.reserve(uniques.size());
    const std::uint64_t salt = model_digest_;
    for (const std::uint32_t u : uniques) {
      if (!cache->lookup(salt, key_ptr(u), key_len,
                         out.values.data() + std::size_t{u} * n_features,
                         n_features)) {
        pending.push_back(u);
      }
    }
    obs::counter_add("shap/cache_hits", uniques.size() - pending.size());
    obs::counter_add("shap/cache_misses", pending.size());
  } else {
    pending = uniques;
  }

  // --- Compute the remaining rows with the same block/merge structure as
  // ever (bit-identical at any thread count), through the fast walk unless
  // the caller pinned the reference recursion.
  if (!pending.empty()) {
    const std::size_t n_trees = flat.n_trees();
    const std::size_t n_blocks =
        (n_trees + kTreesPerBlock - 1) / kTreesPerBlock;
    const double inv = 1.0 / static_cast<double>(n_trees);
    const int stride = flat.max_depth() + 2;
    const std::size_t scratch_len = path_scratch_len(flat);
    obs::counter_add("shap/tree_traversals", pending.size() * n_trees);

    const ShapMeta* meta = nullptr;
    if (walk != ShapWalk::kReference) {
      std::call_once(meta_->once, [&] { meta_->meta = build_meta(flat); });
      meta = &meta_->meta;
    }

    // One scratch slot per shared-pool worker: the Algorithm-2 path storage,
    // the fast walk's frame stack, the AVX2 staging pools and the leaf
    // memo. Ranges may also run inline on the calling thread (worker index
    // -1 when it is not a pool worker), but only when nothing was submitted
    // — a serial-degraded nested call runs entirely on its outer worker, and
    // a top-level inline run has no workers active in this call — so a slot
    // is never contended within one call. Slots are cache-line aligned: the
    // walks bump their counters and stack sizes on every node.
    struct alignas(64) WorkerScratch {
      std::vector<PathElement> path;
      std::vector<FastFrame> stack;
      shap_detail::ShapJobEngine engine;
      LeafMemo memo;
    };
    std::vector<WorkerScratch> scratch(pool.size());
    auto worker_scratch = [&]() -> WorkerScratch& {
      const int w = ThreadPool::current_worker_index();
      const std::size_t slot =
          (w < 0 || static_cast<std::size_t>(w) >= scratch.size())
              ? 0
              : static_cast<std::size_t>(w);
      WorkerScratch& ws = scratch[slot];
      if (ws.path.size() < scratch_len) ws.path.assign(scratch_len, {});
      return ws;
    };
    // The AVX2+FMA walk batches each tree's leaf chains through vector
    // kernels; it is byte-identical to the scalar walk, taken by kAuto only
    // behind the build flag + runtime cpuid, and bounded by the reciprocal
    // table depth.
#if DRCSHAP_SIMD_ENABLED
    const bool simd_walk =
        walk == ShapWalk::kAuto && CompiledForest::simd_available() &&
        flat.max_depth() <= shap_detail::kSimdWalkMaxDepth;
#else
    const bool simd_walk = false;
#endif
    obs::note_set("shap/walk",
                  !meta ? "reference" : (simd_walk ? "avx2" : "scalar"));

    // Rows stream through in slabs so the per-(row, block) partial buffer
    // stays bounded; a one-block ensemble writes output rows directly.
    const std::size_t slab =
        n_blocks == 1 ? pending.size()
                      : std::max<std::size_t>(1, kPartialBudget / n_blocks);
    std::vector<double> partial;
    if (n_blocks > 1) {
      partial.resize(std::min(slab, pending.size()) * n_blocks * n_features);
    }
    const auto phi_of = [&](std::size_t begin, std::size_t local,
                            std::size_t block) -> double* {
      if (n_blocks == 1) {
        return out.values.data() +
               std::size_t{pending[begin + local]} * n_features;
      }
      return partial.data() + (local * n_blocks + block) * n_features;
    };

    // Work units are (row group, tree block): the group's rows walk the
    // block's trees tree-outer, row-inner, so every row receives its trees
    // in fixed order while the group meets each tree back to back and
    // shares that tree's leaf memo. Groups only change which row computes a
    // memoized product first, never its bits, so their size may follow the
    // worker count: as many rows as kGroupRows allows while leaving every
    // worker two units. Without a memo (the reference walk, forests deeper
    // than the history width) a group is one row.
    const bool memo_fits =
        meta != nullptr && flat.max_depth() <= shap_detail::kMemoMaxDepth;
    const std::size_t min_groups =
        (2 * pool.width(n_threads) + n_blocks - 1) / n_blocks;
    const auto walk_group = [&](std::size_t begin, std::size_t first,
                                std::size_t count, std::size_t block) {
      WorkerScratch& ws = worker_scratch();
      const std::size_t t_begin = block * kTreesPerBlock;
      const std::size_t t_end = std::min(n_trees, t_begin + kTreesPerBlock);
      const auto x_of = [&](std::size_t local) {
        return features.data() +
               std::size_t{pending[begin + local]} * n_features;
      };
      if (meta == nullptr) {
        for (std::size_t t = t_begin; t < t_end; ++t) {
          for (std::size_t local = first; local < first + count; ++local) {
            flat_tree_shap(flat, t, x_of(local), phi_of(begin, local, block),
                           ws.path.data(), stride);
          }
        }
        return;
      }
#if DRCSHAP_SIMD_ENABLED
      if (simd_walk) ws.engine.init(stride, meta->max_leaves);
#endif
      bool record = memo_fits && count > 1;
      for (std::size_t t = t_begin; t < t_end; ++t) {
        const std::uint64_t hits = ws.memo.hits;
        const std::uint64_t misses = ws.memo.misses;
        ws.memo.begin_tree(record);
        for (std::size_t local = first; local < first + count; ++local) {
          const ExactTraversal trav = traversal(flat, x_of(local));
          double* phi = phi_of(begin, local, block);
#if DRCSHAP_SIMD_ENABLED
          if (simd_walk) {
            shap_detail::fast_tree_shap_avx2(trav, *meta, flat.root(t), phi,
                                             ws.path.data(), stride, ws.stack,
                                             ws.engine, ws.memo);
            continue;
          }
#endif
          fast_tree_shap(trav, *meta, flat.root(t), phi, ws.path.data(),
                         stride, ws.stack, ws.memo);
        }
        // Storing products costs cache traffic on every miss. When the
        // unit's first tree hit on fewer than a quarter of its leaf visits
        // (distinct rows of a deep forest), the rest of the unit walks
        // without recording.
        if (t == t_begin &&
            3 * (ws.memo.hits - hits) < ws.memo.misses - misses) {
          record = false;
        }
      }
    };

    for (std::size_t begin = 0; begin < pending.size(); begin += slab) {
      const std::size_t count = std::min(slab, pending.size() - begin);
      if (n_blocks > 1) {
        std::fill_n(partial.data(), count * n_blocks * n_features, 0.0);
      }
      std::size_t group = 1;
      if (memo_fits) {
        group = std::clamp<std::size_t>((count + min_groups - 1) / min_groups,
                                        1, kGroupRows);
      }
      const std::size_t n_groups = (count + group - 1) / group;
      pool.parallel_for(
          n_groups * n_blocks,
          [&](std::size_t unit) {
            const std::size_t first = unit / n_blocks * group;
            walk_group(begin, first, std::min(group, count - first),
                       unit % n_blocks);
          },
          /*grain=*/0, /*max_workers=*/n_threads);
      // Merge per row in ascending block order, then average.
      pool.parallel_for(
          count,
          [&](std::size_t local) {
            double* dst = out.values.data() +
                          std::size_t{pending[begin + local]} * n_features;
            if (n_blocks > 1) {
              for (std::size_t block = 0; block < n_blocks; ++block) {
                const double* src = phi_of(begin, local, block);
                for (std::size_t f = 0; f < n_features; ++f) dst[f] += src[f];
              }
            }
            for (std::size_t f = 0; f < n_features; ++f) dst[f] *= inv;
          },
          /*grain=*/0, /*max_workers=*/n_threads);
    }

    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    for (const WorkerScratch& ws : scratch) {
      memo_hits += ws.memo.hits;
      memo_misses += ws.memo.misses;
    }
    obs::counter_add("shap/leaf_memo_hits", memo_hits);
    obs::counter_add("shap/leaf_memo_misses", memo_misses);

    if (cache != nullptr) {
      const std::uint64_t salt = model_digest_;
      for (const std::uint32_t u : pending) {
        cache->insert(salt, key_ptr(u), key_len,
                      out.values.data() + std::size_t{u} * n_features,
                      n_features);
      }
    }
  }

  // --- Scatter representatives to their duplicates.
  for (std::size_t r = 0; r < n_rows; ++r) {
    if (rep[r] != r) {
      std::memcpy(out.values.data() + r * n_features,
                  out.values.data() + std::size_t{rep[r]} * n_features,
                  n_features * sizeof(double));
    }
  }
  return out;
}

}  // namespace drcshap
