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

// One element of the "unique path" of Algorithm 2: a feature encountered on
// the way down, the fraction of paths that flow through when the feature is
// unknown (zero_fraction = cover ratio) or known (one_fraction = 0/1), and
// the permutation weight accumulator pweight.
struct PathElement {
  int feature_index = -1;
  double zero_fraction = 0.0;
  double one_fraction = 0.0;
  double pweight = 0.0;
};

/// FlatForest arrays + the raw sample: the one traversal every walk (the
/// reference recursion and the fast walk) runs over.
struct ExactTraversal {
  const std::int32_t* feature;
  const float* threshold;
  const std::int32_t* left;
  const std::int32_t* right;
  const double* value;
  const double* cover;
  const float* x;

  bool is_leaf(std::size_t node) const { return feature[node] < 0; }
  std::int32_t split_feature(std::size_t node) const { return feature[node]; }
  bool goes_left(std::size_t node) const {
    return x[static_cast<std::size_t>(feature[node])] <= threshold[node];
  }
  std::int32_t left_child(std::size_t node) const { return left[node]; }
  std::int32_t right_child(std::size_t node) const { return right[node]; }
};

/// Structural per-node metadata of the forest, node-indexed like the
/// FlatForest arrays.
struct ShapMeta {
  /// zero_fraction of the edge into each node (1.0 at roots).
  std::vector<double> entry_zero_fraction;
  /// For internal nodes: index of this node's split feature in the unique
  /// path *after* extending with the incoming edge, or 0 when the feature
  /// is fresh (path index 0 is the dummy base element, never a match).
  std::vector<std::int32_t> dup_index;
  /// Leaf count of the widest tree — sizes the vector leaf action's
  /// per-tree leaf-job pools.
  int max_leaves = 0;
};

/// Undo an extension for a repeated feature (UNWIND). Shared verbatim by
/// the reference recursion and the fast walk.
inline void unwind_path(PathElement* path, int unique_depth, int path_index) {
  const double one_fraction = path[path_index].one_fraction;
  const double zero_fraction = path[path_index].zero_fraction;
  double next_one_portion = path[unique_depth].pweight;
  for (int i = unique_depth - 1; i >= 0; --i) {
    if (one_fraction != 0.0) {
      const double tmp = path[i].pweight;
      path[i].pweight = next_one_portion * (unique_depth + 1) /
                        static_cast<double>((i + 1) * one_fraction);
      next_one_portion =
          tmp - path[i].pweight * zero_fraction * (unique_depth - i) /
                    static_cast<double>(unique_depth + 1);
    } else {
      path[i].pweight = path[i].pweight * (unique_depth + 1) /
                        static_cast<double>(zero_fraction * (unique_depth - i));
    }
  }
  for (int i = path_index; i < unique_depth; ++i) {
    path[i].feature_index = path[i + 1].feature_index;
    path[i].zero_fraction = path[i + 1].zero_fraction;
    path[i].one_fraction = path[i + 1].one_fraction;
  }
}

/// EXTEND specialized on what the recursion guarantees about one_fraction:
/// it is exactly 0.0 or 1.0 (the root gets 1.0, hot edges inherit a stored
/// 0/1, cold edges get 0.0). With 1.0 the `one_fraction *` factor is the
/// identity; with 0.0 the whole first line adds a signed zero, which never
/// changes the target bits (pweights that are exactly zero are always +0.0:
/// every product chain has non-negative structural factors and exact
/// cancellation yields +0.0), so it is skipped. The surviving ops keep the
/// reference operand order, so the resulting pweights are bit-identical.
inline void extend_path_01(PathElement* path, int unique_depth,
                           double zero_fraction, double one_fraction,
                           int feature_index) {
  path[unique_depth] = {feature_index, zero_fraction, one_fraction,
                        unique_depth == 0 ? 1.0 : 0.0};
  if (one_fraction != 0.0) {
    for (int i = unique_depth - 1; i >= 0; --i) {
      path[i + 1].pweight += path[i].pweight * (i + 1) /
                             static_cast<double>(unique_depth + 1);
      path[i].pweight = zero_fraction * path[i].pweight * (unique_depth - i) /
                        static_cast<double>(unique_depth + 1);
    }
  } else {
    for (int i = unique_depth - 1; i >= 0; --i) {
      path[i].pweight = zero_fraction * path[i].pweight * (unique_depth - i) /
                        static_cast<double>(unique_depth + 1);
    }
  }
}

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

/// Pending cold-subtree entry of the iterative fast walk.
struct FastFrame {
  std::int32_t node;
  std::int32_t slot;  ///< path scratch slot (level); cold reuses its parent's
  std::int32_t unique_depth;
  std::int32_t feature;  ///< split feature of the edge into `node`
  double one_fraction;
  /// One-fraction history of the edges into `node`: one bit per level,
  /// root edge first, the edge into `node` in bit 0.
  std::uint64_t history;
};

/// Tree depth the leaf-pattern memo keys exactly: one history bit per
/// level must fit in 64 bits. Deeper forests walk without a memo.
constexpr int kMemoMaxDepth = 64;

/// Per-worker leaf-pattern memo of the fast walk. A leaf's attribution
/// products w·(o−z)·v, one per unique-path element, are a function of the
/// leaf and of the 0/1 one-fraction each EXTEND received on the way down
/// (the *history*): zero-fractions, feature order and duplicate unwinds are
/// structural. The first row of a group to reach (leaf, history) in a tree
/// stores its (feature, product) pairs; later rows add the stored doubles
/// into their own phi at that leaf's place in their own DFS order, instead
/// of re-running the UNWOUND_PATH_SUM chains. The key is the history, not
/// the folded 0/1 mask of the unique path: UNWIND does not invert EXTEND
/// exactly in floating point, so the one-fraction a duplicate feature had
/// before it was folded leaves its trace in the pweights.
///
/// Memory bound per worker, with G rows per group, L leaves in the widest
/// tree and D the forest depth: one tree holds at most G·L distinct keys of
/// at most D pairs each, and the table keeps its load at or below 1/2, so
/// the memo never exceeds 4·G·L slots and G·L·D pairs. begin_tree()
/// recycles both for the next tree.
struct LeafMemo {
  struct Slot {
    std::uint64_t history;
    std::int32_t leaf;
    std::int32_t off;     ///< first pair in `feat` / `prod`
    std::uint32_t stamp;  ///< tree generation; other stamps are empty
  };
  std::vector<Slot> slots;  // open addressing, power-of-two size
  std::vector<std::int32_t> feat;
  std::vector<double> prod;
  std::size_t n_pairs = 0;
  std::size_t n_live = 0;
  std::uint32_t stamp = 0;
  bool recording = false;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  /// Forgets every entry. With `record` false (1-row groups, forests deeper
  /// than kMemoMaxDepth, units whose first tree rarely hit) find_or_reserve
  /// only hands out scratch pairs.
  void begin_tree(bool record) {
    recording = record;
    n_pairs = 0;
    n_live = 0;
    if (++stamp == 0) {
      for (Slot& s : slots) s.stamp = 0;
      stamp = 1;
    }
  }

  /// Offset into `feat` / `prod` of the pairs of (leaf, history). `hit`
  /// tells whether an earlier row stored them; otherwise `n` pairs are
  /// reserved there for the caller to fill, and later rows of the group
  /// find them while recording.
  std::int32_t find_or_reserve(std::int32_t leaf, std::uint64_t history,
                               int n, bool& hit) {
    hit = false;
    const auto off = static_cast<std::int32_t>(n_pairs);
    if (feat.size() < n_pairs + static_cast<std::size_t>(n)) {
      const std::size_t size =
          std::max<std::size_t>(2 * feat.size(), n_pairs + 4096);
      feat.resize(size);
      prod.resize(size);
    }
    if (!recording) return off;
    if (2 * (n_live + 1) > slots.size()) grow();
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = slot_of(leaf, history) & mask;; i = (i + 1) & mask) {
      Slot& s = slots[i];
      if (s.stamp != stamp) {
        s = {history, leaf, off, stamp};
        ++n_live;
        ++misses;
        n_pairs += static_cast<std::size_t>(n);
        return off;
      }
      if (s.leaf == leaf && s.history == history) {
        hit = true;
        ++hits;
        return s.off;
      }
    }
  }

 private:
  static std::size_t slot_of(std::int32_t leaf, std::uint64_t history) {
    std::uint64_t k = history * 0x9E3779B97F4A7C15ull +
                      static_cast<std::uint32_t>(leaf);
    k ^= k >> 29;
    k *= 0xBF58476D1CE4E5B9ull;
    return static_cast<std::size_t>(k ^ (k >> 32));
  }

  void grow() {
    std::vector<Slot> old(std::max<std::size_t>(1024, 2 * slots.size()));
    old.swap(slots);
    const std::size_t mask = slots.size() - 1;
    for (const Slot& s : old) {
      if (s.stamp != stamp) continue;
      std::size_t i = slot_of(s.leaf, s.history) & mask;
      while (slots[i].stamp == stamp) i = (i + 1) & mask;
      slots[i] = s;
    }
  }
};

/// Per-tree staging pools of the vector leaf action. The walk defers every
/// leaf's UNWOUND_PATH_SUM chains into ud-bucketed 4-lane blocks (lanes of
/// one block come from one leaf, so they share the pweight array and load
/// it broadcast) and drains them through the AVX2 kernels once per tree:
/// interleaved blocks hide the recurrence latency, and phi is applied
/// afterwards in exactly the DFS emission order the reference uses. A leaf
/// the memo already holds is a job whose products are known: it stages no
/// chains and adds its stored pairs at its place in that order. Chain
/// regions are padded to lane multiples so kernels can store 4 wide;
/// padding lanes are garbage but lane-local (no cross-lane op reads them)
/// and never applied to phi.
struct ShapJobEngine {
  using Block = shap_detail::Block;
  // Chains come in two kinds, indexed by their element's one_fraction:
  // [1] for 1.0 (integer divisors), [0] for 0.0. Every per-kind pool below
  // is such a pair.
  struct Job {
    std::int32_t unique_depth;
    std::int32_t off[2], n[2];  ///< each kind's chain range (padded pool)
    /// LeafMemo pairs: the products of a hit, or where a recorded miss
    /// stores its products; -1 for an unrecorded miss.
    std::int32_t memo_off;
    bool hit;
    double leaf_value;
  };

  std::vector<Job> jobs;
  int n_jobs = 0;
  std::vector<double> pwpool;
  int n_pw = 0;
  // Per-chain feature/zero_fraction/total pools, 4-aligned regions per job.
  std::vector<std::int32_t> f[2];
  std::vector<double> zf[2], tot[2];
  int n_chains[2] = {0, 0};
  // Fixed-capacity per-unique-depth block buckets, touched-list reset.
  std::vector<Block> blocks[2];
  std::vector<std::int32_t> n_blocks[2];
  std::vector<std::int32_t> used_ud;
  int n_used = 0;
  int bucket_cap = 0;
  int init_stride = -1, init_leaves = -1;

  void init(int stride, int max_leaves) {
    if (stride <= init_stride && max_leaves <= init_leaves) return;
    init_stride = stride;
    init_leaves = max_leaves;
    const int max_ud = stride - 1;
    // Worst case per leaf: unique_depth chains + one padding block each
    // side; +8 keeps the last 4-wide store of either pool in bounds.
    const std::size_t cap_chains =
        static_cast<std::size_t>(max_leaves) *
        static_cast<std::size_t>(stride + 8);
    jobs.resize(static_cast<std::size_t>(max_leaves) + 1);
    pwpool.resize(static_cast<std::size_t>(max_leaves) *
                  static_cast<std::size_t>(stride + 1));
    bucket_cap = max_leaves * ((max_ud + 4) / 4 + 1);
    for (int kind = 0; kind < 2; ++kind) {
      f[kind].resize(cap_chains);
      zf[kind].resize(cap_chains);
      tot[kind].resize(cap_chains);
      blocks[kind].resize(static_cast<std::size_t>(max_ud + 2) * bucket_cap);
      n_blocks[kind].assign(static_cast<std::size_t>(max_ud) + 2, 0);
    }
    used_ud.resize(static_cast<std::size_t>(max_ud) + 2);
    reset();
  }
  void reset() {
    n_jobs = 0;
    n_pw = 0;
    for (int kind = 0; kind < 2; ++kind) {
      n_chains[kind] = 0;
      for (int i = 0; i < n_used; ++i) {
        n_blocks[kind][static_cast<std::size_t>(used_ud[i])] = 0;
      }
    }
    n_used = 0;
  }

  /// Stage a memo hit: no chains, its stored pairs apply at this job's
  /// place.
  void stage_hit(int ud, std::int32_t memo_off) {
    Job& job = jobs[static_cast<std::size_t>(n_jobs++)];
    job.unique_depth = ud;
    job.n[0] = job.n[1] = 0;
    job.memo_off = memo_off;
    job.hit = true;
  }

  /// Stage one leaf's chains: the path's unique elements, partitioned by
  /// kind, packed 4 per block into the leaf's shared pweight array.
  /// Padding lanes get zf = 1.0 (any finite value works — lanes are
  /// independent and padding totals are never applied).
  void stage_leaf(double leaf_value, const PathElement* path, int ud,
                  std::int32_t memo_off) {
    Job& job = jobs[static_cast<std::size_t>(n_jobs++)];
    job.unique_depth = ud;
    job.memo_off = memo_off;
    job.hit = false;
    job.leaf_value = leaf_value;
    const std::int32_t pw_off = n_pw;
    double* pwdst = pwpool.data() + pw_off;
    for (int j = 0; j <= ud; ++j) pwdst[j] = path[j].pweight;
    n_pw += ud + 1;
    if (n_blocks[1][static_cast<std::size_t>(ud)] == 0 &&
        n_blocks[0][static_cast<std::size_t>(ud)] == 0) {
      used_ud[static_cast<std::size_t>(n_used++)] = ud;
    }
    int lane[2] = {4, 4};  // force a new block on the first element
    Block* cur[2] = {nullptr, nullptr};
    const std::size_t bucket = static_cast<std::size_t>(ud) * bucket_cap;
    for (int kind = 0; kind < 2; ++kind) job.off[kind] = n_chains[kind];
    for (int i = 1; i <= ud; ++i) {
      const int kind = path[i].one_fraction != 0.0 ? 1 : 0;
      if (lane[kind] == 4) {
        std::int32_t& bn = n_blocks[kind][static_cast<std::size_t>(ud)];
        cur[kind] = &blocks[kind][bucket + static_cast<std::size_t>(bn++)];
        cur[kind]->pw_off = pw_off;
        cur[kind]->out = n_chains[kind];
        cur[kind]->zf[1] = cur[kind]->zf[2] = cur[kind]->zf[3] = 1.0;
        lane[kind] = 0;
        n_chains[kind] += 4;
      }
      cur[kind]->zf[lane[kind]] = path[i].zero_fraction;
      const auto e = static_cast<std::size_t>(cur[kind]->out + lane[kind]);
      f[kind][e] = path[i].feature_index;
      zf[kind][e] = path[i].zero_fraction;
      ++lane[kind];
    }
    // A kind with no element kept lane 4 and took no block: n = 0.
    for (int kind = 0; kind < 2; ++kind) {
      job.n[kind] = n_chains[kind] - job.off[kind] - 4 + lane[kind];
    }
  }

  /// Drains the tree's chains through the AVX2 kernels, then applies phi
  /// per job in emission (= reference DFS) order: tot * (of - zf) * v, the
  /// scalar kernel's expression with of = 1.0 or 0.0 by kind, or a memo
  /// hit's stored products. A recorded miss stores its products as it
  /// applies them.
  void flush(LeafMemo& memo, double* phi) {
    shap_detail::StagedChains chains;
    chains.pwpool = pwpool.data();
    chains.b1 = blocks[1].data();
    chains.b0 = blocks[0].data();
    chains.b1_n = n_blocks[1].data();
    chains.b0_n = n_blocks[0].data();
    chains.used_ud = used_ud.data();
    chains.n_used = n_used;
    chains.bucket_cap = bucket_cap;
    chains.tot1 = tot[1].data();
    chains.tot0 = tot[0].data();
    shap_detail::drain_chains_avx2(chains);
    for (int jb = 0; jb < n_jobs; ++jb) {
      const Job& job = jobs[static_cast<std::size_t>(jb)];
      if (job.hit) {
        const std::int32_t* feat = memo.feat.data() + job.memo_off;
        const double* prod = memo.prod.data() + job.memo_off;
        for (int k = 0; k < job.unique_depth; ++k) {
          phi[static_cast<std::size_t>(feat[k])] += prod[k];
        }
        continue;
      }
      std::int32_t* rec_feat = nullptr;
      double* rec_prod = nullptr;
      if (job.memo_off >= 0) {
        rec_feat = memo.feat.data() + job.memo_off;
        rec_prod = memo.prod.data() + job.memo_off;
      }
      for (const int kind : {1, 0}) {
        const double of = kind;
        for (int k = 0; k < job.n[kind]; ++k) {
          const auto e = static_cast<std::size_t>(job.off[kind] + k);
          const double p = tot[kind][e] * (of - zf[kind][e]) * job.leaf_value;
          phi[static_cast<std::size_t>(f[kind][e])] += p;
          if (rec_feat != nullptr) {
            *rec_feat++ = f[kind][e];
            *rec_prod++ = p;
          }
        }
      }
    }
    reset();
  }
};

/// Per-worker scratch of the batch engine: the Algorithm-2 path storage,
/// the fast walk's frame stack, the vector staging pools and the leaf
/// memo. Cache-line aligned: the walk bumps its counters and stack size on
/// every node.
struct alignas(64) WorkerScratch {
  std::vector<PathElement> path;
  std::vector<FastFrame> stack;
  ShapJobEngine engine;
  LeafMemo memo;
};

/// Iterative fast traversal of one tree for one sample: the one fast walk,
/// shared by both leaf actions. Visits leaves in exactly the reference
/// order (hot subtree fully, then cold — the LIFO stack preserves DFS
/// order), feeds EXTEND/UNWIND the same operands, and uses the precomputed
/// metadata only to *skip* recomputing structural values (the two cover
/// divisions and the duplicate search per node, and one of the two path
/// copies: a cold child extends its parent's slot in place, because the
/// parent path is dead once the hot subtree returned).
///
/// The leaf action is the only difference between the walks. With kStage
/// false a miss's products come from leaf_products and every leaf adds its
/// products to phi at once. With kStage true a leaf is staged into
/// ws.engine, and after the last leaf the tree's chains drain through the
/// AVX2 kernels and phi is applied in the same leaf order.
template <bool kStage>
void fast_tree_shap(const ExactTraversal& tree, const ShapMeta& meta,
                    std::int32_t root, double* phi, int stride,
                    WorkerScratch& ws) {
  PathElement* storage = ws.path.data();
  std::vector<FastFrame>& stack = ws.stack;
  LeafMemo& memo = ws.memo;
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
        // miss. Within a leaf the unique-path features are distinct, so the
        // order of its adds never matters; only the leaf order does.
        if (unique_depth > 0) {
          bool hit = false;
          const std::int32_t off =
              memo.find_or_reserve(node_index, history, unique_depth, hit);
          if (!hit) {
            extend_path_01(path, unique_depth, meta.entry_zero_fraction[node],
                           one_fraction, feature);
          }
          if constexpr (kStage) {
            if (hit) {
              ws.engine.stage_hit(unique_depth, off);
            } else {
              ws.engine.stage_leaf(tree.value[node], path, unique_depth,
                                   memo.recording ? off : -1);
            }
          } else {
            std::int32_t* feat = memo.feat.data() + off;
            double* prod = memo.prod.data() + off;
            if (!hit) {
              leaf_products(tree, node, path, unique_depth, prod);
              for (int i = 1; i <= unique_depth; ++i) {
                feat[i - 1] = path[i].feature_index;
              }
            }
            for (int k = 0; k < unique_depth; ++k) {
              phi[static_cast<std::size_t>(feat[k])] += prod[k];
            }
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
  if constexpr (kStage) ws.engine.flush(memo, phi);
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
  // phi rows are bit-equal.
  const CompiledForest& compiled = *compiled_;
  std::vector<std::uint16_t> codes(n_rows * n_features);
  pool.parallel_for(
      n_rows,
      [&](std::size_t r) {
        compiled.quantize_sample(features.data() + r * n_features,
                                 codes.data() + r * n_features);
      },
      /*grain=*/8, /*max_workers=*/n_threads);
  const std::size_t key_len = n_features * sizeof(std::uint16_t);
  const auto key_ptr = [&](std::size_t r) {
    return codes.data() + r * n_features;
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
    out.cache_hits = uniques.size() - pending.size();
    out.cache_misses = pending.size();
    obs::counter_add("shap/cache_hits", out.cache_hits);
    obs::counter_add("shap/cache_misses", out.cache_misses);
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

    // One scratch slot per shared-pool worker. Ranges may also run inline
    // on the calling thread (worker index -1 when it is not a pool worker),
    // but only when nothing was submitted — a serial-degraded nested call
    // runs entirely on its outer worker, and a top-level inline run has no
    // workers active in this call — so a slot is never contended within one
    // call.
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
    // The vector leaf action batches each tree's leaf chains through the
    // AVX2+FMA kernels; it is byte-identical to the scalar one, taken by
    // kAuto only behind the build flag + runtime cpuid, and bounded by the
    // reciprocal table depth.
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
    const bool memo_fits = meta != nullptr && flat.max_depth() <= kMemoMaxDepth;
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
            fast_tree_shap<true>(trav, *meta, flat.root(t), phi, stride, ws);
            continue;
          }
#endif
          fast_tree_shap<false>(trav, *meta, flat.root(t), phi, stride, ws);
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
