#pragma once
// Private internals shared between the TreeSHAP batch engine
// (tree_shap.cpp) and its AVX2+FMA leaf kernel TU (tree_shap_avx2.cpp).
// Nothing here is part of the public explainer API; the header exists only
// because the vector TU must see the exact same path/traversal/metadata
// types — and the exact same inline EXTEND/UNWIND op order — that the
// scalar engine uses, so the two walks stay provably byte-identical.

#include <cstddef>
#include <cstdint>
#include <vector>

#ifndef DRCSHAP_SIMD_ENABLED
#define DRCSHAP_SIMD_ENABLED 0
#endif

namespace drcshap::shap_detail {

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
/// reference recursion and both fast walks) runs over.
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
  /// Leaf count of the widest tree — sizes the vector walk's per-tree
  /// leaf-job pools.
  int max_leaves = 0;
};

/// Undo an extension for a repeated feature (UNWIND). Shared verbatim by
/// the reference recursion and both fast walks.
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

/// Pending cold-subtree entry of the iterative fast walks.
struct FastFrame {
  std::int32_t node;
  std::int32_t slot;  ///< path scratch slot (level); cold reuses its parent's
  std::int32_t unique_depth;
  std::int32_t feature;  ///< split feature of the edge into `node`
  double one_fraction;
};

/// Per-tree staging pools of the vector walk. The walk defers every leaf's
/// UNWOUND_PATH_SUM chains into ud-bucketed 4-lane blocks (lanes of one
/// block come from one leaf, so they share the pweight array and load it
/// broadcast) and flushes once per tree: interleaved blocks hide the
/// recurrence latency, and phi is applied afterwards in exactly the DFS
/// emission order the reference uses. Chain regions are padded to lane
/// multiples so kernels can store 4 wide; padding lanes are garbage but
/// lane-local (no cross-lane op reads them) and never applied to phi.
struct ShapJobEngine {
  struct Job {
    std::int32_t unique_depth;
    std::int32_t e1_off, n1;  ///< one_fraction==1 chain range (padded pool)
    std::int32_t e0_off, n0;  ///< one_fraction==0 chain range (padded pool)
    double leaf_value;
  };
  /// One 4-lane block of same-kind chains from one leaf.
  struct Block {
    std::int32_t pw_off;  ///< lane-shared pweight array in `pwpool`
    std::int32_t out;     ///< 4-aligned index into the tot pool
    double zf[4];         ///< per-lane zero_fractions (padding lanes: 1.0)
  };

  std::vector<Job> jobs;
  int n_jobs = 0;
  std::vector<double> pwpool;
  int n_pw = 0;
  // Per-chain feature/zero_fraction/total pools, 4-aligned regions per job.
  std::vector<std::int32_t> f1, f0;
  std::vector<double> zf1, zf0, tot1, tot0;
  int n1 = 0, n0 = 0;
  // Fixed-capacity per-unique-depth block buckets, touched-list reset.
  std::vector<Block> b1_data, b0_data;
  std::vector<std::int32_t> b1_n, b0_n;
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
    f1.resize(cap_chains);
    zf1.resize(cap_chains);
    tot1.resize(cap_chains);
    f0.resize(cap_chains);
    zf0.resize(cap_chains);
    tot0.resize(cap_chains);
    bucket_cap = max_leaves * ((max_ud + 4) / 4 + 1);
    b1_data.resize(static_cast<std::size_t>(max_ud + 2) * bucket_cap);
    b0_data.resize(static_cast<std::size_t>(max_ud + 2) * bucket_cap);
    b1_n.assign(static_cast<std::size_t>(max_ud) + 2, 0);
    b0_n.assign(static_cast<std::size_t>(max_ud) + 2, 0);
    used_ud.resize(static_cast<std::size_t>(max_ud) + 2);
    n_jobs = 0;
    n_pw = 0;
    n1 = 0;
    n0 = 0;
    n_used = 0;
  }
  void reset() {
    n_jobs = 0;
    n_pw = 0;
    n1 = 0;
    n0 = 0;
    for (int i = 0; i < n_used; ++i) {
      b1_n[static_cast<std::size_t>(used_ud[i])] = 0;
      b0_n[static_cast<std::size_t>(used_ud[i])] = 0;
    }
    n_used = 0;
  }
};

#if DRCSHAP_SIMD_ENABLED

/// Depth ceiling of the vector walk: the correctly-rounded FMA division
/// replacement draws reciprocals from a fixed table of integer divisors up
/// to this depth. Deeper forests fall back to the scalar fast walk.
inline constexpr int kSimdWalkMaxDepth = 190;

/// AVX2+FMA twin of the scalar fast walk for one (sample, tree): same
/// traversal order, same EXTEND/UNWIND operands, leaf chains batched per
/// tree and flushed into phi in reference DFS order. Byte-identical to the
/// scalar walk (and therefore to the reference recursion).
void fast_tree_shap_avx2(const ExactTraversal& tree, const ShapMeta& meta,
                         std::int32_t root, double* phi, PathElement* storage,
                         int stride, std::vector<FastFrame>& stack,
                         ShapJobEngine& engine);

#endif  // DRCSHAP_SIMD_ENABLED

}  // namespace drcshap::shap_detail
