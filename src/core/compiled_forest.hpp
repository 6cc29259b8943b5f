#pragma once
// Compiled inference backend: a fitted ensemble lowered to a quantized,
// breadth-first, branch-free layout evaluated eight samples at a time.
//
// Three lowering steps, each exactness-preserving:
//
//  1. *Monotone threshold quantization.* Per feature, every distinct split
//     threshold in the forest is collected and sorted; a threshold's u16
//     code is its rank, and a sample value's code is the count of
//     thresholds strictly below it. Then `code(x) <= code(t)` holds exactly
//     when `x <= t` for every totally ordered float (±Inf included; NaN is
//     mapped to the max code, reproducing the IEEE `NaN <= t == false`
//     descent). Comparisons become u16 integer compares against a
//     per-sample code vector that fits in L1 (387 features = 774 bytes).
//
//  2. *Breadth-first, self-looping node layout.* Nodes are renumbered in
//     BFS order so a node's children are adjacent (`right == left + 1`),
//     and every leaf points at itself with an always-false split
//     (qthreshold = INT32_MAX). Descent is then branch-free arithmetic —
//     `node = child[node] + (qx > qthreshold[node])` — iterated exactly
//     tree-depth times with no leaf test and no branch mispredicts.
//
//  3. *Batch-of-8 evaluation.* Eight samples descend one tree in lockstep,
//     amortizing every node-array cache line eight ways. The inner step is
//     four gathers and an add per lane, in a scalar block kernel the
//     compiler is free to unroll.
//
// Per-lane leaf values accumulate in tree order with the same double adds
// and final divide as FlatForest::predict, so the compiled engine's
// probabilities are byte-identical to the exact engine's — tested across
// the design suite and a randomized-forest fuzz corpus.

#include <cstdint>
#include <vector>

#include "core/flat_forest.hpp"

#ifndef DRCSHAP_SIMD_ENABLED
#define DRCSHAP_SIMD_ENABLED 0
#endif

namespace drcshap {

class CompiledForest {
 public:
  /// Samples evaluated per block kernel invocation.
  static constexpr std::size_t kBlock = 8;
  /// A feature with more distinct thresholds than this cannot be coded in
  /// u16, so RandomForestClassifier::set_trees rejects the forest. Binned
  /// training never gets there: it caps distinct splits per feature at
  /// BinnedMatrix::kMaxBins - 1.
  static constexpr std::size_t kMaxCutsPerFeature = 65535;

  /// Lowers `flat`; throws std::invalid_argument if any feature exceeds
  /// kMaxCutsPerFeature distinct thresholds.
  explicit CompiledForest(const FlatForest& flat);

  std::size_t n_trees() const { return roots_.size(); }
  std::size_t n_features() const { return n_features_; }
  std::size_t n_nodes() const { return feature_.size(); }
  int max_depth() const { return max_depth_; }

  /// Code one sample: codes[f] = #distinct thresholds of f strictly below
  /// x[f] (NaN maps to the number of distinct thresholds of f, i.e. "greater
  /// than everything"). `codes` must hold n_features() entries. The SHAP
  /// tree explainer walks the exact FlatForest and uses this layout only
  /// here: the codes are its dedupe/cache key.
  void quantize_sample(const float* x, std::uint16_t* codes) const;

  /// Scores `n_rows` row-major samples into out[0..n_rows), byte-identical
  /// to FlatForest::predict row for row. Runs the block kernel on every
  /// 8-lane group (short tails are padded with code-0 lanes whose results
  /// are discarded); serial — callers parallelize over row chunks.
  void predict_batch(const float* rows, std::size_t n_rows,
                     double* out) const;

  /// True when the AVX2 kernels were compiled in and this CPU runs them
  /// (cpuid reports AVX2 and FMA). The one SIMD guard of the library: the
  /// TreeSHAP leaf kernels check it, and their scalar twin is the
  /// bit-identical fallback whenever it is false.
  static bool simd_available();
  /// True when the build compiled the AVX2 kernels (DRCSHAP_SIMD=ON and the
  /// compiler/arch supported -mavx2).
  static constexpr bool simd_compiled() { return DRCSHAP_SIMD_ENABLED != 0; }

  /// FNV-1a digest over every array of the lowered layout (cuts, node
  /// arrays, roots, depths). Two compilations of byte-identical ensembles
  /// — e.g. before and after a model_io round trip — must agree.
  std::uint64_t layout_digest() const;

 private:
  std::uint32_t code_of(std::size_t feature, float value) const;
  /// Descends the 8 lanes of `blockq` (codes interleaved as
  /// blockq[feature * 8 + lane]) through every tree and writes the per-lane
  /// sums of leaf values, in tree order, not yet divided by n_trees.
  void predict_block8(const std::int32_t* blockq, double* sums) const;

  // Per-feature sorted distinct thresholds, ragged storage.
  std::vector<float> cuts_;
  std::vector<std::int32_t> cut_begin_;  ///< size n_features + 1

  // BFS node arrays (absolute ids). A leaf is a node with child_[n] == n.
  std::vector<std::int32_t> feature_;     ///< 0 on leaves (safe gather)
  std::vector<std::int32_t> qthreshold_;  ///< INT32_MAX on leaves
  std::vector<std::int32_t> child_;       ///< left child; right = left + 1
  std::vector<double> value_;             ///< leaf P(y=1)
  std::vector<std::int32_t> roots_;       ///< per tree
  std::vector<std::int32_t> depths_;      ///< per tree (edge depth)

  std::size_t n_features_ = 0;
  int max_depth_ = 0;
};

}  // namespace drcshap
