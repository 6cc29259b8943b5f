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
//     four gathers and an add: with AVX2 (DRCSHAP_SIMD build option +
//     runtime cpuid, see simd_available) it runs as one vector op per
//     gather; the scalar block kernel — always compiled — performs the
//     identical per-lane arithmetic, so SIMD on/off is bit-identical.
//
// Per-lane leaf values accumulate in tree order with the same double adds
// and final divide as FlatForest::predict, so the compiled engine's
// probabilities are byte-identical to the exact engine's — tested across
// the design suite and a randomized-forest fuzz corpus.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/flat_forest.hpp"

#ifndef DRCSHAP_SIMD_ENABLED
#define DRCSHAP_SIMD_ENABLED 0
#endif

namespace drcshap {

namespace detail {

/// Raw-pointer view of the compiled node arrays, shared by the scalar and
/// AVX2 block kernels (the AVX2 translation unit is compiled with -mavx2
/// and must not see any inline library code it could vectorize).
struct CompiledForestView {
  const std::int32_t* feature;     ///< per node; 0 on leaves (safe gather)
  const std::int32_t* qthreshold;  ///< per node; INT32_MAX on leaves
  const std::int32_t* child;       ///< left child; right = child+1; leaf = self
  const double* value;             ///< per node; leaf P(y=1)
  const std::int32_t* roots;       ///< per tree
  const std::int32_t* depths;      ///< per tree (edge depth)
  std::size_t n_trees;
};

/// Descend 8 samples through every tree and write the per-lane sums of leaf
/// values (tree order, not yet divided by n_trees). `blockq` holds the
/// feature codes interleaved as blockq[feature * 8 + lane], widened to i32.
void predict_block8_scalar(const CompiledForestView& forest,
                           const std::int32_t* blockq, double* sums);

#if DRCSHAP_SIMD_ENABLED
/// AVX2 twin of predict_block8_scalar: same arithmetic, vector gathers.
void predict_block8_avx2(const CompiledForestView& forest,
                         const std::int32_t* blockq, double* sums);
#endif

}  // namespace detail

class CompiledForest {
 public:
  /// Samples evaluated per block kernel invocation.
  static constexpr std::size_t kBlock = 8;
  /// A feature with more distinct thresholds than this cannot be coded in
  /// u16 and the forest stays on the exact engine (never hit by binned
  /// training, which caps distinct splits per feature at max_bins - 1).
  static constexpr std::size_t kMaxCutsPerFeature = 65535;

  /// Per-call kernel selection; kAuto uses AVX2 when simd_available().
  enum class Simd { kAuto, kScalar };

  /// Lowers `flat`; throws std::invalid_argument if any feature exceeds
  /// kMaxCutsPerFeature distinct thresholds.
  explicit CompiledForest(const FlatForest& flat);

  /// Non-throwing factory: nullptr (with `reason` filled when non-null)
  /// if the ensemble cannot be quantized.
  static std::shared_ptr<const CompiledForest> try_compile(
      const FlatForest& flat, std::string* reason = nullptr);

  std::size_t n_trees() const { return roots_.size(); }
  std::size_t n_features() const { return n_features_; }
  std::size_t n_nodes() const { return feature_.size(); }
  int max_depth() const { return max_depth_; }
  std::int32_t root(std::size_t tree) const { return roots_[tree]; }
  int tree_depth(std::size_t tree) const { return depths_[tree]; }

  // BFS node arrays (absolute ids), read only by the predict kernels. A
  // leaf is a node with child()[n] == n. The SHAP tree explainer walks the
  // exact FlatForest instead and uses this layout only through
  // quantize_sample, whose codes are its dedupe/cache key.
  const std::int32_t* feature() const { return feature_.data(); }
  const std::int32_t* qthreshold() const { return qthreshold_.data(); }
  const std::int32_t* child() const { return child_.data(); }
  const double* value() const { return value_.data(); }

  /// Distinct sorted thresholds of `feature` (rank = u16 code).
  std::size_t n_cuts(std::size_t feature) const {
    return static_cast<std::size_t>(cut_begin_[feature + 1] -
                                    cut_begin_[feature]);
  }

  /// Code one sample: codes[f] = #thresholds of f strictly below x[f]
  /// (NaN maps to n_cuts(f), i.e. "greater than everything"). `codes` must
  /// hold n_features() entries.
  void quantize_sample(const float* x, std::uint16_t* codes) const;

  /// P(y=1 | x): scalar quantize + branch-free descent, byte-identical to
  /// FlatForest::predict.
  double predict(const float* x) const;
  /// Same, for a sample already coded by quantize_sample.
  double predict_coded(const std::uint16_t* codes) const;

  /// Scores `n_rows` row-major samples into out[0..n_rows). Runs the block
  /// kernel on every 8-lane group (short tails are padded with code-0
  /// lanes whose results are discarded); serial — callers parallelize over
  /// row chunks.
  void predict_batch(const float* rows, std::size_t n_rows, double* out,
                     Simd simd = Simd::kAuto) const;

  /// True when the AVX2 kernels were compiled in and this CPU runs them
  /// (cpuid reports AVX2 and FMA). The one SIMD guard of the library: the
  /// compiled forest's block kernel and the TreeSHAP vector walk both
  /// check it, and their scalar twins are the bit-identical fallback
  /// whenever it is false.
  static bool simd_available();
  /// True when the build compiled the AVX2 kernel (DRCSHAP_SIMD=ON and the
  /// compiler/arch supported -mavx2).
  static constexpr bool simd_compiled() { return DRCSHAP_SIMD_ENABLED != 0; }

  /// FNV-1a digest over every array of the lowered layout (cuts, node
  /// arrays, roots, depths). Two compilations of byte-identical ensembles
  /// — e.g. before and after a model_io round trip — must agree.
  std::uint64_t layout_digest() const;

  detail::CompiledForestView view() const {
    return {feature_.data(), qthreshold_.data(), child_.data(), value_.data(),
            roots_.data(),   depths_.data(),    n_trees()};
  }

 private:
  std::uint32_t code_of(std::size_t feature, float value) const;

  // Per-feature sorted distinct thresholds, ragged storage.
  std::vector<float> cuts_;
  std::vector<std::int32_t> cut_begin_;  ///< size n_features + 1

  // BFS node arrays.
  std::vector<std::int32_t> feature_;
  std::vector<std::int32_t> qthreshold_;
  std::vector<std::int32_t> child_;
  std::vector<double> value_;
  std::vector<std::int32_t> roots_;
  std::vector<std::int32_t> depths_;

  std::size_t n_features_ = 0;
  int max_depth_ = 0;
};

}  // namespace drcshap
