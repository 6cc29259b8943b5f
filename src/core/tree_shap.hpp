#pragma once
// Exact SHAP tree explainer (Lundberg, Erion & Lee 2018, Algorithm 2).
//
// Computes, in polynomial time, the exact Shapley values of Eq. (2) of the
// paper for tree ensembles, where the conditional expectations
// E[f(x) | x_S] are defined by tree traversal: splits on features in S
// follow x, splits on features outside S average both children weighted by
// training cover. Because SHAP values are linear in the model, the values
// for a Random Forest are the average of its trees' values.
//
// Complexity per sample and tree: O(L * D^2) with L leaves and D depth —
// this is what makes per-hotspot explanations cheap enough to run inside a
// physical-design loop (Section III-C).
//
// Explaining every predicted hotspot of a design means thousands of samples
// against a 500-tree ensemble, so the explainer also has a batched engine:
// shap_values_batch fans (row group, 64-tree block) work units across a
// thread pool with per-worker scratch, and merges per-block partial phi
// vectors in fixed tree order — the accumulation structure depends only on
// the ensemble, so results are bit-identical for any thread count.
//
// The batch engine additionally runs a *fast path* that amortizes the
// sample-independent half of Algorithm 2 across the whole batch. The key
// observation: a sample enters the recursion only through the hot/cold
// branch decision at each split. Everything else — the unique-path
// composition after duplicate-feature folding, the unique depth at every
// node, and the zero_fractions (products of cover ratios) — is a function
// of the tree alone. A one-time structural DFS over the forest precomputes, per
// node, the entry zero_fraction (with the exact op order of the original
// recursion, so the doubles are bit-equal), the folded unique depth, and
// the unique-path index of a duplicate split feature; the per-row walk then
// skips the two cover divisions and the O(depth) duplicate search at every
// node, specializes EXTEND on the fact that one_fractions are exactly 0.0
// or 1.0, halves the path copies by extending cold children in the parent's
// scratch slot, and batches the independent per-feature UNWIND chains at
// each leaf so the division unit pipelines instead of stalling. Every
// floating-point op that contributes to phi keeps its original operands and
// order, so fast-path phi is byte-identical to the reference recursion
// (kept verbatim behind the single-sample shap_values and
// ShapWalk::kReference).
//
// There is one fast walk, with two leaf actions chosen at compile time.
// The scalar action computes a leaf's products on the spot, four chains
// interleaved. The vector action stages the leaf's chains; at the end of
// each tree they drain through the AVX2+FMA kernels (tree_shap_avx2.cpp,
// entered behind CompiledForest::simd_available()), and the walk then
// applies phi in the same leaf order. The kernels see only a raw-pointer
// view of the staged chains (tree_shap_simd.hpp), so no inline library
// code is ever compiled with AVX2.
//
// Inside a work unit the group's rows walk the block's trees tree-outer,
// row-inner, sharing a per-worker *leaf-pattern memo* that is cleared per
// tree. A leaf's attribution products w·(o−z)·v are a function of the leaf
// and of the row's 0/1 one-fraction at every level of the root→leaf path
// (its history; the folded unique-path mask is not enough, because UNWIND
// does not invert EXTEND exactly in floating point). The first row of the
// group to reach a (leaf, history) computes the products with either leaf
// action and stores them; later rows add the stored doubles at that leaf's
// place in their own DFS order. On the ECO forest about 98 % of leaf
// visits hit. A 1-row group records nothing, a unit whose first tree
// hit on fewer than a quarter of its leaf visits stops recording, and
// forests deeper than the 64-bit history walk without a memo.
//
// Both walks — the reference recursion and the fast walk — run over the
// exact FlatForest layout. The forest's compiled layout
// (core/compiled_forest.hpp) plays one part here: shap_values_batch
// quantizes each row once into its u16 threshold-bucket codes and uses them
// as the row's explanation key. Rows with equal codes take the same branch
// at every split, so they provably share one phi row: each unique row is
// explained once and scattered to its duplicates, and rows differing only
// inside a threshold bucket (or in unsplit features) share a cache entry.
// A forest that cannot be quantized keys on the raw float row bytes. With a
// shared ExplanationCache attached (core/explanation_cache.hpp), unique rows
// are additionally served from — and inserted into — the cache, carrying
// the dedupe across batches and serve requests.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/random_forest.hpp"

namespace drcshap {

class ExplanationCache;

namespace detail {
struct ShapMetaCell;  // lazily built structural metadata of the forest
}  // namespace detail

/// Per-tree walk of shap_values_batch. kAuto is the production walk: the
/// fast walk with the AVX2 leaf kernels when
/// CompiledForest::simd_available() and the forest fits their depth bound,
/// else with the scalar leaf kernel. kScalar pins the scalar leaf kernel
/// and kReference the Algorithm-2 recursion under the same block/merge
/// structure; they are the byte-identity oracles of tests and benches, the
/// way CompiledForest::Simd::kScalar is for the compiled kernel.
enum class ShapWalk { kAuto, kScalar, kReference };

/// Row-major matrix of SHAP values: one row of n_features doubles per
/// explained sample.
struct ShapMatrix {
  std::vector<double> values;
  std::size_t n_rows = 0;
  std::size_t n_features = 0;
  /// Explanation-cache lookups of this call alone, one per unique row
  /// (other users of a shared cache do not count); 0 without a cache.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;

  std::span<const double> row(std::size_t i) const {
    return {values.data() + i * n_features, n_features};
  }
};

class TreeShapExplainer {
 public:
  /// Snapshots the forest's flattened SoA view (and its compiled layout,
  /// the key quantizer, when one was built); the explainer stays valid even
  /// if the forest is refit afterwards.
  explicit TreeShapExplainer(const RandomForestClassifier& forest);

  /// Attaches a shared explanation cache consulted (and filled) by
  /// shap_values_batch for each unique row. Copies of the explainer share
  /// the cache, so the serving daemon's per-batch explainer snapshots all
  /// hit one store. nullptr detaches.
  void set_cache(std::shared_ptr<ExplanationCache> cache) {
    cache_ = std::move(cache);
  }
  const std::shared_ptr<ExplanationCache>& cache() const { return cache_; }

  /// FNV-1a digest of every array of the snapshotted ensemble (roots, split
  /// features and thresholds, child links, values, covers). Used as the
  /// cache key salt so a cache accidentally shared across models can never
  /// serve a stale row.
  std::uint64_t model_digest() const { return model_digest_; }

  /// E[f(x)] over the training distribution (cover-weighted).
  double base_value() const { return base_value_; }

  /// Per-feature SHAP values for one sample; size = n_features.
  /// Additivity holds: base_value() + sum(result) == forest.predict_proba(x)
  /// up to floating-point error.
  std::vector<double> shap_values(std::span<const float> features) const;

  /// SHAP values for every row of `data`, computed on the shared thread
  /// pool (n_threads caps the workers used; 0 means the whole pool).
  /// Matches shap_values row
  /// by row up to reassociation error (< 1e-12 here), and is bit-identical
  /// across thread counts.
  ShapMatrix shap_values_batch(const Dataset& data,
                               std::size_t n_threads = 0) const;

  /// Same, over a row-major matrix of n_rows x n_features floats. `walk`
  /// pins the per-tree walk of rows computed here (cache hits and in-batch
  /// duplicates are copied, not walked); every walk returns the same bytes.
  ShapMatrix shap_values_batch(std::span<const float> features,
                               std::size_t n_rows, std::size_t n_threads = 0,
                               ShapWalk walk = ShapWalk::kAuto) const;

  /// SHAP values for a single tree (used by tests and RUSBoost reuse).
  static std::vector<double> tree_shap_values(const DecisionTree& tree,
                                              std::span<const float> features);

 private:
  std::shared_ptr<const FlatForest> flat_;
  /// Quantizes rows into their u16 explanation keys; null when the forest
  /// cannot be quantized (raw float bytes are the key then).
  std::shared_ptr<const CompiledForest> compiled_;
  /// Shared lazily-initialized structural metadata of the fast batch path.
  /// Copies of the explainer — the serving daemon snapshots one per batch —
  /// share the cell, so the one-time DFS cost is paid once per loaded model,
  /// not once per batch.
  std::shared_ptr<detail::ShapMetaCell> meta_;
  std::shared_ptr<ExplanationCache> cache_;
  double base_value_;
  std::uint64_t model_digest_ = 0;
};

}  // namespace drcshap
