#pragma once
// The boundary between the compiled forest (compiled_forest.cpp) and its
// AVX2 block kernel (compiled_forest_avx2.cpp). The vector TU is compiled
// with -mavx2, so it must not see any inline library code: an inline
// function or template it instantiated would be emitted there as a weak
// symbol, and the linker could keep that AVX2 copy for baseline callers on
// a pre-AVX2 CPU. Only a raw-pointer view of the node arrays crosses here.

#include <cstddef>
#include <cstdint>

#ifndef DRCSHAP_SIMD_ENABLED
#define DRCSHAP_SIMD_ENABLED 0
#endif

namespace drcshap::detail {

/// Samples per block kernel invocation (CompiledForest::kBlock).
inline constexpr std::size_t kBlockLanes = 8;

/// Raw-pointer view of the compiled node arrays, shared by the scalar and
/// AVX2 block kernels.
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

}  // namespace drcshap::detail
