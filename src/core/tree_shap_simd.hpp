#pragma once
// The boundary between the TreeSHAP batch engine (tree_shap.cpp) and its
// AVX2+FMA leaf kernels (tree_shap_avx2.cpp). The vector TU is compiled
// with -mavx2 -mfma, so it must not see any inline library code: an inline
// function or template it instantiated would be emitted there as a weak
// symbol, and the linker could keep that AVX2 copy for baseline callers on
// a pre-AVX2 CPU. Only raw pointers, counts and plain structs cross here;
// the walk, the staging pools and the leaf memo stay in tree_shap.cpp.

#include <cstdint>

namespace drcshap::shap_detail {

/// Depth ceiling of the AVX2 kernels: the correctly-rounded FMA division
/// replacement draws reciprocals from a fixed table of integer divisors up
/// to this depth. Deeper forests take the scalar leaf kernel.
inline constexpr int kSimdWalkMaxDepth = 190;

/// One 4-lane block of same-kind UNWOUND_PATH_SUM chains from one leaf.
struct Block {
  std::int32_t pw_off;  ///< lane-shared pweight array in `pwpool`
  std::int32_t out;     ///< 4-aligned index into the tot pool
  double zf[4];         ///< per-lane zero_fractions (padding lanes: 1.0)
};

/// One tree's staged chains. Bucket `ud` of a kind holds its blocks at
/// b?[ud * bucket_cap], b?_n[ud] of them; used_ud lists the n_used unique
/// depths with a non-empty bucket. one_fraction==1 chains write their
/// totals to tot1, one_fraction==0 chains to tot0.
struct StagedChains {
  const double* pwpool;
  const Block* b1;
  const Block* b0;
  const std::int32_t* b1_n;
  const std::int32_t* b0_n;
  const std::int32_t* used_ud;
  int n_used;
  int bucket_cap;
  double* tot1;
  double* tot0;
};

/// Runs every staged chain through the AVX2+FMA kernels, writing each
/// chain's total to its slot of tot1/tot0. Lane-for-lane the scalar
/// UNWOUND_PATH_SUM: same operands, same order, same bits. Defined only
/// when DRCSHAP_SIMD_ENABLED, and called only behind simd_available().
void drain_chains_avx2(const StagedChains& chains);

}  // namespace drcshap::shap_detail
