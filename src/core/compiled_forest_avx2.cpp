// AVX2 block kernel for the compiled forest backend. This translation unit
// is the only one compiled with -mavx2 (see src/CMakeLists.txt), and it is
// only ever entered after CompiledForest::simd_available() says the host
// can execute it; everything else in the library stays baseline-ISA so the
// binary runs on pre-AVX2 hardware with the scalar block kernel.
//
// The arithmetic mirrors predict_block8_scalar lane for lane: integer
// gathers and compares pick the child, and the per-lane leaf-value sums
// accumulate as independent IEEE double adds in tree order — so SIMD on
// and off produce byte-identical probabilities.

#include "core/compiled_forest.hpp"

#if DRCSHAP_SIMD_ENABLED

#include <immintrin.h>

#include <algorithm>

namespace drcshap::detail {

namespace {

/// One descent step for 8 lanes: gather the node fields, compare codes,
/// pick the child. A leaf self-loops (child = self, qthreshold = INT32_MAX)
/// so stepping past a tree's own depth is a no-op — which is what lets the
/// caller run several trees in lockstep to the *group's* max depth.
inline __m256i step(const CompiledForestView& forest,
                    const std::int32_t* blockq, const __m256i lane_offsets,
                    const __m256i node) {
  const __m256i feature =
      _mm256_i32gather_epi32(forest.feature, node, sizeof(std::int32_t));
  const __m256i qthreshold =
      _mm256_i32gather_epi32(forest.qthreshold, node, sizeof(std::int32_t));
  // Lane codes live at blockq[feature * 8 + lane].
  const __m256i code_index =
      _mm256_add_epi32(_mm256_slli_epi32(feature, 3), lane_offsets);
  const __m256i qx =
      _mm256_i32gather_epi32(blockq, code_index, sizeof(std::int32_t));
  const __m256i child =
      _mm256_i32gather_epi32(forest.child, node, sizeof(std::int32_t));
  // cmpgt yields 0 / -1; child - (-1) selects the right sibling.
  const __m256i go_right = _mm256_cmpgt_epi32(qx, qthreshold);
  return _mm256_sub_epi32(child, go_right);
}

/// Add tree `node`'s leaf values to the lane accumulators.
inline void accumulate(const double* value, const __m256i node,
                       __m256d& acc_lo, __m256d& acc_hi) {
  acc_lo = _mm256_add_pd(
      acc_lo,
      _mm256_i64gather_pd(value,
                          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(node)),
                          sizeof(double)));
  acc_hi = _mm256_add_pd(
      acc_hi, _mm256_i64gather_pd(
                  value,
                  _mm256_cvtepi32_epi64(_mm256_extracti128_si256(node, 1)),
                  sizeof(double)));
}

}  // namespace

void predict_block8_avx2(const CompiledForestView& forest,
                         const std::int32_t* blockq, double* sums) {
  static_assert(CompiledForest::kBlock == 8);
  const __m256i lane_offsets = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256d acc_lo = _mm256_setzero_pd();  // lanes 0..3
  __m256d acc_hi = _mm256_setzero_pd();  // lanes 4..7
  // Four trees descend at once: each step is a chain of dependent gathers,
  // so a single tree is latency-bound — four independent chains keep the
  // gather ports busy. All four run to the group's max depth (the self-
  // looping leaves make the extra steps no-ops), and the leaf values are
  // added strictly in tree order, so the sums are bit-identical to the
  // scalar kernel's.
  std::size_t t = 0;
  for (; t + 4 <= forest.n_trees; t += 4) {
    __m256i n0 = _mm256_set1_epi32(forest.roots[t]);
    __m256i n1 = _mm256_set1_epi32(forest.roots[t + 1]);
    __m256i n2 = _mm256_set1_epi32(forest.roots[t + 2]);
    __m256i n3 = _mm256_set1_epi32(forest.roots[t + 3]);
    const std::int32_t depth =
        std::max(std::max(forest.depths[t], forest.depths[t + 1]),
                 std::max(forest.depths[t + 2], forest.depths[t + 3]));
    for (std::int32_t d = 0; d < depth; ++d) {
      n0 = step(forest, blockq, lane_offsets, n0);
      n1 = step(forest, blockq, lane_offsets, n1);
      n2 = step(forest, blockq, lane_offsets, n2);
      n3 = step(forest, blockq, lane_offsets, n3);
    }
    accumulate(forest.value, n0, acc_lo, acc_hi);
    accumulate(forest.value, n1, acc_lo, acc_hi);
    accumulate(forest.value, n2, acc_lo, acc_hi);
    accumulate(forest.value, n3, acc_lo, acc_hi);
  }
  for (; t < forest.n_trees; ++t) {
    __m256i node = _mm256_set1_epi32(forest.roots[t]);
    const std::int32_t depth = forest.depths[t];
    for (std::int32_t d = 0; d < depth; ++d) {
      node = step(forest, blockq, lane_offsets, node);
    }
    accumulate(forest.value, node, acc_lo, acc_hi);
  }
  _mm256_storeu_pd(sums, acc_lo);
  _mm256_storeu_pd(sums + 4, acc_hi);
}

}  // namespace drcshap::detail

#endif  // DRCSHAP_SIMD_ENABLED
