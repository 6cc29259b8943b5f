// AVX2+FMA leaf kernels of the fast TreeSHAP batch walk. This TU is the
// only one compiled with -mavx2 -mfma (plus -ffp-contract=off so no scalar
// expression silently turns into an FMA and changes a bit); everything is
// entered behind CompiledForest::simd_available(), the runtime cpuid guard.
//
// What vectorizes, and why it stays byte-identical:
//
//  * Per leaf, Algorithm 2 runs one UNWOUND_PATH_SUM recurrence per unique
//    path element — `unique_depth` independent chains of ~2 divisions per
//    step, each with ~40 cycles of serial latency. The walk defers them:
//    chains of one leaf are packed 4 to a lane block (they share the
//    read-only pweight array, loaded broadcast), blocks are bucketed by
//    unique depth (all broadcast constants of the kernel depend only on
//    (ud, j)), and a once-per-tree flush runs several blocks interleaved in
//    one step loop so the recurrence latency of one chain hides behind the
//    arithmetic of the others. Lanes never mix: a SIMD lane computes
//    exactly the scalar chain, same operands, same order.
//  * one_fraction==1 chains divide only by integers ((j+1)*of with of==1,
//    and ud+1). Those divisions run as multiply + two FMAs against a
//    precomputed correctly-rounded reciprocal (Markstein): for normal
//    operands the result is the correctly rounded quotient, i.e. the very
//    bits vdivpd would produce, but at FMA throughput. one_fraction==0
//    chains keep real vdivpd (their divisor zf*(ud-j) is not integral) and
//    ride in the same flush loop, so the divider unit works in parallel
//    with the FMA ports ("mixed" kernel).
//  * This TU only computes chain totals. The walk (tree_shap.cpp) stages
//    each leaf's chains while it traverses a tree, calls
//    drain_chains_avx2 once at the end of the tree, then applies phi
//    itself in leaf-job emission (= reference DFS) order. The phi product
//    tot * (of - zf) * v therefore runs in a baseline TU without FMA, as
//    in the scalar leaf kernel.
//
// The boundary is tree_shap_simd.hpp: plain structs, raw pointers and
// counts. No traversal, container or other inline library code is compiled
// here, so this TU defines no weak symbol the linker could pick over a
// baseline copy (the simd_boundary test checks this with nm).

#include "core/tree_shap_simd.hpp"

#if DRCSHAP_SIMD_ENABLED

#include <immintrin.h>

#include <cstddef>

namespace drcshap::shap_detail {

namespace {

/// Correctly-rounded reciprocals of the small integers the kernels divide
/// by (unique_depth+1 and j+1 are bounded by tree depth + 1).
struct RecipTable {
  double inv[kSimdWalkMaxDepth + 2];
  RecipTable() {
    inv[0] = 0.0;
    for (int i = 1; i < kSimdWalkMaxDepth + 2; ++i) {
      inv[i] = 1.0 / static_cast<double>(i);
    }
  }
};
const RecipTable kRecip;

/// Markstein correctly-rounded division x/d via the precomputed
/// reciprocal rd = RN(1/d): q0 = x*rd; r = x - q0*d (exact, FMA);
/// q = q0 + r*rd. For normal x and integer d this returns RN(x/d) — the
/// same bits as vdivpd — in 3 FMA-port ops instead of one long division.
inline __m256d fma_div(__m256d x, __m256d d, __m256d rd) {
  const __m256d q0 = _mm256_mul_pd(x, rd);
  const __m256d r = _mm256_fnmadd_pd(q0, d, x);
  return _mm256_fmadd_pd(r, rd, q0);
}

/// one_fraction==1 chains, NB interleaved blocks. Per step j (descending):
///   tmp    = next_one * (ud+1) / (j+1)          [integer divisor -> FMA]
///   total += tmp
///   next_one = pw[j] - tmp * zf * (ud-j) / (ud+1)
/// Lane-independent; same operand order as the scalar chain.
template <int NB>
void k_of1(int ud, const Block* bs, const double* pwpool, double* tot_pool) {
  const __m256d Av = _mm256_set1_pd(static_cast<double>(ud + 1));
  const __m256d rdA = _mm256_set1_pd(kRecip.inv[ud + 1]);
  __m256d nop[NB], tot[NB];
  const double* pw[NB];
  for (int b = 0; b < NB; ++b) {
    pw[b] = pwpool + bs[b].pw_off;
    nop[b] = _mm256_set1_pd(pw[b][ud]);
    tot[b] = _mm256_setzero_pd();
  }
  for (int j = ud - 1; j >= 0; --j) {
    const __m256d Bj = _mm256_set1_pd(static_cast<double>(j + 1));
    const __m256d rdB = _mm256_set1_pd(kRecip.inv[j + 1]);
    const __m256d Cj = _mm256_set1_pd(static_cast<double>(ud - j));
    for (int b = 0; b < NB; ++b) {
      const __m256d pwv = _mm256_set1_pd(pw[b][j]);
      const __m256d zfv = _mm256_loadu_pd(bs[b].zf);
      const __m256d num1 = _mm256_mul_pd(nop[b], Av);
      const __m256d t = fma_div(num1, Bj, rdB);
      tot[b] = _mm256_add_pd(tot[b], t);
      const __m256d num2 = _mm256_mul_pd(_mm256_mul_pd(t, zfv), Cj);
      nop[b] = _mm256_sub_pd(pwv, fma_div(num2, Av, rdA));
    }
  }
  for (int b = 0; b < NB; ++b) {
    _mm256_storeu_pd(tot_pool + bs[b].out, tot[b]);
  }
}

/// one_fraction==0 chains: total += pw[j]*(ud+1) / (zf*(ud-j)). The
/// divisor is not integral, so this is real vdivpd — but carries no
/// recurrence, so a few interleaved blocks keep the divider saturated.
template <int NB>
void k_of0(int ud, const Block* bs, const double* pwpool, double* tot_pool) {
  const __m256d Av = _mm256_set1_pd(static_cast<double>(ud + 1));
  __m256d tot[NB];
  const double* pw[NB];
  for (int b = 0; b < NB; ++b) {
    pw[b] = pwpool + bs[b].pw_off;
    tot[b] = _mm256_setzero_pd();
  }
  for (int j = ud - 1; j >= 0; --j) {
    const __m256d Cj = _mm256_set1_pd(static_cast<double>(ud - j));
    for (int b = 0; b < NB; ++b) {
      const __m256d zfv = _mm256_loadu_pd(bs[b].zf);
      const __m256d num = _mm256_mul_pd(_mm256_set1_pd(pw[b][j]), Av);
      tot[b] = _mm256_add_pd(tot[b], _mm256_div_pd(num, _mm256_mul_pd(zfv, Cj)));
    }
  }
  for (int b = 0; b < NB; ++b) {
    _mm256_storeu_pd(tot_pool + bs[b].out, tot[b]);
  }
}

/// Mixed kernel: N1 of1 blocks (FMA ports) and N0 of0 blocks (divider) in
/// one step loop, so the two execution units overlap instead of idling.
template <int N1, int N0>
void k_mixed(int ud, const Block* bs1, const Block* bs0, const double* pwpool,
             double* tot1_pool, double* tot0_pool) {
  const __m256d Av = _mm256_set1_pd(static_cast<double>(ud + 1));
  const __m256d rdA = _mm256_set1_pd(kRecip.inv[ud + 1]);
  __m256d nop[N1], tot1[N1], tot0[N0];
  const double* pw1[N1];
  const double* pw0[N0];
  for (int b = 0; b < N1; ++b) {
    pw1[b] = pwpool + bs1[b].pw_off;
    nop[b] = _mm256_set1_pd(pw1[b][ud]);
    tot1[b] = _mm256_setzero_pd();
  }
  for (int b = 0; b < N0; ++b) {
    pw0[b] = pwpool + bs0[b].pw_off;
    tot0[b] = _mm256_setzero_pd();
  }
  for (int j = ud - 1; j >= 0; --j) {
    const __m256d Bj = _mm256_set1_pd(static_cast<double>(j + 1));
    const __m256d rdB = _mm256_set1_pd(kRecip.inv[j + 1]);
    const __m256d Cj = _mm256_set1_pd(static_cast<double>(ud - j));
    for (int b = 0; b < N0; ++b) {
      const __m256d zfv = _mm256_loadu_pd(bs0[b].zf);
      const __m256d num = _mm256_mul_pd(_mm256_set1_pd(pw0[b][j]), Av);
      tot0[b] =
          _mm256_add_pd(tot0[b], _mm256_div_pd(num, _mm256_mul_pd(zfv, Cj)));
    }
    for (int b = 0; b < N1; ++b) {
      const __m256d pwv = _mm256_set1_pd(pw1[b][j]);
      const __m256d zfv = _mm256_loadu_pd(bs1[b].zf);
      const __m256d num1 = _mm256_mul_pd(nop[b], Av);
      const __m256d t = fma_div(num1, Bj, rdB);
      tot1[b] = _mm256_add_pd(tot1[b], t);
      const __m256d num2 = _mm256_mul_pd(_mm256_mul_pd(t, zfv), Cj);
      nop[b] = _mm256_sub_pd(pwv, fma_div(num2, Av, rdA));
    }
  }
  for (int b = 0; b < N1; ++b) {
    _mm256_storeu_pd(tot1_pool + bs1[b].out, tot1[b]);
  }
  for (int b = 0; b < N0; ++b) {
    _mm256_storeu_pd(tot0_pool + bs0[b].out, tot0[b]);
  }
}

}  // namespace

void drain_chains_avx2(const StagedChains& s) {
  for (int u = 0; u < s.n_used; ++u) {
    const int ud = s.used_ud[u];
    const Block* b1 = s.b1 + static_cast<std::size_t>(ud) * s.bucket_cap;
    const Block* b0 = s.b0 + static_cast<std::size_t>(ud) * s.bucket_cap;
    const int m1 = s.b1_n[ud];
    const int m0 = s.b0_n[ud];
    int c1 = 0, c0 = 0;
    while (m1 - c1 >= 4 && m0 - c0 >= 2) {
      k_mixed<4, 2>(ud, b1 + c1, b0 + c0, s.pwpool, s.tot1, s.tot0);
      c1 += 4;
      c0 += 2;
    }
    while (m1 - c1 > 0) {
      const int nb = m1 - c1 >= 6 ? 6 : m1 - c1;
      switch (nb) {
        case 6: k_of1<6>(ud, b1 + c1, s.pwpool, s.tot1); break;
        case 5: k_of1<5>(ud, b1 + c1, s.pwpool, s.tot1); break;
        case 4: k_of1<4>(ud, b1 + c1, s.pwpool, s.tot1); break;
        case 3: k_of1<3>(ud, b1 + c1, s.pwpool, s.tot1); break;
        case 2: k_of1<2>(ud, b1 + c1, s.pwpool, s.tot1); break;
        default: k_of1<1>(ud, b1 + c1, s.pwpool, s.tot1); break;
      }
      c1 += nb;
    }
    while (m0 - c0 > 0) {
      const int nb = m0 - c0 >= 3 ? 3 : m0 - c0;
      switch (nb) {
        case 3: k_of0<3>(ud, b0 + c0, s.pwpool, s.tot0); break;
        case 2: k_of0<2>(ud, b0 + c0, s.pwpool, s.tot0); break;
        default: k_of0<1>(ud, b0 + c0, s.pwpool, s.tot0); break;
      }
      c0 += nb;
    }
  }
}

}  // namespace drcshap::shap_detail

#endif  // DRCSHAP_SIMD_ENABLED
