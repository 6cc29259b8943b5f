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
//  * phi application is deferred to the flush but ordered by leaf-job
//    emission (= reference DFS leaf order), and within a leaf the unique
//    path features are distinct, so every phi slot sees its additions in
//    exactly the reference order.
//
// EXTEND/UNWIND and the traversal itself stay scalar here — identical
// source, identical ops to the scalar fast walk in tree_shap.cpp.

#include "core/tree_shap_simd.hpp"

#if DRCSHAP_SIMD_ENABLED

#include <immintrin.h>

#include <cstring>

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

using Block = ShapJobEngine::Block;

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

/// Drains every bucket through the kernels, then applies phi per leaf job
/// in emission (= reference DFS) order: tot * (of - zf) * leaf_value with
/// of literal 1.0 / 0.0, exactly the reference expression.
void flush_tree(ShapJobEngine& je, double* phi) {
  const double* pwpool = je.pwpool.data();
  for (int u = 0; u < je.n_used; ++u) {
    const int ud = je.used_ud[u];
    const Block* b1 =
        je.b1_data.data() + static_cast<std::size_t>(ud) * je.bucket_cap;
    const Block* b0 =
        je.b0_data.data() + static_cast<std::size_t>(ud) * je.bucket_cap;
    const int m1 = je.b1_n[static_cast<std::size_t>(ud)];
    const int m0 = je.b0_n[static_cast<std::size_t>(ud)];
    int c1 = 0, c0 = 0;
    while (m1 - c1 >= 4 && m0 - c0 >= 2) {
      k_mixed<4, 2>(ud, b1 + c1, b0 + c0, pwpool, je.tot1.data(),
                    je.tot0.data());
      c1 += 4;
      c0 += 2;
    }
    while (m1 - c1 > 0) {
      const int nb = m1 - c1 >= 6 ? 6 : m1 - c1;
      switch (nb) {
        case 6: k_of1<6>(ud, b1 + c1, pwpool, je.tot1.data()); break;
        case 5: k_of1<5>(ud, b1 + c1, pwpool, je.tot1.data()); break;
        case 4: k_of1<4>(ud, b1 + c1, pwpool, je.tot1.data()); break;
        case 3: k_of1<3>(ud, b1 + c1, pwpool, je.tot1.data()); break;
        case 2: k_of1<2>(ud, b1 + c1, pwpool, je.tot1.data()); break;
        default: k_of1<1>(ud, b1 + c1, pwpool, je.tot1.data()); break;
      }
      c1 += nb;
    }
    while (m0 - c0 > 0) {
      const int nb = m0 - c0 >= 3 ? 3 : m0 - c0;
      switch (nb) {
        case 3: k_of0<3>(ud, b0 + c0, pwpool, je.tot0.data()); break;
        case 2: k_of0<2>(ud, b0 + c0, pwpool, je.tot0.data()); break;
        default: k_of0<1>(ud, b0 + c0, pwpool, je.tot0.data()); break;
      }
      c0 += nb;
    }
  }
  for (int jb = 0; jb < je.n_jobs; ++jb) {
    const ShapJobEngine::Job& job = je.jobs[static_cast<std::size_t>(jb)];
    for (int k = 0; k < job.n1; ++k) {
      const int e = job.e1_off + k;
      phi[static_cast<std::size_t>(je.f1[static_cast<std::size_t>(e)])] +=
          je.tot1[static_cast<std::size_t>(e)] *
          (1.0 - je.zf1[static_cast<std::size_t>(e)]) * job.leaf_value;
    }
    for (int k = 0; k < job.n0; ++k) {
      const int e = job.e0_off + k;
      phi[static_cast<std::size_t>(je.f0[static_cast<std::size_t>(e)])] +=
          je.tot0[static_cast<std::size_t>(e)] *
          (0.0 - je.zf0[static_cast<std::size_t>(e)]) * job.leaf_value;
    }
  }
  je.reset();
}

/// Stage one leaf's chains into the engine: the path's unique elements,
/// partitioned by one_fraction, packed 4 per block into the leaf's shared
/// pweight array. Padding lanes get zf = 1.0 (any finite value works —
/// lanes are independent and padding totals are never applied).
inline void emit_leaf(const ExactTraversal& tree, std::size_t node,
                      const PathElement* path, int ud, ShapJobEngine& je) {
  ShapJobEngine::Job& job = je.jobs[static_cast<std::size_t>(je.n_jobs++)];
  job.unique_depth = ud;
  job.leaf_value = tree.value[node];
  job.e1_off = je.n1;
  job.e0_off = je.n0;
  const std::int32_t pw_off = je.n_pw;
  double* pwdst = je.pwpool.data() + pw_off;
  for (int j = 0; j <= ud; ++j) pwdst[j] = path[j].pweight;
  je.n_pw += ud + 1;
  Block* bucket1 =
      je.b1_data.data() + static_cast<std::size_t>(ud) * je.bucket_cap;
  Block* bucket0 =
      je.b0_data.data() + static_cast<std::size_t>(ud) * je.bucket_cap;
  std::int32_t& bn1 = je.b1_n[static_cast<std::size_t>(ud)];
  std::int32_t& bn0 = je.b0_n[static_cast<std::size_t>(ud)];
  if (bn1 == 0 && bn0 == 0) je.used_ud[je.n_used++] = ud;
  int lane1 = 4, lane0 = 4;  // force a new block on the first element
  Block* cur1 = nullptr;
  Block* cur0 = nullptr;
  for (int i = 1; i <= ud; ++i) {
    if (path[i].one_fraction != 0.0) {
      if (lane1 == 4) {
        cur1 = &bucket1[bn1++];
        cur1->pw_off = pw_off;
        cur1->out = je.n1;
        cur1->zf[1] = cur1->zf[2] = cur1->zf[3] = 1.0;
        lane1 = 0;
        je.n1 += 4;
      }
      cur1->zf[lane1] = path[i].zero_fraction;
      const auto e = static_cast<std::size_t>(cur1->out + lane1);
      je.f1[e] = path[i].feature_index;
      je.zf1[e] = path[i].zero_fraction;
      ++lane1;
    } else {
      if (lane0 == 4) {
        cur0 = &bucket0[bn0++];
        cur0->pw_off = pw_off;
        cur0->out = je.n0;
        cur0->zf[1] = cur0->zf[2] = cur0->zf[3] = 1.0;
        lane0 = 0;
        je.n0 += 4;
      }
      cur0->zf[lane0] = path[i].zero_fraction;
      const auto e = static_cast<std::size_t>(cur0->out + lane0);
      je.f0[e] = path[i].feature_index;
      je.zf0[e] = path[i].zero_fraction;
      ++lane0;
    }
  }
  job.n1 = (je.n1 - job.e1_off) - 4 + (lane1 == 4 ? 4 : lane1);
  job.n0 = (je.n0 - job.e0_off) - 4 + (lane0 == 4 ? 4 : lane0);
  if (job.n1 < 0) job.n1 = 0;
  if (job.n0 < 0) job.n0 = 0;
}

}  // namespace

/// Same traversal skeleton as the scalar fast walk (hot subtree first, cold
/// frames on a LIFO stack, cold children extend the parent slot in place);
/// only the leaf work is staged instead of computed inline.
void fast_tree_shap_avx2(const ExactTraversal& tree, const ShapMeta& meta,
                         std::int32_t root, double* phi, PathElement* storage,
                         int stride, std::vector<FastFrame>& stack,
                         ShapJobEngine& je) {
  stack.clear();
  stack.push_back({root, 0, 0, -1, 1.0});
  while (!stack.empty()) {
    FastFrame frame = stack.back();
    stack.pop_back();
    std::int32_t node_index = frame.node;
    std::int32_t slot = frame.slot;
    int unique_depth = frame.unique_depth;
    double one_fraction = frame.one_fraction;
    int feature = frame.feature;
    PathElement* path = storage + static_cast<std::size_t>(slot) *
                                      static_cast<std::size_t>(stride);
    for (;;) {
      const auto node = static_cast<std::size_t>(node_index);
      extend_path_01(path, unique_depth, meta.entry_zero_fraction[node],
                     one_fraction, feature);
      if (tree.is_leaf(node)) {
        if (unique_depth > 0) emit_leaf(tree, node, path, unique_depth, je);
        break;
      }
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
      stack.push_back({cold, slot, depth_after + 1, feature, 0.0});
      PathElement* hot_path = storage + static_cast<std::size_t>(slot + 1) *
                                            static_cast<std::size_t>(stride);
      for (int i = 0; i <= depth_after; ++i) hot_path[i] = path[i];
      path = hot_path;
      node_index = hot;
      ++slot;
      unique_depth = depth_after + 1;
      one_fraction = incoming_one_fraction;
    }
  }
  flush_tree(je, phi);
}

}  // namespace drcshap::shap_detail

#endif  // DRCSHAP_SIMD_ENABLED
