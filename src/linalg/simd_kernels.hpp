// AVX2 and AVX-512 variants of the hot vector kernels, bitwise identical
// to their scalar references (DESIGN.md §13, §16).
//
// The parity argument, shared by every kernel here: IEEE-754 requires each
// individual +, ×, ÷ to be correctly rounded, so a vector lane performing
// the same operations on the same values in the same order as a scalar
// loop produces the same bits. These kernels therefore vectorize only
//
//  - across *independent accumulators* — four (AVX2) or eight (AVX-512)
//    beliefs' dot products, or as many observations' likelihood sums, each
//    lane owning one accumulator whose terms arrive in exactly the scalar
//    order — or
//  - across *elementwise* maps (products, divisions) with no reduction at
//    all.
//
// Nothing reassociates a single sum, and no FMA can be contracted: the
// functions are compiled with `target("avx2")` / `target("avx512f")` only
// (no FMA contraction is licensed at -O2 without -ffast-math, and the AVX2
// functions lack the FMA ISA outright). The scalar tails inside run the
// same double arithmetic as the reference loops.
//
// Callers dispatch on simd::active_mode() and must keep their scalar path
// as the reference; tests/util_simd_test.cpp holds each pair equal bitwise
// on random inputs, and tests/pomdp_successor_parity_test.cpp holds the
// successor kernels (gather_support8, likelihood_classify4/8) to the frozen
// per-lane expansion on every tier.
#pragma once

#include <cstddef>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RECOVERD_SIMD_KERNELS_X86 1
#include <immintrin.h>
#else
#define RECOVERD_SIMD_KERNELS_X86 0
#endif

// AVX-512F carries fused multiply-add instructions (plain AVX2 does not),
// so the avx512 functions must explicitly forbid contraction of their
// mul+add intrinsic chains — GCC at -O2 otherwise emits vfmadd and breaks
// bitwise parity with the scalar reference. GCC takes a function-level
// optimize attribute; Clang takes `#pragma clang fp contract(off)` in the
// body (RECOVERD_FP_NO_CONTRACT below).
#if defined(__clang__)
#define RECOVERD_AVX512_TARGET __attribute__((target("avx512f")))
#define RECOVERD_FP_NO_CONTRACT _Pragma("clang fp contract(off)")
#elif defined(__GNUC__)
#define RECOVERD_AVX512_TARGET \
  __attribute__((target("avx512f"), optimize("fp-contract=off")))
#define RECOVERD_FP_NO_CONTRACT
#else
#define RECOVERD_AVX512_TARGET
#define RECOVERD_FP_NO_CONTRACT
#endif

namespace recoverd::linalg::simd {

#if RECOVERD_SIMD_KERNELS_X86

/// Builds the argmax4() tile from `lanes` (≤ 4) consecutive row-major rows
/// of length n: slot j holds column cols[j] of the rows, lane l at
/// tile[4j+l], and lanes past `lanes` read as +0.0. A column that is ±0 in
/// every lane is dropped: its term b(i)·(±0) is ±0 for any finite plane,
/// and adding ±0 leaves every dot sum unchanged, because a sum that starts
/// at +0.0 can never be -0.0 (round-to-nearest gives x + (-x) = +0.0).
/// Returns the number of kept columns (≤ n; `tile` holds 4n doubles,
/// `cols` n entries).
__attribute__((target("avx2"))) inline std::size_t gather_tile4(const double* rows,
                                                                std::size_t lanes,
                                                                std::size_t n,
                                                                double* tile,
                                                                std::size_t* cols) {
  const long long stride = static_cast<long long>(n);
  const __m256i index = _mm256_set_epi64x(3 * stride, 2 * stride, stride, 0);
  const __m256d live = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
      _mm256_set1_epi64x(static_cast<long long>(lanes)), _mm256_set_epi64x(3, 2, 1, 0)));
  const __m256d zero = _mm256_setzero_pd();
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const __m256d v = _mm256_mask_i64gather_pd(zero, rows + i, index, live, 8);
    _mm256_storeu_pd(tile + 4 * m, v);
    cols[m] = i;
    m += _mm256_movemask_pd(_mm256_cmp_pd(v, zero, _CMP_NEQ_UQ)) != 0 ? 1 : 0;
  }
  return m;
}

/// One ascending-plane step of argmax4(): the lanes where `vals` strictly
/// beats `best` take its value and the plane index p.
__attribute__((target("avx2"))) inline void argmax4_take(__m256d vals, std::size_t p,
                                                         __m256d& best, __m256d& win) {
  const __m256d gt = _mm256_cmp_pd(vals, best, _CMP_GT_OQ);
  best = _mm256_blendv_pd(best, vals, gt);
  win = _mm256_blendv_pd(
      win, _mm256_castsi256_pd(_mm256_set1_epi64x(static_cast<long long>(p))), gt);
}

/// Running argmax of four tile lanes over `count` planes: for each lane l,
/// best[l] = max_p Σ_j planes[p][cols[j]]·tile[4j+l] and win[l] = the lowest
/// p attaining it (`count` when no plane beats -∞). `tile` is the
/// interleaved layout gather_tile4() builds from four rows: slot j holds
/// the rows' column cols[j], cols ascending. Each lane's sum accumulates in
/// ascending column order from 0.0 — the term order of linalg::dot over the
/// kept columns — and planes are compared in ascending p with a strict `>`,
/// so lane l reproduces the naive scalar scan's value and lowest-index
/// winner bit for bit. Four planes share each pass over the tile: their
/// independent accumulators hide the add latency a one-plane pass
/// serializes on.
__attribute__((target("avx2"))) inline void argmax4(const double* const* planes,
                                                    std::size_t count, const double* tile,
                                                    const std::size_t* cols, std::size_t m,
                                                    double best[4], std::size_t win[4]) {
  __m256d top = _mm256_set1_pd(-__builtin_inf());
  __m256d arg = _mm256_castsi256_pd(_mm256_set1_epi64x(static_cast<long long>(count)));
  std::size_t p = 0;
  for (; p + 4 <= count; p += 4) {
    const double* a0 = planes[p];
    const double* a1 = planes[p + 1];
    const double* a2 = planes[p + 2];
    const double* a3 = planes[p + 3];
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    for (std::size_t j = 0; j < m; ++j) {
      const __m256d lanes = _mm256_loadu_pd(tile + 4 * j);
      const std::size_t c = cols[j];
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(_mm256_set1_pd(a0[c]), lanes));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(_mm256_set1_pd(a1[c]), lanes));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(_mm256_set1_pd(a2[c]), lanes));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(_mm256_set1_pd(a3[c]), lanes));
    }
    argmax4_take(acc0, p, top, arg);
    argmax4_take(acc1, p + 1, top, arg);
    argmax4_take(acc2, p + 2, top, arg);
    argmax4_take(acc3, p + 3, top, arg);
  }
  for (; p < count; ++p) {
    const double* a = planes[p];
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t j = 0; j < m; ++j) {
      const __m256d lanes = _mm256_loadu_pd(tile + 4 * j);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(a[cols[j]]), lanes));
    }
    argmax4_take(acc, p, top, arg);
  }
  _mm256_storeu_pd(best, top);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(win), _mm256_castpd_si256(arg));
}

/// One vector of likelihood_classify4(): classifies the four likelihoods in
/// `w` (observations o..o+3) and appends the kept ones.
__attribute__((target("avx2"))) inline void classify4(__m256d w, std::size_t o,
                                                      __m256d floor, std::size_t* kept_obs,
                                                      double* kept_gamma, std::size_t& count,
                                                      std::size_t& cut) {
  const __m256d reach = _mm256_cmp_pd(w, _mm256_setzero_pd(), _CMP_NLE_UQ);
  const auto r = static_cast<unsigned>(_mm256_movemask_pd(reach));
  if (r == 0) return;
  auto keep = static_cast<unsigned>(
      _mm256_movemask_pd(_mm256_and_pd(reach, _mm256_cmp_pd(w, floor, _CMP_NLT_UQ))));
  cut += static_cast<std::size_t>(__builtin_popcount(r & ~keep));
  if (keep == 0) return;
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, w);
  for (; keep != 0; keep &= keep - 1) {
    const auto lane = static_cast<std::size_t>(__builtin_ctz(keep));
    kept_obs[count] = o + lane;
    kept_gamma[count] = lanes[lane];
    ++count;
  }
}

/// The successor kernel's dense likelihood pass and floor classification
/// (DESIGN.md §16), four observations per vector. For every o < n:
///
///   γ(o) = 0 + Σ_{j<m} rows[j][o] · vals[j]   (ascending j, multiply then add)
///
/// where rows[j] is the dense q(·|s_j, a) row of the j-th support state and
/// vals[j] = pred(s_j). Each γ(o) is one lane's accumulator, held in a
/// register across the whole support, so every sum keeps the scalar order.
/// Classification uses unordered predicates, so a NaN γ is kept exactly as
/// the scalar `γ <= 0` / `γ < floor` tests keep it: o is reachable when
/// !(γ <= 0), kept when also !(γ < floor), and pruned otherwise. Kept ids
/// go to kept_obs (ascending) and their γ to kept_gamma; returns the kept
/// count and adds the pruned count to `cut`.
__attribute__((target("avx2"))) inline std::size_t likelihood_classify4(
    const double* const* rows, const double* vals, std::size_t m, std::size_t n,
    double floor, std::size_t* kept_obs, double* kept_gamma, std::size_t& cut) {
  const __m256d fl = _mm256_set1_pd(floor);
  std::size_t count = 0;
  std::size_t pruned = 0;  // a local, so it can live in a register
  std::size_t o = 0;
  for (; o + 16 <= n; o += 16) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    for (std::size_t j = 0; j < m; ++j) {
      const double* r = rows[j] + o;
      const __m256d v = _mm256_set1_pd(vals[j]);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(r), v));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(r + 4), v));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(r + 8), v));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(r + 12), v));
    }
    classify4(a0, o, fl, kept_obs, kept_gamma, count, pruned);
    classify4(a1, o + 4, fl, kept_obs, kept_gamma, count, pruned);
    classify4(a2, o + 8, fl, kept_obs, kept_gamma, count, pruned);
    classify4(a3, o + 12, fl, kept_obs, kept_gamma, count, pruned);
  }
  for (; o + 4 <= n; o += 4) {
    __m256d a = _mm256_setzero_pd();
    for (std::size_t j = 0; j < m; ++j) {
      a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_loadu_pd(rows[j] + o),
                                         _mm256_set1_pd(vals[j])));
    }
    classify4(a, o, fl, kept_obs, kept_gamma, count, pruned);
  }
  for (; o < n; ++o) {
    double w = 0.0;
    for (std::size_t j = 0; j < m; ++j) w += rows[j][o] * vals[j];
    if (w <= 0.0) continue;
    if (w < floor) {
      ++pruned;
      continue;
    }
    kept_obs[count] = o;
    kept_gamma[count] = w;
    ++count;
  }
  cut += pruned;
  return count;
}

/// out[i] = a[i] · b[i] — elementwise, no reduction (posterior mass rows).
__attribute__((target("avx2"))) inline void multiply_elementwise(double* out,
                                                                 const double* a,
                                                                 const double* b,
                                                                 std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i,
                     _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

/// v[i] /= divisor — elementwise, correctly rounded per element exactly as
/// the scalar division (Bayes-update normalisation).
__attribute__((target("avx2"))) inline void divide_in_place(double* v, double divisor,
                                                            std::size_t n) {
  const __m256d vd = _mm256_set1_pd(divisor);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(v + i, _mm256_div_pd(_mm256_loadu_pd(v + i), vd));
  }
  for (; i < n; ++i) v[i] /= divisor;
}

/// AVX-512 widening of gather_tile4(): up to eight rows, slot j at
/// tile[8j] (`tile` holds 8n doubles), the same all-zero column drop.
RECOVERD_AVX512_TARGET inline std::size_t gather_tile8(const double* rows, std::size_t lanes,
                                                       std::size_t n, double* tile,
                                                       std::size_t* cols) {
  const long long stride = static_cast<long long>(n);
  const __m512i index = _mm512_set_epi64(7 * stride, 6 * stride, 5 * stride, 4 * stride,
                                         3 * stride, 2 * stride, stride, 0);
  const __mmask8 live = static_cast<__mmask8>((1u << lanes) - 1u);
  const __m512d zero = _mm512_setzero_pd();
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const __m512d v = _mm512_mask_i64gather_pd(zero, live, index, rows + i, 8);
    _mm512_storeu_pd(tile + 8 * m, v);
    cols[m] = i;
    m += _mm512_cmp_pd_mask(v, zero, _CMP_NEQ_UQ) != 0 ? 1 : 0;
  }
  return m;
}

/// One ascending-plane step of argmax8(), as argmax4_take().
RECOVERD_AVX512_TARGET inline void argmax8_take(__m512d vals, std::size_t p, __m512d& best,
                                                __m512i& win) {
  const __mmask8 gt = _mm512_cmp_pd_mask(vals, best, _CMP_GT_OQ);
  best = _mm512_mask_blend_pd(gt, best, vals);
  win = _mm512_mask_blend_epi64(gt, win, _mm512_set1_epi64(static_cast<long long>(p)));
}

/// AVX-512 widening of argmax4(): eight tile lanes (slot j at tile[8j]),
/// the same per-lane term order, ascending-plane strict `>` and four planes
/// per pass.
RECOVERD_AVX512_TARGET inline void argmax8(const double* const* planes, std::size_t count,
                                           const double* tile, const std::size_t* cols,
                                           std::size_t m, double best[8],
                                           std::size_t win[8]) {
  RECOVERD_FP_NO_CONTRACT
  __m512d top = _mm512_set1_pd(-__builtin_inf());
  __m512i arg = _mm512_set1_epi64(static_cast<long long>(count));
  std::size_t p = 0;
  for (; p + 4 <= count; p += 4) {
    const double* a0 = planes[p];
    const double* a1 = planes[p + 1];
    const double* a2 = planes[p + 2];
    const double* a3 = planes[p + 3];
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    __m512d acc2 = _mm512_setzero_pd();
    __m512d acc3 = _mm512_setzero_pd();
    for (std::size_t j = 0; j < m; ++j) {
      const __m512d lanes = _mm512_loadu_pd(tile + 8 * j);
      const std::size_t c = cols[j];
      acc0 = _mm512_add_pd(acc0, _mm512_mul_pd(_mm512_set1_pd(a0[c]), lanes));
      acc1 = _mm512_add_pd(acc1, _mm512_mul_pd(_mm512_set1_pd(a1[c]), lanes));
      acc2 = _mm512_add_pd(acc2, _mm512_mul_pd(_mm512_set1_pd(a2[c]), lanes));
      acc3 = _mm512_add_pd(acc3, _mm512_mul_pd(_mm512_set1_pd(a3[c]), lanes));
    }
    argmax8_take(acc0, p, top, arg);
    argmax8_take(acc1, p + 1, top, arg);
    argmax8_take(acc2, p + 2, top, arg);
    argmax8_take(acc3, p + 3, top, arg);
  }
  for (; p < count; ++p) {
    const double* a = planes[p];
    __m512d acc = _mm512_setzero_pd();
    for (std::size_t j = 0; j < m; ++j) {
      const __m512d lanes = _mm512_loadu_pd(tile + 8 * j);
      acc = _mm512_add_pd(acc, _mm512_mul_pd(_mm512_set1_pd(a[cols[j]]), lanes));
    }
    argmax8_take(acc, p, top, arg);
  }
  _mm512_storeu_pd(best, top);
  _mm512_storeu_si512(win, arg);
}

/// AVX-512 support gather of the successor kernel: appends, in ascending s,
/// pred(s) and the address of q_rows's row s (n doubles each) for every
/// state with pred(s) ≠ ±0 — an unordered compare, so NaN and ±inf stay in.
/// Returns the count m. `rows` and `vals` need room for num_states + 8
/// entries: each vector's compressed lanes are stored whole.
RECOVERD_AVX512_TARGET inline std::size_t gather_support8(const double* pred,
                                                          std::size_t num_states,
                                                          const double* q_rows, std::size_t n,
                                                          const double** rows, double* vals) {
  const __m512i iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i step = _mm512_set1_epi64(static_cast<long long>(n * sizeof(double)));
  const __m512i base = _mm512_set1_epi64(reinterpret_cast<long long>(q_rows));
  std::size_t m = 0;
  for (std::size_t s = 0; s < num_states; s += 8) {
    const __mmask8 live = num_states - s >= 8
                              ? static_cast<__mmask8>(0xFF)
                              : static_cast<__mmask8>((1u << (num_states - s)) - 1u);
    const __m512d p = _mm512_maskz_loadu_pd(live, pred + s);
    const __mmask8 nz = _mm512_mask_cmp_pd_mask(live, p, _mm512_setzero_pd(), _CMP_NEQ_UQ);
    const __m512i idx = _mm512_add_epi64(iota, _mm512_set1_epi64(static_cast<long long>(s)));
    const __m512i addr = _mm512_add_epi64(
        base, _mm512_maskz_mul_epu32(static_cast<__mmask8>(0xFF), idx, step));
    _mm512_storeu_pd(vals + m, _mm512_maskz_compress_pd(nz, p));
    _mm512_storeu_si512(rows + m, _mm512_maskz_compress_epi64(nz, addr));
    m += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(nz)));
  }
  return m;
}

/// One vector of likelihood_classify8(): classifies the likelihoods of the
/// `live` lanes of `w` (observation ids in `ids`) and appends the kept ones
/// with two compressed full-vector stores.
RECOVERD_AVX512_TARGET inline void classify8(__m512d w, __m512i ids, __mmask8 live,
                                             __m512d floor, std::size_t* kept_obs,
                                             double* kept_gamma, std::size_t& count,
                                             std::size_t& pruned) {
  const __mmask8 reach = _mm512_mask_cmp_pd_mask(live, w, _mm512_setzero_pd(), _CMP_NLE_UQ);
  const __mmask8 keep = _mm512_mask_cmp_pd_mask(reach, w, floor, _CMP_NLT_UQ);
  pruned += static_cast<std::size_t>(
      __builtin_popcount(static_cast<unsigned>(reach) & ~static_cast<unsigned>(keep)));
  _mm512_storeu_pd(kept_gamma + count, _mm512_maskz_compress_pd(keep, w));
  _mm512_storeu_si512(kept_obs + count, _mm512_maskz_compress_epi64(keep, ids));
  count += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(keep)));
}

/// AVX-512 widening of likelihood_classify4(): eight observations per
/// vector, the same per-observation term order, and the same unordered
/// classification (mask compares, so a NaN γ is kept). Each vector's kept
/// lanes are stored compressed but whole, so kept_obs and kept_gamma need
/// room for eight entries past the kept count.
RECOVERD_AVX512_TARGET inline std::size_t likelihood_classify8(
    const double* const* rows, const double* vals, std::size_t m, std::size_t n,
    double floor, std::size_t* kept_obs, double* kept_gamma, std::size_t& cut) {
  RECOVERD_FP_NO_CONTRACT
  const __m512d fl = _mm512_set1_pd(floor);
  const __m512i iota = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  std::size_t count = 0;
  std::size_t pruned = 0;  // a local, so it can live in a register
  std::size_t o = 0;
  for (; o + 32 <= n; o += 32) {
    __m512d a0 = _mm512_setzero_pd();
    __m512d a1 = _mm512_setzero_pd();
    __m512d a2 = _mm512_setzero_pd();
    __m512d a3 = _mm512_setzero_pd();
    for (std::size_t j = 0; j < m; ++j) {
      const double* r = rows[j] + o;
      const __m512d v = _mm512_set1_pd(vals[j]);
      a0 = _mm512_add_pd(a0, _mm512_mul_pd(_mm512_loadu_pd(r), v));
      a1 = _mm512_add_pd(a1, _mm512_mul_pd(_mm512_loadu_pd(r + 8), v));
      a2 = _mm512_add_pd(a2, _mm512_mul_pd(_mm512_loadu_pd(r + 16), v));
      a3 = _mm512_add_pd(a3, _mm512_mul_pd(_mm512_loadu_pd(r + 24), v));
    }
    const __m512i base = _mm512_add_epi64(iota, _mm512_set1_epi64(static_cast<long long>(o)));
    classify8(a0, base, 0xFF, fl, kept_obs, kept_gamma, count, pruned);
    classify8(a1, _mm512_add_epi64(base, _mm512_set1_epi64(8)), 0xFF, fl, kept_obs,
              kept_gamma, count, pruned);
    classify8(a2, _mm512_add_epi64(base, _mm512_set1_epi64(16)), 0xFF, fl, kept_obs,
              kept_gamma, count, pruned);
    classify8(a3, _mm512_add_epi64(base, _mm512_set1_epi64(24)), 0xFF, fl, kept_obs,
              kept_gamma, count, pruned);
  }
  for (; o < n; o += 8) {
    const __mmask8 live =
        n - o >= 8 ? static_cast<__mmask8>(0xFF) : static_cast<__mmask8>((1u << (n - o)) - 1u);
    __m512d a = _mm512_setzero_pd();
    for (std::size_t j = 0; j < m; ++j) {
      a = _mm512_add_pd(a, _mm512_mul_pd(_mm512_maskz_loadu_pd(live, rows[j] + o),
                                         _mm512_set1_pd(vals[j])));
    }
    classify8(a, _mm512_add_epi64(iota, _mm512_set1_epi64(static_cast<long long>(o))), live,
              fl, kept_obs, kept_gamma, count, pruned);
  }
  cut += pruned;
  return count;
}

/// AVX-512 widening of multiply_elementwise(): out[i] = a[i] · b[i], the
/// tail through masked loads and stores.
RECOVERD_AVX512_TARGET inline void multiply_elementwise_avx512(double* out,
                                                               const double* a,
                                                               const double* b,
                                                               std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(out + i,
                     _mm512_mul_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i)));
  }
  if (i < n) {
    const auto live = static_cast<__mmask8>((1u << (n - i)) - 1u);
    _mm512_mask_storeu_pd(out + i, live,
                          _mm512_mul_pd(_mm512_maskz_loadu_pd(live, a + i),
                                        _mm512_maskz_loadu_pd(live, b + i)));
  }
}

/// AVX-512 widening of divide_in_place(): v[i] /= divisor.
RECOVERD_AVX512_TARGET inline void divide_in_place_avx512(double* v, double divisor,
                                                          std::size_t n) {
  const __m512d vd = _mm512_set1_pd(divisor);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm512_storeu_pd(v + i, _mm512_div_pd(_mm512_loadu_pd(v + i), vd));
  }
  for (; i < n; ++i) v[i] /= divisor;
}

#endif  // RECOVERD_SIMD_KERNELS_X86

}  // namespace recoverd::linalg::simd
