// Frozen copy of the per-lane successor expansion that predates the fused
// kernel in src/pomdp/belief.cpp (DESIGN.md §16). The successor parity
// suite checks expand_successors_batch() bit-for-bit against this
// reference under every SIMD tier, so it stays a straight transcription:
//   - pred = πᵀP(a) through SparseMatrix::multiply_transpose_into;
//   - γ(o) over every state: the dense mirror's rank-1 passes in ascending
//     state order when the model carries one, else one CSR dot per
//     observation row, from 0.0, multiply then add;
//   - an observation is unreachable when γ(o) <= 0, pruned when γ(o) is
//     below the floor, kept otherwise (so a NaN γ is kept);
//   - kept posterior rows are q(o|s)·pred(s), unnormalised: every state
//     through the dense mirror, else only the CSR entries of row o on a
//     zeroed row;
//   - branches_kept / branches_pruned bumped per lane.
// reference_expand_successors_batch() is the old batch loop: one lane at a
// time, appended lane-major. Do not "modernise" this file; its value is
// that it never changes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "linalg/simd_kernels.hpp"
#include "obs/metrics.hpp"
#include "pomdp/belief.hpp"
#include "pomdp/pomdp.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace recoverd::testref {

inline constexpr std::size_t kNoBranch = static_cast<std::size_t>(-1);

namespace detail {

inline bool use_avx2() {
#if RECOVERD_SIMD_KERNELS_X86
  return simd::active_mode() == simd::Mode::Avx2;
#else
  return false;
#endif
}

inline bool use_avx512() {
#if RECOVERD_SIMD_KERNELS_X86
  return simd::active_mode() == simd::Mode::Avx512;
#else
  return false;
#endif
}

inline void prefetch_row(std::span<const linalg::SparseEntry> row) {
#if defined(__GNUC__) || defined(__clang__)
  if (!row.empty()) __builtin_prefetch(row.data());
#else
  (void)row;
#endif
}

#if RECOVERD_SIMD_KERNELS_X86
// The rank-1 likelihood kernels the old body dispatched to, as they stood
// in src/linalg/simd_kernels.hpp: w[o] += row[o] · scale, each w[o] an
// independent accumulator.
__attribute__((target("avx2"))) inline void accumulate_scaled(double* w, const double* row,
                                                              double scale,
                                                              std::size_t n) {
  const __m256d vs = _mm256_set1_pd(scale);
  std::size_t o = 0;
  for (; o + 4 <= n; o += 4) {
    const __m256d cur = _mm256_loadu_pd(w + o);
    const __m256d term = _mm256_mul_pd(_mm256_loadu_pd(row + o), vs);
    _mm256_storeu_pd(w + o, _mm256_add_pd(cur, term));
  }
  for (; o < n; ++o) w[o] += row[o] * scale;
}

RECOVERD_AVX512_TARGET inline void accumulate_scaled_avx512(double* w,
                                                            const double* row,
                                                            double scale,
                                                            std::size_t n) {
  RECOVERD_FP_NO_CONTRACT
  const __m512d vs = _mm512_set1_pd(scale);
  std::size_t o = 0;
  for (; o + 8 <= n; o += 8) {
    const __m512d cur = _mm512_loadu_pd(w + o);
    const __m512d term = _mm512_mul_pd(_mm512_loadu_pd(row + o), vs);
    _mm512_storeu_pd(w + o, _mm512_add_pd(cur, term));
  }
  for (; o < n; ++o) w[o] += row[o] * scale;
}
#endif

}  // namespace detail

inline std::size_t reference_expand_successors_into(
    const Pomdp& pomdp, std::span<const double> belief, ActionId action,
    double min_probability, std::vector<double>& pred, std::vector<double>& weight,
    std::vector<std::size_t>& branch_of, std::vector<ObsId>& kept,
    std::vector<double>& posteriors) {
  const std::size_t num_obs = pomdp.num_observations();
  const std::size_t num_states = pomdp.num_states();
  pred.resize(num_states);
  predict_state_distribution_into(pomdp, belief, action, pred);
  const auto& qt = pomdp.observation_transpose(action);
  const std::span<const double> qd = pomdp.observation_transpose_dense(action);
  weight.resize(num_obs);
  if (!qd.empty()) {
    const std::span<const double> q_rows = pomdp.observation_dense(action);
    double* w = weight.data();
    std::fill(w, w + num_obs, 0.0);
#if RECOVERD_SIMD_KERNELS_X86
    if (detail::use_avx512()) {
      for (std::size_t s = 0; s < num_states; ++s) {
        detail::accumulate_scaled_avx512(w, q_rows.data() + s * num_obs, pred[s], num_obs);
      }
    } else if (detail::use_avx2()) {
      for (std::size_t s = 0; s < num_states; ++s) {
        detail::accumulate_scaled(w, q_rows.data() + s * num_obs, pred[s], num_obs);
      }
    } else {
      for (std::size_t s = 0; s < num_states; ++s) {
        const double ps = pred[s];
        const double* row = q_rows.data() + s * num_obs;
        for (std::size_t o = 0; o < num_obs; ++o) w[o] += row[o] * ps;
      }
    }
#else
    for (std::size_t s = 0; s < num_states; ++s) {
      const double ps = pred[s];
      const double* row = q_rows.data() + s * num_obs;
      for (std::size_t o = 0; o < num_obs; ++o) w[o] += row[o] * ps;
    }
#endif
  } else {
    for (ObsId o = 0; o < num_obs; ++o) {
      if (o + 1 < num_obs) detail::prefetch_row(qt.row(o + 1));
      double gamma = 0.0;
      for (const auto& e : qt.row(o)) gamma += e.value * pred[e.col];
      weight[o] = gamma;
    }
  }

  branch_of.assign(num_obs, kNoBranch);
  kept.clear();
  std::size_t pruned = 0;
  for (ObsId o = 0; o < num_obs; ++o) {
    if (weight[o] <= 0.0) continue;
    if (weight[o] < min_probability) {
      ++pruned;  // reachable branch dropped by the floor
      continue;
    }
    branch_of[o] = kept.size();
    kept.push_back(o);
  }
  static obs::Counter& pruned_counter =
      obs::metrics().counter("pomdp.belief.branches_pruned");
  static obs::Counter& kept_counter =
      obs::metrics().counter("pomdp.belief.branches_kept");
  if (pruned > 0) pruned_counter.add(pruned);
  kept_counter.add(kept.size());

  posteriors.assign(kept.size() * num_states, 0.0);
  if (!qd.empty()) {
#if RECOVERD_SIMD_KERNELS_X86
    if (detail::use_avx512()) {
      for (std::size_t i = 0; i < kept.size(); ++i) {
        linalg::simd::multiply_elementwise_avx512(posteriors.data() + i * num_states,
                                                  qd.data() + kept[i] * num_states,
                                                  pred.data(), num_states);
      }
    } else if (detail::use_avx2()) {
      for (std::size_t i = 0; i < kept.size(); ++i) {
        linalg::simd::multiply_elementwise(posteriors.data() + i * num_states,
                                           qd.data() + kept[i] * num_states, pred.data(),
                                           num_states);
      }
    } else {
      for (std::size_t i = 0; i < kept.size(); ++i) {
        double* row_out = posteriors.data() + i * num_states;
        const double* row = qd.data() + kept[i] * num_states;
        for (std::size_t s = 0; s < num_states; ++s) row_out[s] = row[s] * pred[s];
      }
    }
#else
    for (std::size_t i = 0; i < kept.size(); ++i) {
      double* row_out = posteriors.data() + i * num_states;
      const double* row = qd.data() + kept[i] * num_states;
      for (std::size_t s = 0; s < num_states; ++s) row_out[s] = row[s] * pred[s];
    }
#endif
  } else {
    for (std::size_t i = 0; i < kept.size(); ++i) {
      if (i + 1 < kept.size()) detail::prefetch_row(qt.row(kept[i + 1]));
      double* row_out = posteriors.data() + i * num_states;
      for (const auto& e : qt.row(kept[i])) row_out[e.col] = e.value * pred[e.col];
    }
  }
  return kept.size();
}

/// The old lane-major frontier: lane l's kept branches at
/// [offsets[l], offsets[l+1]) of obs / gamma and the matching rows of
/// posteriors (exactly sized).
struct ReferenceFrontier {
  std::vector<std::size_t> offsets;
  std::vector<ObsId> obs;
  std::vector<double> gamma;
  std::vector<double> posteriors;
};

inline ReferenceFrontier reference_expand_successors_batch(const Pomdp& pomdp,
                                                           const double* beliefs,
                                                           std::size_t lanes,
                                                           std::size_t stride,
                                                           ActionId action,
                                                           double min_probability) {
  const std::size_t num_states = pomdp.num_states();
  ReferenceFrontier out;
  std::vector<double> pred, weight, row_scratch;
  std::vector<std::size_t> branch_of;
  std::vector<ObsId> kept;
  out.offsets.push_back(0);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const std::span<const double> belief{beliefs + lane * stride, num_states};
    const std::size_t num_kept =
        reference_expand_successors_into(pomdp, belief, action, min_probability, pred,
                                         weight, branch_of, kept, row_scratch);
    for (std::size_t i = 0; i < num_kept; ++i) {
      out.obs.push_back(kept[i]);
      out.gamma.push_back(weight[kept[i]]);
    }
    out.posteriors.insert(out.posteriors.end(), row_scratch.begin(),
                          row_scratch.begin() +
                              static_cast<std::ptrdiff_t>(num_kept * num_states));
    out.offsets.push_back(out.obs.size());
  }
  return out;
}

}  // namespace recoverd::testref
