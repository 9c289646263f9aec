#include "pomdp/belief.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/simd_kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace recoverd {

namespace {

// Grows `v` to at least `n` elements, doubling, and never shrinks it: the
// frontier arrays keep their high-water size, so a warm kernel neither
// allocates nor re-zeroes them.
template <class T>
void ensure_size(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(std::max(n, 2 * v.size()));
}

// The floor classification every tier reproduces: o is unreachable when
// γ(o) <= 0, pruned when γ(o) < floor, kept otherwise — so a NaN γ, for
// which both tests are false, is kept.
std::size_t classify(const double* w, std::size_t n, double floor, ObsId* kept_obs,
                     double* kept_gamma, std::size_t& cut) {
  std::size_t count = 0;
  std::size_t pruned = 0;
  for (ObsId o = 0; o < n; ++o) {
    if (w[o] <= 0.0) continue;
    if (w[o] < floor) {
      ++pruned;  // reachable branch dropped by the floor
      continue;
    }
    kept_obs[count] = o;
    kept_gamma[count] = w[o];
    ++count;
  }
  cut += pruned;
  return count;
}

// Scalar reference of linalg::simd::likelihood_classify4/8: γ(o) = 0 +
// Σ_j rows[j][o]·vals[j] in ascending j, all observations advancing
// together through the support, then classify().
std::size_t likelihood_classify(const double* const* rows, const double* vals,
                                std::size_t m, std::size_t n, double floor, double* w,
                                ObsId* kept_obs, double* kept_gamma, std::size_t& cut) {
  std::fill(w, w + n, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    const double* row = rows[j];
    const double v = vals[j];
    for (std::size_t o = 0; o < n; ++o) w[o] += row[o] * v;
  }
  return classify(w, n, floor, kept_obs, kept_gamma, cut);
}

}  // namespace

Belief Belief::uniform(std::size_t n) {
  RD_EXPECTS(n > 0, "Belief::uniform: dimension must be positive");
  return Belief(std::vector<double>(n, 1.0 / static_cast<double>(n)));
}

Belief Belief::uniform_over(std::size_t n, std::span<const StateId> support) {
  RD_EXPECTS(!support.empty(), "Belief::uniform_over: support must be non-empty");
  std::vector<double> pi(n, 0.0);
  for (StateId s : support) {
    RD_EXPECTS(s < n, "Belief::uniform_over: support state out of range");
    pi[s] = 1.0;
  }
  return Belief(std::move(pi));
}

Belief Belief::point(std::size_t n, StateId s) {
  RD_EXPECTS(s < n, "Belief::point: state out of range");
  std::vector<double> pi(n, 0.0);
  pi[s] = 1.0;
  return Belief(std::move(pi));
}

Belief::Belief(std::vector<double> probabilities) : pi_(std::move(probabilities)) {
  RD_EXPECTS(!pi_.empty(), "Belief: distribution must be non-empty");
  for (double v : pi_) {
    RD_EXPECTS(std::isfinite(v) && v >= 0.0, "Belief: entries must be finite and >= 0");
  }
  linalg::normalize_probability(pi_);
}

Belief Belief::from_normalized(std::span<const double> probabilities) {
  RD_EXPECTS(!probabilities.empty(),
             "Belief::from_normalized: distribution must be non-empty");
  Belief b;
  b.pi_.assign(probabilities.begin(), probabilities.end());
  return b;
}

void Belief::assign_normalized(std::span<const double> probabilities) {
  RD_EXPECTS(!probabilities.empty(),
             "Belief::assign_normalized: distribution must be non-empty");
  pi_.assign(probabilities.begin(), probabilities.end());
}

StateId Belief::most_likely() const {
  return static_cast<StateId>(std::max_element(pi_.begin(), pi_.end()) - pi_.begin());
}

double Belief::entropy() const {
  double h = 0.0;
  for (double p : pi_) {
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

double Belief::distance(const Belief& other) const {
  return linalg::max_abs_diff(pi_, other.pi_);
}

std::vector<double> predict_state_distribution(const Pomdp& pomdp, const Belief& belief,
                                               ActionId action) {
  std::vector<double> pred(pomdp.num_states(), 0.0);
  predict_state_distribution_into(pomdp, belief.probabilities(), action, pred);
  return pred;
}

void predict_state_distribution_into(const Pomdp& pomdp, std::span<const double> belief,
                                     ActionId action, std::span<double> out) {
  RD_EXPECTS(belief.size() == pomdp.num_states(),
             "predict_state_distribution: belief dimension mismatch");
  RD_EXPECTS(action < pomdp.num_actions(),
             "predict_state_distribution: action out of range");
  // pred = πᵀ P(a): propagate belief mass along transition rows.
  pomdp.mdp().transition(action).multiply_transpose_into(belief, out);
}

double observation_likelihood(const Pomdp& pomdp, const Belief& belief, ActionId action,
                              ObsId obs) {
  RD_EXPECTS(obs < pomdp.num_observations(),
             "observation_likelihood: observation out of range");
  const auto pred = predict_state_distribution(pomdp, belief, action);
  const auto& q = pomdp.observation(action);
  double gamma = 0.0;
  for (StateId s = 0; s < pred.size(); ++s) {
    if (pred[s] > 0.0) gamma += q.at(s, obs) * pred[s];
  }
  return gamma;
}

std::optional<BeliefUpdate> update_belief(const Pomdp& pomdp, const Belief& belief,
                                          ActionId action, ObsId obs) {
  RD_EXPECTS(obs < pomdp.num_observations(), "update_belief: observation out of range");
  const auto pred = predict_state_distribution(pomdp, belief, action);
  const auto& q = pomdp.observation(action);
  std::vector<double> unnormalized(pred.size(), 0.0);
  double gamma = 0.0;
  for (StateId s = 0; s < pred.size(); ++s) {
    if (pred[s] <= 0.0) continue;
    const double w = q.at(s, obs) * pred[s];
    unnormalized[s] = w;
    gamma += w;
  }
  if (gamma <= 0.0) return std::nullopt;
  for (double& v : unnormalized) v /= gamma;
  return BeliefUpdate{Belief(std::move(unnormalized)), gamma};
}

std::size_t expand_successors_batch(const Pomdp& pomdp, const double* beliefs,
                                    std::size_t lanes, std::size_t stride,
                                    ActionId action, double min_probability,
                                    SuccessorFrontier& out) {
  const std::size_t num_states = pomdp.num_states();
  const std::size_t num_obs = pomdp.num_observations();
  RD_EXPECTS(stride >= num_states,
             "expand_successors_batch: row stride below the state count");
  RD_EXPECTS(action < pomdp.num_actions(), "expand_successors_batch: action out of range");
  const linalg::SparseMatrix& pt = pomdp.transition_transpose(action);
  const std::span<const std::size_t> pt_rows = pt.row_offsets();
  const linalg::SparseEntry* pt_entries = pt.entry_array().data();
  // Dense monitor models carry q(·|s,a) rows (likelihood pass) and q(o|·,a)
  // rows (posterior rows) contiguous; the others keep the CSR scans.
  const std::span<const double> q_rows = pomdp.observation_dense(action);
  const std::span<const double> qt_rows = pomdp.observation_transpose_dense(action);
  const linalg::SparseMatrix& q = pomdp.observation(action);
  const linalg::SparseMatrix& qt = pomdp.observation_transpose(action);
  const bool dense = !qt_rows.empty();
  const simd::Mode mode = simd::active_mode();

  out.offsets.resize(lanes + 1);
  out.offsets[0] = 0;
  out.pruned.resize(lanes);
  out.pred.resize(num_states);
  out.support_rows.resize(num_states + 8);
  out.support_pred.resize(num_states + 8);
  out.weight.resize(num_obs);
  const double* pred = out.pred.data();
  std::size_t count = 0;
  std::size_t cut = 0;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    // pred = πᵀP(a): each pred(t) one dot over Pᵀ's row t, from 0.0, in
    // ascending source state — the sums SparseMatrix::
    // multiply_transpose_into scatters, in its term order. Its skip of
    // π(s) = ±0 rows is a no-op here: their terms p·(±0) are ±0 for P's
    // finite entries, and adding ±0 changes no sum that started at +0.0,
    // NaN and ±inf included.
    const double* belief = beliefs + lane * stride;
    for (StateId t = 0; t < num_states; ++t) {
      double acc = 0.0;
      for (std::size_t k = pt_rows[t]; k < pt_rows[t + 1]; ++k) {
        acc += pt_entries[k].value * belief[pt_entries[k].col];
      }
      out.pred[t] = acc;
    }
    const std::size_t cut_before = cut;
    // Room for every observation, plus the whole-vector slack of the
    // compressed stores.
    ensure_size(out.obs, count + num_obs + 8);
    ensure_size(out.gamma, count + num_obs + 8);
    ObsId* kept_obs = out.obs.data() + count;
    double* kept_gamma = out.gamma.data() + count;
    std::size_t kept = 0;
    if (dense) {
      // Only states with pred(s) ≠ ±0 enter the sums: a skipped term
      // q·(±0) is ±0 for a finite q, and adding ±0 leaves a sum that
      // started at +0.0 unchanged. NaN and ±inf compare unequal to zero and
      // stay in.
      std::size_t m = 0;
#if RECOVERD_SIMD_KERNELS_X86
      if (mode == simd::Mode::Avx512) {
        m = linalg::simd::gather_support8(pred, num_states, q_rows.data(), num_obs,
                                          out.support_rows.data(), out.support_pred.data());
      } else
#endif
      {
        for (StateId s = 0; s < num_states; ++s) {
          // Branch-free gather: every state is written, only the support
          // advances m (the support varies lane to lane, so a branch here
          // mispredicts).
          out.support_rows[m] = q_rows.data() + s * num_obs;
          out.support_pred[m] = pred[s];
          m += pred[s] != 0.0 ? 1 : 0;
        }
      }
      const double* const* rows = out.support_rows.data();
      const double* vals = out.support_pred.data();
#if RECOVERD_SIMD_KERNELS_X86
      if (mode == simd::Mode::Avx512) {
        kept = linalg::simd::likelihood_classify8(rows, vals, m, num_obs, min_probability,
                                                  kept_obs, kept_gamma, cut);
      } else if (mode == simd::Mode::Avx2) {
        kept = linalg::simd::likelihood_classify4(rows, vals, m, num_obs, min_probability,
                                                  kept_obs, kept_gamma, cut);
      } else
#endif
      {
        kept = likelihood_classify(rows, vals, m, num_obs, min_probability,
                                   out.weight.data(), kept_obs, kept_gamma, cut);
      }
    } else {
      // The same ascending-state sums, scattered through q's CSR rows.
      double* w = out.weight.data();
      std::fill(w, w + num_obs, 0.0);
      for (StateId s = 0; s < num_states; ++s) {
        const double ps = pred[s];
        if (ps == 0.0) continue;
        for (const auto& e : q.row(s)) w[e.col] += e.value * ps;
      }
      kept = classify(w, num_obs, min_probability, kept_obs, kept_gamma, cut);
    }

    ensure_size(out.posteriors, (count + kept) * num_states);
    double* post = out.posteriors.data() + count * num_states;
    for (std::size_t i = 0; i < kept; ++i) {
      double* row_out = post + i * num_states;
      if (!dense) {
        std::fill(row_out, row_out + num_states, 0.0);
        for (const auto& e : qt.row(kept_obs[i])) row_out[e.col] = e.value * pred[e.col];
        continue;
      }
      const double* row = qt_rows.data() + kept_obs[i] * num_states;
#if RECOVERD_SIMD_KERNELS_X86
      if (mode == simd::Mode::Avx512) {
        linalg::simd::multiply_elementwise_avx512(row_out, row, pred, num_states);
        continue;
      }
      if (mode == simd::Mode::Avx2) {
        linalg::simd::multiply_elementwise(row_out, row, pred, num_states);
        continue;
      }
#endif
      for (std::size_t s = 0; s < num_states; ++s) row_out[s] = row[s] * pred[s];
    }
    count += kept;
    out.offsets[lane + 1] = count;
    out.pruned[lane] = cut - cut_before;
  }

  static obs::Counter& pruned_counter =
      obs::metrics().counter("pomdp.belief.branches_pruned");
  static obs::Counter& kept_counter =
      obs::metrics().counter("pomdp.belief.branches_kept");
  if (cut > 0) pruned_counter.add(cut);
  if (count > 0) kept_counter.add(count);
  return count;
}

std::vector<ObservationBranch> belief_successors(const Pomdp& pomdp, const Belief& belief,
                                                 ActionId action,
                                                 double min_probability) {
  const std::size_t num_states = pomdp.num_states();
  RD_EXPECTS(belief.size() == num_states, "belief_successors: belief dimension mismatch");
  SuccessorFrontier frontier;
  const std::size_t num_kept = expand_successors_batch(
      pomdp, belief.probabilities().data(), 1, num_states, action, min_probability, frontier);

  std::vector<ObservationBranch> branches;
  branches.reserve(num_kept);
  for (std::size_t i = 0; i < num_kept; ++i) {
    const auto row = frontier.posteriors.begin() + static_cast<std::ptrdiff_t>(i * num_states);
    std::vector<double> unnormalized(row, row + static_cast<std::ptrdiff_t>(num_states));
    branches.push_back({frontier.obs[i], frontier.gamma[i], Belief(std::move(unnormalized))});
  }
  return branches;
}

}  // namespace recoverd
