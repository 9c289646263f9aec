// Belief states over the POMDP state space and the Bayes update of Eq. 3/4.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "pomdp/pomdp.hpp"
#include "pomdp/types.hpp"

namespace recoverd {

/// A probability distribution π over states. Always normalised (sum 1).
class Belief {
 public:
  /// Uniform belief over all `n` states.
  static Belief uniform(std::size_t n);

  /// Uniform belief over a subset of states (e.g. "all faults equally
  /// likely" excludes the null state — §4 of the paper).
  static Belief uniform_over(std::size_t n, std::span<const StateId> support);

  /// Point-mass belief at state s.
  static Belief point(std::size_t n, StateId s);

  /// From an explicit distribution; normalised on construction.
  /// Precondition: non-negative entries with a positive sum.
  explicit Belief(std::vector<double> probabilities);

  /// Trusted construction from an already-normalised distribution. The
  /// entries are copied verbatim — no renormalisation — so the stored
  /// probabilities are bit-identical to the input. Used by the expansion
  /// engine's compatibility wrappers, where a second normalisation would
  /// perturb the low-order bits. Precondition: `probabilities` sums to 1
  /// (up to rounding); not re-checked beyond being non-empty.
  static Belief from_normalized(std::span<const double> probabilities);

  /// In-place variant of from_normalized(): replaces the stored distribution
  /// with a verbatim copy, reusing this belief's allocation. The expansion
  /// wrappers call a type-erased leaf with one reused Belief per tree — at
  /// hundreds of thousands of leaves per decision the per-leaf heap
  /// allocation of from_normalized() is the dominant wrapper cost.
  void assign_normalized(std::span<const double> probabilities);

  std::size_t size() const { return pi_.size(); }
  double operator[](StateId s) const { return pi_[s]; }
  std::span<const double> probabilities() const { return pi_; }

  /// State with the highest probability (ties break to the lowest id).
  StateId most_likely() const;

  /// Shannon entropy in nats (0 for point masses).
  double entropy() const;

  /// Max-norm distance to another belief of the same dimension.
  double distance(const Belief& other) const;

 private:
  Belief() = default;  // for from_normalized() only — pi_ filled in verbatim
  std::vector<double> pi_;
};

/// Result of conditioning a belief on (action, observation).
struct BeliefUpdate {
  Belief next;        ///< π^{π,a,o} of Eq. 4
  double likelihood;  ///< γ^{π,a}(o) of Eq. 3
};

/// Predicted (pre-observation) state distribution after action a:
/// pred(s) = Σ_{s'} p(s|s', a) π(s').
std::vector<double> predict_state_distribution(const Pomdp& pomdp, const Belief& belief,
                                               ActionId action);

/// Allocation-free variant: writes pred into caller-owned storage of size
/// |S|, overwriting it. Bit-identical arithmetic to
/// predict_state_distribution().
void predict_state_distribution_into(const Pomdp& pomdp, std::span<const double> belief,
                                     ActionId action, std::span<double> out);

/// SoA successor frontier of a batch of beliefs under one action — the
/// unit the deep-batch pipeline (DESIGN.md §16) expands per tree level, and
/// the one-lane unit of the serial walk. Branches are stored lane-major:
/// lane l's kept branches occupy positions [offsets[l], offsets[l+1]) of
/// `obs`/`gamma` and the matching row-major |S|-rows of `posteriors`, in
/// ascending ObsId. The arrays keep their high-water size across calls, so
/// only the first branches() entries are this call's; the rest is stale
/// scratch.
struct SuccessorFrontier {
  std::vector<std::size_t> offsets;  ///< lanes + 1 prefix sums
  std::vector<std::size_t> pruned;   ///< per lane: reachable branches below the floor
  std::vector<ObsId> obs;            ///< kept observation ids
  std::vector<double> gamma;         ///< γ^{π,a}(o) per kept branch
  std::vector<double> posteriors;    ///< unnormalised posterior rows (|S| each)

  std::size_t branches() const { return offsets.empty() ? 0 : offsets.back(); }

  /// Capacity footprint in bytes, scratch included.
  std::size_t bytes() const {
    return (offsets.capacity() + pruned.capacity() + obs.capacity()) * sizeof(std::size_t) +
           (gamma.capacity() + posteriors.capacity() + pred.capacity() +
            support_pred.capacity() + weight.capacity()) *
               sizeof(double) +
           support_rows.capacity() * sizeof(const double*);
  }

  // Reused per-call scratch: one lane's pred = πᵀP(a), its support on the
  // dense path (the states with pred(s) ≠ ±0, as q(·|s,a) rows and pred
  // values), and the sparse path's likelihood accumulators.
  std::vector<double> pred;
  std::vector<const double*> support_rows;
  std::vector<double> support_pred;
  std::vector<double> weight;
};

/// Expands `lanes` beliefs (rows of `beliefs`, `stride` doubles apart — a
/// BeliefBatch's state-major mirror or any row-major matrix) under one
/// action, overwriting `out` with every branch whose likelihood
/// γ^{π,a}(o) = Σ_s q(o|s,a)·pred(s) is reachable and at least
/// `min_probability`. Per lane:
///  - pred = πᵀP(a);
///  - γ(o) = 0 + Σ over ascending s with pred(s) ≠ ±0 of q(o|s,a)·pred(s),
///    multiply then add — a skipped state's term is an exact zero;
///  - o is unreachable when γ(o) <= 0, pruned when γ(o) < min_probability,
///    kept otherwise (a NaN γ is kept);
///  - kept rows hold q(o|s,a)·pred(s), unnormalised (callers normalise —
///    exactly once — before use).
/// The results are bitwise the same under every SIMD tier, and
/// pomdp.belief.branches_kept / branches_pruned are bumped once per call.
/// Returns the total branch count.
std::size_t expand_successors_batch(const Pomdp& pomdp, const double* beliefs,
                                    std::size_t lanes, std::size_t stride,
                                    ActionId action, double min_probability,
                                    SuccessorFrontier& out);

/// γ^{π,a}(o) of Eq. 3.
double observation_likelihood(const Pomdp& pomdp, const Belief& belief, ActionId action,
                              ObsId obs);

/// Bayes update (Eq. 4). Returns nullopt when the observation has zero
/// likelihood under (π, a) — the caller observed something the model says is
/// impossible (a model-mismatch signal the controller surfaces).
std::optional<BeliefUpdate> update_belief(const Pomdp& pomdp, const Belief& belief,
                                          ActionId action, ObsId obs);

/// One reachable (observation, probability, posterior) branch of the
/// Max-Avg tree (Fig. 1(b)).
struct ObservationBranch {
  ObsId obs;
  double probability;  ///< γ^{π,a}(o) > 0
  Belief posterior;
};

/// All observation branches with likelihood above `min_probability`,
/// ordered by ObsId. With min_probability = 0 the probabilities sum to 1;
/// a positive floor skips the (possibly many) negligible branches *before*
/// constructing their posteriors — the hot-path knob behind the Max-Avg
/// tree's branch pruning.
std::vector<ObservationBranch> belief_successors(const Pomdp& pomdp, const Belief& belief,
                                                 ActionId action,
                                                 double min_probability = 0.0);

}  // namespace recoverd
