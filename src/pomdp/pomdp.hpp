// Partially observable MDP: the Mdp plus a finite observation alphabet and
// observation function q(o|s', a) — the probability that observation o is
// generated when the system transitions *to* state s' as a result of action
// a (the paper's convention, §2).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "linalg/sparse_matrix.hpp"
#include "pomdp/mdp.hpp"
#include "pomdp/types.hpp"

namespace recoverd {

class PomdpBuilder;

/// Immutable POMDP. Construct through PomdpBuilder (or the transform
/// functions in pomdp/transforms.hpp).
class Pomdp {
 public:
  const Mdp& mdp() const { return mdp_; }

  std::size_t num_states() const { return mdp_.num_states(); }
  std::size_t num_actions() const { return mdp_.num_actions(); }
  std::size_t num_observations() const { return obs_names_.size(); }

  const std::string& observation_name(ObsId o) const;
  ObsId find_observation(const std::string& name) const;

  /// |S|×|S| transpose of mdp().transition(a): row s' holds p(s'|·, a),
  /// entries in ascending source state. Precomputed at build time for the
  /// successor kernel's predict step, which sums each pred(s') as one
  /// contiguous dot over its incoming transitions.
  const linalg::SparseMatrix& transition_transpose(ActionId a) const;

  /// Row-stochastic |S|×|O| observation matrix of action a; row s' holds
  /// q(·|s', a).
  const linalg::SparseMatrix& observation(ActionId a) const;

  /// |O|×|S| transpose of observation(a): row o holds q(o|·, a), entries in
  /// ascending state order. Precomputed at build time for the Max-Avg
  /// expansion hot path, which needs per-observation state slices — the
  /// observation likelihood γ(o) as one contiguous dot and posterior
  /// scatter over only the branches that survive the floor.
  const linalg::SparseMatrix& observation_transpose(ActionId a) const;

  /// Dense row-major |S|×|O| mirror of observation(a), or an empty span
  /// when the matrix is too sparse or too large to mirror (see
  /// kDenseMirrorMaxEntries / kDenseMirrorMinDensity). Monitor models are
  /// usually dense — every joint observation has some likelihood in every
  /// state — and the expansion hot loop runs markedly faster over
  /// contiguous rows than over (col, value) pairs; the zero entries a
  /// mirror adds contribute exact +0.0 terms, so dense results are
  /// bit-identical to the sparse scan. This orientation (one state's
  /// observation row contiguous) lets the likelihood pass accumulate all
  /// γ(o) simultaneously — independent per-observation sums, so the loop
  /// vectorizes without reordering any individual sum.
  std::span<const double> observation_dense(ActionId a) const;

  /// Dense row-major |O|×|S| mirror of observation_transpose(a), under the
  /// same gate: one observation's state slice contiguous, for the posterior
  /// scatter over kept branches.
  std::span<const double> observation_transpose_dense(ActionId a) const;

  /// Mirror gating: at most this many doubles per action (8 MB)…
  static constexpr std::size_t kDenseMirrorMaxEntries = 1u << 20;
  /// …and at least half the entries non-zero (below that the sparse scan's
  /// fewer multiply-adds beat the dense row's contiguity).
  static constexpr double kDenseMirrorMinDensity = 0.5;

  /// q(o|s', a).
  double observation_prob(StateId next, ActionId a, ObsId o) const;

  /// Terminate action aT added by add_termination_action(); kInvalidId when
  /// the model has no explicit terminate action.
  ActionId terminate_action() const { return terminate_action_; }

  /// Absorbing terminated state sT; kInvalidId when absent.
  StateId terminate_state() const { return terminate_state_; }

  bool has_terminate_action() const { return terminate_action_ != kInvalidId; }

 private:
  friend class PomdpBuilder;
  Pomdp() = default;

  Mdp mdp_;
  std::vector<std::string> obs_names_;
  std::vector<linalg::SparseMatrix> transition_transposes_;  // [a] : |S|×|S|
  std::vector<linalg::SparseMatrix> observations_;  // [a] : |S|×|O|
  std::vector<linalg::SparseMatrix> observation_transposes_;  // [a] : |O|×|S|
  // [a] : dense row-major mirrors (|S|×|O| and |O|×|S|), empty when gated
  // off.
  std::vector<std::vector<double>> observations_dense_;
  std::vector<std::vector<double>> observation_transposes_dense_;
  ActionId terminate_action_ = kInvalidId;
  StateId terminate_state_ = kInvalidId;
};

/// Validated construction of a Pomdp on top of the MdpBuilder surface.
class PomdpBuilder {
 public:
  // --- Mdp surface (delegates) ---
  StateId add_state(std::string name, double ambient_rate = 0.0);
  ActionId add_action(std::string name, double duration);
  void set_transition(StateId s, ActionId a, StateId next, double prob);
  void set_rate_reward(StateId s, ActionId a, double rate);
  void set_impulse_reward(StateId s, ActionId a, double impulse);
  void mark_goal(StateId s);

  // --- observation surface ---
  ObsId add_observation(std::string name);

  /// Sets q(o|next, a) = prob.
  void set_observation(StateId next, ActionId a, ObsId o, double prob);

  /// Sets q(o|next, a) = prob for every action (common case: monitors behave
  /// the same regardless of which recovery action just ran).
  void set_observation_all_actions(StateId next, ObsId o, double prob);

  /// Marks a previously added action as the terminate action aT (used by
  /// the transform; exposed for hand-built models/tests).
  void mark_terminate(ActionId a, StateId absorbing_state);

  std::size_t num_states() const { return mdp_.num_states(); }
  std::size_t num_actions() const { return mdp_.num_actions(); }
  std::size_t num_observations() const { return obs_names_.size(); }

  /// Validates (stochastic observation rows for every (s', a)) and builds.
  Pomdp build(double tol = 1e-9) const;

 private:
  MdpBuilder mdp_;
  std::vector<std::string> obs_names_;
  // obs_[a][next] rows as (obs, prob) pairs.
  std::vector<std::vector<std::vector<std::pair<ObsId, double>>>> obs_;
  std::size_t states_ = 0;
  std::size_t actions_ = 0;
  ActionId terminate_action_ = kInvalidId;
  StateId terminate_state_ = kInvalidId;
};

}  // namespace recoverd
