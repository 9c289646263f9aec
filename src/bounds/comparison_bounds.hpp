// The two literature lower bounds the paper compares against (§3.1):
//
//  - BI-POMDP [Washington 1997]: V_m^BI solves Eq. 1 with min instead of
//    max — the value of always choosing the worst action. On undiscounted
//    recovery models this diverges (the worst action loops while accruing
//    cost), with or without recovery notification.
//
//  - Blind-policy method [Hauskrecht 1997]: one vector per action,
//    V_m^{ba}(·,a) = value of always playing a; the POMDP bound is
//    max_a Σ_s π(s)·V^{ba}(s,a). On notification-transformed recovery
//    models this usually diverges too (no single action makes progress in
//    every state), but the terminate transform trivially repairs it: the
//    blind aT policy has finite value everywhere.
//
// Both report divergence as a status so the bench can reproduce the §3.1
// comparison table instead of hanging.
#pragma once

#include <vector>

#include "bounds/bound_set.hpp"
#include "pomdp/mdp.hpp"
#include "pomdp/value_iteration.hpp"

namespace recoverd::bounds {

struct BiBoundResult {
  linalg::SolveStatus status = linalg::SolveStatus::MaxIterations;
  BoundVector values;  ///< V_m^BI(s) (meaningful when converged)
  std::size_t iterations = 0;

  bool converged() const { return status == linalg::SolveStatus::Converged; }
};

/// Computes the BI-POMDP bound vector (min-action value iteration).
BiBoundResult compute_bi_bound(const Mdp& mdp, const ValueIterationOptions& options = {});

/// Per-action blind-policy bound.
struct BlindPolicyBound {
  ActionId action = kInvalidId;
  linalg::SolveStatus status = linalg::SolveStatus::MaxIterations;
  BoundVector values;  ///< V^{ba}(·, action) (meaningful when converged)

  bool converged() const { return status == linalg::SolveStatus::Converged; }
};

struct BlindPolicyBoundResult {
  std::vector<BlindPolicyBound> per_action;

  /// True when at least one blind policy has finite value (the set-max bound
  /// is then usable, although it is only a valid lower bound for the states
  /// where *every* component is finite — the paper's point is precisely that
  /// most recovery models leave it undefined).
  bool any_converged() const;

  /// True when every blind policy converged (the bound is defined simplex-wide).
  bool all_converged() const;

  /// Builds the max-of-hyperplanes bound from the converged vectors only.
  /// Precondition: all_converged().
  BoundSet to_bound_set() const;
};

/// Computes blind-policy bounds for every action.
BlindPolicyBoundResult compute_blind_policy_bounds(
    const Mdp& mdp, const ValueIterationOptions& options = {});

}  // namespace recoverd::bounds
