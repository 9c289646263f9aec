#include "bounds/comparison_bounds.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace recoverd::bounds {

BiBoundResult compute_bi_bound(const Mdp& mdp, const ValueIterationOptions& options) {
  const auto vi = value_iteration(mdp, options, Extremum::Min);
  BiBoundResult result;
  result.status = vi.status;
  result.iterations = vi.iterations;
  if (vi.converged()) result.values = vi.values;
  return result;
}

bool BlindPolicyBoundResult::any_converged() const {
  return std::any_of(per_action.begin(), per_action.end(),
                     [](const BlindPolicyBound& b) { return b.converged(); });
}

bool BlindPolicyBoundResult::all_converged() const {
  return std::all_of(per_action.begin(), per_action.end(),
                     [](const BlindPolicyBound& b) { return b.converged(); });
}

BoundSet BlindPolicyBoundResult::to_bound_set() const {
  RD_EXPECTS(all_converged(),
             "BlindPolicyBoundResult::to_bound_set: some blind policies diverged");
  RD_EXPECTS(!per_action.empty(), "BlindPolicyBoundResult::to_bound_set: empty");
  BoundSet set(per_action.front().values.size());
  for (const auto& bound : per_action) set.add(bound.values);
  return set;
}

BlindPolicyBoundResult compute_blind_policy_bounds(const Mdp& mdp,
                                                   const ValueIterationOptions& options) {
  BlindPolicyBoundResult result;
  result.per_action.reserve(mdp.num_actions());
  for (ActionId a = 0; a < mdp.num_actions(); ++a) {
    const auto vi = blind_policy_value(mdp, a, options);
    BlindPolicyBound bound;
    bound.action = a;
    bound.status = vi.status;
    if (vi.converged()) bound.values = vi.values;
    result.per_action.push_back(std::move(bound));
  }
  return result;
}

}  // namespace recoverd::bounds
