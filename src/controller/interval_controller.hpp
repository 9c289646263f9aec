// Branch-and-bound recovery controller — the §6 future-work extension made
// concrete: maintain a lower-bound hyperplane set (Eq. 6) *and* a sawtooth
// upper bound, evaluate per-action value intervals at the root of the
// Max-Avg tree, prune actions whose upper bound falls below the best lower
// bound, and pick the surviving action with the best upper bound
// (optimism). The interval width doubles as a certified optimality gap for
// each decision.
#pragma once

#include <string>
#include <vector>

#include "bounds/bound_set.hpp"
#include "bounds/sawtooth_upper.hpp"
#include "controller/controller.hpp"
#include "pomdp/expansion.hpp"

namespace recoverd::controller {

struct IntervalControllerOptions {
  int tree_depth = 1;
  bool online_improvement = true;  ///< refine both bounds at visited beliefs
  double branch_floor = 0.0;
  double terminate_tie_epsilon = 1e-9;
  double improvement_min_fault_mass = 0.01;
  /// Guard: when the lower bound crosses the sawtooth upper bound at the
  /// current belief (impossible with sound bounds — a model-mismatch
  /// signature), evict the offending lower hyperplanes instead of planning
  /// on an inconsistent interval.
  bool repair_bound_crossings = true;
  double repair_tolerance = 1e-6;
  /// Size cap of the exact within-decide transposition cache (DESIGN.md
  /// §11); the lower- and upper-bound expansions each run on a fresh cache.
  std::size_t memo_max_mb = 64;
};

/// Per-decision diagnostics (for the extension bench and tests).
struct IntervalDecisionStats {
  double lower = 0.0;           ///< best action's lower bound
  double upper = 0.0;           ///< best action's upper bound
  std::size_t actions_pruned = 0;  ///< actions eliminated by bound dominance

  double gap() const { return upper - lower; }
};

class IntervalController : public BeliefTrackingController {
 public:
  /// Both bound structures must outlive the controller and are refined in
  /// place when online improvement is enabled.
  IntervalController(const Pomdp& model, bounds::BoundSet& lower,
                     bounds::SawtoothUpperBound& upper,
                     IntervalControllerOptions options = {});

  const std::string& name() const override { return name_; }
  Decision decide() override;

  /// Stats of the most recent decide() call.
  const IntervalDecisionStats& last_decision() const { return stats_; }

 private:
  std::string name_;
  bounds::BoundSet& lower_;
  bounds::SawtoothUpperBound& upper_;
  IntervalControllerOptions options_;
  IntervalDecisionStats stats_;
  ExpansionEngine engine_;
  std::vector<ActionValue> lower_values_;  // reused across decide() calls
  std::vector<ActionValue> upper_values_;
  bounds::BoundSet::EvalScratch lower_scratch_;  // warm start + win tally
};

}  // namespace recoverd::controller
