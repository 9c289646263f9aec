#include "controller/interval_controller.hpp"

#include <limits>

#include "bounds/incremental_update.hpp"
#include "controller/guard.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "pomdp/bellman.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace recoverd::controller {

IntervalController::IntervalController(const Pomdp& model, bounds::BoundSet& lower,
                                       bounds::SawtoothUpperBound& upper,
                                       IntervalControllerOptions options)
    : BeliefTrackingController(model),
      name_("BranchBound(d=" + std::to_string(options.tree_depth) + ")"),
      lower_(lower),
      upper_(upper),
      options_(options),
      engine_(model) {
  RD_EXPECTS(options.tree_depth >= 1, "IntervalController: tree depth must be >= 1");
  RD_EXPECTS(lower.dimension() == model.num_states(),
             "IntervalController: lower bound dimension mismatch");
  RD_EXPECTS(lower.size() > 0, "IntervalController: lower bound set must be seeded");
}

namespace {
// Interval-controller provenance skeleton; decision-specific fields are
// filled at the single emission point in decide().
obs::DecisionProvenance interval_provenance_base(const char* stage, double decide_ms,
                                                 const bounds::BoundSet& lower,
                                                 int depth) {
  obs::DecisionProvenance record;
  record.controller = "interval";
  record.stage = stage;
  record.decide_ms = decide_ms;
  record.bound_generation = lower.generation();
  record.bound_size = lower.size();
  record.configured_depth = depth;
  record.achieved_depth = depth;  // no deadline ladder on this controller
  return record;
}
}  // namespace

Decision IntervalController::decide() {
  obs::TraceSpan decide_span("controller.decide", obs::TraceLevel::Decide);
  const bool provenance = obs::provenance_enabled();
  Timer provenance_timer;

  if (const auto escalated = guard_decision()) {
    if (provenance) {
      obs::DecisionProvenance record = interval_provenance_base(
          "escalated", provenance_timer.elapsed_ms(), lower_, options_.tree_depth);
      record.chosen_action = escalated->action == kInvalidId
                                 ? -1
                                 : static_cast<std::int64_t>(escalated->action);
      record.terminate = escalated->terminate;
      obs::emit_provenance(std::move(record));
    }
    return *escalated;
  }

  const Pomdp& pomdp = model();
  const Belief& pi = belief();
  stats_ = IntervalDecisionStats{};

  if (!pomdp.has_terminate_action() &&
      pomdp.mdp().goal_probability(pi.probabilities()) >= 1.0 - 1e-9) {
    if (provenance) {
      obs::DecisionProvenance record = interval_provenance_base(
          "goal-certain", provenance_timer.elapsed_ms(), lower_, options_.tree_depth);
      record.terminate = true;
      obs::emit_provenance(std::move(record));
    }
    return {kInvalidId, true};
  }

  if (options_.online_improvement) {
    double fault_mass = 1.0 - pomdp.mdp().goal_probability(pi.probabilities());
    if (pomdp.has_terminate_action()) fault_mass -= pi[pomdp.terminate_state()];
    if (fault_mass >= options_.improvement_min_fault_mass) {
      bounds::improve_at(pomdp, lower_, pi);
      // Upper-bound refinement stays exact (no branch pruning) so the
      // certified gap remains sound.
      upper_.improve_at(pi);
    }
  }

  // Bound-consistency guard: online updates computed from off-model
  // observations can push a lower hyperplane above the sawtooth upper bound.
  // Evict the offenders (never the protected RA-Bound plane) rather than
  // branch-and-bounding over an inconsistent interval.
  if (options_.repair_bound_crossings) {
    repair_bound_crossing(lower_, upper_, pi, options_.repair_tolerance);
  }

  // Both expansions run on the controller's engine with devirtualized span
  // leaves — no Belief construction at the leaves of either tree. The lower
  // tree goes through the pruned scratch kernel (warm start, batched
  // frontiers, wins flushed once per decide); the sawtooth upper bound keeps
  // the plain span leaf.
  const auto upper_leaf = [this](std::span<const double> posterior) {
    return upper_.evaluate(posterior);
  };
  ExpansionOptions expansion;
  expansion.branch_floor = options_.branch_floor;
  expansion.memo_max_bytes = options_.memo_max_mb << 20;
  ExpansionNodeStats node_stats;
  if (provenance) expansion.stats = &node_stats;
  lower_.begin_eval(lower_scratch_);  // after improve_at/repair: set is stable now
  const bounds::ScratchBoundLeaf lower_leaf{&lower_, &lower_scratch_};
  engine_.action_values(pi.probabilities(), options_.tree_depth,
                        SpanLeaf::of_batched(lower_leaf, lower_.size() + 1), expansion,
                        lower_values_);
  lower_.flush_eval(lower_scratch_);
  // Keep the provenance node stats scoped to the lower tree: a second
  // expansion with the same stats pointer would reset them, and the lower
  // tree is the one whose pruning behaviour the record explains.
  ExpansionNodeStats lower_tree_stats = node_stats;
  expansion.stats = nullptr;
  engine_.action_values(pi.probabilities(), options_.tree_depth,
                        SpanLeaf::of(upper_leaf), expansion, upper_values_);
  const std::vector<ActionValue>& lower_values = lower_values_;
  const std::vector<ActionValue>& upper_values = upper_values_;

  // Branch and bound: the best lower bound eliminates every action whose
  // upper bound falls beneath it; among survivors pick the most optimistic.
  double best_lower = -std::numeric_limits<double>::infinity();
  for (const auto& lv : lower_values) best_lower = std::max(best_lower, lv.value);

  ActionId best_action = kInvalidId;
  double best_upper = -std::numeric_limits<double>::infinity();
  std::vector<bool> pruned(pomdp.num_actions(), false);
  for (ActionId a = 0; a < pomdp.num_actions(); ++a) {
    if (upper_values[a].value < best_lower - 1e-12) {
      ++stats_.actions_pruned;
      pruned[a] = true;
      continue;
    }
    if (upper_values[a].value > best_upper) {
      best_upper = upper_values[a].value;
      best_action = a;
    }
  }
  if (best_action == kInvalidId) {
    // Every action's upper bound fell below the best lower bound — only
    // possible when the bounds are inconsistent (model mismatch). Falling
    // back to the best lower-bound action keeps the recovery going; aborting
    // a live recovery over a diagnostics inconsistency is never right.
    obs::metrics().counter("controller.interval.prune_conflicts").add();
    for (ActionId a = 0; a < pomdp.num_actions(); ++a) {
      if (best_action == kInvalidId ||
          lower_values[a].value > lower_values[best_action].value) {
        best_action = a;
      }
    }
    best_upper = upper_values[best_action].value;
  }
  stats_.lower = lower_values[best_action].value;
  stats_.upper = best_upper;

  if (pomdp.has_terminate_action()) {
    const ActionId at = pomdp.terminate_action();
    if (best_action != at &&
        upper_values[at].value >= best_upper - options_.terminate_tie_epsilon &&
        lower_values[at].value >= best_lower - options_.terminate_tie_epsilon) {
      best_action = at;
    }
  }
  const Decision decision{best_action,
                          pomdp.has_terminate_action() &&
                              best_action == pomdp.terminate_action()};

  if (provenance) {
    obs::DecisionProvenance record = interval_provenance_base(
        "full", provenance_timer.elapsed_ms(), lower_, options_.tree_depth);
    record.chosen_action = static_cast<std::int64_t>(decision.action);
    record.terminate = decision.terminate;
    record.expansion.nodes = lower_tree_stats.nodes;
    record.expansion.leaf_evaluations = lower_tree_stats.leaf_evaluations;
    record.expansion.memo_hits = lower_tree_stats.memo_hits;
    record.expansion.memo_misses = lower_tree_stats.memo_misses;
    record.expansion.memo_insertions = lower_tree_stats.memo_insertions;
    std::size_t levels = ExpansionNodeStats::kMaxLevels;
    while (levels > 0 && lower_tree_stats.nodes_per_level[levels - 1] == 0) --levels;
    record.expansion.nodes_per_level.assign(
        lower_tree_stats.nodes_per_level.begin(),
        lower_tree_stats.nodes_per_level.begin() + levels);
    record.actions.reserve(pomdp.num_actions());
    for (ActionId a = 0; a < pomdp.num_actions(); ++a) {
      obs::ActionProvenance entry;
      entry.action = a;
      entry.lower = lower_values[a].value;
      entry.upper = upper_values[a].value;
      entry.has_upper = true;
      entry.pruned = pruned[a];
      record.actions.push_back(entry);
    }
    obs::emit_provenance(std::move(record));
  }
  return decision;
}

}  // namespace recoverd::controller
