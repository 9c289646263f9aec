#include "controller/bounded_controller.hpp"

#include "bounds/incremental_update.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "pomdp/bellman.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace recoverd::controller {

namespace {
// Per-decide instruments. Nodes-per-decide is derived by differencing the
// global Max-Avg node counter around the tree expansion, so the histogram
// stays correct whichever depth/branch-floor the controller runs with.
struct DecideInstruments {
  obs::Counter& decides;
  obs::Counter& terminate_ties;
  obs::Counter& nodes_expanded;
  obs::Counter& anytime_backups;
  obs::Counter& anytime_added;
  obs::Histogram& decide_ms;
  obs::Histogram& nodes_per_decide;

  static DecideInstruments& get() {
    static DecideInstruments instruments{
        obs::metrics().counter("controller.bounded.decides"),
        obs::metrics().counter("controller.bounded.terminate_ties"),
        obs::metrics().counter("pomdp.bellman.nodes_expanded"),
        obs::metrics().counter("controller.bounded.anytime_backups"),
        obs::metrics().counter("controller.bounded.anytime_added"),
        obs::metrics().histogram("controller.bounded.decide_ms",
                                 obs::exponential_buckets(0.001, 2.0, 26)),
        obs::metrics().histogram("controller.bounded.nodes_per_decide",
                                 obs::exponential_buckets(1.0, 2.0, 24)),
    };
    return instruments;
  }
};

// Skeleton of a provenance record shared by every exit path of decide();
// the caller fills decision-specific fields before emitting.
obs::DecisionProvenance provenance_base(const char* stage, double decide_ms,
                                        const bounds::BoundSet& set,
                                        int configured_depth, int achieved_depth) {
  obs::DecisionProvenance record;
  record.controller = "bounded";
  record.stage = stage;
  record.decide_ms = decide_ms;
  record.bound_generation = set.generation();
  record.bound_size = set.size();
  record.configured_depth = configured_depth;
  record.achieved_depth = achieved_depth;
  return record;
}

void fill_expansion_provenance(obs::DecisionProvenance& record,
                               const ExpansionNodeStats& stats) {
  record.expansion.nodes = stats.nodes;
  record.expansion.leaf_evaluations = stats.leaf_evaluations;
  record.expansion.memo_hits = stats.memo_hits;
  record.expansion.memo_misses = stats.memo_misses;
  record.expansion.memo_insertions = stats.memo_insertions;
  // Trim trailing all-zero levels so shallow trees emit short arrays.
  std::size_t levels = ExpansionNodeStats::kMaxLevels;
  while (levels > 0 && stats.nodes_per_level[levels - 1] == 0) --levels;
  record.expansion.nodes_per_level.assign(stats.nodes_per_level.begin(),
                                          stats.nodes_per_level.begin() + levels);
}
}  // namespace

BoundedController::BoundedController(const Pomdp& model, bounds::BoundSet& set,
                                     BoundedControllerOptions options)
    : BeliefTrackingController(model),
      name_("Bounded(d=" + std::to_string(options.tree_depth) + ")"),
      set_(set),
      options_(options),
      engine_(model),
      batch_one_(model.num_states()) {
  RD_EXPECTS(options.tree_depth >= 1, "BoundedController: tree depth must be >= 1");
  RD_EXPECTS(set.dimension() == model.num_states(),
             "BoundedController: bound set dimension mismatch");
  RD_EXPECTS(set.size() > 0, "BoundedController: bound set must be seeded (RA-Bound)");
}

std::unique_ptr<BoundedController> BoundedController::make_owning(
    const Pomdp& model, bounds::BoundSet set, BoundedControllerOptions options) {
  auto owned = std::make_unique<bounds::BoundSet>(std::move(set));
  // The reference member binds to the heap copy, whose address is stable;
  // adopting the unique_ptr afterwards ties the lifetimes together.
  std::unique_ptr<BoundedController> controller(
      new BoundedController(model, *owned, options));
  controller->owned_set_ = std::move(owned);
  return controller;
}

Decision BoundedController::decide() {
  obs::TraceSpan decide_span("controller.decide", obs::TraceLevel::Decide);
  // Provenance is opt-in (--provenance-out); when off, every extra
  // bookkeeping below is skipped and decide() runs its original path.
  const bool provenance = obs::provenance_enabled();
  Timer provenance_timer;

  if (const auto escalated = guard_decision()) {
    if (provenance) {
      obs::DecisionProvenance record = provenance_base(
          "escalated", provenance_timer.elapsed_ms(), set_, options_.tree_depth,
          guard().last_achieved_depth());
      record.chosen_action = escalated->action == kInvalidId
                                 ? -1
                                 : static_cast<std::int64_t>(escalated->action);
      record.terminate = escalated->terminate;
      obs::emit_provenance(std::move(record));
    }
    return *escalated;
  }

  DecideInstruments& instruments = DecideInstruments::get();
  instruments.decides.add();
  obs::ScopedTimer latency(instruments.decide_ms);

  const Pomdp& pomdp = model();
  const Belief& pi = belief();

  // Models with recovery notification: stop once the belief is (numerically)
  // certain the system recovered.
  if (!pomdp.has_terminate_action() &&
      pomdp.mdp().goal_probability(pi.probabilities()) >= options_.goal_certainty) {
    if (provenance) {
      obs::DecisionProvenance record =
          provenance_base("goal-certain", provenance_timer.elapsed_ms(), set_,
                          options_.tree_depth, 0);
      record.terminate = true;
      obs::emit_provenance(std::move(record));
    }
    return {kInvalidId, true};
  }

  if (options_.online_improvement) {
    double fault_mass = 1.0 - pomdp.mdp().goal_probability(pi.probabilities());
    if (pomdp.has_terminate_action()) fault_mass -= pi[pomdp.terminate_state()];
    if (fault_mass >= options_.improvement_min_fault_mass) {
      bounds::improve_at(pomdp, set_, pi);
    }
  }

  ExpansionOptions expansion;
  expansion.branch_floor = options_.branch_floor;
  expansion.memo_max_bytes = options_.memo_max_mb << 20;
  ExpansionNodeStats node_stats;
  if (provenance) expansion.stats = &node_stats;

  // Devirtualized leaf: the engine hands already-normalised posterior spans
  // (single beliefs or whole frontiers) straight to the pruned hyperplane
  // max. The EvalScratch — a warm start plus locally accumulated use-counter
  // wins — is sized here, after improve_at() froze the set for the rest of
  // the decision, and flushed once per decide().
  set_.begin_eval(eval_scratch_);
  const bounds::ScratchBoundLeaf leaf{&set_, &eval_scratch_};
  const SpanLeaf span_leaf = SpanLeaf::of_batched(leaf, set_.size() + 1);

  // Batch-of-one: decide() rides the same action_values_batch() entry point
  // the fleet driver uses, so the single-session path and the batch path
  // are one code path (a single lane is its own equivalence class — values
  // are bit-identical to calling action_values() directly).
  batch_one_.clear();
  batch_one_.push_back(pi.probabilities(), 0);
  const auto batch_values = [&](int depth) {
    engine_.action_values_batch(batch_one_, depth, span_leaf, expansion, batch_values_);
    values_.assign(batch_values_.begin(), batch_values_.end());
  };

  const std::uint64_t nodes_before = instruments.nodes_expanded.value();
  GuardRuntime& runtime = guard();
  int achieved_depth = options_.tree_depth;
  double expansion_ms = 0.0;  // ladder time, charged against the anytime budget
  if (runtime.deadline_enabled()) {
    // Degradation ladder: iterative deepening under the per-decide budget.
    // Depth 1 (the greedy lower-bound action) always completes, then each
    // deeper tree runs only while budget remains — the deepest finished
    // tree's values stand. Per-action subtrees at depth d strictly contain
    // the depth-(d-1) work, so the ladder costs at most ~2x the final depth.
    Timer deadline;
    int achieved = 0;
    for (int depth = 1; depth <= options_.tree_depth; ++depth) {
      obs::TraceSpan ladder_span("controller.ladder_depth", obs::TraceLevel::Decide);
      ladder_span.arg("depth", static_cast<double>(depth));
      batch_values(depth);
      achieved = depth;
      if (deadline.elapsed_ms() >= runtime.options().decide_deadline_ms) break;
    }
    runtime.note_decide(deadline.elapsed_ms(), achieved, options_.tree_depth);
    expansion_ms = deadline.elapsed_ms();
    achieved_depth = achieved;
  } else {
    batch_values(options_.tree_depth);
  }
  set_.flush_eval(eval_scratch_);
  instruments.nodes_per_decide.observe(
      static_cast<double>(instruments.nodes_expanded.value() - nodes_before));
  const std::vector<ActionValue>& values = values_;
  ActionValue best = values.front();
  for (const auto& av : values) {
    if (av.value > best.value) best = av;
  }

  Decision decision{best.action, false};
  if (pomdp.has_terminate_action()) {
    // Property 1(a) assumes no free actions; real models often have a
    // zero-cost Observe in null-fault states, which can tie with aT once
    // recovery is (almost) certain. Prefer termination on (near-)ties —
    // continuing offers no strictly positive benefit.
    const ActionId at = pomdp.terminate_action();
    if (values[at].value >= best.value - options_.terminate_tie_epsilon) {
      if (best.action != at) instruments.terminate_ties.add();
      best = values[at];
    }
    if (best.action == at) decision = {at, true};
  }

  const char* stage = runtime.deadline_enabled() ? runtime.last_decide_stage() : "full";
  if (!decision.terminate) {
    // Property 1 livelock monitor: under a faithful model the expected
    // bound strictly improves each step; a stall over the configured window
    // (model mismatch breaking the improvement guarantee) escalates to aT
    // now.
    runtime.note_expected_bound(best.value);
    if (const auto escalated = guard_decision()) {
      decision = *escalated;
      stage = "escalated";
    }
  }

  // Anytime deepening: leftover deadline budget goes into Eq. 7 point
  // backups at this belief and the chosen action's successor beliefs, so
  // the bound arrives tighter at the *next* decide(). The decision above is
  // already final — this only mutates set_. With no deadline configured the
  // loop runs to the backup cap (deterministic).
  std::uint64_t anytime_backups = 0;
  std::uint64_t anytime_added = 0;
  if (options_.anytime && !decision.terminate && decision.action != kInvalidId) {
    obs::TraceSpan anytime_span("controller.anytime", obs::TraceLevel::Decide);
    const bool deadline_on = runtime.deadline_enabled();
    const double budget_ms = deadline_on ? runtime.options().decide_deadline_ms : 0.0;
    const ObsId num_obs = pomdp.num_observations();
    Timer anytime_timer;
    bool root_done = false;
    ObsId next_obs = 0;
    while (anytime_backups < options_.anytime_max_backups &&
           (!deadline_on || expansion_ms + anytime_timer.elapsed_ms() < budget_ms)) {
      bounds::UpdateResult backup;
      if (!root_done) {
        backup = bounds::improve_at(pomdp, set_, pi);
        root_done = true;
      } else {
        if (next_obs >= num_obs) break;  // one pass over the successors
        const auto update = update_belief(pomdp, pi, decision.action, next_obs++);
        if (!update) continue;  // zero-likelihood observation: no posterior
        backup = bounds::improve_at(pomdp, set_, update->next);
      }
      ++anytime_backups;
      if (backup.added) ++anytime_added;
    }
    instruments.anytime_backups.add(anytime_backups);
    instruments.anytime_added.add(anytime_added);
  }

  if (provenance) {
    obs::DecisionProvenance record = provenance_base(
        stage, provenance_timer.elapsed_ms(), set_, options_.tree_depth,
        achieved_depth);
    record.anytime_backups = anytime_backups;
    record.anytime_added = anytime_added;
    record.chosen_action = decision.terminate && decision.action == kInvalidId
                               ? -1
                               : static_cast<std::int64_t>(decision.action);
    record.terminate = decision.terminate;
    fill_expansion_provenance(record, node_stats);
    record.actions.reserve(values.size());
    for (const ActionValue& av : values) {
      obs::ActionProvenance entry;
      entry.action = av.action;
      entry.lower = av.value;  // V_B⁻-backed expansion value, the exact
                               // number the max above compared
      record.actions.push_back(entry);
    }
    obs::emit_provenance(std::move(record));
  }
  return decision;
}

}  // namespace recoverd::controller
