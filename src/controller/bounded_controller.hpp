// The paper's bounded recovery controller (§4):
//
//  - unrolls the POMDP recursion (Eq. 2) to a small fixed depth from the
//    current belief,
//  - evaluates leaves with the lower-bound hyperplane set V_B⁻ (Eq. 6),
//  - executes the maximising action,
//  - optionally refines the bound at every belief visited online (§4.1),
//  - terminates when the terminate action aT wins (models without recovery
//    notification) or when the belief is fully inside Sφ (models with it).
//
// Property 1 gives this controller finite termination: with V_B⁻ ≤ L_p V_B⁻
// and no free actions, every step strictly improves the expected bound.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bounds/bound_set.hpp"
#include "controller/controller.hpp"
#include "pomdp/belief_batch.hpp"
#include "pomdp/expansion.hpp"

namespace recoverd::controller {

struct BoundedControllerOptions {
  int tree_depth = 1;              ///< recursion depth (Table 1 uses 1)
  bool online_improvement = true;  ///< run Eq. 7 updates at visited beliefs
  /// Treat the model as having recovery notification: stop once the belief
  /// places at least `goal_certainty` mass on Sφ. Only meaningful for models
  /// without a terminate action.
  double goal_certainty = 1.0 - 1e-9;
  /// Prefer aT when its value is within this margin of the best action.
  /// Models with zero-cost monitoring in Sφ (violating Property 1(a)'s
  /// no-free-actions assumption) tie aT against Observe once recovery is
  /// near-certain; terminating is the right resolution.
  double terminate_tie_epsilon = 1e-9;
  /// Observation branches with probability below this floor are pruned from
  /// the Max-Avg tree (renormalising the rest). 0 = exact expansion; set
  /// ~1e-3 for models with large joint-observation alphabets.
  double branch_floor = 0.0;
  /// Skip the online Eq. 7 update when the belief puts less than this much
  /// mass outside Sφ ∪ {sT}: the bound is already tight there and the
  /// update would only burn time (§4.3's cost-limiting advice).
  double improvement_min_fault_mass = 0.01;
  /// Size cap of the exact within-decide transposition cache over successor
  /// beliefs (DESIGN.md §11: hash table + key arena).
  std::size_t memo_max_mb = 64;
  /// Anytime deepening (`--anytime`): after the decision is chosen, spend
  /// leftover per-decide deadline budget growing the bound set with Eq. 7
  /// point backups at the current belief and the chosen action's successor
  /// beliefs (HSVI-style). Each backup weakly tightens V_B⁻, so *future*
  /// decisions improve; the already-made decision is untouched. With no
  /// deadline configured, exactly `anytime_max_backups` backups run — a
  /// deterministic variant for tests. Off by default: baselines unchanged.
  bool anytime = false;
  /// Cap on Eq. 7 backups per decide() when `anytime` is on.
  std::size_t anytime_max_backups = 8;
};

/// Bounded controller over a §3.1-transformed model. The model must either
/// carry a terminate action (add_termination) or have absorbing goal states
/// (with_recovery_notification).
class BoundedController : public BeliefTrackingController {
 public:
  /// `set` is the shared lower-bound set, normally seeded by
  /// bounds::make_ra_bound_set and warmed by a bootstrap phase. It must
  /// outlive the controller; online improvement mutates it.
  BoundedController(const Pomdp& model, bounds::BoundSet& set,
                    BoundedControllerOptions options = {});

  /// Variant that owns a private copy of the bound set — the building block
  /// of the parallel experiment runner, where every episode gets a fresh
  /// controller (and fresh bound state) so results do not depend on which
  /// worker ran which episode.
  static std::unique_ptr<BoundedController> make_owning(const Pomdp& model,
                                                        bounds::BoundSet set,
                                                        BoundedControllerOptions options = {});

  const std::string& name() const override { return name_; }
  Decision decide() override;

  const bounds::BoundSet& bound_set() const { return set_; }

 private:
  std::string name_;
  std::unique_ptr<bounds::BoundSet> owned_set_;  // only set via make_owning()
  bounds::BoundSet& set_;
  BoundedControllerOptions options_;
  ExpansionEngine engine_;
  /// decide() is a batch of one (DESIGN.md §13): the current belief rides
  /// through action_values_batch() in this single-lane batch, so the single-
  /// session controller exercises exactly the fleet code path. A one-lane
  /// batch is always its own equivalence class, so values are bit-identical
  /// to the direct action_values() call it replaced.
  BeliefBatch batch_one_;
  std::vector<ActionValue> batch_values_;  // lane-major batch output (1 lane)
  std::vector<ActionValue> values_;  // reused across decide() calls
  /// Warm start and locally accumulated use-counter wins of the leaf
  /// evaluations, flushed once per decide().
  bounds::BoundSet::EvalScratch eval_scratch_;
};

}  // namespace recoverd::controller
