// Throughput-mode fleet simulation (DESIGN.md §13) hardened into a
// fault-tolerant runtime (§14): N synchronized recovery sessions advance in
// lock-step *ticks* against private hidden-state environments. Batch mode
// does the work once per distinct belief and the bookkeeping once per
// session: each slot carries a *class id* into the tick's store of distinct
// belief rows, so a tick probes the decision cache, feeds the engine's batch
// entry point and applies the argmax/aT rule once per class, and runs
// update_batch() once per distinct (class, action, observation) triple,
// interning the posteriors as the next tick's classes.
// A session that terminates (or hits the step cap) is respawned with a
// fresh injected fault, so the fleet stays at constant width and
// decisions/second is a steady-state measurement.
//
// FleetMode::Loop runs the identical schedule through the single-session
// primitives (action_values() + update_belief() per lane). Both modes
// process slots in ascending order on per-slot RNG streams, and each batch
// primitive is bitwise identical to its looped counterpart, so a Batch run
// and a Loop run from the same seed produce bit-identical beliefs, actions,
// and episode outcomes at every tick — the fleet-level parity contract the
// throughput bench and tests/sim_fleet_test.cpp check.
//
// The *fault story* (DESIGN.md §14) adds three mode-invariant layers:
//
//  1. Per-session guard ladder (FleetGuardOptions). Each slot carries a
//     degradation stage — Full depth → Reduced depth → Cached action →
//     Heuristic fallback (a monitor reading). A slot that suffers a fault
//     event (injected decide stall, poisoned/inconsistent belief) is
//     stepped *down* one rung alone, the rest of the tick proceeds
//     untouched; `promote_after` consecutive clean ticks climb one rung
//     back (hysteresis). Livelocked slots (expected bound stalled for
//     `livelock_window` fresh decisions, via controller::GuardRuntime) are
//     escalated to termination and respawned.
//  2. Overload control. A per-tick admission quota caps how many slots may
//     take a fresh solve; the excess is shed to its ladder fallback in a
//     deterministic staleness-then-slot order (most-stale first, so no slot
//     starves). The quota comes either from `tick_budget_decisions` (exact,
//     deterministic — the parity contracts hold with it enabled) or from
//     `tick_budget_ms` (wall-clock: an EWMA of per-lane solve cost sizes
//     the quota, with a ±10% hysteresis band before shedding engages or
//     releases — effective, but timing-dependent by nature).
//  3. Crash safety. capture/adopt + save/restore checkpointing of the full
//     per-slot state (sim/checkpoint.hpp): a restored fleet replays the
//     exact beliefs, actions, and episode tallies the uninterrupted run
//     would have produced (caches rebuild cold with identical bits; only
//     the classes/shared_hits work accounting may differ).
//
// Chaos axes (sim/chaos_injector.hpp) draw from per-slot streams seeded
// independently of the fleet's own, so enabling them never perturbs the
// baseline draw sequence, and Batch/Loop consume identical event sequences
// — the Batch ≡ Loop and across-`--jobs`/`--simd` contracts hold with
// guards, chaos, deterministic budgets, and checkpointing all enabled.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bounds/bound_set.hpp"
#include "controller/guard.hpp"
#include "pomdp/belief_batch.hpp"
#include "pomdp/expansion.hpp"
#include "pomdp/pomdp.hpp"
#include "sim/chaos_injector.hpp"
#include "sim/environment.hpp"
#include "sim/fault_injector.hpp"
#include "util/belief_table.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace recoverd::sim {

struct FleetCheckpoint;

enum class FleetMode {
  Batch,  ///< batched engine calls (the throughput path)
  Loop,   ///< looped single-session calls (the parity reference)
};

/// Per-session degradation ladder of the fleet guard, in demotion order.
enum class LadderStage : std::uint8_t {
  Full = 0,       ///< configured tree_depth expansion
  Reduced = 1,    ///< reduced_depth expansion
  Cached = 2,     ///< repeat the slot's previous action (no solve)
  Heuristic = 3,  ///< take the monitoring action (no solve)
};

/// Per-session fault isolation knobs; `enabled = false` keeps the driver on
/// the exact pre-guard code path (byte-identical ticks).
struct FleetGuardOptions {
  bool enabled = false;
  /// Tree depth of the Reduced rung (clamped to the configured depth).
  int reduced_depth = 1;
  /// Consecutive clean ticks before a degraded slot climbs one rung.
  std::size_t promote_after = 4;
  /// Escalate a slot to termination when its expected bound has not improved
  /// over this many fresh decisions; 0 disables (GuardRuntime semantics).
  std::size_t livelock_window = 0;
  double livelock_min_improvement = 1e-9;
};

struct FleetOptions {
  /// Number of synchronized sessions (fleet width, constant over time).
  std::size_t sessions = 1;
  FleetMode mode = FleetMode::Batch;
  /// The monitoring action (used for the respawn initial reading and the
  /// ladder's Heuristic rung). Required.
  ActionId observe_action = kInvalidId;
  // Decision knobs, mirroring BoundedControllerOptions (no deadline ladder
  // or online bound improvement: the bound set stays frozen during ticks so
  // every lane of a tick — and both fleet modes — sees the same V_B⁻).
  int tree_depth = 1;
  double branch_floor = 0.0;
  std::size_t memo_max_mb = 64;
  double goal_certainty = 1.0 - 1e-9;
  double terminate_tie_epsilon = 1e-9;
  /// Decide/act steps after which an episode is cut off (truncated) and the
  /// slot respawned.
  std::size_t max_steps = 100000;
  /// Take one monitor reading on (re)spawn to refine the uniform initial
  /// belief before the first decision, as run_episode does.
  bool initial_observation = true;
  /// Support of the initial belief; empty = all non-goal env-model states.
  std::vector<StateId> fault_support;
  /// Batch-mode *cross-tick* root reuse: cache (belief bits → root action
  /// values) across ticks. Exact because the fleet's bound set is frozen and
  /// the engine deterministic — a hit returns the very bits a fresh solve
  /// would produce, so Batch stays bitwise identical to (uncached) Loop.
  /// In steady state most lanes sit at recurring belief states, so this is
  /// where the fleet's throughput headroom comes from. Full-depth rows only;
  /// Reduced-rung solves are never cached.
  bool decision_cache = true;
  /// Entry cap of the decision cache (keys + value rows); insertions stop
  /// at the cap, lookups keep working.
  std::size_t decision_cache_mb = 64;
  /// Batch-mode deep pipeline (`--deep-batch`, DESIGN.md §16): solve each
  /// tick's canonical roots through ExpansionEngine::action_values_batch_deep
  /// — level-wise SoA successor expansion with global canonicalization and
  /// one frontier leaf batch — instead of one per-class tree walk at a
  /// time. Bitwise-exact (the deep values are identical bits), so this is a
  /// speed-only knob excluded from options_hash() like mode.
  bool deep_batch = true;

  /// Per-session fault isolation (DESIGN.md §14).
  FleetGuardOptions guard;
  /// Infra-chaos axes (decide stalls, corrupted observation ids, belief
  /// poisoning); inert by default.
  ChaosOptions chaos;
  /// Deterministic admission quota: at most this many slots take a fresh
  /// solve per tick, the rest shed to their ladder fallback in staleness
  /// order. 0 = unlimited. Takes precedence over tick_budget_ms.
  std::size_t tick_budget_decisions = 0;
  /// Wall-clock tick budget: an EWMA of measured per-lane solve cost sizes
  /// the admission quota (±10% hysteresis). 0 = unlimited. Timing-dependent
  /// — excluded from the bitwise contracts (use tick_budget_decisions for
  /// deterministic shedding).
  double tick_budget_ms = 0.0;
  /// Content hash of the bound artifact the fleet's set was warm-started
  /// from (bounds/artifact.hpp), 0 when the set was built cold. Recorded in
  /// checkpoints; restore rejects a mismatch, since decisions depend on the
  /// exact plane set.
  std::uint64_t bound_artifact_hash = 0;
};

/// Applies the shared fleet-resilience flags onto `options` (defaults leave
/// it untouched): --deep-batch, --fleet-guard, --fleet-reduced-depth,
/// --fleet-promote-after, --fleet-livelock-window, --tick-budget-decisions,
/// --tick-budget-ms, plus the --chaos-* axes (parse_chaos_options).
void apply_fleet_resilience_flags(const CliArgs& args, FleetOptions& options);

/// The flag keys above, for require_known() lists.
std::vector<std::string> fleet_resilience_flag_names();

/// Cumulative fleet tallies. `classes`/`shared_hits` are Batch-mode work
/// accounting (Loop mode counts every decision as its own class) — exclude
/// them from Batch-vs-Loop parity comparisons; everything else matches
/// bitwise across modes (given a deterministic or disabled tick budget).
struct FleetStats {
  std::size_t ticks = 0;
  std::size_t decisions = 0;     ///< lanes served a fresh value row
  std::size_t classes = 0;       ///< canonical root classes actually solved
  std::size_t shared_hits = 0;   ///< lanes served by another lane's solve
                                 ///< (same tick or the cross-tick cache)
  std::size_t episodes_completed = 0;
  std::size_t episodes_recovered = 0;  ///< completed with true state in Sφ
  std::size_t episodes_truncated = 0;  ///< completed by the max_steps cap
  std::size_t belief_mismatches = 0;   ///< zero-likelihood updates (lane kept)

  // Resilience accounting (DESIGN.md §14). All deterministic under the
  // bitwise contracts except via tick_budget_ms.
  std::size_t degraded_decides = 0;    ///< lanes served below Full this tick
  std::size_t reduced_decides = 0;     ///< … via the Reduced rung (fresh solve)
  std::size_t cached_fallbacks = 0;    ///< … by repeating the previous action
  std::size_t heuristic_fallbacks = 0; ///< … by the monitoring action
  std::size_t shed = 0;                ///< solve intents shed by admission ctrl
  std::size_t stalls_injected = 0;     ///< chaos decide-stall events
  std::size_t poisons_injected = 0;    ///< chaos belief-poisoning events
  std::size_t beliefs_repaired = 0;    ///< hygiene scan quarantines (reset)
  std::size_t obs_corrupted = 0;       ///< chaos-corrupted readings delivered
  std::size_t obs_invalid_rejected = 0;///< out-of-range ids detected+rejected
  std::size_t livelock_respawns = 0;   ///< guard escalations → respawn
  std::size_t ladder_demotions = 0;
  std::size_t ladder_promotions = 0;
};

/// Lock-step driver of `sessions` recovery sessions. Each tick runs a
/// chaos/hygiene pre-pass and three phases over all slots: decide
/// (terminate on goal certainty / aT tie, otherwise the depth-d Max-Avg
/// action — selection logic identical to BoundedController::decide()), act
/// (environment step, respawn on termination or cap), and belief update
/// (batched Bayes conditioning; respawned slots take their initial monitor
/// reading instead).
class FleetDriver {
 public:
  /// `controller_model` is the (possibly terminate-transformed) model the
  /// decisions and beliefs live in; `env_model` the untransformed ground
  /// truth the environments simulate. `set` is the frozen lower-bound set —
  /// non-const only for evaluate-scratch flushes (use counters); its planes
  /// never change. All references must outlive the driver.
  FleetDriver(const Pomdp& controller_model, const Pomdp& env_model,
              bounds::BoundSet& set, const FaultInjector& injector,
              std::uint64_t seed, FleetOptions options);

  /// Advances every session by one decide/act/update step.
  void tick();

  std::size_t sessions() const { return envs_.size(); }
  const FleetStats& stats() const { return stats_; }

  /// Lane s is session (slot) s — the fleet never compacts, so lane indices
  /// are stable and parity checks can memcmp state rows across drivers.
  const BeliefBatch& beliefs() const { return batch_; }

  /// Last tick's chosen action per slot; kInvalidId marks a slot that
  /// terminated (and respawned) that tick.
  std::span<const ActionId> last_actions() const { return last_actions_; }

  /// Current guard-ladder stage per slot (all Full when the guard is off).
  std::span<const LadderStage> ladder_stages() const { return ladder_stage_; }

  /// Fraction of slots whose true environment state is currently in Sφ.
  double healthy_fraction() const;

  // --- crash safety (sim/checkpoint.hpp) ---------------------------------

  /// Snapshots the complete resumable state (beliefs, RNG streams, hidden
  /// env state, pending conditioning, guard ladder, stats, tick counter).
  FleetCheckpoint capture_checkpoint() const;

  /// Applies a capture. Throws ModelError when the checkpoint was saved
  /// from a different model, fleet shape, or decision-relevant options, or
  /// holds an out-of-range ladder stage or environment state or an all-zero
  /// RNG state — validation happens before any state is touched.
  /// Decision/memo caches restart cold (they refill with identical bits).
  void adopt_checkpoint(const FleetCheckpoint& cp);

  /// capture_checkpoint() → atomic file write (tmp + fsync + rename).
  void save_checkpoint(const std::string& path) const;

  /// read (full corruption validation) → adopt. Throws ModelError with an
  /// actionable one-line message on any corruption or mismatch.
  void restore_checkpoint(const std::string& path);

 private:
  // A tick's distinct belief rows (Batch mode): a BeliefTable over a
  // row-major store, with each row's hash kept for the decision-cache
  // probe. Class 0 is always the episode prior.
  struct ClassStore {
    util::BeliefTable table;
    std::vector<double> rows;           // class c at [c·dim, (c+1)·dim)
    std::vector<std::uint64_t> hashes;  // hash_belief_bits of class c

    std::size_t size() const { return hashes.size(); }
    const double* row(std::uint32_t c, std::size_t dim) const {
      return rows.data() + static_cast<std::size_t>(c) * dim;
    }
    // The class of `row`, appended when new; `row` must not point into
    // `rows`.
    std::uint32_t intern(const double* row, std::size_t dim);
    // Forgets every class, then makes `prior` class 0.
    void reset(std::span<const double> prior);
  };

  void spawn(std::size_t slot);
  void finish_episode(std::size_t slot, bool terminated);
  void note_fresh_decision(std::size_t slot, double expected_bound);
  void apply_fallback(std::size_t slot, bool heuristic_only);
  ObsId deliver_observation(std::size_t slot, ObsId fresh);
  std::size_t tick_quota(std::size_t solve_intents);
  std::uint64_t options_hash() const;
  void prepass_phase();
  void decide_phase();
  void solve_classes(const SpanLeaf& leaf, const ExpansionOptions& expansion);
  void act_phase();
  void update_phase();
  void update_classes();

  const Pomdp& model_;
  const Pomdp& env_model_;
  bounds::BoundSet& set_;
  const FaultInjector& injector_;
  FleetOptions options_;
  std::uint64_t seed_;
  ExpansionEngine engine_;
  std::vector<double> initial_probs_;  // uniform over the fault support
  std::vector<Rng> slot_rng_;          // fault-injection stream per slot
  std::vector<Environment> envs_;
  std::optional<ChaosInjector> chaos_;
  BeliefBatch batch_;  // lane i == slot i, always `sessions` lanes
  std::vector<std::size_t> episode_steps_;
  FleetStats stats_;

  // Guard ladder + overload-control state (per slot; always allocated so
  // checkpoints have one shape). GuardRuntime instances exist only when the
  // guard is enabled with a livelock window.
  std::vector<LadderStage> ladder_stage_;
  std::vector<std::size_t> clean_streak_;
  std::vector<std::size_t> ticks_since_fresh_;
  std::vector<controller::GuardRuntime> guards_;
  double ewma_lane_ms_ = 0.0;   // wall-clock budget estimator (not checkpointed)
  bool shedding_active_ = false;

  // Cross-tick decision cache (Batch mode): belief-bit keys in a flat arena,
  // num_actions-strided value rows, indexed by a BeliefTable whose probes
  // are confirmed by memcmp — misses only ever split entries, never merge
  // them. Both calls take the row's hash_belief_bits().
  std::size_t cache_lookup(std::uint64_t hash, const double* belief) const;  // entry or npos
  // Adds an entry unless the belief is cached already or the cap is hit.
  void cache_insert(std::uint64_t hash, const double* belief, const ActionValue* values);
  util::BeliefTable cache_table_;
  std::vector<double> cache_keys_;        // entry i at [i·|S|, (i+1)·|S|)
  std::vector<ActionValue> cache_values_; // entry i at [i·|A|, (i+1)·|A|)
  std::size_t cache_entry_cap_ = 0;

  // Belief classes (Batch mode, DESIGN.md §13): between phases, lane s of
  // batch_ is bitwise row class_of_[s] of classes_. Update interns the
  // posteriors into next_classes_ and swaps the two; every other lane
  // write sets the lane's class itself.
  ClassStore classes_;
  ClassStore next_classes_;
  std::vector<std::uint32_t> class_of_;

  // Per-tick scratch (capacities persist across ticks).
  enum class Intent : std::uint8_t { Terminate, Solve, Fallback };
  std::vector<Intent> intent_;
  std::vector<int> lane_depth_;           // Solve lanes: depth to expand at
  std::vector<std::uint8_t> fault_this_tick_;
  std::vector<std::size_t> solve_slots_;  // Solve intents, ascending slot
  BeliefBatch decide_batch_;   // full-depth classes needing expansion
  BeliefBatch reduced_batch_;  // Reduced-rung lanes needing expansion
  std::vector<std::uint8_t> class_seen_;   // decide: a Solve lane reached the class
  std::vector<ActionValue> class_choice_;  // decide: action (kInvalidId = aT) + value
  std::vector<ActionValue> values_scratch_;
  std::vector<ActionValue> reduced_values_scratch_;
  std::vector<ActionValue> lane_values_;
  std::vector<double> lane_scratch_;
  std::vector<ActionId> last_actions_;
  std::vector<ActionId> pending_action_;  // conditioning pair for update_phase
  std::vector<ObsId> pending_obs_;
  // update: distinct (class, action, observation) triples, keyed by a
  // two-double row {class, action·|O| + observation}, their inputs and the
  // next-tick class of each posterior.
  util::BeliefTable triple_table_;
  std::vector<double> triple_keys_;
  BeliefBatch triple_beliefs_;
  std::vector<ActionId> triple_actions_;
  std::vector<ObsId> triple_obs_;
  std::vector<std::uint32_t> triple_class_;
  std::vector<std::uint32_t> lane_triple_;
  BatchUpdateWorkspace update_ws_;
  bounds::BoundSet::EvalScratch eval_scratch_;
};

}  // namespace recoverd::sim
