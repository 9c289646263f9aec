#include "sim/fleet_driver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/checkpoint.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace recoverd::sim {

namespace {

constexpr std::size_t kNoEntry = util::BeliefTable::npos;

// Class ids (DESIGN.md §13): class 0 of every store is the episode prior.
// kKept never names a class: it marks an update triple whose reading had
// zero likelihood (its lanes keep their beliefs).
constexpr std::uint32_t kPriorClass = 0;
constexpr std::uint32_t kKept = std::numeric_limits<std::uint32_t>::max();

// The driver's one selection rule, BoundedController::decide()'s, over a
// value row (index a = action a): max with ascending strict >, then the aT
// near-tie preference. Returns the chosen action, kInvalidId for aT
// (termination), with its expected bound (the livelock monitor's food).
ActionValue select_action(const Pomdp& model, const ActionValue* values,
                          double terminate_tie_epsilon) {
  ActionValue best = values[0];
  for (std::size_t a = 1; a < model.num_actions(); ++a) {
    if (values[a].value > best.value) best = values[a];
  }
  if (model.has_terminate_action()) {
    const ActionId at = model.terminate_action();
    if (values[at].value >= best.value - terminate_tie_epsilon) best = values[at];
    if (best.action == at) best.action = kInvalidId;
  }
  return best;
}

// Busy-wait for an injected, unguarded decide stall — the cost a production
// fleet would really pay when one session's solve hangs inside a lock-step
// tick. (With the guard on the solve is never attempted, so this never runs.)
void spin_for_ms(double ms) {
  const Timer timer;
  while (timer.elapsed_ms() < ms) {
  }
}

// A lane poisoned by chaos (or an upstream numeric bug) shows one of:
// non-finite entries, subnormals (no honest normalised Bayes posterior over
// these models produces one), negative mass, or a total that drifted off 1.
bool lane_unhealthy(const double* lane, std::size_t n) {
  double sum = 0.0;
  for (std::size_t s = 0; s < n; ++s) {
    const double v = lane[s];
    if (!std::isfinite(v) || v < 0.0) return true;
    if (v != 0.0 && v < std::numeric_limits<double>::min()) return true;
    sum += v;
  }
  return std::fabs(sum - 1.0) > 1e-6;
}

struct FleetInstruments {
  obs::Counter& ticks;
  obs::Counter& decisions;
  obs::Counter& classes;
  obs::Counter& shared_hits;
  obs::Counter& episodes;
  obs::Counter& truncated;
  obs::Counter& mismatches;
  obs::Counter& degraded;
  obs::Counter& shed;
  obs::Counter& demotions;
  obs::Counter& promotions;
  obs::Counter& livelock_respawns;
  obs::Counter& beliefs_repaired;
  obs::Counter& stalls;
  obs::Counter& poisons;
  obs::Counter& obs_corrupted;
  obs::Counter& obs_rejected;

  static FleetInstruments& get() {
    static FleetInstruments instruments{
        obs::metrics().counter("sim.fleet.ticks"),
        obs::metrics().counter("sim.fleet.decisions"),
        obs::metrics().counter("sim.fleet.classes"),
        obs::metrics().counter("sim.fleet.shared_hits"),
        obs::metrics().counter("sim.fleet.episodes"),
        obs::metrics().counter("sim.fleet.episodes_truncated"),
        obs::metrics().counter("sim.fleet.belief_mismatches"),
        obs::metrics().counter("sim.fleet.guard.degraded"),
        obs::metrics().counter("sim.fleet.guard.shed"),
        obs::metrics().counter("sim.fleet.guard.demotions"),
        obs::metrics().counter("sim.fleet.guard.promotions"),
        obs::metrics().counter("sim.fleet.guard.livelock_respawns"),
        obs::metrics().counter("sim.fleet.guard.beliefs_repaired"),
        obs::metrics().counter("sim.fleet.chaos.stalls"),
        obs::metrics().counter("sim.fleet.chaos.poisons"),
        obs::metrics().counter("sim.fleet.chaos.obs_corrupted"),
        obs::metrics().counter("sim.fleet.obs_invalid_rejected"),
    };
    return instruments;
  }
};

}  // namespace

void apply_fleet_resilience_flags(const CliArgs& args, FleetOptions& options) {
  options.deep_batch = args.get_bool("deep-batch", options.deep_batch);
  options.guard.enabled = args.get_bool("fleet-guard", options.guard.enabled);
  options.guard.reduced_depth = static_cast<int>(
      args.get_count("fleet-reduced-depth",
                     static_cast<std::size_t>(options.guard.reduced_depth)));
  options.guard.promote_after =
      args.get_count("fleet-promote-after", options.guard.promote_after);
  options.guard.livelock_window =
      args.get_size("fleet-livelock-window", options.guard.livelock_window);
  options.tick_budget_decisions =
      args.get_size("tick-budget-decisions", options.tick_budget_decisions);
  options.tick_budget_ms = args.has("tick-budget-ms")
                               ? args.get_positive_double("tick-budget-ms",
                                                          options.tick_budget_ms)
                               : options.tick_budget_ms;
  options.chaos = parse_chaos_options(args);
}

std::vector<std::string> fleet_resilience_flag_names() {
  std::vector<std::string> names = {"deep-batch", "fleet-guard", "fleet-reduced-depth",
                                    "fleet-promote-after", "fleet-livelock-window",
                                    "tick-budget-decisions", "tick-budget-ms"};
  for (std::string& name : chaos_flag_names()) names.push_back(std::move(name));
  return names;
}

FleetDriver::FleetDriver(const Pomdp& controller_model, const Pomdp& env_model,
                         bounds::BoundSet& set, const FaultInjector& injector,
                         std::uint64_t seed, FleetOptions options)
    : model_(controller_model),
      env_model_(env_model),
      set_(set),
      injector_(injector),
      options_(std::move(options)),
      seed_(seed),
      engine_(controller_model),
      batch_(controller_model.num_states()),
      decide_batch_(controller_model.num_states()),
      reduced_batch_(controller_model.num_states()),
      triple_beliefs_(controller_model.num_states()) {
  RD_EXPECTS(options_.sessions >= 1, "FleetDriver: at least one session required");
  RD_EXPECTS(options_.tree_depth >= 1, "FleetDriver: tree depth must be >= 1");
  RD_EXPECTS(options_.guard.reduced_depth >= 1,
             "FleetDriver: guard reduced_depth must be >= 1");
  RD_EXPECTS(options_.guard.promote_after >= 1,
             "FleetDriver: guard promote_after must be >= 1");
  RD_EXPECTS(options_.observe_action != kInvalidId,
             "FleetDriver: FleetOptions.observe_action was not set — assign the "
             "model's monitoring action before building a fleet");
  RD_EXPECTS(options_.observe_action < env_model_.num_actions(),
             "FleetDriver: observe action out of range");
  RD_EXPECTS(set_.dimension() == model_.num_states(),
             "FleetDriver: bound set dimension mismatch");
  RD_EXPECTS(set_.size() > 0, "FleetDriver: bound set must be seeded (RA-Bound)");
  RD_EXPECTS(static_cast<double>(model_.num_actions()) *
                     static_cast<double>(model_.num_observations()) <
                 0x1p53,
             "FleetDriver: action × observation count exceeds the update key range");

  // "All faults equally likely" (§4): the same initial belief run_episode
  // builds, shared by every (re)spawn.
  std::vector<StateId> support = options_.fault_support;
  if (support.empty()) {
    for (StateId s = 0; s < env_model_.num_states(); ++s) {
      if (!env_model_.mdp().is_goal(s)) support.push_back(s);
    }
  }
  const Belief initial = Belief::uniform_over(model_.num_states(), support);
  initial_probs_.assign(initial.probabilities().begin(), initial.probabilities().end());

  // One RNG stream per slot, split in slot order: a slot's fault sequence
  // and environment draws are a function of (seed, slot) alone, independent
  // of fleet width interleaving and identical in both fleet modes. Chaos
  // streams come from a salted master (sim/chaos_injector.hpp), so enabling
  // an axis never perturbs these baseline draws.
  const std::size_t n = options_.sessions;
  Rng master(seed);
  slot_rng_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) slot_rng_.push_back(master.split());
  envs_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    envs_.emplace_back(env_model_, slot_rng_[i].split());
  }
  if (options_.chaos.enabled()) chaos_.emplace(options_.chaos, seed, n);

  batch_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) batch_.push_back(initial_probs_, i);
  classes_.reset(initial_probs_);
  class_of_.assign(n, kPriorClass);
  lane_triple_.assign(n, 0);
  episode_steps_.assign(n, 0);
  last_actions_.assign(n, kInvalidId);
  pending_action_.assign(n, kInvalidId);
  pending_obs_.assign(n, 0);
  lane_scratch_.resize(model_.num_states());

  ladder_stage_.assign(n, LadderStage::Full);
  clean_streak_.assign(n, 0);
  ticks_since_fresh_.assign(n, 0);
  intent_.assign(n, Intent::Solve);
  lane_depth_.assign(n, options_.tree_depth);
  fault_this_tick_.assign(n, 0);
  if (options_.guard.enabled && options_.guard.livelock_window > 0) {
    controller::GuardOptions guard_options;
    guard_options.livelock_window = options_.guard.livelock_window;
    guard_options.livelock_min_improvement = options_.guard.livelock_min_improvement;
    guards_.assign(n, controller::GuardRuntime(guard_options));
  }

  if (options_.decision_cache && options_.mode == FleetMode::Batch) {
    // The 4-word overhead term dates from a bucket-map index; it stays so
    // the cap (and with it the hit accounting) does not move.
    const std::size_t entry_bytes = model_.num_states() * sizeof(double) +
                                    model_.num_actions() * sizeof(ActionValue) +
                                    4 * sizeof(std::size_t);
    cache_entry_cap_ = (options_.decision_cache_mb << 20) / std::max<std::size_t>(
                                                                entry_bytes, 1);
  }

  for (std::size_t i = 0; i < n; ++i) spawn(i);
  // Condition the initial monitor readings in before the first decide, as
  // run_episode does — through the mode's own update path.
  update_phase();
}

std::uint32_t FleetDriver::ClassStore::intern(const double* row, std::size_t dim) {
  const std::uint64_t hash = util::hash_belief_bits(row, dim);
  const auto [entry, inserted] = table.find_or_insert(hash, row, rows.data(), dim);
  if (inserted) {
    rows.insert(rows.end(), row, row + dim);
    hashes.push_back(hash);
  }
  return static_cast<std::uint32_t>(entry);
}

void FleetDriver::ClassStore::reset(std::span<const double> prior) {
  table.clear();
  rows.clear();
  hashes.clear();
  intern(prior.data(), prior.size());
}

std::size_t FleetDriver::cache_lookup(std::uint64_t hash, const double* belief) const {
  return cache_table_.find(hash, belief, cache_keys_.data(), model_.num_states());
}

void FleetDriver::cache_insert(std::uint64_t hash, const double* belief,
                               const ActionValue* values) {
  if (cache_table_.size() >= cache_entry_cap_) return;  // cap hit: keep serving lookups
  const std::size_t num_states = model_.num_states();
  if (!cache_table_.find_or_insert(hash, belief, cache_keys_.data(), num_states).second) {
    return;  // cached by an earlier tick
  }
  cache_keys_.insert(cache_keys_.end(), belief, belief + num_states);
  cache_values_.insert(cache_values_.end(), values, values + model_.num_actions());
}

ObsId FleetDriver::deliver_observation(std::size_t slot, ObsId fresh) {
  if (!chaos_) return fresh;
  bool corrupted = false;
  const ObsId delivered = chaos_->corrupt_observation(
      slot, fresh, model_.num_observations(), corrupted);
  if (corrupted) ++stats_.obs_corrupted;
  return delivered;
}

void FleetDriver::spawn(std::size_t slot) {
  const StateId fault = injector_.sample(slot_rng_[slot]);
  envs_[slot].reset(fault);
  batch_.assign_lane(slot, initial_probs_);
  class_of_[slot] = kPriorClass;
  episode_steps_[slot] = 0;
  ticks_since_fresh_[slot] = 0;
  if (!guards_.empty()) guards_[slot].begin_episode();
  // The degradation ladder deliberately survives respawns: it tracks the
  // *infrastructure* health of the slot (stalls, poisonings), not the
  // episode — promotion is earned by clean ticks, not by a fresh fault.
  if (options_.initial_observation) {
    const auto step = envs_[slot].step(options_.observe_action);
    pending_action_[slot] = options_.observe_action;
    pending_obs_[slot] = deliver_observation(slot, step.obs);
  } else {
    pending_action_[slot] = kInvalidId;  // nothing to condition on this tick
  }
}

void FleetDriver::finish_episode(std::size_t slot, bool terminated) {
  ++stats_.episodes_completed;
  if (envs_[slot].recovered()) ++stats_.episodes_recovered;
  if (!terminated) ++stats_.episodes_truncated;
}

// Bookkeeping shared by every lane that received a fresh value row this tick
// (a solve at either depth, or a bit-identical cache hit): reset staleness
// and feed the livelock monitor. An escalated slot is steered to termination
// — act_phase finishes the episode and respawns it.
void FleetDriver::note_fresh_decision(std::size_t slot, double expected_bound) {
  ticks_since_fresh_[slot] = 0;
  if (guards_.empty()) return;
  controller::GuardRuntime& guard = guards_[slot];
  const bool was_escalated = guard.escalation_requested();
  guard.note_expected_bound(expected_bound);
  if (guard.escalation_requested() && !was_escalated) {
    ++stats_.livelock_respawns;
  }
  if (guard.escalation_requested()) last_actions_[slot] = kInvalidId;
}

// Serves a lane that takes no solve this tick (Cached/Heuristic rung, a shed
// lane, or a stall-faulted lane): repeat the previous action when one exists
// and the rung allows it, else take the monitor reading. Both are valid
// environment actions by construction (aT is stored as kInvalidId).
void FleetDriver::apply_fallback(std::size_t slot, bool heuristic_only) {
  ++stats_.degraded_decides;
  const ActionId prev = last_actions_[slot];
  if (heuristic_only || prev == kInvalidId) {
    last_actions_[slot] = options_.observe_action;
    ++stats_.heuristic_fallbacks;
  } else {
    last_actions_[slot] = prev;  // repeat: the cross-tick cached action
    ++stats_.cached_fallbacks;
  }
}

// Admission quota for this tick's fresh solves. tick_budget_decisions is the
// deterministic source (exact count, preserved by the bitwise contracts);
// tick_budget_ms sizes the quota from an EWMA of measured per-lane solve
// cost, with a ±10% hysteresis band so the fleet does not flap between
// shedding and not on timer noise.
std::size_t FleetDriver::tick_quota(std::size_t solve_intents) {
  if (options_.tick_budget_decisions > 0) return options_.tick_budget_decisions;
  if (options_.tick_budget_ms > 0.0 && ewma_lane_ms_ > 0.0) {
    const double projected = static_cast<double>(solve_intents) * ewma_lane_ms_;
    if (!shedding_active_) {
      if (projected > 1.1 * options_.tick_budget_ms) shedding_active_ = true;
    } else if (projected < 0.9 * options_.tick_budget_ms) {
      shedding_active_ = false;
    }
    if (shedding_active_) {
      const double fit = options_.tick_budget_ms / ewma_lane_ms_;
      return std::max<std::size_t>(1, static_cast<std::size_t>(fit));
    }
  }
  return solve_intents;  // no (engaged) budget: admit everything
}

// Chaos and belief hygiene ahead of the decide (fixed draw order: poison,
// then the decide phase's stalls). In Batch mode each lane write here
// moves the lane's class with it.
void FleetDriver::prepass_phase() {
  const std::size_t n = envs_.size();
  const std::size_t num_states = model_.num_states();
  std::fill(fault_this_tick_.begin(), fault_this_tick_.end(), std::uint8_t{0});
  if (chaos_ && chaos_->options().poison_rate > 0.0) {
    for (std::size_t slot = 0; slot < n; ++slot) {
      std::size_t state = 0;
      double value = 0.0;
      if (chaos_->draw_poison(slot, num_states, state, value)) {
        batch_.set(slot, static_cast<StateId>(state), value);
        ++stats_.poisons_injected;
        if (options_.mode == FleetMode::Batch) {
          batch_.copy_lane(slot, lane_scratch_);
          class_of_[slot] = classes_.intern(lane_scratch_.data(), num_states);
        }
      }
    }
  }
  if (options_.guard.enabled) {
    // Belief hygiene: quarantine poisoned/inconsistent lanes back to the
    // episode prior before anything reads them. Guarded fleets only — the
    // unguarded baseline lets the NaNs flow, which is the failure the
    // resilience campaign demonstrates.
    for (std::size_t slot = 0; slot < n; ++slot) {
      batch_.copy_lane(slot, lane_scratch_);
      if (lane_unhealthy(lane_scratch_.data(), num_states)) {
        batch_.assign_lane(slot, initial_probs_);
        class_of_[slot] = kPriorClass;
        ++stats_.beliefs_repaired;
        fault_this_tick_[slot] = 1;
      }
    }
  }
}

void FleetDriver::decide_phase() {
  ExpansionOptions expansion;
  expansion.branch_floor = options_.branch_floor;
  expansion.memo_max_bytes = options_.memo_max_mb << 20;

  set_.begin_eval(eval_scratch_);
  const bounds::ScratchBoundLeaf leaf{&set_, &eval_scratch_};
  const SpanLeaf span_leaf = SpanLeaf::of_batched(leaf, set_.size() + 1);

  const bool has_terminate = model_.has_terminate_action();
  const bool guard = options_.guard.enabled;
  const std::size_t n = envs_.size();
  const int full_depth = options_.tree_depth;
  const int reduced_depth = std::min(options_.guard.reduced_depth, full_depth);

  // --- intent pass (slot-ascending, mode-independent) --------------------
  std::size_t solve_intents = 0;
  for (std::size_t slot = 0; slot < n; ++slot) {
    // Stall draws advance the chaos stream for every slot, so the event
    // sequence is a function of (seed, slot, tick) alone; the event is
    // discarded for lanes that terminate without deciding.
    const bool stalled = chaos_ && chaos_->draw_stall(slot);
    // Recovery-notification models: certain-enough beliefs terminate without
    // an expansion (BoundedController's goal-certainty exit).
    if (!has_terminate) {
      batch_.copy_lane(slot, lane_scratch_);
      if (model_.mdp().goal_probability(lane_scratch_) >= options_.goal_certainty) {
        last_actions_[slot] = kInvalidId;
        intent_[slot] = Intent::Terminate;
        continue;
      }
    }
    if (stalled) {
      ++stats_.stalls_injected;
      if (guard) {
        // Isolate the stalled session: no solve is attempted (the stall
        // never materialises), the lane falls back and steps down the
        // ladder alone, and the rest of the tick proceeds at full speed.
        fault_this_tick_[slot] = 1;
        intent_[slot] = Intent::Fallback;
        continue;
      }
      // Unguarded: the lock-step tick really hangs — the cost the guard
      // exists to remove.
      spin_for_ms(chaos_->options().stall_ms);
    }
    const LadderStage stage = guard ? ladder_stage_[slot] : LadderStage::Full;
    if (stage == LadderStage::Cached || stage == LadderStage::Heuristic) {
      intent_[slot] = Intent::Fallback;
      continue;
    }
    intent_[slot] = Intent::Solve;
    lane_depth_[slot] = stage == LadderStage::Reduced ? reduced_depth : full_depth;
    ++solve_intents;
  }

  // --- admission control (deterministic order: staleness desc, slot asc) --
  const std::size_t quota = tick_quota(solve_intents);
  std::size_t admitted = solve_intents;
  if (quota < solve_intents) {
    solve_slots_.clear();
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (intent_[slot] == Intent::Solve) solve_slots_.push_back(slot);
    }
    std::sort(solve_slots_.begin(), solve_slots_.end(),
              [this](std::size_t a, std::size_t b) {
                if (ticks_since_fresh_[a] != ticks_since_fresh_[b]) {
                  return ticks_since_fresh_[a] > ticks_since_fresh_[b];
                }
                return a < b;
              });
    for (std::size_t i = quota; i < solve_slots_.size(); ++i) {
      // Shedding is overload response, not a slot fault: the lane falls
      // back this tick but keeps its ladder stage. Most-stale lanes were
      // admitted first, so no lane starves under a sustained budget.
      intent_[solve_slots_[i]] = Intent::Fallback;
      ++stats_.shed;
    }
    admitted = quota;
  }

  // --- execute solves ----------------------------------------------------
  const bool measure = options_.tick_budget_ms > 0.0 &&
                       options_.tick_budget_decisions == 0 && admitted > 0;
  const Timer solve_timer;
  if (options_.mode == FleetMode::Batch) {
    solve_classes(span_leaf, expansion);
  } else {
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (intent_[slot] != Intent::Solve) continue;
      ++stats_.decisions;
      if (lane_depth_[slot] != full_depth) {
        ++stats_.reduced_decides;
        ++stats_.degraded_decides;
      }
      batch_.copy_lane(slot, lane_scratch_);
      engine_.action_values(lane_scratch_, lane_depth_[slot], span_leaf, expansion,
                            lane_values_);
      ++stats_.classes;
      const ActionValue choice =
          select_action(model_, lane_values_.data(), options_.terminate_tie_epsilon);
      last_actions_[slot] = choice.action;
      note_fresh_decision(slot, choice.value);
    }
  }
  if (measure) {
    const double lane_ms = solve_timer.elapsed_ms() / static_cast<double>(admitted);
    ewma_lane_ms_ = ewma_lane_ms_ <= 0.0 ? lane_ms
                                         : 0.8 * ewma_lane_ms_ + 0.2 * lane_ms;
  }

  // --- fallbacks + ladder bookkeeping ------------------------------------
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (intent_[slot] == Intent::Fallback) {
      const bool heuristic_only =
          guard && ladder_stage_[slot] == LadderStage::Heuristic;
      apply_fallback(slot, heuristic_only);
      ++ticks_since_fresh_[slot];
    }
    if (!guard || intent_[slot] == Intent::Terminate) continue;
    const auto stage = static_cast<std::uint8_t>(ladder_stage_[slot]);
    if (fault_this_tick_[slot] != 0) {
      clean_streak_[slot] = 0;
      if (ladder_stage_[slot] != LadderStage::Heuristic) {
        ladder_stage_[slot] = static_cast<LadderStage>(stage + 1);
        ++stats_.ladder_demotions;
      }
    } else if (ladder_stage_[slot] != LadderStage::Full) {
      if (++clean_streak_[slot] >= options_.guard.promote_after) {
        ladder_stage_[slot] = static_cast<LadderStage>(stage - 1);
        clean_streak_[slot] = 0;
        ++stats_.ladder_promotions;
      }
    } else {
      clean_streak_[slot] = 0;
    }
  }

  set_.flush_eval(eval_scratch_);
}

// Batch-mode solves. Full-depth Solve lanes are served per class: the
// first lane of a class (ascending slot) probes the cross-tick cache once,
// and on a miss hands the class row to the engine — the distinct rows a
// per-lane pass would hand it, in the same first-occurrence order, so node
// numbering, plane use counts and cache insert order do not move. Every
// member then takes the class's choice with its own staleness and livelock
// bookkeeping. Reduced-rung lanes solve in their own sub-batch and never
// touch the cross-tick cache (its entries are keyed by belief bits alone
// and must all mean "full depth").
void FleetDriver::solve_classes(const SpanLeaf& leaf, const ExpansionOptions& expansion) {
  const std::size_t n = envs_.size();
  const std::size_t num_states = model_.num_states();
  const std::size_t num_actions = model_.num_actions();
  const double tie_epsilon = options_.terminate_tie_epsilon;
  const int full_depth = options_.tree_depth;
  const int reduced_depth = std::min(options_.guard.reduced_depth, full_depth);
  decide_batch_.clear();
  reduced_batch_.clear();
  class_seen_.assign(classes_.size(), 0);
  class_choice_.resize(classes_.size());
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (intent_[slot] != Intent::Solve) continue;
    ++stats_.decisions;
    const std::uint32_t c = class_of_[slot];
    if (lane_depth_[slot] != full_depth) {
      ++stats_.reduced_decides;
      ++stats_.degraded_decides;
      reduced_batch_.push_back({classes_.row(c, num_states), num_states}, slot);
      continue;
    }
    if (class_seen_[c] != 0) {
      ++stats_.shared_hits;  // a class-mate's solve or cache hit
      continue;
    }
    class_seen_[c] = 1;
    const double* row = classes_.row(c, num_states);
    if (cache_entry_cap_ > 0) {
      const std::size_t entry = cache_lookup(classes_.hashes[c], row);
      if (entry != kNoEntry) {
        ++stats_.shared_hits;  // cross-tick reuse: bits of a past solve
        class_choice_[c] =
            select_action(model_, cache_values_.data() + entry * num_actions, tie_epsilon);
        continue;
      }
    }
    decide_batch_.push_back({row, num_states}, c);
  }

  // The engine tallies its own canonicalization; rows of the full-depth
  // batch are distinct already, so its shared hits there are 0.
  const auto solve = [&](const BeliefBatch& batch, int depth,
                         std::vector<ActionValue>& out) {
    BatchExpansionStats batch_stats;
    if (options_.deep_batch) {
      engine_.action_values_batch_deep(batch, depth, leaf, expansion, out, &batch_stats);
    } else {
      engine_.action_values_batch(batch, depth, leaf, expansion, out, &batch_stats);
    }
    stats_.classes += batch_stats.classes;
    stats_.shared_hits += batch_stats.shared_hits;
  };

  solve(decide_batch_, full_depth, values_scratch_);
  for (std::size_t lane = 0; lane < decide_batch_.size(); ++lane) {
    const auto c = static_cast<std::uint32_t>(decide_batch_.session_id(lane));
    const ActionValue* values = values_scratch_.data() + lane * num_actions;
    class_choice_[c] = select_action(model_, values, tie_epsilon);
    if (cache_entry_cap_ > 0) {
      cache_insert(classes_.hashes[c], classes_.row(c, num_states), values);
    }
  }
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (intent_[slot] != Intent::Solve || lane_depth_[slot] != full_depth) continue;
    const ActionValue& choice = class_choice_[class_of_[slot]];
    last_actions_[slot] = choice.action;
    note_fresh_decision(slot, choice.value);
  }

  solve(reduced_batch_, reduced_depth, reduced_values_scratch_);
  for (std::size_t lane = 0; lane < reduced_batch_.size(); ++lane) {
    const auto slot = static_cast<std::size_t>(reduced_batch_.session_id(lane));
    const ActionValue choice = select_action(
        model_, reduced_values_scratch_.data() + lane * num_actions, tie_epsilon);
    last_actions_[slot] = choice.action;
    note_fresh_decision(slot, choice.value);
  }
}

void FleetDriver::act_phase() {
  const std::size_t n = envs_.size();
  for (std::size_t slot = 0; slot < n; ++slot) {
    const ActionId action = last_actions_[slot];
    if (action == kInvalidId) {
      finish_episode(slot, /*terminated=*/true);
      spawn(slot);
      continue;
    }
    RD_ENSURES(action < env_model_.num_actions(),
               "FleetDriver: decided an action the environment lacks");
    const auto step = envs_[slot].step(action);
    if (++episode_steps_[slot] >= options_.max_steps) {
      finish_episode(slot, /*terminated=*/false);
      spawn(slot);  // the cap-hitting step's observation dies with the episode
    } else {
      pending_action_[slot] = action;
      pending_obs_[slot] = deliver_observation(slot, step.obs);
    }
  }
}

void FleetDriver::update_phase() {
  const std::size_t n = envs_.size();
  // Out-of-range observation ids (the chaos axis' loud half) must be caught
  // before anything indexes the observation tables — this is input
  // validation, not a guard feature, so it runs regardless of the guard.
  // The lane keeps its belief (nothing sound to condition on) and the tick
  // proceeds; in-range corruptions flow into the Bayes update and surface
  // as zero-likelihood mismatches at worst.
  if (chaos_ && chaos_->options().obs_corrupt_rate > 0.0) {
    const std::size_t num_obs = model_.num_observations();
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (pending_action_[slot] == kInvalidId) continue;
      if (pending_obs_[slot] >= num_obs) {
        ++stats_.obs_invalid_rejected;
        pending_action_[slot] = kInvalidId;
        pending_obs_[slot] = 0;
      }
    }
  }
  if (options_.mode == FleetMode::Batch) {
    update_classes();
  } else {
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (pending_action_[slot] == kInvalidId) continue;
      batch_.copy_lane(slot, lane_scratch_);
      const Belief before = Belief::from_normalized(lane_scratch_);
      const auto updated =
          update_belief(model_, before, pending_action_[slot], pending_obs_[slot]);
      if (updated.has_value()) {
        batch_.assign_lane(slot, updated->next.probabilities());
      } else {
        ++stats_.belief_mismatches;  // lane kept as-is, like update_batch
      }
    }
  }
  std::fill(pending_action_.begin(), pending_action_.end(), kInvalidId);
}

// Batch-mode Bayes update, once per distinct (class, action, observation)
// triple: update_batch() conditions one lane per triple — the kernel every
// lane would have run, so the same bits — and the posteriors become the
// next tick's classes. A lane without a pending reading, or whose reading
// had zero likelihood, keeps its belief and carries its class over.
void FleetDriver::update_classes() {
  const std::size_t n = envs_.size();
  const std::size_t num_states = model_.num_states();
  const std::size_t num_obs = model_.num_observations();
  triple_table_.clear();
  triple_keys_.clear();
  triple_beliefs_.clear();
  triple_actions_.clear();
  triple_obs_.clear();
  for (std::size_t slot = 0; slot < n; ++slot) {
    const ActionId action = pending_action_[slot];
    if (action == kInvalidId) continue;
    const std::uint32_t c = class_of_[slot];
    const ObsId obs = pending_obs_[slot];
    const double key[2] = {static_cast<double>(c),
                           static_cast<double>(action * num_obs + obs)};
    const auto [triple, inserted] = triple_table_.find_or_insert(
        util::hash_belief_bits(key, 2), key, triple_keys_.data(), 2);
    if (inserted) {
      triple_keys_.insert(triple_keys_.end(), key, key + 2);
      triple_beliefs_.push_back({classes_.row(c, num_states), num_states}, triple);
      triple_actions_.push_back(action);
      triple_obs_.push_back(obs);
    }
    lane_triple_[slot] = static_cast<std::uint32_t>(triple);
  }
  update_batch(model_, triple_beliefs_, triple_actions_, triple_obs_, update_ws_);

  next_classes_.reset(initial_probs_);
  triple_class_.resize(triple_beliefs_.size());
  for (std::size_t triple = 0; triple < triple_beliefs_.size(); ++triple) {
    if (update_ws_.likelihood[triple] <= 0.0) {
      triple_class_[triple] = kKept;
      continue;
    }
    triple_beliefs_.copy_lane(triple, lane_scratch_);
    triple_class_[triple] = next_classes_.intern(lane_scratch_.data(), num_states);
  }
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (pending_action_[slot] != kInvalidId) {
      const std::uint32_t next = triple_class_[lane_triple_[slot]];
      if (next != kKept) {
        class_of_[slot] = next;
        continue;
      }
      ++stats_.belief_mismatches;  // lane kept as-is, like update_batch
    }
    class_of_[slot] = next_classes_.intern(classes_.row(class_of_[slot], num_states), num_states);
  }
  // A kept lane's row holds its own bits, so one state-major sweep writes
  // every lane back from its class.
  for (StateId s = 0; s < num_states; ++s) {
    double* lanes = batch_.state_lanes(s).data();
    const double* rows = next_classes_.rows.data() + s;
    for (std::size_t slot = 0; slot < n; ++slot) {
      lanes[slot] = rows[static_cast<std::size_t>(class_of_[slot]) * num_states];
    }
  }
  std::swap(classes_, next_classes_);
}

void FleetDriver::tick() {
  obs::TraceSpan span("sim.fleet.tick", obs::TraceLevel::Decide);
  span.arg("sessions", static_cast<double>(envs_.size()));

  const FleetStats before = stats_;
  {
    obs::TraceSpan phase("sim.fleet.prepass", obs::TraceLevel::Full);
    prepass_phase();
  }
  {
    obs::TraceSpan phase("sim.fleet.decide", obs::TraceLevel::Full);
    decide_phase();
  }
  {
    obs::TraceSpan phase("sim.fleet.act", obs::TraceLevel::Full);
    act_phase();
  }
  {
    obs::TraceSpan phase("sim.fleet.update", obs::TraceLevel::Full);
    update_phase();
  }
  ++stats_.ticks;

  FleetInstruments& instruments = FleetInstruments::get();
  instruments.ticks.add(1);
  instruments.decisions.add(stats_.decisions - before.decisions);
  instruments.classes.add(stats_.classes - before.classes);
  instruments.shared_hits.add(stats_.shared_hits - before.shared_hits);
  instruments.episodes.add(stats_.episodes_completed - before.episodes_completed);
  instruments.truncated.add(stats_.episodes_truncated - before.episodes_truncated);
  instruments.mismatches.add(stats_.belief_mismatches - before.belief_mismatches);
  instruments.degraded.add(stats_.degraded_decides - before.degraded_decides);
  instruments.shed.add(stats_.shed - before.shed);
  instruments.demotions.add(stats_.ladder_demotions - before.ladder_demotions);
  instruments.promotions.add(stats_.ladder_promotions - before.ladder_promotions);
  instruments.livelock_respawns.add(stats_.livelock_respawns -
                                    before.livelock_respawns);
  instruments.beliefs_repaired.add(stats_.beliefs_repaired -
                                   before.beliefs_repaired);
  instruments.stalls.add(stats_.stalls_injected - before.stalls_injected);
  instruments.poisons.add(stats_.poisons_injected - before.poisons_injected);
  instruments.obs_corrupted.add(stats_.obs_corrupted - before.obs_corrupted);
  instruments.obs_rejected.add(stats_.obs_invalid_rejected -
                               before.obs_invalid_rejected);
  span.arg("classes", static_cast<double>(stats_.classes - before.classes));
}

double FleetDriver::healthy_fraction() const {
  if (envs_.empty()) return 0.0;
  std::size_t healthy = 0;
  for (const Environment& env : envs_) {
    if (env.recovered()) ++healthy;
  }
  return static_cast<double>(healthy) / static_cast<double>(envs_.size());
}

// ---- crash safety --------------------------------------------------------

// Hash of every option that shapes the decision/draw sequence. Options that
// only change *how fast* the same bits are produced — mode, deep_batch,
// memo_max_mb, the decision cache, tick_budget_ms, chaos stall_ms — are
// deliberately excluded, so a checkpoint moves freely across those (the
// bitwise invariance contracts are exactly what makes that sound).
std::uint64_t FleetDriver::options_hash() const {
  std::uint64_t h = 0x464c454554435250ULL;  // "FLEETCRP"
  const auto mix = [&h](std::uint64_t v) { h = util::mix_in(h, v); };
  using util::bits_of;
  mix(options_.sessions);
  mix(options_.observe_action);
  mix(static_cast<std::uint64_t>(options_.tree_depth));
  mix(bits_of(options_.branch_floor));
  mix(bits_of(options_.goal_certainty));
  mix(bits_of(options_.terminate_tie_epsilon));
  mix(options_.max_steps);
  mix(options_.initial_observation ? 1 : 0);
  mix(options_.fault_support.size());
  for (const StateId s : options_.fault_support) mix(s);
  mix(options_.guard.enabled ? 1 : 0);
  if (options_.guard.enabled) {
    mix(static_cast<std::uint64_t>(options_.guard.reduced_depth));
    mix(options_.guard.promote_after);
    mix(options_.guard.livelock_window);
    mix(bits_of(options_.guard.livelock_min_improvement));
  }
  mix(bits_of(options_.chaos.stall_rate));
  mix(bits_of(options_.chaos.obs_corrupt_rate));
  mix(bits_of(options_.chaos.poison_rate));
  mix(options_.tick_budget_decisions);
  return h;
}

FleetCheckpoint FleetDriver::capture_checkpoint() const {
  const std::size_t n = envs_.size();
  const std::size_t num_states = model_.num_states();
  FleetCheckpoint cp;
  cp.model_hash = hash_pomdp(model_);
  cp.options_hash = options_hash();
  cp.bound_artifact_hash = options_.bound_artifact_hash;
  cp.seed = seed_;
  cp.tick = stats_.ticks;
  cp.sessions = n;
  cp.num_states = num_states;
  cp.num_actions = model_.num_actions();
  cp.num_observations = model_.num_observations();
  cp.stats = {stats_.ticks,
              stats_.decisions,
              stats_.classes,
              stats_.shared_hits,
              stats_.episodes_completed,
              stats_.episodes_recovered,
              stats_.episodes_truncated,
              stats_.belief_mismatches,
              stats_.degraded_decides,
              stats_.reduced_decides,
              stats_.cached_fallbacks,
              stats_.heuristic_fallbacks,
              stats_.shed,
              stats_.stalls_injected,
              stats_.poisons_injected,
              stats_.beliefs_repaired,
              stats_.obs_corrupted,
              stats_.obs_invalid_rejected,
              stats_.livelock_respawns,
              stats_.ladder_demotions,
              stats_.ladder_promotions};
  cp.slot_rng.reserve(n);
  for (const Rng& rng : slot_rng_) cp.slot_rng.push_back(rng.state());
  cp.envs.reserve(n);
  for (const Environment& env : envs_) cp.envs.push_back(env.snapshot());
  if (chaos_) cp.chaos_rng = chaos_->rng_states();
  cp.beliefs.resize(n * num_states);
  for (std::size_t slot = 0; slot < n; ++slot) {
    batch_.copy_lane(slot, std::span<double>(cp.beliefs.data() + slot * num_states,
                                             num_states));
  }
  cp.episode_steps.assign(episode_steps_.begin(), episode_steps_.end());
  cp.last_actions.assign(last_actions_.begin(), last_actions_.end());
  cp.pending_action.assign(pending_action_.begin(), pending_action_.end());
  cp.pending_obs.assign(pending_obs_.begin(), pending_obs_.end());
  // Guard/overload arrays are always captured (the staleness clock also
  // drives guard-less budgeted fleets); GuardRuntime state is default when
  // livelock monitoring is off.
  cp.ladder_stage.reserve(n);
  for (const LadderStage stage : ladder_stage_) {
    cp.ladder_stage.push_back(static_cast<std::uint8_t>(stage));
  }
  cp.clean_streak.assign(clean_streak_.begin(), clean_streak_.end());
  cp.ticks_since_fresh.assign(ticks_since_fresh_.begin(), ticks_since_fresh_.end());
  cp.guard_state.resize(n);
  for (std::size_t slot = 0; slot < guards_.size(); ++slot) {
    cp.guard_state[slot] = guards_[slot].state();
  }
  return cp;
}

void FleetDriver::adopt_checkpoint(const FleetCheckpoint& cp) {
  const std::size_t n = envs_.size();
  const std::size_t num_states = model_.num_states();
  // Validate everything before touching any state: a rejected checkpoint
  // leaves the driver exactly as it was.
  if (cp.model_hash != hash_pomdp(model_)) {
    throw ModelError(
        "fleet checkpoint was saved from a different model (model hash "
        "mismatch) — rebuild the checkpoint against this model or restore "
        "into the fleet it came from");
  }
  if (cp.sessions != n || cp.num_states != num_states ||
      cp.num_actions != model_.num_actions() ||
      cp.num_observations != model_.num_observations()) {
    throw ModelError(
        "fleet checkpoint shape mismatch (saved " + std::to_string(cp.sessions) +
        " sessions over " + std::to_string(cp.num_states) + " states, this fleet "
        "runs " + std::to_string(n) + " over " + std::to_string(num_states) +
        ") — restore with the same --sessions and model");
  }
  if (cp.options_hash != options_hash()) {
    throw ModelError(
        "fleet checkpoint was saved under different fleet options (decision-"
        "relevant options hash mismatch) — depth, budgets, guard and chaos "
        "settings must match the saving run (mode/jobs/simd/cache and "
        "--tick-budget-ms may differ freely)");
  }
  if (cp.bound_artifact_hash != options_.bound_artifact_hash) {
    throw ModelError(
        "fleet checkpoint was saved with a different bound artifact (saved "
        "hash " + std::to_string(cp.bound_artifact_hash) + ", this fleet has " +
        std::to_string(options_.bound_artifact_hash) +
        "; 0 means cold-built) — warm-start from the same --bounds-in "
        "artifact the saving run used, or rebuild the checkpoint");
  }
  if (cp.stats.size() != 21) {
    throw ModelError("fleet checkpoint carries " + std::to_string(cp.stats.size()) +
                     " stats counters, this build expects 21 — the checkpoint "
                     "was written by an incompatible build");
  }
  const bool sized = cp.slot_rng.size() == n && cp.envs.size() == n &&
                     cp.beliefs.size() == n * num_states &&
                     cp.episode_steps.size() == n && cp.last_actions.size() == n &&
                     cp.pending_action.size() == n && cp.pending_obs.size() == n &&
                     cp.ladder_stage.size() == n && cp.clean_streak.size() == n &&
                     cp.ticks_since_fresh.size() == n && cp.guard_state.size() == n;
  if (!sized || (chaos_.has_value() ? cp.chaos_rng.size() != n
                                    : !cp.chaos_rng.empty())) {
    throw ModelError(
        "fleet checkpoint per-slot arrays do not match the fleet shape — the "
        "file is corrupted or from an incompatible configuration");
  }
  // Environment::restore and Rng::set_state reject these with a
  // PreconditionError; caught here, they cannot fail halfway through.
  const auto all_zero = [](const std::array<std::uint64_t, 4>& s) {
    return (s[0] | s[1] | s[2] | s[3]) == 0;
  };
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (cp.ladder_stage[slot] >
        static_cast<std::uint8_t>(LadderStage::Heuristic)) {
      throw ModelError("fleet checkpoint holds an invalid ladder stage — the "
                       "file is corrupted");
    }
    if (cp.envs[slot].state >= num_states) {
      throw ModelError("fleet checkpoint holds environment state " +
                       std::to_string(cp.envs[slot].state) + " in a " +
                       std::to_string(num_states) + "-state model — the file is "
                       "corrupted");
    }
    if (all_zero(cp.slot_rng[slot]) || all_zero(cp.envs[slot].rng) ||
        (chaos_ && all_zero(cp.chaos_rng[slot]))) {
      throw ModelError("fleet checkpoint holds an all-zero RNG state — the file "
                       "is corrupted");
    }
  }

  stats_.ticks = cp.stats[0];
  stats_.decisions = cp.stats[1];
  stats_.classes = cp.stats[2];
  stats_.shared_hits = cp.stats[3];
  stats_.episodes_completed = cp.stats[4];
  stats_.episodes_recovered = cp.stats[5];
  stats_.episodes_truncated = cp.stats[6];
  stats_.belief_mismatches = cp.stats[7];
  stats_.degraded_decides = cp.stats[8];
  stats_.reduced_decides = cp.stats[9];
  stats_.cached_fallbacks = cp.stats[10];
  stats_.heuristic_fallbacks = cp.stats[11];
  stats_.shed = cp.stats[12];
  stats_.stalls_injected = cp.stats[13];
  stats_.poisons_injected = cp.stats[14];
  stats_.beliefs_repaired = cp.stats[15];
  stats_.obs_corrupted = cp.stats[16];
  stats_.obs_invalid_rejected = cp.stats[17];
  stats_.livelock_respawns = cp.stats[18];
  stats_.ladder_demotions = cp.stats[19];
  stats_.ladder_promotions = cp.stats[20];

  for (std::size_t slot = 0; slot < n; ++slot) {
    slot_rng_[slot].set_state(cp.slot_rng[slot]);
    envs_[slot].restore(cp.envs[slot]);
    batch_.assign_lane(slot, std::span<const double>(
                                 cp.beliefs.data() + slot * num_states, num_states));
    episode_steps_[slot] = cp.episode_steps[slot];
    last_actions_[slot] = static_cast<ActionId>(cp.last_actions[slot]);
    pending_action_[slot] = static_cast<ActionId>(cp.pending_action[slot]);
    pending_obs_[slot] = static_cast<ObsId>(cp.pending_obs[slot]);
    ladder_stage_[slot] = static_cast<LadderStage>(cp.ladder_stage[slot]);
    clean_streak_[slot] = cp.clean_streak[slot];
    ticks_since_fresh_[slot] = cp.ticks_since_fresh[slot];
  }
  for (std::size_t slot = 0; slot < guards_.size(); ++slot) {
    guards_[slot].set_state(cp.guard_state[slot]);
  }
  if (chaos_) chaos_->set_rng_states(cp.chaos_rng);
  if (options_.mode == FleetMode::Batch) {
    // Every lane changed under its class: intern the adopted beliefs anew.
    classes_.reset(initial_probs_);
    for (std::size_t slot = 0; slot < n; ++slot) {
      batch_.copy_lane(slot, lane_scratch_);
      class_of_[slot] = classes_.intern(lane_scratch_.data(), num_states);
    }
  }

  // Caches restart cold and refill with the exact bits a fresh solve
  // produces: resumed *decisions* are unchanged; only the classes /
  // shared_hits work accounting can differ from the uninterrupted run
  // (which the parity conventions already exclude).
  cache_table_.clear();
  cache_keys_.clear();
  cache_values_.clear();
  ewma_lane_ms_ = 0.0;
  shedding_active_ = false;
}

void FleetDriver::save_checkpoint(const std::string& path) const {
  write_fleet_checkpoint(path, capture_checkpoint());
}

void FleetDriver::restore_checkpoint(const std::string& path) {
  adopt_checkpoint(read_fleet_checkpoint(path));
}

}  // namespace recoverd::sim
