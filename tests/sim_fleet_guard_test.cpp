// Fault-tolerant fleet runtime suite (DESIGN.md §14): the per-session guard
// ladder must isolate chaos-injected faults (decide stalls, belief
// poisoning, corrupted observation ids) to the afflicted lane, the
// deterministic admission quota must shed load in staleness order, and —
// the load-bearing property — every bitwise contract of the clean fleet
// (Batch ≡ Loop, across --jobs, scalar ≡ auto kernels) must keep holding
// with guards, chaos, and deterministic budgets all enabled.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "bounds/ra_bound.hpp"
#include "controller/bootstrap.hpp"
#include "models/emn.hpp"
#include "pomdp/belief.hpp"
#include "sim/fleet_driver.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace recoverd::sim {
namespace {

struct EmnFleet {
  Pomdp base;
  Pomdp recovery;
  models::EmnIds ids;
  FaultInjector injector;
  bounds::BoundSet set;

  EmnFleet()
      : base(models::make_emn_base()),
        recovery(models::make_emn_recovery_model()),
        ids(models::emn_ids(base)),
        injector(std::vector<StateId>(ids.topo.zombie_states.begin(),
                                      ids.topo.zombie_states.end())),
        set(bounds::make_ra_bound_set(recovery.mdp(), 32)) {
    controller::BootstrapOptions boot;
    boot.iterations = 4;
    boot.tree_depth = 2;
    boot.observe_action = ids.topo.observe_action;
    boot.seed = 7;
    boot.branch_floor = 1e-2;
    controller::bootstrap_bounds(recovery, set,
                                 Belief::uniform(recovery.num_states()), boot);
  }
};

EmnFleet& emn() {
  static EmnFleet* fleet = new EmnFleet();
  return *fleet;
}

FleetOptions make_options(std::size_t sessions, FleetMode mode) {
  FleetOptions options;
  options.sessions = sessions;
  options.mode = mode;
  options.observe_action = emn().ids.topo.observe_action;
  options.tree_depth = 1;
  options.branch_floor = 1e-2;
  options.max_steps = 10000;
  return options;
}

// A configuration that exercises every resilience mechanism at once: guard
// ladder with fast hysteresis, livelock monitor, all three chaos axes, and
// a deterministic admission quota.
FleetOptions make_resilient_options(std::size_t sessions, FleetMode mode) {
  FleetOptions options = make_options(sessions, mode);
  options.guard.enabled = true;
  options.guard.promote_after = 2;
  options.guard.livelock_window = 16;
  options.chaos.stall_rate = 0.3;
  options.chaos.stall_ms = 0.1;  // unguarded spins must not slow the suite
  options.chaos.obs_corrupt_rate = 0.3;
  options.chaos.poison_rate = 0.3;
  options.tick_budget_decisions = sessions / 2;
  return options;
}

FleetDriver make_fleet(FleetOptions options, std::uint64_t seed = 41) {
  EmnFleet& f = emn();
  return FleetDriver(f.recovery, f.base, f.set, f.injector, seed, options);
}

// The fleet parity contract extended to the resilience counters: belief
// bits, last actions, episode tallies, and every guard/chaos/shed counter
// equal — classes/shared_hits excluded (Batch-mode work accounting).
void expect_fleets_bitwise_equal(const FleetDriver& a, const FleetDriver& b,
                                 std::size_t tick) {
  ASSERT_EQ(a.sessions(), b.sessions());
  const std::size_t num_states = a.beliefs().num_states();
  for (StateId s = 0; s < num_states; ++s) {
    const auto lanes_a = a.beliefs().state_lanes(s);
    const auto lanes_b = b.beliefs().state_lanes(s);
    ASSERT_EQ(std::memcmp(lanes_a.data(), lanes_b.data(),
                          a.sessions() * sizeof(double)),
              0)
        << "belief bits diverged at tick " << tick << ", state " << s;
  }
  const auto actions_a = a.last_actions();
  const auto actions_b = b.last_actions();
  ASSERT_TRUE(std::equal(actions_a.begin(), actions_a.end(), actions_b.begin()))
      << "actions diverged at tick " << tick;
  const auto stages_a = a.ladder_stages();
  const auto stages_b = b.ladder_stages();
  ASSERT_TRUE(std::equal(stages_a.begin(), stages_a.end(), stages_b.begin()))
      << "ladder stages diverged at tick " << tick;
  const FleetStats& sa = a.stats();
  const FleetStats& sb = b.stats();
  EXPECT_EQ(sa.ticks, sb.ticks);
  EXPECT_EQ(sa.decisions, sb.decisions) << "tick " << tick;
  EXPECT_EQ(sa.episodes_completed, sb.episodes_completed) << "tick " << tick;
  EXPECT_EQ(sa.episodes_recovered, sb.episodes_recovered) << "tick " << tick;
  EXPECT_EQ(sa.episodes_truncated, sb.episodes_truncated) << "tick " << tick;
  EXPECT_EQ(sa.belief_mismatches, sb.belief_mismatches) << "tick " << tick;
  EXPECT_EQ(sa.degraded_decides, sb.degraded_decides) << "tick " << tick;
  EXPECT_EQ(sa.reduced_decides, sb.reduced_decides) << "tick " << tick;
  EXPECT_EQ(sa.cached_fallbacks, sb.cached_fallbacks) << "tick " << tick;
  EXPECT_EQ(sa.heuristic_fallbacks, sb.heuristic_fallbacks) << "tick " << tick;
  EXPECT_EQ(sa.shed, sb.shed) << "tick " << tick;
  EXPECT_EQ(sa.stalls_injected, sb.stalls_injected) << "tick " << tick;
  EXPECT_EQ(sa.poisons_injected, sb.poisons_injected) << "tick " << tick;
  EXPECT_EQ(sa.beliefs_repaired, sb.beliefs_repaired) << "tick " << tick;
  EXPECT_EQ(sa.obs_corrupted, sb.obs_corrupted) << "tick " << tick;
  EXPECT_EQ(sa.obs_invalid_rejected, sb.obs_invalid_rejected) << "tick " << tick;
  EXPECT_EQ(sa.livelock_respawns, sb.livelock_respawns) << "tick " << tick;
  EXPECT_EQ(sa.ladder_demotions, sb.ladder_demotions) << "tick " << tick;
  EXPECT_EQ(sa.ladder_promotions, sb.ladder_promotions) << "tick " << tick;
}

bool all_lanes_normalized(const FleetDriver& fleet) {
  const std::size_t num_states = fleet.beliefs().num_states();
  std::vector<double> sums(fleet.sessions(), 0.0);
  for (StateId s = 0; s < num_states; ++s) {
    const auto lanes = fleet.beliefs().state_lanes(s);
    for (std::size_t lane = 0; lane < fleet.sessions(); ++lane) {
      if (!std::isfinite(lanes[lane]) || lanes[lane] < 0.0) return false;
      sums[lane] += lanes[lane];
    }
  }
  for (const double sum : sums) {
    if (std::fabs(sum - 1.0) > 1e-9) return false;
  }
  return true;
}

struct SimdModeGuard {
  ~SimdModeGuard() { simd::configure("auto"); }
};

// ---- fault isolation ----------------------------------------------------

TEST(FleetGuardTest, GuardOnCleanFleetIsByteIdenticalToGuardOff) {
  // With no chaos and no budget, enabling the guard must not move a single
  // bit: the hygiene scan finds nothing, the ladder never demotes, and the
  // decide path is the exact pre-guard one.
  FleetOptions guarded = make_options(16, FleetMode::Batch);
  guarded.guard.enabled = true;
  guarded.guard.livelock_window = 64;
  FleetDriver with_guard = make_fleet(guarded);
  FleetDriver without_guard = make_fleet(make_options(16, FleetMode::Batch));
  for (std::size_t tick = 1; tick <= 6; ++tick) {
    with_guard.tick();
    without_guard.tick();
    expect_fleets_bitwise_equal(with_guard, without_guard, tick);
  }
  EXPECT_EQ(with_guard.stats().degraded_decides, 0u);
  EXPECT_EQ(with_guard.stats().ladder_demotions, 0u);
  EXPECT_EQ(with_guard.stats().beliefs_repaired, 0u);
}

TEST(FleetGuardTest, StalledSessionsDegradeAloneAndRecover) {
  FleetOptions options = make_options(16, FleetMode::Batch);
  options.guard.enabled = true;
  options.guard.promote_after = 2;
  options.chaos.stall_rate = 0.3;
  FleetDriver fleet = make_fleet(options);
  for (std::size_t tick = 0; tick < 12; ++tick) fleet.tick();

  const FleetStats& stats = fleet.stats();
  EXPECT_GT(stats.stalls_injected, 0u);
  // A stalled lane never solves that tick: it falls back and demotes alone.
  EXPECT_GT(stats.degraded_decides, 0u);
  EXPECT_GT(stats.ladder_demotions, 0u);
  // With p = 0.3 stalls and promote_after = 2, clean streaks happen too.
  EXPECT_GT(stats.ladder_promotions, 0u);
  EXPECT_LE(stats.ladder_promotions, stats.ladder_demotions);
  // Degradation is per-lane, not fleet-wide: plenty of full solves remain.
  EXPECT_GT(stats.decisions, stats.degraded_decides);
  EXPECT_TRUE(all_lanes_normalized(fleet));
}

TEST(FleetGuardTest, PoisonedLanesAreQuarantinedToThePrior) {
  FleetOptions options = make_options(16, FleetMode::Batch);
  options.guard.enabled = true;
  options.chaos.poison_rate = 0.5;
  FleetDriver fleet = make_fleet(options);
  for (std::size_t tick = 0; tick < 10; ++tick) {
    fleet.tick();
    // The hygiene scan runs at the top of every decide phase, so no NaN or
    // denormal survives into a solve, an update, or this assertion.
    ASSERT_TRUE(all_lanes_normalized(fleet)) << "tick " << tick;
  }
  EXPECT_GT(fleet.stats().poisons_injected, 0u);
  EXPECT_GT(fleet.stats().beliefs_repaired, 0u);
  EXPECT_LE(fleet.stats().beliefs_repaired, fleet.stats().poisons_injected);
  EXPECT_GT(fleet.stats().ladder_demotions, 0u);
}

TEST(FleetGuardTest, UnguardedPoisonTakesDownTheWholeBatch) {
  // The failure mode the hygiene scan exists for: without the guard a
  // single NaN-poisoned lane flows into the batched Bayes update and the
  // posterior-normalisation invariant aborts the whole lock-step tick —
  // one bad session takes all sixteen down with it.
  FleetOptions options = make_options(16, FleetMode::Batch);
  options.chaos.poison_rate = 0.5;
  FleetDriver fleet = make_fleet(options);
  EXPECT_THROW(
      {
        for (std::size_t tick = 0; tick < 10; ++tick) fleet.tick();
      },
      PreconditionError);
  EXPECT_GT(fleet.stats().poisons_injected, 0u);
  EXPECT_EQ(fleet.stats().beliefs_repaired, 0u);
}

TEST(FleetGuardTest, CorruptedObservationIdsAreDetectedAndRejected) {
  FleetOptions options = make_options(16, FleetMode::Batch);
  options.chaos.obs_corrupt_rate = 0.5;
  FleetDriver fleet = make_fleet(options);
  for (std::size_t tick = 0; tick < 12; ++tick) {
    fleet.tick();
    ASSERT_TRUE(all_lanes_normalized(fleet)) << "tick " << tick;
  }
  const FleetStats& stats = fleet.stats();
  EXPECT_GT(stats.obs_corrupted, 0u);
  // The out-of-range half must be caught before indexing anything; the
  // in-range half surfaces as zero-likelihood mismatches at worst.
  EXPECT_GT(stats.obs_invalid_rejected, 0u);
  EXPECT_LE(stats.obs_invalid_rejected, stats.obs_corrupted);
}

TEST(FleetGuardTest, LivelockedSessionsAreEscalatedAndRespawned) {
  FleetOptions options = make_options(12, FleetMode::Batch);
  options.guard.enabled = true;
  options.guard.livelock_window = 2;
  // An improvement bar nothing can clear: every fresh decision counts as
  // stalled, so every session escalates after `window` decides.
  options.guard.livelock_min_improvement = 1e18;
  FleetDriver fleet = make_fleet(options);
  for (std::size_t tick = 0; tick < 8; ++tick) fleet.tick();
  EXPECT_GT(fleet.stats().livelock_respawns, 0u);
  // Escalation terminates the episode (operator hand-off), it does not
  // truncate it.
  EXPECT_GE(fleet.stats().episodes_completed, fleet.stats().livelock_respawns);
  EXPECT_EQ(fleet.sessions(), 12u);
}

// ---- overload control ---------------------------------------------------

TEST(FleetGuardTest, DeterministicQuotaShedsExcessLoad) {
  FleetOptions options = make_options(16, FleetMode::Batch);
  options.tick_budget_decisions = 4;
  FleetDriver fleet = make_fleet(options);
  const std::size_t ticks = 8;
  for (std::size_t tick = 0; tick < ticks; ++tick) fleet.tick();
  const FleetStats& stats = fleet.stats();
  // At most `quota` fresh decisions per tick; everything else shed to a
  // fallback action (no guard: shed lanes keep stage Full).
  EXPECT_LE(stats.decisions, 4u * ticks);
  EXPECT_GT(stats.shed, 0u);
  EXPECT_EQ(stats.shed, stats.degraded_decides);
  EXPECT_EQ(stats.cached_fallbacks + stats.heuristic_fallbacks, stats.shed);
  EXPECT_EQ(stats.ladder_demotions, 0u);
  // Every slot still acts every tick: decisions + fallbacks + respawn
  // terminations cover the full width.
  EXPECT_GE(stats.decisions + stats.degraded_decides + stats.episodes_completed,
            16u * ticks);
}

TEST(FleetGuardTest, SheddingAdmitsMostStaleLanesFirst) {
  // Quota 8 of 16: in steady state lanes must alternate admitted/shed, so
  // after any two consecutive ticks every lane was admitted at least once —
  // visible as: no lane repeats a stale fallback action more than
  // promote-free logic allows. We check the aggregate fairness signature:
  // shed spread evenly means cached fallbacks, not heuristic ones (every
  // lane always has a previous action to repeat after its admitted tick).
  FleetOptions options = make_options(16, FleetMode::Batch);
  options.tick_budget_decisions = 8;
  FleetDriver fleet = make_fleet(options);
  for (std::size_t tick = 0; tick < 10; ++tick) fleet.tick();
  const FleetStats& stats = fleet.stats();
  EXPECT_GT(stats.shed, 0u);
  // Staleness-ordered admission: a lane shed on tick t is most-stale on
  // t+1 and admitted, so no lane is ever shed twice in a row while another
  // is admitted twice in a row — heuristic fallbacks can only come from
  // freshly respawned lanes (no previous action), not from starvation.
  EXPECT_GE(stats.cached_fallbacks, stats.heuristic_fallbacks);
}

TEST(FleetGuardTest, WallClockBudgetEngagesShedding) {
  // The EWMA-driven budget is timing-dependent (excluded from the bitwise
  // contracts), so only its effect is asserted: an absurdly small budget
  // must start shedding once the estimator warms up, and the fleet must
  // keep ticking correctly throughout.
  FleetOptions options = make_options(16, FleetMode::Batch);
  options.decision_cache = false;  // keep real solves flowing into the EWMA
  options.tick_budget_ms = 1e-6;
  FleetDriver fleet = make_fleet(options);
  for (std::size_t tick = 0; tick < 12; ++tick) fleet.tick();
  EXPECT_GT(fleet.stats().shed, 0u);
  EXPECT_TRUE(all_lanes_normalized(fleet));
}

// ---- bitwise contracts under chaos --------------------------------------

TEST(FleetGuardParityTest, BatchMatchesLoopUnderChaosGuardsAndBudget) {
  FleetDriver batch = make_fleet(make_resilient_options(24, FleetMode::Batch));
  FleetDriver loop = make_fleet(make_resilient_options(24, FleetMode::Loop));
  expect_fleets_bitwise_equal(batch, loop, 0);
  for (std::size_t tick = 1; tick <= 8; ++tick) {
    batch.tick();
    loop.tick();
    expect_fleets_bitwise_equal(batch, loop, tick);
  }
  // The run must actually have exercised the machinery it claims to cover.
  EXPECT_GT(batch.stats().stalls_injected, 0u);
  EXPECT_GT(batch.stats().poisons_injected, 0u);
  EXPECT_GT(batch.stats().obs_corrupted, 0u);
  EXPECT_GT(batch.stats().shed, 0u);
  EXPECT_GT(batch.stats().ladder_demotions, 0u);
}

TEST(FleetGuardParityTest, RootJobsInvariantUnderChaosAndGuards) {
  // However a tick's root actions are evaluated — the deep pipeline's one
  // pass over the whole frontier, or per-class walks that take the root
  // actions one by one through a cache that admits nothing — the fleet
  // stays bit-identical under chaos, guards and the decision budget.
  FleetOptions deep = make_resilient_options(24, FleetMode::Batch);
  FleetOptions walked = deep;
  walked.deep_batch = false;
  walked.memo_max_mb = 0;
  FleetDriver one = make_fleet(deep);
  FleetDriver other = make_fleet(walked);
  for (std::size_t tick = 1; tick <= 6; ++tick) {
    one.tick();
    other.tick();
    expect_fleets_bitwise_equal(one, other, tick);
  }
}

TEST(FleetGuardParityTest, ScalarMatchesAutoKernelsUnderChaosAndGuards) {
  SimdModeGuard guard;
  simd::configure("scalar");
  FleetDriver scalar = make_fleet(make_resilient_options(16, FleetMode::Batch));
  for (std::size_t tick = 0; tick < 6; ++tick) scalar.tick();

  simd::configure("auto");
  FleetDriver vectorized = make_fleet(make_resilient_options(16, FleetMode::Batch));
  for (std::size_t tick = 0; tick < 6; ++tick) vectorized.tick();

  expect_fleets_bitwise_equal(scalar, vectorized, 6);
}

TEST(FleetGuardParityTest, DecisionCacheStaysExactUnderChaosAndGuards) {
  FleetOptions cached = make_resilient_options(24, FleetMode::Batch);
  FleetOptions uncached = cached;
  uncached.decision_cache = false;
  FleetDriver with_cache = make_fleet(cached);
  FleetDriver without_cache = make_fleet(uncached);
  for (std::size_t tick = 1; tick <= 8; ++tick) {
    with_cache.tick();
    without_cache.tick();
    expect_fleets_bitwise_equal(with_cache, without_cache, tick);
  }
}

// ---- flag parsing -------------------------------------------------------

TEST(FleetGuardTest, ResilienceFlagsParseAndValidate) {
  const char* argv[] = {"test",
                        "--fleet-guard",
                        "--fleet-reduced-depth=2",
                        "--fleet-promote-after=3",
                        "--fleet-livelock-window=32",
                        "--tick-budget-decisions=100",
                        "--chaos-stall-rate=0.25",
                        "--chaos-poison=0.1"};
  const CliArgs args(static_cast<int>(std::size(argv)), argv);
  args.require_known(fleet_resilience_flag_names());
  FleetOptions options;
  apply_fleet_resilience_flags(args, options);
  EXPECT_TRUE(options.guard.enabled);
  EXPECT_EQ(options.guard.reduced_depth, 2);
  EXPECT_EQ(options.guard.promote_after, 3u);
  EXPECT_EQ(options.guard.livelock_window, 32u);
  EXPECT_EQ(options.tick_budget_decisions, 100u);
  EXPECT_DOUBLE_EQ(options.chaos.stall_rate, 0.25);
  EXPECT_DOUBLE_EQ(options.chaos.poison_rate, 0.1);
  EXPECT_TRUE(options.chaos.enabled());

  const char* bad_rate[] = {"test", "--chaos-stall-rate=1.5"};
  const CliArgs bad_args(2, bad_rate);
  FleetOptions scratch;
  EXPECT_THROW(apply_fleet_resilience_flags(bad_args, scratch), PreconditionError);

  const char* bad_depth[] = {"test", "--fleet-reduced-depth=0"};
  const CliArgs bad_depth_args(2, bad_depth);
  EXPECT_THROW(apply_fleet_resilience_flags(bad_depth_args, scratch),
               PreconditionError);
}

}  // namespace
}  // namespace recoverd::sim
