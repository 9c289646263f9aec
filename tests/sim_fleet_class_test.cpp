// Belief-class suite (DESIGN.md §13, "Belief classes"): a Batch fleet
// decides and Bayes-updates once per distinct belief and carries each
// lane's class id from tick to tick, so every write that moves a lane off
// its class row must move the id with it. Each case drives one such path —
// respawn, poisoning, hygiene repair, rejected and impossible readings,
// Reduced-rung solves, shedding, checkpoint adoption — through a fleet of
// 512 EMN sessions for 40 ticks at depths 1 and 2, and holds the Batch
// fleet bitwise equal to a Loop fleet (the per-lane oracle) after every
// tick: beliefs, actions, ladder stages and every FleetStats field except
// the classes/shared_hits work accounting. A last case pins the full
// FleetStats, work accounting included, and a digest of beliefs and
// actions on a 2,000-session fleet.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bounds/bound_set.hpp"
#include "bounds/ra_bound.hpp"
#include "controller/bootstrap.hpp"
#include "models/emn.hpp"
#include "pomdp/belief.hpp"
#include "sim/checkpoint.hpp"
#include "sim/fleet_driver.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace recoverd::sim {
namespace {

constexpr std::size_t kSessions = 512;
constexpr std::size_t kTicks = 40;

// A recovery model over the EMN topology with its own bootstrapped
// RA-Bound set; every fleet here simulates the default EMN world.
struct EmnFleet {
  Pomdp base;
  Pomdp recovery;
  models::EmnIds ids;
  FaultInjector injector;
  bounds::BoundSet set;

  explicit EmnFleet(const models::EmnConfig& config = {})
      : base(models::make_emn_base(config)),
        recovery(models::make_emn_recovery_model(config)),
        ids(models::emn_ids(base, config)),
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

// Perfect monitors: each state emits one reading, so the default EMN
// world's false positives and missed pings are readings this controller
// model holds impossible — zero-likelihood updates.
EmnFleet& perfect_monitor_emn() {
  static EmnFleet* fleet = [] {
    models::EmnConfig config;
    config.ping_coverage = 1.0;
    config.ping_false_positive = 0.0;
    config.path_coverage = 1.0;
    config.path_false_positive = 0.0;
    return new EmnFleet(config);
  }();
  return *fleet;
}

class FleetClassTest : public ::testing::TestWithParam<int> {
 protected:
  FleetOptions options(std::size_t sessions = kSessions) const {
    FleetOptions o;
    o.sessions = sessions;
    o.observe_action = emn().ids.topo.observe_action;
    o.tree_depth = GetParam();
    o.branch_floor = 1e-2;
    o.max_steps = 10000;
    return o;
  }
};

FleetDriver make_fleet(FleetOptions o, FleetMode mode, std::uint64_t seed = 41,
                       EmnFleet& controller = emn()) {
  o.mode = mode;
  return FleetDriver(controller.recovery, emn().base, controller.set, controller.injector,
                     seed, o);
}

// The parity contract: belief bits, last actions, ladder stages and every
// tally equal — classes/shared_hits excluded (Batch-mode work accounting).
void expect_fleets_bitwise_equal(const FleetDriver& a, const FleetDriver& b,
                                 std::size_t tick) {
  ASSERT_EQ(a.sessions(), b.sessions());
  const std::size_t num_states = a.beliefs().num_states();
  for (StateId s = 0; s < num_states; ++s) {
    const auto lanes_a = a.beliefs().state_lanes(s);
    const auto lanes_b = b.beliefs().state_lanes(s);
    ASSERT_EQ(std::memcmp(lanes_a.data(), lanes_b.data(), a.sessions() * sizeof(double)), 0)
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
  EXPECT_EQ(sa.ticks, sb.ticks) << "tick " << tick;
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

// Ticks a Batch and a Loop fleet in lock step and holds them bitwise equal
// after every tick. A tick that aborts (PreconditionError) must abort in
// both modes; the run stops there. Returns the ticks both completed.
std::size_t tick_in_lockstep(FleetDriver& batch, FleetDriver& loop, std::size_t ticks) {
  for (std::size_t tick = 1; tick <= ticks; ++tick) {
    bool batch_threw = false;
    bool loop_threw = false;
    try {
      batch.tick();
    } catch (const PreconditionError&) {
      batch_threw = true;
    }
    try {
      loop.tick();
    } catch (const PreconditionError&) {
      loop_threw = true;
    }
    EXPECT_EQ(batch_threw, loop_threw) << "tick " << tick;
    if (batch_threw || loop_threw) return tick - 1;
    expect_fleets_bitwise_equal(batch, loop, tick);
    if (::testing::Test::HasFatalFailure()) return tick;
  }
  return ticks;
}

TEST_P(FleetClassTest, RespawnWithInitialObservation) {
  FleetOptions o = options();
  o.max_steps = 6;  // truncation respawns on top of terminations
  FleetDriver batch = make_fleet(o, FleetMode::Batch);
  FleetDriver loop = make_fleet(o, FleetMode::Loop);
  EXPECT_EQ(tick_in_lockstep(batch, loop, kTicks), kTicks);
  EXPECT_GT(batch.stats().episodes_completed, kSessions);
  EXPECT_GT(batch.stats().episodes_truncated, 0u);
}

TEST_P(FleetClassTest, RespawnWithoutInitialObservation) {
  FleetOptions o = options();
  o.max_steps = 6;
  o.initial_observation = false;
  FleetDriver batch = make_fleet(o, FleetMode::Batch);
  FleetDriver loop = make_fleet(o, FleetMode::Loop);
  EXPECT_EQ(tick_in_lockstep(batch, loop, kTicks), kTicks);
  EXPECT_GT(batch.stats().episodes_completed, kSessions);
}

TEST_P(FleetClassTest, UnguardedPoison) {
  // About one poisoning per tick. A denormal write leaves its lane running
  // on odd bits; the first NaN write aborts the tick in both modes, which
  // ends the run. On this seed five poisonings land in the five ticks
  // before that.
  FleetOptions o = options();
  o.chaos.poison_rate = 1.0 / static_cast<double>(kSessions);
  FleetDriver batch = make_fleet(o, FleetMode::Batch, 57);
  FleetDriver loop = make_fleet(o, FleetMode::Loop, 57);
  EXPECT_EQ(tick_in_lockstep(batch, loop, kTicks), 5u);
  EXPECT_EQ(batch.stats().poisons_injected, 6u);
  EXPECT_EQ(batch.stats().beliefs_repaired, 0u);
}

TEST_P(FleetClassTest, GuardedPoisonWithHygieneRepair) {
  FleetOptions o = options();
  o.guard.enabled = true;
  o.chaos.poison_rate = 0.05;
  FleetDriver batch = make_fleet(o, FleetMode::Batch);
  FleetDriver loop = make_fleet(o, FleetMode::Loop);
  EXPECT_EQ(tick_in_lockstep(batch, loop, kTicks), kTicks);
  EXPECT_GT(batch.stats().beliefs_repaired, 0u);
}

TEST_P(FleetClassTest, OutOfRangeObservationRejection) {
  FleetOptions o = options();
  o.chaos.obs_corrupt_rate = 0.2;
  FleetDriver batch = make_fleet(o, FleetMode::Batch);
  FleetDriver loop = make_fleet(o, FleetMode::Loop);
  EXPECT_EQ(tick_in_lockstep(batch, loop, kTicks), kTicks);
  EXPECT_GT(batch.stats().obs_invalid_rejected, 0u);
}

TEST_P(FleetClassTest, ZeroLikelihoodMismatch) {
  FleetOptions o = options();
  FleetDriver batch = make_fleet(o, FleetMode::Batch, 41, perfect_monitor_emn());
  FleetDriver loop = make_fleet(o, FleetMode::Loop, 41, perfect_monitor_emn());
  EXPECT_EQ(tick_in_lockstep(batch, loop, kTicks), kTicks);
  EXPECT_GT(batch.stats().belief_mismatches, 0u);
}

TEST_P(FleetClassTest, ReducedRungLanes) {
  FleetOptions o = options();
  o.guard.enabled = true;
  o.guard.promote_after = 3;
  o.chaos.stall_rate = 0.2;
  o.chaos.stall_ms = 0.0;
  FleetDriver batch = make_fleet(o, FleetMode::Batch);
  FleetDriver loop = make_fleet(o, FleetMode::Loop);
  EXPECT_EQ(tick_in_lockstep(batch, loop, kTicks), kTicks);
  EXPECT_GT(batch.stats().degraded_decides, 0u);
  // The Reduced rung only solves below full depth when there is a depth
  // to give up.
  if (GetParam() > 1) {
    EXPECT_GT(batch.stats().reduced_decides, 0u);
  }
}

TEST_P(FleetClassTest, TickBudgetShedding) {
  FleetOptions o = options();
  o.tick_budget_decisions = kSessions / 3;
  FleetDriver batch = make_fleet(o, FleetMode::Batch);
  FleetDriver loop = make_fleet(o, FleetMode::Loop);
  EXPECT_EQ(tick_in_lockstep(batch, loop, kTicks), kTicks);
  EXPECT_GT(batch.stats().shed, 0u);
}

// A fleet that ran elsewhere adopts a capture from another seed's run, so
// every lane's bits change under it.
void adopt_mid_run(const FleetOptions& o, FleetMode source_mode) {
  FleetDriver source = make_fleet(o, source_mode, 2006);
  for (std::size_t tick = 0; tick < 9; ++tick) source.tick();
  const FleetCheckpoint cp = source.capture_checkpoint();

  FleetDriver batch = make_fleet(o, FleetMode::Batch);
  FleetDriver loop = make_fleet(o, FleetMode::Loop);
  ASSERT_EQ(tick_in_lockstep(batch, loop, 13), 13u);
  batch.adopt_checkpoint(cp);
  loop.adopt_checkpoint(cp);
  expect_fleets_bitwise_equal(batch, loop, 9);
  EXPECT_EQ(tick_in_lockstep(batch, loop, kTicks), kTicks);
}

TEST_P(FleetClassTest, AdoptCheckpointFromBatchCapture) {
  adopt_mid_run(options(), FleetMode::Batch);
}

TEST_P(FleetClassTest, AdoptCheckpointFromLoopCapture) {
  adopt_mid_run(options(), FleetMode::Loop);
}

// ---- pinned work accounting ---------------------------------------------

std::uint64_t fleet_digest(const FleetDriver& fleet) {
  std::uint64_t h = 0x434c415353455321ULL;  // "CLASSES!"
  for (const ActionId a : fleet.last_actions()) h = util::mix_in(h, a);
  for (StateId s = 0; s < fleet.beliefs().num_states(); ++s) {
    for (const double v : fleet.beliefs().state_lanes(s)) h = util::mix_in(h, util::bits_of(v));
  }
  return h;
}

struct PinnedFleet {
  FleetStats stats;
  std::uint64_t digest;
};

// Recorded on the tick that decided and updated every session on its own:
// carrying classes must do the same work and reach the same bits. Fields
// not set here are 0.
PinnedFleet pinned(int depth) {
  PinnedFleet p{};
  FleetStats& s = p.stats;
  s.ticks = 12;
  s.decisions = 24000;
  if (depth == 1) {
    s.classes = 1118;
    s.shared_hits = 22882;
    s.episodes_completed = 5724;
    s.episodes_recovered = 5724;
    p.digest = 0x21fe719624d24b5fULL;
  } else {
    s.classes = 1842;
    s.shared_hits = 22158;
    s.episodes_completed = 3490;
    s.episodes_recovered = 3490;
    p.digest = 0x74d37732220054a7ULL;
  }
  return p;
}

TEST_P(FleetClassTest, WorkAccountingIsPinned) {
  FleetDriver fleet = make_fleet(options(2000), FleetMode::Batch, 2006);
  for (std::size_t tick = 0; tick < 12; ++tick) fleet.tick();
  const PinnedFleet want = pinned(GetParam());
  const FleetStats& got = fleet.stats();
  EXPECT_EQ(got.ticks, want.stats.ticks);
  EXPECT_EQ(got.decisions, want.stats.decisions);
  EXPECT_EQ(got.classes, want.stats.classes);
  EXPECT_EQ(got.shared_hits, want.stats.shared_hits);
  EXPECT_EQ(got.episodes_completed, want.stats.episodes_completed);
  EXPECT_EQ(got.episodes_recovered, want.stats.episodes_recovered);
  EXPECT_EQ(got.episodes_truncated, want.stats.episodes_truncated);
  EXPECT_EQ(got.belief_mismatches, want.stats.belief_mismatches);
  EXPECT_EQ(got.degraded_decides, want.stats.degraded_decides);
  EXPECT_EQ(got.reduced_decides, want.stats.reduced_decides);
  EXPECT_EQ(got.cached_fallbacks, want.stats.cached_fallbacks);
  EXPECT_EQ(got.heuristic_fallbacks, want.stats.heuristic_fallbacks);
  EXPECT_EQ(got.shed, want.stats.shed);
  EXPECT_EQ(got.stalls_injected, want.stats.stalls_injected);
  EXPECT_EQ(got.poisons_injected, want.stats.poisons_injected);
  EXPECT_EQ(got.beliefs_repaired, want.stats.beliefs_repaired);
  EXPECT_EQ(got.obs_corrupted, want.stats.obs_corrupted);
  EXPECT_EQ(got.obs_invalid_rejected, want.stats.obs_invalid_rejected);
  EXPECT_EQ(got.livelock_respawns, want.stats.livelock_respawns);
  EXPECT_EQ(got.ladder_demotions, want.stats.ladder_demotions);
  EXPECT_EQ(got.ladder_promotions, want.stats.ladder_promotions);
  EXPECT_EQ(fleet_digest(fleet), want.digest) << std::hex << fleet_digest(fleet);
}

INSTANTIATE_TEST_SUITE_P(Depths, FleetClassTest, ::testing::Values(1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(1, 'd').append(std::to_string(info.param));
                         });

}  // namespace
}  // namespace recoverd::sim
