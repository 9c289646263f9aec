// FleetDriver determinism suite (DESIGN.md §13): a Batch fleet and a Loop
// fleet from the same seed must stay bitwise identical — belief bits,
// chosen actions, episode tallies — tick by tick, and the Batch-mode
// cross-tick decision cache and SIMD kernel selection must never change a
// bit either. Runs on the paper's EMN model (zombie injection, terminate
// transform) with a small bootstrapped RA-Bound set, mirroring
// bench/throughput_campaign at test scale.
#include "sim/fleet_driver.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "bounds/ra_bound.hpp"
#include "controller/bootstrap.hpp"
#include "models/emn.hpp"
#include "obs/metrics.hpp"
#include "pomdp/belief.hpp"
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

// One warm bound set for the whole suite: the fleet never mutates the
// planes (only evaluate-scratch use counters), so sharing it keeps the
// bootstrap cost out of every test body without coupling their results.
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

FleetDriver make_fleet(FleetOptions options, std::uint64_t seed = 41) {
  EmnFleet& f = emn();
  return FleetDriver(f.recovery, f.base, f.set, f.injector, seed, options);
}

// The fleet parity contract: belief bits, last actions, and every episode
// tally equal — classes/shared_hits excluded (Batch-mode work accounting).
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
  const FleetStats& sa = a.stats();
  const FleetStats& sb = b.stats();
  EXPECT_EQ(sa.ticks, sb.ticks);
  EXPECT_EQ(sa.decisions, sb.decisions) << "tick " << tick;
  EXPECT_EQ(sa.episodes_completed, sb.episodes_completed) << "tick " << tick;
  EXPECT_EQ(sa.episodes_recovered, sb.episodes_recovered) << "tick " << tick;
  EXPECT_EQ(sa.episodes_truncated, sb.episodes_truncated) << "tick " << tick;
  EXPECT_EQ(sa.belief_mismatches, sb.belief_mismatches) << "tick " << tick;
}

struct SimdModeGuard {
  ~SimdModeGuard() { simd::configure("auto"); }
};

TEST(FleetParityTest, BatchMatchesLoopBitwise) {
  FleetDriver batch = make_fleet(make_options(24, FleetMode::Batch));
  FleetDriver loop = make_fleet(make_options(24, FleetMode::Loop));
  expect_fleets_bitwise_equal(batch, loop, 0);  // spawn + initial conditioning
  for (std::size_t tick = 1; tick <= 6; ++tick) {
    batch.tick();
    loop.tick();
    expect_fleets_bitwise_equal(batch, loop, tick);
  }
  // Every decided lane is either a canonical class solve or a shared hit.
  EXPECT_EQ(batch.stats().classes + batch.stats().shared_hits,
            batch.stats().decisions);
  // Loop mode never canonicalizes: one class per decision, no sharing.
  EXPECT_EQ(loop.stats().classes, loop.stats().decisions);
  EXPECT_EQ(loop.stats().shared_hits, 0u);
}

TEST(FleetParityTest, CrossTickDecisionCacheIsExact) {
  FleetOptions cached = make_options(24, FleetMode::Batch);
  FleetOptions uncached = cached;
  uncached.decision_cache = false;
  FleetDriver with_cache = make_fleet(cached);
  FleetDriver without_cache = make_fleet(uncached);
  for (std::size_t tick = 1; tick <= 6; ++tick) {
    with_cache.tick();
    without_cache.tick();
    expect_fleets_bitwise_equal(with_cache, without_cache, tick);
  }
  // The cache only ever *adds* reuse on top of the per-tick
  // canonicalization — and after a few ticks of recurring beliefs it must
  // actually fire.
  EXPECT_GT(with_cache.stats().shared_hits, without_cache.stats().shared_hits);
  EXPECT_LT(with_cache.stats().classes, without_cache.stats().classes);
}

TEST(FleetParityTest, MemoCarryOverIsExact) {
  // The fleet's engine outlives every decide and episode, but its
  // transposition cache carries no entry from one root action to the
  // next. A fleet walking per-class depth-2 trees through the default
  // cache must stay bit-identical, tick by tick, to a twin whose cache
  // admits nothing.
  FleetOptions cached = make_options(24, FleetMode::Batch);
  cached.tree_depth = 2;
  cached.deep_batch = false;
  FleetOptions uncached = cached;
  uncached.memo_max_mb = 0;
  FleetDriver with = make_fleet(cached);
  FleetDriver without = make_fleet(uncached);
  obs::Counter& insertions = obs::metrics().counter("pomdp.memo.insertions");
  std::uint64_t cached_insertions = 0;
  for (std::size_t tick = 1; tick <= 6; ++tick) {
    const std::uint64_t before_with = insertions.value();
    with.tick();
    cached_insertions += insertions.value() - before_with;
    const std::uint64_t before_without = insertions.value();
    without.tick();
    EXPECT_EQ(insertions.value(), before_without) << "tick " << tick;
    expect_fleets_bitwise_equal(with, without, tick);
  }
  EXPECT_GT(cached_insertions, 0u);  // the cache did take entries
}

TEST(FleetParityTest, ScalarMatchesAutoKernelsBitwise) {
  SimdModeGuard guard;
  simd::configure("scalar");
  FleetDriver scalar = make_fleet(make_options(16, FleetMode::Batch));
  for (std::size_t tick = 0; tick < 4; ++tick) scalar.tick();

  simd::configure("auto");
  FleetDriver vectorized = make_fleet(make_options(16, FleetMode::Batch));
  for (std::size_t tick = 0; tick < 4; ++tick) vectorized.tick();

  expect_fleets_bitwise_equal(scalar, vectorized, 4);
}

TEST(FleetDriverTest, RespawnKeepsFleetWidthSteady) {
  FleetOptions options = make_options(16, FleetMode::Batch);
  options.max_steps = 3;  // force truncation respawns quickly
  FleetDriver fleet = make_fleet(options);
  for (std::size_t tick = 0; tick < 9; ++tick) {
    fleet.tick();
    EXPECT_EQ(fleet.sessions(), 16u);
    EXPECT_EQ(fleet.beliefs().size(), 16u);
  }
  const FleetStats& stats = fleet.stats();
  EXPECT_EQ(stats.ticks, 9u);
  // Terminate-transformed model: every slot decides every tick.
  EXPECT_EQ(stats.decisions, 9u * 16u);
  EXPECT_GT(stats.episodes_completed, 0u);
  EXPECT_GT(stats.episodes_truncated, 0u);
  EXPECT_LE(stats.episodes_truncated, stats.episodes_completed);
  EXPECT_GE(fleet.healthy_fraction(), 0.0);
  EXPECT_LE(fleet.healthy_fraction(), 1.0);
}

TEST(FleetDriverTest, SameSeedSameModeIsReproducible) {
  FleetDriver first = make_fleet(make_options(12, FleetMode::Batch), 99);
  FleetDriver second = make_fleet(make_options(12, FleetMode::Batch), 99);
  for (std::size_t tick = 1; tick <= 3; ++tick) {
    first.tick();
    second.tick();
    expect_fleets_bitwise_equal(first, second, tick);
  }
  // A different seed must not replay the same fleet (faults, readings, and
  // decisions all flow from the per-slot streams).
  FleetDriver other = make_fleet(make_options(12, FleetMode::Batch), 100);
  for (std::size_t tick = 0; tick < 3; ++tick) other.tick();
  bool any_difference = false;
  const std::size_t num_states = first.beliefs().num_states();
  for (StateId s = 0; s < num_states && !any_difference; ++s) {
    const auto a = first.beliefs().state_lanes(s);
    const auto b = other.beliefs().state_lanes(s);
    any_difference = std::memcmp(a.data(), b.data(), 12 * sizeof(double)) != 0;
  }
  EXPECT_TRUE(any_difference);
}

TEST(FleetDriverTest, ConstructorValidatesOptions) {
  EmnFleet& f = emn();
  FleetOptions no_observe = make_options(4, FleetMode::Batch);
  no_observe.observe_action = kInvalidId;
  EXPECT_THROW(FleetDriver(f.recovery, f.base, f.set, f.injector, 1, no_observe),
               PreconditionError);

  FleetOptions no_sessions = make_options(4, FleetMode::Batch);
  no_sessions.sessions = 0;
  EXPECT_THROW(FleetDriver(f.recovery, f.base, f.set, f.injector, 1, no_sessions),
               PreconditionError);

  FleetOptions bad_depth = make_options(4, FleetMode::Batch);
  bad_depth.tree_depth = 0;
  EXPECT_THROW(FleetDriver(f.recovery, f.base, f.set, f.injector, 1, bad_depth),
               PreconditionError);
}

}  // namespace
}  // namespace recoverd::sim
