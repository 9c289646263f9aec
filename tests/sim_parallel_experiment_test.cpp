// Determinism guarantees of the parallel experiment runner: the factory
// overload of run_experiment must produce aggregates that are *bitwise*
// identical for every worker count, because episode RNG streams are
// pre-derived in episode order and the reduction happens in episode order
// regardless of which thread ran which episode (DESIGN.md §8).
//
// These tests (all named *Parallel*) are also the ones tools/check.sh runs
// under ThreadSanitizer.
#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "bounds/ra_bound.hpp"
#include "controller/bounded_controller.hpp"
#include "controller/heuristic_controller.hpp"
#include "controller/most_likely_controller.hpp"
#include "models/two_server.hpp"
#include "obs/metrics.hpp"

namespace recoverd::sim {
namespace {

class ParallelExperimentFixture : public ::testing::Test {
 protected:
  ParallelExperimentFixture()
      : base_(models::make_two_server()),
        ids_(models::two_server_ids(base_)),
        injector_({ids_.fault_a, ids_.fault_b}) {
    config_.observe_action = ids_.observe;
    config_.fault_support = {ids_.fault_a, ids_.fault_b};
    config_.max_steps = 500;
  }

  ControllerFactory most_likely_factory() const {
    controller::MostLikelyControllerOptions opts;
    opts.observe_action = ids_.observe;
    const Pomdp& model = base_;
    return [&model, opts] {
      return std::make_unique<controller::MostLikelyController>(model, opts);
    };
  }

  Pomdp base_;
  models::TwoServerIds ids_;
  FaultInjector injector_;
  EpisodeConfig config_;
};

void expect_identical(const RunningStats& a, const RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.sum(), b.sum());
}

// Everything except algorithm_time_ms, which measures wall time and is the
// one legitimately nondeterministic metric.
void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.unrecovered, b.unrecovered);
  EXPECT_EQ(a.not_terminated, b.not_terminated);
  expect_identical(a.cost, b.cost);
  expect_identical(a.recovery_time, b.recovery_time);
  expect_identical(a.residual_time, b.residual_time);
  expect_identical(a.recovery_actions, b.recovery_actions);
  expect_identical(a.monitor_calls, b.monitor_calls);
}

TEST_F(ParallelExperimentFixture, ParallelJobs4MatchesJobs1Bitwise) {
  const auto factory = most_likely_factory();
  const auto serial = run_experiment(base_, factory, injector_, 120, 42, config_, 1);
  const auto parallel = run_experiment(base_, factory, injector_, 120, 42, config_, 4);
  expect_identical(serial, parallel);
}

TEST_F(ParallelExperimentFixture, ParallelAggregatesInvariantAcrossWorkerCounts) {
  const auto factory = most_likely_factory();
  const auto reference = run_experiment(base_, factory, injector_, 60, 7, config_, 1);
  for (const std::size_t jobs : {2u, 3u, 8u}) {
    const auto got = run_experiment(base_, factory, injector_, 60, 7, config_, jobs);
    expect_identical(reference, got);
  }
}

TEST_F(ParallelExperimentFixture, ParallelBoundedControllerMatchesJobs1Bitwise) {
  // The bounded controller exercises the full engine + BoundSet path under
  // concurrency (concurrent BoundSet::evaluate on the per-episode copies).
  const Pomdp transformed = models::make_two_server_without_notification(21600.0);
  const bounds::BoundSet set = bounds::make_ra_bound_set(transformed.mdp());
  const ControllerFactory factory = [&transformed, set] {
    return controller::BoundedController::make_owning(transformed, set,
                                                      controller::BoundedControllerOptions{});
  };
  const auto serial = run_experiment(base_, factory, injector_, 80, 11, config_, 1);
  const auto parallel = run_experiment(base_, factory, injector_, 80, 11, config_, 4);
  expect_identical(serial, parallel);
  EXPECT_EQ(serial.unrecovered, 0u);
  EXPECT_EQ(serial.not_terminated, 0u);
}

TEST_F(ParallelExperimentFixture, ParallelMatchesLegacySerialForStatelessController) {
  // A MostLikely controller carries no state across episodes, so a fresh
  // controller per episode behaves exactly like one long-lived controller:
  // per-episode metrics coincide, the means coincide bitwise (a singleton
  // merge updates the mean with the same delta/n expression Welford add
  // uses), and only the variance accumulation differs in rounding.
  controller::MostLikelyControllerOptions opts;
  opts.observe_action = ids_.observe;
  controller::MostLikelyController long_lived(base_, opts);
  const auto legacy = run_experiment(base_, long_lived, injector_, 100, 3, config_);
  const auto factored =
      run_experiment(base_, most_likely_factory(), injector_, 100, 3, config_, 4);
  EXPECT_EQ(legacy.episodes, factored.episodes);
  EXPECT_EQ(legacy.unrecovered, factored.unrecovered);
  EXPECT_EQ(legacy.not_terminated, factored.not_terminated);
  EXPECT_EQ(legacy.cost.mean(), factored.cost.mean());
  EXPECT_EQ(legacy.cost.sum(), factored.cost.sum());
  EXPECT_EQ(legacy.monitor_calls.mean(), factored.monitor_calls.mean());
  EXPECT_NEAR(legacy.cost.variance(), factored.cost.variance(),
              1e-9 * (1.0 + legacy.cost.variance()));
}

TEST_F(ParallelExperimentFixture, ParallelMoreWorkersThanEpisodesIsExact) {
  const auto factory = most_likely_factory();
  const auto serial = run_experiment(base_, factory, injector_, 3, 19, config_, 1);
  const auto parallel = run_experiment(base_, factory, injector_, 3, 19, config_, 16);
  expect_identical(serial, parallel);
}

TEST_F(ParallelExperimentFixture, ParallelZeroEpisodesIsEmpty) {
  const auto factory = most_likely_factory();
  const auto result = run_experiment(base_, factory, injector_, 0, 1, config_, 4);
  EXPECT_EQ(result.episodes, 0u);
  EXPECT_EQ(result.cost.count(), 0u);
}

TEST_F(ParallelExperimentFixture, ParallelHeuristicDepth2UsesEngineUnderThreads) {
  // Depth-2 trees drive the iterative expansion engine (not just the depth-1
  // fast path) on every worker simultaneously.
  controller::HeuristicControllerOptions opts;
  opts.tree_depth = 2;
  const Pomdp& model = base_;
  const ControllerFactory factory = [&model, opts] {
    return std::make_unique<controller::HeuristicController>(model, opts);
  };
  const auto serial = run_experiment(base_, factory, injector_, 40, 5, config_, 1);
  const auto parallel = run_experiment(base_, factory, injector_, 40, 5, config_, 4);
  expect_identical(serial, parallel);
}

TEST_F(ParallelExperimentFixture, ParallelRootFanOutInsideOneController) {
  // Inside one decide() the root actions are walked serially through the
  // engine's transposition cache. A depth-2 bounded controller whose cache
  // admits nothing must decide exactly like the default one, under any
  // worker count: campaign aggregates equal bitwise.
  const Pomdp transformed = models::make_two_server_without_notification(21600.0);
  const bounds::BoundSet set = bounds::make_ra_bound_set(transformed.mdp());
  controller::BoundedControllerOptions cached_opts;
  cached_opts.tree_depth = 2;
  controller::BoundedControllerOptions uncached_opts = cached_opts;
  uncached_opts.memo_max_mb = 0;
  const ControllerFactory cached_factory = [&transformed, set, cached_opts] {
    return controller::BoundedController::make_owning(transformed, set, cached_opts);
  };
  const ControllerFactory uncached_factory = [&transformed, set, uncached_opts] {
    return controller::BoundedController::make_owning(transformed, set, uncached_opts);
  };
  obs::Counter& insertions = obs::metrics().counter("pomdp.memo.insertions");
  const std::uint64_t before_uncached = insertions.value();
  const auto uncached =
      run_experiment(base_, uncached_factory, injector_, 60, 13, config_, 1);
  const std::uint64_t before_cached = insertions.value();
  const auto cached = run_experiment(base_, cached_factory, injector_, 60, 13, config_, 2);
  expect_identical(uncached, cached);
  // The two runs really took different paths through the cache.
  EXPECT_EQ(before_cached, before_uncached);
  EXPECT_GT(insertions.value(), before_cached);
}

}  // namespace
}  // namespace recoverd::sim
