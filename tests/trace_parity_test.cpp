// Tracing/provenance parity suite (the PR's determinism contract): enabling
// span tracing or the provenance recorder must not change a single decision
// or exported metric aggregate, at any worker count — and the provenance
// records must echo the controller's returned decisions exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bounds/ra_bound.hpp"
#include "bounds/sawtooth_upper.hpp"
#include "controller/bounded_controller.hpp"
#include "controller/interval_controller.hpp"
#include "models/two_server.hpp"
#include "obs/metrics.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"
#include "sim/fleet_driver.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace recoverd::sim {
namespace {

class TraceParityFixture : public ::testing::Test {
 protected:
  TraceParityFixture()
      : base_(models::make_two_server()),
        recovery_(models::make_two_server_without_notification(21600.0)),
        ids_(models::two_server_ids(base_)),
        set_(bounds::make_ra_bound_set(recovery_.mdp())),
        injector_({ids_.fault_a, ids_.fault_b}) {
    config_.observe_action = ids_.observe;
    config_.fault_support = {ids_.fault_a, ids_.fault_b};
    config_.max_steps = 500;
    obs::disable_tracing();
    obs::reset_tracing();
    obs::close_provenance();
  }
  ~TraceParityFixture() override {
    obs::disable_tracing();
    obs::reset_tracing();
    obs::close_provenance();
  }

  ControllerFactory bounded_factory() const {
    const Pomdp& model = recovery_;
    const bounds::BoundSet& set = set_;
    return [&model, set] { return controller::BoundedController::make_owning(model, set); };
  }

  Pomdp base_;
  Pomdp recovery_;
  models::TwoServerIds ids_;
  bounds::BoundSet set_;
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

// Everything except algorithm_time_ms (wall time).
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

// The deterministic face of the global metrics registry: every counter, and
// every histogram's observation count. (Histogram sums over *_ms timing
// instruments measure wall time and are legitimately nondeterministic, so
// sums/buckets are excluded; counts depend only on how often code ran.)
std::map<std::string, double> deterministic_metrics() {
  std::map<std::string, double> out;
  const obs::MetricsSnapshot snap = obs::metrics().snapshot();
  for (const auto& c : snap.counters) {
    out["counter/" + c.name] = static_cast<double>(c.value);
  }
  for (const auto& h : snap.histograms) {
    out["histogram_count/" + h.name] = static_cast<double>(h.count);
  }
  return out;
}

std::map<std::string, double> delta(const std::map<std::string, double>& before,
                                    const std::map<std::string, double>& after) {
  std::map<std::string, double> out;
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    out[name] = value - (it == before.end() ? 0.0 : it->second);
  }
  return out;
}

TEST_F(TraceParityFixture, TraceParityDecisionsAndMetricsIdenticalOnVsOff) {
  const auto factory = bounded_factory();

  const auto before_off = deterministic_metrics();
  const auto off = run_experiment(base_, factory, injector_, 40, 9, config_, 1);
  const auto off_delta = delta(before_off, deterministic_metrics());

  obs::enable_tracing(obs::TraceLevel::Full);
  const auto before_on = deterministic_metrics();
  const auto on = run_experiment(base_, factory, injector_, 40, 9, config_, 1);
  const auto on_delta = delta(before_on, deterministic_metrics());
  obs::disable_tracing();
  obs::reset_tracing();

  expect_identical(off, on);
  // Tracing must never write to the metrics registry, and must not change
  // how often any instrumented path runs.
  EXPECT_EQ(off_delta, on_delta);
}

TEST_F(TraceParityFixture, TraceParityProvenanceOnVsOff) {
  const auto factory = bounded_factory();
  const auto off = run_experiment(base_, factory, injector_, 30, 17, config_, 1);

  const std::string path = ::testing::TempDir() + "trace_parity_provenance.jsonl";
  obs::open_provenance(path);
  const auto on = run_experiment(base_, factory, injector_, 30, 17, config_, 1);
  obs::close_provenance();
  std::remove(path.c_str());

  expect_identical(off, on);
}

TEST_F(TraceParityFixture, TraceParityHoldsAcrossWorkerCountsAndRootJobs) {
  obs::enable_tracing(obs::TraceLevel::Full);
  const auto reference =
      run_experiment(base_, bounded_factory(), injector_, 40, 23, config_, 1);
  const auto two =
      run_experiment(base_, bounded_factory(), injector_, 40, 23, config_, 2);
  const auto four =
      run_experiment(base_, bounded_factory(), injector_, 40, 23, config_, 4);
  obs::disable_tracing();
  obs::reset_tracing();
  expect_identical(reference, two);
  expect_identical(reference, four);
}

TEST_F(TraceParityFixture, TraceParityProvenanceEchoesBoundedDecisions) {
  const std::string path = ::testing::TempDir() + "trace_parity_bounded.jsonl";
  obs::open_provenance(path);
  controller::BoundedController controller(recovery_, set_);
  controller.begin_episode(Belief::uniform_over(
      recovery_.num_states(), std::vector<StateId>{ids_.fault_a, ids_.fault_b}));
  std::vector<controller::Decision> decisions;
  Environment env(base_, Rng(5));
  env.reset(ids_.fault_a);
  for (int i = 0; i < 50; ++i) {
    const controller::Decision d = controller.decide();
    decisions.push_back(d);
    if (d.terminate) break;
    const auto step = env.step(d.action);
    controller.record(d.action, step.obs);
  }
  obs::close_provenance();

  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  std::remove(path.c_str());

  ASSERT_EQ(lines.size(), decisions.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const obs::DecisionProvenance record = obs::provenance_from_json(lines[i]);
    EXPECT_EQ(record.sequence, i);
    EXPECT_EQ(record.controller, "bounded");
    EXPECT_EQ(record.terminate, decisions[i].terminate);
    if (decisions[i].action == kInvalidId) {
      EXPECT_EQ(record.chosen_action, -1);
    } else {
      EXPECT_EQ(record.chosen_action,
                static_cast<std::int64_t>(decisions[i].action));
    }
    // No deadline ladder configured: the full tree always completes.
    EXPECT_EQ(record.stage, "full");
    EXPECT_EQ(record.configured_depth, record.achieved_depth);
    EXPECT_EQ(record.actions.size(), recovery_.num_actions());
    EXPECT_GT(record.expansion.nodes, 0u);
    EXPECT_GT(record.expansion.leaf_evaluations, 0u);
    // Online improvement only ever grows the set during an episode.
    EXPECT_GE(record.bound_size, 1u);
    if (i > 0) {
      EXPECT_GE(record.bound_generation,
                obs::provenance_from_json(lines[i - 1]).bound_generation);
    }
  }
}

TEST_F(TraceParityFixture, TraceParityProvenanceEchoesIntervalBounds) {
  bounds::BoundSet lower = bounds::make_ra_bound_set(recovery_.mdp());
  bounds::SawtoothUpperBound upper(recovery_);
  controller::IntervalController controller(recovery_, lower, upper);

  const std::string path = ::testing::TempDir() + "trace_parity_interval.jsonl";
  obs::open_provenance(path);
  controller.begin_episode(Belief::point(recovery_.num_states(), ids_.fault_a));
  const controller::Decision d = controller.decide();
  const controller::IntervalDecisionStats stats = controller.last_decision();
  obs::close_provenance();

  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  std::remove(path.c_str());

  const obs::DecisionProvenance record = obs::provenance_from_json(line);
  EXPECT_EQ(record.controller, "interval");
  ASSERT_FALSE(d.terminate);
  EXPECT_EQ(record.chosen_action, static_cast<std::int64_t>(d.action));
  ASSERT_EQ(record.actions.size(), recovery_.num_actions());
  std::size_t pruned = 0;
  for (const auto& entry : record.actions) {
    EXPECT_TRUE(entry.has_upper);
    if (entry.pruned) ++pruned;
  }
  EXPECT_EQ(pruned, stats.actions_pruned);
  // The chosen action's interval must match the controller's own report
  // bit-for-bit — the acceptance criterion for the provenance layer.
  const auto& chosen = record.actions[d.action];
  EXPECT_EQ(chosen.lower, stats.lower);
  EXPECT_EQ(chosen.upper, stats.upper);
  EXPECT_FALSE(chosen.pruned);
}

// The batch decision path (FleetDriver → action_values_batch/update_batch)
// carries its own sim.fleet.tick spans; enabling tracing must not change a
// single belief bit, action, or tally of a fleet either.
TEST_F(TraceParityFixture, TraceParityFleetBatchIdenticalOnVsOff) {
  FleetOptions options;
  options.sessions = 12;
  options.mode = FleetMode::Batch;
  options.observe_action = ids_.observe;
  options.fault_support = {ids_.fault_a, ids_.fault_b};
  options.max_steps = 500;
  constexpr std::size_t kTicks = 5;

  const auto before_off = deterministic_metrics();
  FleetDriver off(recovery_, base_, set_, injector_, 31, options);
  for (std::size_t t = 0; t < kTicks; ++t) off.tick();
  const auto off_delta = delta(before_off, deterministic_metrics());

  obs::enable_tracing(obs::TraceLevel::Full);
  const auto before_on = deterministic_metrics();
  FleetDriver on(recovery_, base_, set_, injector_, 31, options);
  for (std::size_t t = 0; t < kTicks; ++t) on.tick();
  const auto on_delta = delta(before_on, deterministic_metrics());
  obs::disable_tracing();
  obs::reset_tracing();

  for (StateId s = 0; s < recovery_.num_states(); ++s) {
    const auto lanes_off = off.beliefs().state_lanes(s);
    const auto lanes_on = on.beliefs().state_lanes(s);
    ASSERT_EQ(std::memcmp(lanes_off.data(), lanes_on.data(),
                          options.sessions * sizeof(double)),
              0)
        << "fleet belief bits diverged under tracing, state " << s;
  }
  EXPECT_TRUE(std::equal(off.last_actions().begin(), off.last_actions().end(),
                         on.last_actions().begin()));
  EXPECT_EQ(off.stats().decisions, on.stats().decisions);
  EXPECT_EQ(off.stats().classes, on.stats().classes);
  EXPECT_EQ(off.stats().shared_hits, on.stats().shared_hits);
  EXPECT_EQ(off.stats().episodes_completed, on.stats().episodes_completed);
  EXPECT_EQ(off.stats().episodes_recovered, on.stats().episodes_recovered);
  EXPECT_EQ(off.stats().belief_mismatches, on.stats().belief_mismatches);
  // Tracing must not change how often any instrumented path runs.
  EXPECT_EQ(off_delta, on_delta);
}

TEST_F(TraceParityFixture, TraceParityDisabledSpanOverheadSmoke) {
  // 2M disabled spans must be effectively free (one relaxed load each).
  // The bound is extremely loose — ~250ns per span — so it only catches a
  // disabled path that started allocating or locking.
  ASSERT_EQ(obs::trace_level(), obs::TraceLevel::Off);
  const Timer timer;
  for (int i = 0; i < 2'000'000; ++i) {
    obs::TraceSpan span("parity.overhead", obs::TraceLevel::Full);
    span.arg("i", static_cast<double>(i));
  }
  EXPECT_LT(timer.elapsed_ms(), 500.0);
}

}  // namespace
}  // namespace recoverd::sim
