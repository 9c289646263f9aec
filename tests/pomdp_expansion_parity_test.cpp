// Parity suite for the iterative ExpansionEngine: on randomized recovery
// POMDPs the engine (and the bellman_* wrappers now built on it) must
// reproduce the frozen recursive reference in tests/reference_bellman.hpp
// BIT FOR BIT — same FP operation order, same tie-breaks, same pruning and
// renormalisation — across depths, branch floors, betas and action masks.
#include "pomdp/expansion.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <thread>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "pomdp/bellman.hpp"
#include "pomdp/belief.hpp"
#include "reference_bellman.hpp"
#include "util/rng.hpp"

namespace recoverd {
namespace {

// Random but valid recovery POMDP: state 0 is the goal, action 0 always
// repairs downward (Condition 1), observation rows are dense so branch
// floors actually prune.
Pomdp make_random_pomdp(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t num_states = 3 + rng.uniform_index(5);   // 3..7
  const std::size_t num_actions = 2 + rng.uniform_index(3);  // 2..4
  const std::size_t num_obs = 2 + rng.uniform_index(4);      // 2..5

  PomdpBuilder b;
  for (StateId s = 0; s < num_states; ++s) {
    std::string name = "s";
    name += std::to_string(s);
    b.add_state(name, s == 0 ? 0.0 : -rng.uniform(0.05, 1.0));
  }
  b.mark_goal(0);
  for (ActionId a = 0; a < num_actions; ++a) {
    std::string name = "a";
    name += std::to_string(a);
    b.add_action(name, rng.uniform(0.5, 10.0));
  }
  for (ObsId o = 0; o < num_obs; ++o) {
    std::string name = "o";
    name += std::to_string(o);
    b.add_observation(name);
  }
  for (StateId s = 0; s < num_states; ++s) {
    for (ActionId a = 0; a < num_actions; ++a) {
      std::vector<StateId> targets;
      if (s > 0 && a == 0) targets.push_back(rng.uniform_index(s));
      targets.push_back(rng.uniform_index(num_states));
      if (rng.bernoulli(0.5)) targets.push_back(rng.uniform_index(num_states));
      std::vector<double> row(num_states, 0.0);
      double total = 0.0;
      std::vector<double> weights(targets.size());
      for (auto& w : weights) {
        w = rng.uniform(0.1, 1.0);
        total += w;
      }
      for (std::size_t i = 0; i < targets.size(); ++i) row[targets[i]] += weights[i] / total;
      for (StateId t = 0; t < num_states; ++t) {
        if (row[t] > 0.0) b.set_transition(s, a, t, row[t]);
      }
      if (rng.bernoulli(0.3)) b.set_impulse_reward(s, a, -rng.uniform(0.0, 2.0));
    }
  }
  for (StateId s = 0; s < num_states; ++s) {
    for (ActionId a = 0; a < num_actions; ++a) {
      std::vector<double> row(num_obs);
      double total = 0.0;
      for (auto& v : row) {
        // A heavy-tailed mix of large and tiny entries so that the floors
        // used below prune some branches but not all.
        v = rng.bernoulli(0.4) ? rng.uniform(0.5, 1.0) : rng.uniform(0.001, 0.05);
        total += v;
      }
      for (ObsId o = 0; o < num_obs; ++o) b.set_observation(s, a, o, row[o] / total);
    }
  }
  return b.build();
}

// Piecewise-linear leaf (max over random hyperplanes), shaped like the
// BoundSet evaluations the controllers use.
struct SawLeaf {
  std::vector<std::vector<double>> planes;

  static SawLeaf random(std::size_t num_states, Rng& rng) {
    SawLeaf leaf;
    const std::size_t n = 1 + rng.uniform_index(3);
    for (std::size_t k = 0; k < n; ++k) {
      std::vector<double> w(num_states);
      for (auto& v : w) v = -rng.uniform(0.0, 50.0);
      leaf.planes.push_back(std::move(w));
    }
    return leaf;
  }

  double operator()(std::span<const double> pi) const {
    double best = -std::numeric_limits<double>::infinity();
    for (const auto& w : planes) best = std::max(best, linalg::dot(w, pi));
    return best;
  }
};

struct ParityCase {
  Pomdp pomdp;
  Belief belief;
  SawLeaf leaf;
  int depth;
  double beta;
  ActionId skip;
  double floor;
};

ParityCase make_case(std::uint64_t seed) {
  ParityCase c{make_random_pomdp(seed), Belief::uniform(1), {}, 1, 1.0, kInvalidId, 0.0};
  Rng rng(seed ^ 0x5eedf00d);
  std::vector<double> pi(c.pomdp.num_states());
  for (auto& v : pi) v = rng.uniform(0.01, 1.0);
  c.belief = Belief(std::move(pi));  // Belief normalises
  c.leaf = SawLeaf::random(c.pomdp.num_states(), rng);
  c.depth = 1 + static_cast<int>(rng.uniform_index(3));              // 1..3
  c.beta = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 1.0);
  c.skip = rng.bernoulli(0.3) ? ActionId{0} : kInvalidId;
  const double floors[] = {0.0, 1e-3, 5e-2, 0.2};
  c.floor = floors[rng.uniform_index(4)];
  return c;
}

class ExpansionParityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExpansionParityTest, WrapperValueMatchesReferenceBitwise) {
  const ParityCase c = make_case(GetParam());
  const std::function<double(const Belief&)> leaf = [&c](const Belief& b) {
    return c.leaf(b.probabilities());
  };
  const double ref =
      testref::ref_bellman_value(c.pomdp, c.belief, c.depth, leaf, c.beta, c.skip, c.floor);
  const double got = bellman_value(c.pomdp, c.belief, c.depth, leaf, c.beta, c.skip, c.floor);
  EXPECT_EQ(ref, got) << "seed=" << GetParam() << " depth=" << c.depth
                      << " floor=" << c.floor << " beta=" << c.beta;
}

TEST_P(ExpansionParityTest, WrapperActionValuesMatchReferenceBitwise) {
  const ParityCase c = make_case(GetParam());
  const std::function<double(const Belief&)> leaf = [&c](const Belief& b) {
    return c.leaf(b.probabilities());
  };
  const auto ref = testref::ref_bellman_action_values(c.pomdp, c.belief, c.depth, leaf,
                                                      c.beta, c.skip, c.floor);
  const auto got =
      bellman_action_values(c.pomdp, c.belief, c.depth, leaf, c.beta, c.skip, c.floor);
  ASSERT_EQ(ref.size(), got.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].action, got[i].action);
    EXPECT_EQ(ref[i].value, got[i].value)
        << "seed=" << GetParam() << " action=" << i << " depth=" << c.depth;
  }
}

TEST_P(ExpansionParityTest, EngineDirectSpanPathMatchesReferenceBitwise) {
  const ParityCase c = make_case(GetParam());
  ExpansionEngine engine(c.pomdp);
  ExpansionOptions opts;
  opts.beta = c.beta;
  opts.skip_action = c.skip;
  opts.branch_floor = c.floor;

  const std::function<double(const Belief&)> ref_leaf = [&c](const Belief& b) {
    return c.leaf(b.probabilities());
  };
  const double ref = testref::ref_bellman_value(c.pomdp, c.belief, c.depth, ref_leaf,
                                                c.beta, c.skip, c.floor);
  const double got = engine.value(c.belief.probabilities(), c.depth,
                                  SpanLeaf::of(c.leaf), opts);
  EXPECT_EQ(ref, got);

  std::vector<ActionValue> values;
  engine.action_values(c.belief.probabilities(), c.depth, SpanLeaf::of(c.leaf), opts,
                       values);
  const auto ref_values = testref::ref_bellman_action_values(c.pomdp, c.belief, c.depth,
                                                             ref_leaf, c.beta, c.skip,
                                                             c.floor);
  ASSERT_EQ(values.size(), ref_values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i].value, ref_values[i].value) << "action " << i;
  }
}

// The engine walks root actions serially; parallelism lives one level up,
// one engine per thread (each episode under --jobs owns its controller's
// engine). Three threads, each with its own engine over the shared model
// and leaf, must reproduce one engine's serial walk bitwise — values and
// tie-break.
TEST_P(ExpansionParityTest, RootParallelFanOutMatchesSerialBitwise) {
  const ParityCase c = make_case(GetParam());
  ExpansionOptions opts;
  opts.beta = c.beta;
  opts.skip_action = c.skip;
  opts.branch_floor = c.floor;

  ExpansionEngine engine(c.pomdp);
  std::vector<ActionValue> serial_values;
  engine.action_values(c.belief.probabilities(), c.depth, SpanLeaf::of(c.leaf), opts,
                       serial_values);
  const ActionValue serial_best =
      engine.best_action(c.belief.probabilities(), c.depth, SpanLeaf::of(c.leaf), opts);

  constexpr std::size_t kJobs = 3;
  std::vector<std::vector<ActionValue>> parallel_values(kJobs);
  std::vector<ActionValue> parallel_best(kJobs);
  std::vector<std::thread> workers;
  for (std::size_t j = 0; j < kJobs; ++j) {
    workers.emplace_back([&c, &opts, &parallel_values, &parallel_best, j] {
      ExpansionEngine local(c.pomdp);
      local.action_values(c.belief.probabilities(), c.depth, SpanLeaf::of(c.leaf), opts,
                          parallel_values[j]);
      parallel_best[j] =
          local.best_action(c.belief.probabilities(), c.depth, SpanLeaf::of(c.leaf), opts);
    });
  }
  for (std::thread& worker : workers) worker.join();

  for (std::size_t j = 0; j < kJobs; ++j) {
    ASSERT_EQ(serial_values.size(), parallel_values[j].size());
    for (std::size_t i = 0; i < serial_values.size(); ++i) {
      EXPECT_EQ(serial_values[i].action, parallel_values[j][i].action);
      EXPECT_EQ(serial_values[i].value, parallel_values[j][i].value)
          << "job " << j << " action " << i;
    }
    EXPECT_EQ(serial_best.action, parallel_best[j].action);
    EXPECT_EQ(serial_best.value, parallel_best[j].value);
  }
}

TEST_P(ExpansionParityTest, BestActionTieBreakMatchesWrapper) {
  const ParityCase c = make_case(GetParam());
  const std::function<double(const Belief&)> leaf = [&c](const Belief& b) {
    return c.leaf(b.probabilities());
  };
  const ActionValue via_wrapper = bellman_best_action(c.pomdp, c.belief, c.depth, leaf,
                                                      c.beta, c.skip, c.floor);
  ExpansionEngine engine(c.pomdp);
  ExpansionOptions opts;
  opts.beta = c.beta;
  opts.skip_action = c.skip;
  opts.branch_floor = c.floor;
  const ActionValue via_engine =
      engine.best_action(c.belief.probabilities(), c.depth, SpanLeaf::of(c.leaf), opts);
  EXPECT_EQ(via_wrapper.action, via_engine.action);
  EXPECT_EQ(via_wrapper.value, via_engine.value);
}

// 120 seeds x 3 sampled configurations each (depth, beta, mask, floor all
// derived from the seed) comfortably exceeds the "100 randomized models"
// acceptance bar.
INSTANTIATE_TEST_SUITE_P(Seeds, ExpansionParityTest,
                         ::testing::Range<std::uint64_t>(1, 121));

TEST(ExpansionEngine, RebindSwitchesModels) {
  const Pomdp p1 = make_random_pomdp(1001);
  const Pomdp p2 = make_random_pomdp(2002);
  ExpansionEngine engine(p1);
  const SawLeaf leaf{{std::vector<double>(p1.num_states(), -1.0)}};

  const Belief b1 = Belief::uniform(p1.num_states());
  const double v1 = engine.value(b1.probabilities(), 1, SpanLeaf::of(leaf), {});
  EXPECT_TRUE(std::isfinite(v1));

  engine.rebind(p2);
  const SawLeaf leaf2{{std::vector<double>(p2.num_states(), -1.0)}};
  const Belief b2 = Belief::uniform(p2.num_states());
  const double v2 = engine.value(b2.probabilities(), 2, SpanLeaf::of(leaf2), {});
  EXPECT_TRUE(std::isfinite(v2));
}

TEST(ExpansionEngine, ArenaGrowsWithDepthAndIsReused) {
  const Pomdp p = make_random_pomdp(77);
  ExpansionEngine engine(p);
  const SawLeaf leaf{{std::vector<double>(p.num_states(), -2.0)}};
  const Belief b = Belief::uniform(p.num_states());

  (void)engine.value(b.probabilities(), 1, SpanLeaf::of(leaf), {});
  const std::size_t after_d1 = engine.arena_bytes();
  EXPECT_GT(after_d1, 0u);
  (void)engine.value(b.probabilities(), 3, SpanLeaf::of(leaf), {});
  const std::size_t after_d3 = engine.arena_bytes();
  EXPECT_GE(after_d3, after_d1);
  // Re-running the deep expansion must not grow the arena further.
  (void)engine.value(b.probabilities(), 3, SpanLeaf::of(leaf), {});
  EXPECT_EQ(engine.arena_bytes(), after_d3);
}

}  // namespace
}  // namespace recoverd
