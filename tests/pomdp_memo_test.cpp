// Exactness suite for the within-decision transposition cache (DESIGN.md
// §11): on randomized recovery POMDPs, every engine entry point — which
// always memoizes — must reproduce the memo-free recursive reference
// (tests/reference_bellman.hpp) BIT FOR BIT: same values, same chosen
// actions, same tie-breaks, across depths 1..3, action masks and branch
// floors. The suite also pins the cache's observable behaviour: hit/miss/
// insertion tallies on a model built to collide, the size cap, and the
// leaf cost-hint gate.
#include "pomdp/expansion.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "pomdp/belief.hpp"
#include "reference_bellman.hpp"
#include "util/rng.hpp"

namespace recoverd {
namespace {

// Random but valid recovery POMDP (same shape as the expansion parity
// suite): state 0 is the goal, action 0 always repairs downward, and the
// observation rows mix large and tiny entries so branch floors prune some
// branches but not all.
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
        v = rng.bernoulli(0.4) ? rng.uniform(0.5, 1.0) : rng.uniform(0.001, 0.05);
        total += v;
      }
      for (ObsId o = 0; o < num_obs; ++o) b.set_observation(s, a, o, row[o] / total);
    }
  }
  return b.build();
}

// Piecewise-linear leaf (max over random hyperplanes), shaped like the
// BoundSet evaluations the controllers use. Expensive enough (default cost
// hint) that the engine memoizes depth-0 results.
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

struct MemoCase {
  Pomdp pomdp;
  Belief belief;
  SawLeaf leaf;
  int depth;
  double beta;
  ActionId skip;
  double floor;
};

MemoCase make_case(std::uint64_t seed) {
  MemoCase c{make_random_pomdp(seed), Belief::uniform(1), {}, 1, 1.0, kInvalidId, 0.0};
  Rng rng(seed ^ 0x3a5c0ffe);
  std::vector<double> pi(c.pomdp.num_states());
  for (auto& v : pi) v = rng.uniform(0.01, 1.0);
  c.belief = Belief(std::move(pi));  // Belief normalises
  c.leaf = SawLeaf::random(c.pomdp.num_states(), rng);
  c.depth = 1 + static_cast<int>(rng.uniform_index(3));  // 1..3
  c.beta = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 1.0);
  c.skip = rng.bernoulli(0.3) ? ActionId{0} : kInvalidId;
  const double floors[] = {0.0, 1e-3, 5e-2, 0.2};
  c.floor = floors[rng.uniform_index(4)];
  return c;
}

ExpansionOptions base_options(const MemoCase& c) {
  ExpansionOptions opts;
  opts.beta = c.beta;
  opts.skip_action = c.skip;
  opts.branch_floor = c.floor;
  return opts;
}

// The memo-free side of every comparison is the frozen recursive reference
// (tests/reference_bellman.hpp), run on the same leaf.
std::function<double(const Belief&)> reference_leaf(const MemoCase& c) {
  return [&c](const Belief& b) { return c.leaf(b.probabilities()); };
}

double memo_off_value(const MemoCase& c) {
  return testref::ref_bellman_value(c.pomdp, c.belief, c.depth, reference_leaf(c), c.beta,
                                    c.skip, c.floor);
}

class MemoParityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemoParityTest, ValueMatchesMemoOffBitwise) {
  const MemoCase c = make_case(GetParam());
  ExpansionEngine engine(c.pomdp);
  const double on = engine.value(c.belief.probabilities(), c.depth,
                                 SpanLeaf::of(c.leaf), base_options(c));
  EXPECT_EQ(memo_off_value(c), on) << "seed=" << GetParam() << " depth=" << c.depth
                                   << " floor=" << c.floor << " beta=" << c.beta;
}

TEST_P(MemoParityTest, ActionValuesAndBestActionMatchMemoOffBitwise) {
  const MemoCase c = make_case(GetParam());
  ExpansionEngine engine(c.pomdp);
  const std::vector<ActionValue> off = testref::ref_bellman_action_values(
      c.pomdp, c.belief, c.depth, reference_leaf(c), c.beta, c.skip, c.floor);
  std::vector<ActionValue> on;
  engine.action_values(c.belief.probabilities(), c.depth, SpanLeaf::of(c.leaf),
                       base_options(c), on);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].action, on[i].action);
    EXPECT_EQ(off[i].value, on[i].value)
        << "seed=" << GetParam() << " action=" << i << " depth=" << c.depth;
  }

  // Lowest ActionId wins ties among the unmasked actions.
  ActionValue best_off{kInvalidId, -std::numeric_limits<double>::infinity()};
  for (const ActionValue& av : off) {
    if (av.action == c.skip) continue;
    if (best_off.action == kInvalidId || av.value > best_off.value) best_off = av;
  }
  const ActionValue best_on = engine.best_action(c.belief.probabilities(), c.depth,
                                                 SpanLeaf::of(c.leaf), base_options(c));
  EXPECT_EQ(best_off.action, best_on.action);
  EXPECT_EQ(best_off.value, best_on.value);
}

// Concurrent decides each own an engine, and with it a transposition
// cache. Three engines on three threads over the shared model and leaf
// must give the serial memoized values bitwise, and each expansion's memo
// tallies must equal the serial engine's: no thread shares another's
// entries or skews its hit counts.
TEST_P(MemoParityTest, RootJobsInvariantWithMemoOn) {
  const MemoCase c = make_case(GetParam());
  ExpansionEngine engine(c.pomdp);
  ExpansionNodeStats serial_stats;
  ExpansionOptions serial = base_options(c);
  serial.stats = &serial_stats;
  std::vector<ActionValue> serial_values;
  engine.action_values(c.belief.probabilities(), c.depth, SpanLeaf::of(c.leaf), serial,
                       serial_values);

  constexpr std::size_t kJobs = 3;
  std::vector<std::vector<ActionValue>> parallel_values(kJobs);
  std::vector<ExpansionNodeStats> parallel_stats(kJobs);
  std::vector<std::thread> workers;
  for (std::size_t j = 0; j < kJobs; ++j) {
    workers.emplace_back([&c, &parallel_values, &parallel_stats, j] {
      ExpansionEngine local(c.pomdp);
      ExpansionOptions opts = base_options(c);
      opts.stats = &parallel_stats[j];
      local.action_values(c.belief.probabilities(), c.depth, SpanLeaf::of(c.leaf), opts,
                          parallel_values[j]);
    });
  }
  for (std::thread& worker : workers) worker.join();

  for (std::size_t j = 0; j < kJobs; ++j) {
    ASSERT_EQ(serial_values.size(), parallel_values[j].size());
    for (std::size_t i = 0; i < serial_values.size(); ++i) {
      EXPECT_EQ(serial_values[i].action, parallel_values[j][i].action);
      EXPECT_EQ(serial_values[i].value, parallel_values[j][i].value)
          << "seed=" << GetParam() << " job " << j << " action " << i;
    }
    EXPECT_EQ(parallel_stats[j].memo_hits, serial_stats.memo_hits) << "job " << j;
    EXPECT_EQ(parallel_stats[j].memo_misses, serial_stats.memo_misses) << "job " << j;
    EXPECT_EQ(parallel_stats[j].memo_insertions, serial_stats.memo_insertions)
        << "job " << j;
    EXPECT_EQ(parallel_stats[j].leaf_evaluations, serial_stats.leaf_evaluations)
        << "job " << j;
  }
}

TEST_P(MemoParityTest, TinySizeCapStillExactBitwise) {
  const MemoCase c = make_case(GetParam());
  ExpansionEngine engine(c.pomdp);
  ExpansionOptions capped = base_options(c);
  capped.memo_max_bytes = 1;  // forces every insertion onto the capped path
  const double got = engine.value(c.belief.probabilities(), c.depth,
                                  SpanLeaf::of(c.leaf), capped);
  EXPECT_EQ(memo_off_value(c), got) << "seed=" << GetParam();
}

// 120 seeds x the 4 tests above, with depth / beta / mask / floor all
// derived from the seed — comfortably past the "100 randomized models"
// acceptance bar, every comparison EXPECT_EQ (bitwise).
INSTANTIATE_TEST_SUITE_P(Seeds, MemoParityTest,
                         ::testing::Range<std::uint64_t>(1, 121));

// A model engineered to collide: the observation distribution is uniform
// and independent of the state, so every observation branch of a node
// produces the *same* posterior bit pattern and all but the first child of
// each (node, action) must hit the cache.
Pomdp make_colliding_pomdp() {
  constexpr std::size_t kStates = 4;
  constexpr std::size_t kObs = 3;
  PomdpBuilder b;
  for (StateId s = 0; s < kStates; ++s) {
    std::string name = "s";
    name += std::to_string(s);
    b.add_state(name, s == 0 ? 0.0 : -1.0 * static_cast<double>(s));
  }
  b.mark_goal(0);
  b.add_action("repair", 2.0);
  b.add_action("swap", 5.0);
  for (ObsId o = 0; o < kObs; ++o) {
    std::string name = "o";
    name += std::to_string(o);
    b.add_observation(name);
  }
  for (StateId s = 0; s < kStates; ++s) {
    b.set_transition(s, 0, s > 0 ? s - 1 : 0, 1.0);
    b.set_transition(s, 1, (s + 1) % kStates, 0.5);
    b.set_transition(s, 1, s, 0.5);
    for (ActionId a = 0; a < 2; ++a) {
      for (ObsId o = 0; o < kObs; ++o) {
        b.set_observation(s, a, o, 1.0 / static_cast<double>(kObs));
      }
    }
  }
  return b.build();
}

struct QuadraticLeaf {
  double operator()(std::span<const double> pi) const {
    double v = 0.0;
    for (double x : pi) v -= x * x;
    return v;
  }
};

TEST(MemoMetricsTest, CollidingModelRecordsHitsMissesInsertions) {
  const Pomdp p = make_colliding_pomdp();
  ExpansionEngine engine(p);
  const QuadraticLeaf leaf;
  const Belief pi = Belief::uniform(p.num_states());

  obs::Counter& hits = obs::metrics().counter("pomdp.memo.hits");
  obs::Counter& misses = obs::metrics().counter("pomdp.memo.misses");
  obs::Counter& insertions = obs::metrics().counter("pomdp.memo.insertions");
  const std::uint64_t hits0 = hits.value();
  const std::uint64_t misses0 = misses.value();
  const std::uint64_t insertions0 = insertions.value();

  const double v = engine.value(pi.probabilities(), 3, SpanLeaf::of(leaf), {});
  EXPECT_TRUE(std::isfinite(v));

  const std::uint64_t hit_delta = hits.value() - hits0;
  const std::uint64_t miss_delta = misses.value() - misses0;
  const std::uint64_t insert_delta = insertions.value() - insertions0;
  // With 3 identical observation branches per (node, action), every
  // *interior* probe after the first per (node, action) must hit. (The
  // identical depth-0 children of one frontier all miss together: the batch
  // path probes the whole frontier before inserting its misses.) Every miss
  // is inserted — nothing capped here.
  EXPECT_GT(hit_delta, 0u);
  EXPECT_GT(miss_delta, 0u);
  EXPECT_EQ(insert_delta, miss_delta);
  // Both root actions see 2 hits among the root's 3 children and 4 hits one
  // level down: at least 12 in total on this fixed model.
  EXPECT_GE(hit_delta, 12u);

  // Every hit still returns exactly the memo-free reference value.
  const std::function<double(const Belief&)> ref_leaf = [&leaf](const Belief& b) {
    return leaf(b.probabilities());
  };
  EXPECT_EQ(v, testref::ref_bellman_value(p, pi, 3, ref_leaf));
}

TEST(MemoMetricsTest, TinyCapRecordsCappedInsertions) {
  const Pomdp p = make_colliding_pomdp();
  ExpansionEngine engine(p);
  const QuadraticLeaf leaf;
  const Belief pi = Belief::uniform(p.num_states());

  obs::Counter& capped = obs::metrics().counter("pomdp.memo.capped");
  const std::uint64_t capped0 = capped.value();
  ExpansionOptions opts;
  opts.memo_max_bytes = 1;
  (void)engine.value(pi.probabilities(), 2, SpanLeaf::of(leaf), opts);
  EXPECT_GT(capped.value(), capped0);
}

TEST(MemoMetricsTest, CheapLeafCostHintSkipsDepthZeroCaching) {
  const Pomdp p = make_colliding_pomdp();
  const QuadraticLeaf leaf;
  const Belief pi = Belief::uniform(p.num_states());

  const SpanLeaf::Fn call = [](const void* ctx, std::span<const double> span_pi) {
    return (*static_cast<const QuadraticLeaf*>(ctx))(span_pi);
  };
  const SpanLeaf cheap_leaf(call, &leaf, nullptr, /*cost_hint=*/1);
  const SpanLeaf costly_leaf(call, &leaf, nullptr, /*cost_hint=*/16);

  obs::Counter& insertions = obs::metrics().counter("pomdp.memo.insertions");
  const ExpansionOptions opts;

  // Depth 1: every child is a leaf. A cheap evaluator (cost hint at or
  // below the cache's own probe+insert cost) must bypass the cache
  // entirely; the same evaluator with a costly hint populates it. Values
  // are identical either way — the hint only gates caching, never results.
  ExpansionEngine cheap_engine(p);
  const std::uint64_t before_cheap = insertions.value();
  const double cheap = cheap_engine.value(pi.probabilities(), 1, cheap_leaf, opts);
  EXPECT_EQ(insertions.value(), before_cheap);

  ExpansionEngine costly_engine(p);
  const std::uint64_t before_costly = insertions.value();
  const double costly = costly_engine.value(pi.probabilities(), 1, costly_leaf, opts);
  EXPECT_GT(insertions.value(), before_costly);
  EXPECT_EQ(cheap, costly);
}

}  // namespace
}  // namespace recoverd
