// Exactness suite for the batch-first engine entry points (DESIGN.md §13):
// on randomized recovery POMDPs, update_batch() and action_values_batch() /
// decide_batch() must reproduce the single-belief walk BIT FOR BIT — same
// posterior bits, same values, same chosen actions — for every batch
// composition (sizes 1/7/64 with duplicated lanes) and SIMD mode, on one
// engine or on concurrent ones, and match the memo-free recursive
// reference (tests/reference_bellman.hpp).
// Batched lanes whose beliefs coincide are solved once (canonicalization),
// so the suite also pins the BatchExpansionStats accounting: classes +
// shared_hits == sessions.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "pomdp/belief.hpp"
#include "pomdp/belief_batch.hpp"
#include "pomdp/expansion.hpp"
#include "reference_bellman.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace recoverd {
namespace {

// Random but valid recovery POMDP (same generator as the memo suite):
// state 0 is the goal, action 0 always repairs downward, and the
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

struct BatchCase {
  Pomdp pomdp;
  std::vector<Belief> pool;  // distinct beliefs lanes draw from (with repeats)
  SawLeaf leaf;
  int depth;
  double floor;
};

constexpr std::size_t kPoolSize = 5;

BatchCase make_case(std::uint64_t seed) {
  BatchCase c{make_random_pomdp(seed), {}, {}, 1, 0.0};
  Rng rng(seed ^ 0x5eedba7c);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    std::vector<double> pi(c.pomdp.num_states());
    for (auto& v : pi) v = rng.uniform(0.01, 1.0);
    c.pool.emplace_back(std::move(pi));  // Belief normalises
  }
  c.leaf = SawLeaf::random(c.pomdp.num_states(), rng);
  c.depth = 1 + static_cast<int>(rng.uniform_index(2));  // 1..2
  const double floors[] = {0.0, 1e-3, 5e-2};
  c.floor = floors[rng.uniform_index(3)];
  return c;
}

// Lane L draws pool[?] pseudo-randomly, so any batch larger than the pool
// necessarily duplicates beliefs across lanes (the canonicalization case).
BeliefBatch make_batch(const BatchCase& c, std::size_t lanes, std::uint64_t salt) {
  Rng rng(salt);
  BeliefBatch batch(c.pomdp.num_states());
  batch.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    batch.push_back(c.pool[rng.uniform_index(c.pool.size())], lane);
  }
  return batch;
}

ExpansionOptions base_options(const BatchCase& c) {
  ExpansionOptions opts;
  opts.branch_floor = c.floor;
  return opts;
}

// Restores the default kernel selection no matter how a test exits, so a
// failing scalar-mode expectation can't leak into later suites.
struct SimdModeGuard {
  ~SimdModeGuard() { simd::configure("auto"); }
};

class BatchParityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchParityTest, UpdateBatchMatchesUpdateBeliefBitwise) {
  const BatchCase c = make_case(GetParam());
  const std::size_t lanes = 16;
  BeliefBatch batch = make_batch(c, lanes, GetParam() ^ 0xabc);
  std::vector<std::vector<double>> before(lanes, std::vector<double>(c.pomdp.num_states()));
  for (std::size_t lane = 0; lane < lanes; ++lane) batch.copy_lane(lane, before[lane]);

  Rng rng(GetParam() ^ 0xdef);
  std::vector<ActionId> actions(lanes);
  std::vector<ObsId> observations(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    actions[lane] = static_cast<ActionId>(rng.uniform_index(c.pomdp.num_actions()));
    observations[lane] = static_cast<ObsId>(rng.uniform_index(c.pomdp.num_observations()));
  }
  // Lane 3 is a fleet-driver "just respawned" marker: skipped entirely.
  actions[3] = kInvalidId;

  BatchUpdateWorkspace ws;
  update_batch(c.pomdp, batch, actions, observations, ws);

  std::size_t expected_failures = 0;
  std::vector<double> got(c.pomdp.num_states());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    batch.copy_lane(lane, got);
    if (actions[lane] == kInvalidId) {
      EXPECT_EQ(ws.likelihood[lane], -1.0) << "skip lane " << lane;
      EXPECT_EQ(got, before[lane]) << "skip lane " << lane << " was touched";
      continue;
    }
    const Belief prior = Belief::from_normalized(before[lane]);
    const auto reference = update_belief(c.pomdp, prior, actions[lane], observations[lane]);
    if (!reference) {
      ++expected_failures;
      EXPECT_EQ(ws.likelihood[lane], 0.0) << "lane " << lane;
      EXPECT_EQ(got, before[lane]) << "zero-likelihood lane " << lane << " was touched";
      continue;
    }
    EXPECT_EQ(ws.likelihood[lane], reference->likelihood) << "lane " << lane;
    for (StateId s = 0; s < c.pomdp.num_states(); ++s) {
      EXPECT_EQ(got[s], reference->next[s])
          << "seed=" << GetParam() << " lane=" << lane << " state=" << s;
    }
  }
  EXPECT_EQ(ws.failures, expected_failures);
}

TEST_P(BatchParityTest, ActionValuesBatchMatchesLoopBitwise) {
  const BatchCase c = make_case(GetParam());
  ExpansionEngine engine(c.pomdp);
  const ExpansionOptions opts = base_options(c);
  const std::size_t num_actions = c.pomdp.num_actions();

  for (const std::size_t lanes : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    const BeliefBatch batch = make_batch(c, lanes, GetParam() ^ lanes);
    std::vector<ActionValue> batched;
    BatchExpansionStats stats;
    engine.action_values_batch(batch, c.depth, SpanLeaf::of(c.leaf), opts, batched, &stats);
    ASSERT_EQ(batched.size(), lanes * num_actions);
    EXPECT_EQ(stats.sessions, lanes);
    EXPECT_GE(stats.classes, 1u);
    EXPECT_LE(stats.classes, std::min(lanes, kPoolSize));
    EXPECT_EQ(stats.classes + stats.shared_hits, stats.sessions);

    std::vector<double> pi(c.pomdp.num_states());
    std::vector<ActionValue> looped;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      batch.copy_lane(lane, pi);
      engine.action_values(pi, c.depth, SpanLeaf::of(c.leaf), opts, looped);
      ASSERT_EQ(looped.size(), num_actions);
      for (std::size_t a = 0; a < num_actions; ++a) {
        EXPECT_EQ(batched[lane * num_actions + a].action, looped[a].action);
        EXPECT_EQ(batched[lane * num_actions + a].value, looped[a].value)
            << "seed=" << GetParam() << " lanes=" << lanes << " lane=" << lane
            << " action=" << a;
      }
    }
  }
}

TEST_P(BatchParityTest, DecideBatchMatchesBestActionBitwise) {
  const BatchCase c = make_case(GetParam());
  ExpansionEngine engine(c.pomdp);
  const ExpansionOptions opts = base_options(c);
  const BeliefBatch batch = make_batch(c, 7, GetParam() ^ 0x77);

  std::vector<ActionValue> best;
  BatchExpansionStats stats;
  engine.decide_batch(batch, c.depth, SpanLeaf::of(c.leaf), opts, best, &stats);
  ASSERT_EQ(best.size(), batch.size());
  EXPECT_EQ(stats.classes + stats.shared_hits, stats.sessions);

  std::vector<double> pi(c.pomdp.num_states());
  for (std::size_t lane = 0; lane < batch.size(); ++lane) {
    batch.copy_lane(lane, pi);
    const ActionValue reference =
        engine.best_action(pi, c.depth, SpanLeaf::of(c.leaf), opts);
    EXPECT_EQ(best[lane].action, reference.action) << "lane " << lane;
    EXPECT_EQ(best[lane].value, reference.value) << "lane " << lane;
  }
}

// The memo is always on, so its exactness is checked against the
// memo-free recursive reference lane by lane, and against a walk whose
// cache admits nothing (every insertion capped). Concurrent engines, one
// per thread as under --jobs, must produce the same rows.
TEST_P(BatchParityTest, BatchInvariantAcrossMemoAndRootJobs) {
  const BatchCase c = make_case(GetParam());
  ExpansionEngine engine(c.pomdp);
  const BeliefBatch batch = make_batch(c, 7, GetParam() ^ 0x1234);
  const std::size_t num_states = c.pomdp.num_states();
  const std::size_t num_actions = c.pomdp.num_actions();

  std::vector<ActionValue> batched;
  engine.action_values_batch(batch, c.depth, SpanLeaf::of(c.leaf), base_options(c),
                             batched);
  ASSERT_EQ(batched.size(), batch.size() * num_actions);

  ExpansionEngine uncached_engine(c.pomdp);  // fresh: no cache capacity yet
  ExpansionOptions uncached = base_options(c);
  uncached.memo_max_bytes = 1;
  std::vector<ActionValue> memo_free;
  uncached_engine.action_values_batch(batch, c.depth, SpanLeaf::of(c.leaf), uncached,
                                      memo_free);
  ASSERT_EQ(memo_free.size(), batched.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(memo_free[i].action, batched[i].action);
    EXPECT_EQ(memo_free[i].value, batched[i].value) << "capped memo, entry " << i;
  }

  constexpr std::size_t kJobs = 3;
  std::vector<std::vector<ActionValue>> threaded(kJobs);
  std::vector<std::thread> workers;
  for (std::size_t j = 0; j < kJobs; ++j) {
    workers.emplace_back([&c, &batch, &threaded, j] {
      ExpansionEngine local(c.pomdp);
      local.action_values_batch(batch, c.depth, SpanLeaf::of(c.leaf), base_options(c),
                                threaded[j]);
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (std::size_t j = 0; j < kJobs; ++j) {
    ASSERT_EQ(threaded[j].size(), batched.size());
    for (std::size_t i = 0; i < batched.size(); ++i) {
      EXPECT_EQ(threaded[j][i].action, batched[i].action);
      EXPECT_EQ(threaded[j][i].value, batched[i].value) << "job " << j << ", entry " << i;
    }
  }

  const std::function<double(const Belief&)> leaf = [&c](const Belief& b) {
    return c.leaf(b.probabilities());
  };
  std::vector<double> pi(num_states);
  for (std::size_t lane = 0; lane < batch.size(); ++lane) {
    batch.copy_lane(lane, pi);
    // Every lane is a verbatim pool belief; the reference runs on that one.
    const Belief* root = nullptr;
    for (const Belief& candidate : c.pool) {
      if (std::memcmp(candidate.probabilities().data(), pi.data(),
                      num_states * sizeof(double)) == 0) {
        root = &candidate;
      }
    }
    ASSERT_NE(root, nullptr) << "lane " << lane;
    const std::vector<ActionValue> reference = testref::ref_bellman_action_values(
        c.pomdp, *root, c.depth, leaf, 1.0, kInvalidId, c.floor);
    for (std::size_t a = 0; a < num_actions; ++a) {
      EXPECT_EQ(batched[lane * num_actions + a].action, reference[a].action);
      EXPECT_EQ(batched[lane * num_actions + a].value, reference[a].value)
          << "seed=" << GetParam() << " lane=" << lane << " action=" << a;
    }
  }
}

TEST_P(BatchParityTest, SimdScalarMatchesAutoBitwise) {
  const BatchCase c = make_case(GetParam());
  const std::size_t lanes = 7;
  Rng rng(GetParam() ^ 0xbeef);
  std::vector<ActionId> actions(lanes);
  std::vector<ObsId> observations(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    actions[lane] = static_cast<ActionId>(rng.uniform_index(c.pomdp.num_actions()));
    observations[lane] = static_cast<ObsId>(rng.uniform_index(c.pomdp.num_observations()));
  }

  // One full pass (expansion + Bayes update) per kernel mode.
  const auto run = [&](std::vector<ActionValue>& values, BeliefBatch& batch) {
    ExpansionEngine engine(c.pomdp);
    engine.action_values_batch(batch, c.depth, SpanLeaf::of(c.leaf), base_options(c),
                               values);
    BatchUpdateWorkspace ws;
    update_batch(c.pomdp, batch, actions, observations, ws);
  };

  SimdModeGuard guard;
  simd::configure("scalar");
  BeliefBatch scalar_batch = make_batch(c, lanes, GetParam() ^ 0x51);
  std::vector<ActionValue> scalar_values;
  run(scalar_values, scalar_batch);

  simd::configure("auto");
  BeliefBatch auto_batch = make_batch(c, lanes, GetParam() ^ 0x51);
  std::vector<ActionValue> auto_values;
  run(auto_values, auto_batch);

  ASSERT_EQ(scalar_values.size(), auto_values.size());
  for (std::size_t i = 0; i < scalar_values.size(); ++i) {
    EXPECT_EQ(scalar_values[i].action, auto_values[i].action);
    EXPECT_EQ(scalar_values[i].value, auto_values[i].value) << "entry " << i;
  }
  std::vector<double> scalar_pi(c.pomdp.num_states());
  std::vector<double> auto_pi(c.pomdp.num_states());
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    scalar_batch.copy_lane(lane, scalar_pi);
    auto_batch.copy_lane(lane, auto_pi);
    EXPECT_EQ(scalar_pi, auto_pi) << "posterior bits diverged, lane " << lane;
  }
}

// 120 seeds x the 5 tests above, with depth / floor / batch composition all
// derived from the seed — past the "100 randomized models" acceptance bar,
// every comparison EXPECT_EQ (bitwise).
INSTANTIATE_TEST_SUITE_P(Seeds, BatchParityTest,
                         ::testing::Range<std::uint64_t>(1, 121));

TEST(BatchContainerTest, PushSwapRemoveAndStrideInvariants) {
  BeliefBatch batch(3);
  EXPECT_TRUE(batch.empty());
  batch.push_back(Belief::point(3, 1), 10);
  batch.push_back(Belief::uniform(3), 11);
  batch.push_back(Belief::point(3, 2), 12);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.lane_stride() % 8, 0u);
  EXPECT_EQ(batch.session_id(1), 11u);
  EXPECT_EQ(batch.at(0, 1), 1.0);

  // State rows must start 64-byte aligned — the AVX2 kernel contract.
  for (StateId s = 0; s < 3; ++s) {
    const auto row = batch.state_lanes(s);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(row.data()) % 64, 0u);
  }

  batch.swap_remove(0);  // last lane (session 12) moves into slot 0
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.session_id(0), 12u);
  EXPECT_EQ(batch.at(0, 2), 1.0);
  EXPECT_EQ(batch.session_id(1), 11u);
}

TEST(BatchContainerTest, AssignAndCopyLaneAreVerbatim) {
  BeliefBatch batch(4);
  batch.push_back(Belief::uniform(4), 0);
  // Deliberately unnormalised: assign_lane must copy bits verbatim, exactly
  // like Belief::assign_normalized (no hidden renormalisation).
  const std::vector<double> raw = {0.5, 0.25, 0.125, 0.0625};
  batch.assign_lane(0, raw);
  std::vector<double> out(4);
  batch.copy_lane(0, out);
  EXPECT_EQ(out, raw);
}

}  // namespace
}  // namespace recoverd
