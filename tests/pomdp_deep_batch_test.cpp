// Exactness suite for the deep-batched decide() pipeline (DESIGN.md §16):
// on 120 randomized recovery POMDPs, action_values_batch_deep() /
// decide_batch_deep() must reproduce the classic per-class walks — and the
// sequential single-belief reference — BIT FOR BIT, for every batch
// composition, depth 1..3, branch floor, work-pool thread cap, memo
// admission, and SIMD kernel tier the host supports. The suite also pins the
// frontier-canonicalization accounting: duplicated lanes and overlapping
// subtrees must collapse into the same canonical node tables, and the
// deep_node_budget fallback must return the identical bits through the
// classic path.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "pomdp/belief.hpp"
#include "pomdp/belief_batch.hpp"
#include "pomdp/expansion.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/work_pool.hpp"

namespace recoverd {
namespace {

// Random but valid recovery POMDP (same generator as the batch-parity and
// memo suites): state 0 is the goal, action 0 always repairs downward, and
// the observation rows mix large and tiny entries so branch floors prune
// some branches but not all.
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

struct DeepCase {
  Pomdp pomdp;
  std::vector<Belief> pool;  // distinct beliefs lanes draw from (with repeats)
  SawLeaf leaf;
  int depth;
  double floor;
};

constexpr std::size_t kPoolSize = 5;

DeepCase make_case(std::uint64_t seed) {
  DeepCase c{make_random_pomdp(seed), {}, {}, 1, 0.0};
  Rng rng(seed ^ 0xdeeb5eed);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    std::vector<double> pi(c.pomdp.num_states());
    for (auto& v : pi) v = rng.uniform(0.01, 1.0);
    c.pool.emplace_back(std::move(pi));  // Belief normalises
  }
  c.leaf = SawLeaf::random(c.pomdp.num_states(), rng);
  // Depth 1..3: the deep pipeline's dedup-across-levels only shows its
  // teeth at depth >= 2, so the draw is biased upward.
  c.depth = 1 + static_cast<int>(rng.uniform_index(3));
  const double floors[] = {0.0, 1e-3, 5e-2};
  c.floor = floors[rng.uniform_index(3)];
  return c;
}

BeliefBatch make_batch(const DeepCase& c, std::size_t lanes, std::uint64_t salt) {
  Rng rng(salt);
  BeliefBatch batch(c.pomdp.num_states());
  batch.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    batch.push_back(c.pool[rng.uniform_index(c.pool.size())], lane);
  }
  return batch;
}

ExpansionOptions base_options(const DeepCase& c) {
  ExpansionOptions opts;
  opts.branch_floor = c.floor;
  return opts;
}

// Restore defaults no matter how a test exits: the SIMD mode and the pool
// thread cap are process-wide.
struct EnvGuard {
  ~EnvGuard() {
    simd::configure("auto");
    util::WorkPool::instance().configure_threads(static_cast<std::size_t>(-1));
  }
};

void expect_rows_equal(const std::vector<ActionValue>& got,
                       const std::vector<ActionValue>& want, const char* label,
                       std::uint64_t seed) {
  ASSERT_EQ(got.size(), want.size()) << label << " seed=" << seed;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].action, want[i].action) << label << " seed=" << seed << " i=" << i;
    EXPECT_EQ(got[i].value, want[i].value) << label << " seed=" << seed << " i=" << i;
  }
}

class DeepBatchParityTest : public ::testing::TestWithParam<std::uint64_t> {};

// The core contract: deep == classic == sequential reference, bitwise.
TEST_P(DeepBatchParityTest, DeepMatchesClassicAndSequentialBitwise) {
  const DeepCase c = make_case(GetParam());
  ExpansionEngine engine(c.pomdp);
  const ExpansionOptions opts = base_options(c);
  const std::size_t num_actions = c.pomdp.num_actions();

  for (const std::size_t lanes : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    const BeliefBatch batch = make_batch(c, lanes, GetParam() ^ lanes);

    std::vector<ActionValue> deep;
    BatchExpansionStats deep_stats;
    engine.action_values_batch_deep(batch, c.depth, SpanLeaf::of(c.leaf), opts, deep,
                                    &deep_stats);
    ASSERT_EQ(deep.size(), lanes * num_actions);
    EXPECT_TRUE(deep_stats.deep);
    EXPECT_EQ(deep_stats.sessions, lanes);
    EXPECT_EQ(deep_stats.classes + deep_stats.shared_hits, lanes);
    // Level 0 alone contributes `classes` Max nodes; at least one branch
    // always survives the floors this suite draws, so the leaf frontier is
    // never empty.
    EXPECT_GE(deep_stats.frontier_nodes, deep_stats.classes);
    EXPECT_GE(deep_stats.frontier_leaves, 1u);

    std::vector<ActionValue> classic;
    engine.action_values_batch(batch, c.depth, SpanLeaf::of(c.leaf), opts, classic);
    expect_rows_equal(deep, classic, "deep vs classic", GetParam());

    std::vector<double> pi(c.pomdp.num_states());
    std::vector<ActionValue> looped;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      batch.copy_lane(lane, pi);
      engine.action_values(pi, c.depth, SpanLeaf::of(c.leaf), opts, looped);
      for (std::size_t a = 0; a < num_actions; ++a) {
        EXPECT_EQ(deep[lane * num_actions + a].action, looped[a].action);
        EXPECT_EQ(deep[lane * num_actions + a].value, looped[a].value)
            << "seed=" << GetParam() << " lanes=" << lanes << " lane=" << lane
            << " action=" << a;
      }
    }
  }
}

TEST_P(DeepBatchParityTest, DecideDeepMatchesBestActionBitwise) {
  const DeepCase c = make_case(GetParam());
  ExpansionEngine engine(c.pomdp);
  const ExpansionOptions opts = base_options(c);
  const BeliefBatch batch = make_batch(c, 9, GetParam() ^ 0x99);

  std::vector<ActionValue> best;
  BatchExpansionStats stats;
  engine.decide_batch_deep(batch, c.depth, SpanLeaf::of(c.leaf), opts, best, &stats);
  ASSERT_EQ(best.size(), batch.size());
  EXPECT_TRUE(stats.deep);

  std::vector<double> pi(c.pomdp.num_states());
  for (std::size_t lane = 0; lane < batch.size(); ++lane) {
    batch.copy_lane(lane, pi);
    const ActionValue reference =
        engine.best_action(pi, c.depth, SpanLeaf::of(c.leaf), opts);
    EXPECT_EQ(best[lane].action, reference.action) << "lane " << lane;
    EXPECT_EQ(best[lane].value, reference.value) << "lane " << lane;
  }
}

// The deep pipeline never touches the memo, but its per-class fallback
// walks the root actions one by one through it. The work-pool thread cap
// is process-wide and callers set it freely. Every combination of cap,
// memo admission (default, or every insertion capped) and path (deep, or
// the fallback forced by a one-node budget) must agree bitwise.
TEST_P(DeepBatchParityTest, DeepInvariantAcrossPoolCapsMemoAndRootJobs) {
  const DeepCase c = make_case(GetParam());
  ExpansionEngine engine(c.pomdp);
  const BeliefBatch batch = make_batch(c, 7, GetParam() ^ 0x4242);
  EnvGuard guard;

  std::vector<ActionValue> reference;
  engine.action_values_batch_deep(batch, c.depth, SpanLeaf::of(c.leaf), base_options(c),
                                  reference);

  const ExpansionOptions defaults = base_options(c);
  for (const std::size_t cap : {std::size_t{1}, std::size_t{3}}) {
    util::WorkPool::instance().configure_threads(cap);
    for (const std::size_t memo_bytes : {defaults.memo_max_bytes, std::size_t{1}}) {
      for (const std::size_t budget : {defaults.deep_node_budget, std::size_t{1}}) {
        ExpansionOptions opts = defaults;
        opts.memo_max_bytes = memo_bytes;
        opts.deep_node_budget = budget;
        ExpansionEngine variant(c.pomdp);  // fresh: a cap binds from the start
        std::vector<ActionValue> got;
        variant.action_values_batch_deep(batch, c.depth, SpanLeaf::of(c.leaf), opts, got);
        expect_rows_equal(got, reference, "pool/memo/path variant", GetParam());
      }
    }
  }
}

// Forcing every SIMD tier the host supports must leave the bits unchanged
// (the scalar kernels are the reference; AVX2/AVX-512 vectorize only
// across independent accumulators, never inside one FP reduction).
TEST_P(DeepBatchParityTest, DeepInvariantAcrossSimdTiers) {
  const DeepCase c = make_case(GetParam());
  EnvGuard guard;

  const auto run = [&](std::vector<ActionValue>& values) {
    ExpansionEngine engine(c.pomdp);
    const BeliefBatch batch = make_batch(c, 7, GetParam() ^ 0x51);
    engine.action_values_batch_deep(batch, c.depth, SpanLeaf::of(c.leaf),
                                    base_options(c), values);
  };

  simd::configure("scalar");
  std::vector<ActionValue> scalar_values;
  run(scalar_values);

  if (simd::cpu_supports_avx2()) {
    simd::configure("avx2");
    std::vector<ActionValue> avx2_values;
    run(avx2_values);
    expect_rows_equal(avx2_values, scalar_values, "avx2 vs scalar", GetParam());
  }
  if (simd::cpu_supports_avx512()) {
    simd::configure("avx512");
    std::vector<ActionValue> avx512_values;
    run(avx512_values);
    expect_rows_equal(avx512_values, scalar_values, "avx512 vs scalar", GetParam());
  }
  simd::configure("auto");
  std::vector<ActionValue> auto_values;
  run(auto_values);
  expect_rows_equal(auto_values, scalar_values, "auto vs scalar", GetParam());
}

// An absurdly small node budget must route through the classic walks and
// still return the identical bits (stats report which path ran).
TEST_P(DeepBatchParityTest, NodeBudgetFallbackIsBitwiseIdentical) {
  const DeepCase c = make_case(GetParam());
  ExpansionEngine engine(c.pomdp);
  const BeliefBatch batch = make_batch(c, 7, GetParam() ^ 0xfa11);

  std::vector<ActionValue> reference;
  engine.action_values_batch_deep(batch, c.depth, SpanLeaf::of(c.leaf), base_options(c),
                                  reference);

  ExpansionOptions tiny = base_options(c);
  tiny.deep_node_budget = 1;
  std::vector<ActionValue> fallback;
  BatchExpansionStats stats;
  engine.action_values_batch_deep(batch, c.depth, SpanLeaf::of(c.leaf), tiny, fallback,
                                  &stats);
  expect_rows_equal(fallback, reference, "budget fallback", GetParam());
  // Every case in this suite has >= 2 reachable beliefs somewhere in the
  // tree, so a budget of one node cannot hold a level.
  EXPECT_FALSE(stats.deep);
  EXPECT_EQ(stats.frontier_nodes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeepBatchParityTest,
                         ::testing::Range<std::uint64_t>(1, 121));

// ---- frontier canonicalization accounting --------------------------------

TEST(DeepBatchFrontierTest, DuplicateLanesCollapseToOneClassAndOneTree) {
  const DeepCase c = make_case(7);
  ExpansionEngine engine(c.pomdp);
  const ExpansionOptions opts = base_options(c);

  BeliefBatch single(c.pomdp.num_states());
  single.push_back(c.pool[0], 0);
  std::vector<ActionValue> single_values;
  BatchExpansionStats single_stats;
  engine.action_values_batch_deep(single, c.depth, SpanLeaf::of(c.leaf), opts,
                                  single_values, &single_stats);

  BeliefBatch dup(c.pomdp.num_states());
  for (std::size_t lane = 0; lane < 6; ++lane) dup.push_back(c.pool[0], lane);
  std::vector<ActionValue> dup_values;
  BatchExpansionStats dup_stats;
  engine.action_values_batch_deep(dup, c.depth, SpanLeaf::of(c.leaf), opts, dup_values,
                                  &dup_stats);

  // Six bitwise-identical lanes are one canonical root: the deep tree —
  // node tables and the leaf frontier — is exactly the single-lane tree.
  EXPECT_EQ(dup_stats.classes, 1u);
  EXPECT_EQ(dup_stats.shared_hits, 5u);
  EXPECT_EQ(dup_stats.frontier_nodes, single_stats.frontier_nodes);
  EXPECT_EQ(dup_stats.frontier_leaves, single_stats.frontier_leaves);
  const std::size_t num_actions = c.pomdp.num_actions();
  for (std::size_t lane = 0; lane < 6; ++lane) {
    for (std::size_t a = 0; a < num_actions; ++a) {
      EXPECT_EQ(dup_values[lane * num_actions + a].value, single_values[a].value);
    }
  }
}

TEST(DeepBatchFrontierTest, GlobalCanonicalizationNeverGrowsTheFrontier) {
  const DeepCase c = make_case(11);
  ExpansionEngine engine(c.pomdp);
  const ExpansionOptions opts = base_options(c);

  // Solve the two roots separately, then together: cross-root dedup can
  // only shrink the combined node tables, never grow them.
  std::size_t separate_nodes = 0;
  std::size_t separate_leaves = 0;
  for (std::size_t i = 0; i < 2; ++i) {
    BeliefBatch one(c.pomdp.num_states());
    one.push_back(c.pool[i], 0);
    std::vector<ActionValue> values;
    BatchExpansionStats stats;
    engine.action_values_batch_deep(one, c.depth, SpanLeaf::of(c.leaf), opts, values,
                                    &stats);
    separate_nodes += stats.frontier_nodes;
    separate_leaves += stats.frontier_leaves;
  }

  BeliefBatch both(c.pomdp.num_states());
  both.push_back(c.pool[0], 0);
  both.push_back(c.pool[1], 1);
  std::vector<ActionValue> values;
  BatchExpansionStats stats;
  engine.action_values_batch_deep(both, c.depth, SpanLeaf::of(c.leaf), opts, values,
                                  &stats);
  EXPECT_EQ(stats.classes, 2u);
  EXPECT_LE(stats.frontier_nodes, separate_nodes);
  EXPECT_LE(stats.frontier_leaves, separate_leaves);
  EXPECT_GE(stats.frontier_nodes, 2u);  // at minimum the two roots
}

// A point-mass belief at an absorbing, deterministically-observed goal
// state reproduces itself bitwise under every action: the canonical node
// table stays at exactly ONE node per level however deep the tree is —
// the collapse that makes depth-2+ deep expansion cheap. Without
// cross-level canonicalization the tree would hold 2^depth action-paths.
TEST(DeepBatchFrontierTest, AbsorbingStructureCollapsesAcrossLevels) {
  PomdpBuilder b;
  b.add_state("good", 0.0);
  b.add_state("faulty", -1.0);
  b.mark_goal(0);
  b.add_action("repair", 4.0);
  b.add_action("wait", 1.0);
  b.add_observation("ok");
  b.add_observation("alarm");
  // repair always lands in the goal; wait leaves the state alone.
  b.set_transition(0, 0, 0, 1.0);
  b.set_transition(1, 0, 0, 1.0);
  b.set_transition(0, 1, 0, 1.0);
  b.set_transition(1, 1, 1, 1.0);
  // Observations reveal the state exactly, under either action.
  for (ActionId a = 0; a < 2; ++a) {
    b.set_observation(0, a, 0, 1.0);
    b.set_observation(1, a, 1, 1.0);
  }
  const Pomdp pomdp = b.build();

  ExpansionEngine engine(pomdp);
  ExpansionOptions opts;
  SawLeaf leaf;
  leaf.planes.push_back({0.0, -10.0});

  BeliefBatch batch(pomdp.num_states());
  batch.push_back(Belief::point(pomdp.num_states(), 0), 0);

  for (const int depth : {1, 3, 5}) {
    std::vector<ActionValue> deep_values;
    BatchExpansionStats stats;
    engine.action_values_batch_deep(batch, depth, SpanLeaf::of(leaf), opts, deep_values,
                                    &stats);
    EXPECT_TRUE(stats.deep);
    // One distinct belief per interior level, one distinct leaf.
    EXPECT_EQ(stats.frontier_nodes, static_cast<std::size_t>(depth));
    EXPECT_EQ(stats.frontier_leaves, 1u);

    std::vector<ActionValue> classic;
    engine.action_values_batch(batch, depth, SpanLeaf::of(leaf), opts, classic);
    expect_rows_equal(deep_values, classic, "absorbing deep vs classic",
                      static_cast<std::uint64_t>(depth));
  }
}

}  // namespace
}  // namespace recoverd
