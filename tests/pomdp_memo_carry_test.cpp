// Cross-decide exactness suite for the expansion engine's transposition
// cache (DESIGN.md §11). An engine lives as long as its controller, and its
// cache with it, but no entry outlives the root action that inserted it.
// On 120 randomized recovery POMDPs a sequence of decides on one
// long-lived engine must therefore reproduce a fresh engine per decide BIT
// FOR BIT — same values, same chosen actions, same memo work — across
// depths, masks and floors, when the leaf (the bound set) changes between
// decides, and when the sequence runs on several threads at once. The
// memo tallies of a repeated decide are pinned on a colliding model.
#include "pomdp/expansion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "pomdp/belief.hpp"
#include "util/rng.hpp"

namespace recoverd {
namespace {

// Random but valid recovery POMDP, the same shape the memo and expansion
// parity suites use: state 0 is the goal, action 0 repairs downward, and
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
      for (std::size_t i = 0; i < targets.size(); ++i) {
        row[targets[i]] += weights[i] / total;
      }
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

// One case: a model, a leaf, a *sequence* of root beliefs (the shape of
// consecutive decides in one episode), and seed-derived knobs.
struct CarryCase {
  Pomdp pomdp;
  std::vector<Belief> roots;
  SawLeaf leaf;
  int depth;
  double beta;
  ActionId skip;
  double floor;
};

CarryCase make_case(std::uint64_t seed) {
  CarryCase c{make_random_pomdp(seed), {}, {}, 1, 1.0, kInvalidId, 0.0};
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const std::size_t num_roots = 3 + rng.uniform_index(3);  // 3..5 decides
  for (std::size_t k = 0; k < num_roots; ++k) {
    std::vector<double> pi(c.pomdp.num_states());
    for (auto& v : pi) v = rng.uniform(0.01, 1.0);
    c.roots.emplace_back(std::move(pi));  // Belief normalises
  }
  c.leaf = SawLeaf::random(c.pomdp.num_states(), rng);
  c.depth = 1 + static_cast<int>(rng.uniform_index(3));  // 1..3
  c.beta = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 1.0);
  c.skip = rng.bernoulli(0.3) ? ActionId{0} : kInvalidId;
  const double floors[] = {0.0, 1e-3, 5e-2, 0.2};
  c.floor = floors[rng.uniform_index(4)];
  return c;
}

// One decide's root-action values and the memo work that produced them.
struct DecideRecord {
  std::vector<ActionValue> values;
  ExpansionNodeStats stats;
};

DecideRecord decide(const CarryCase& c, ExpansionEngine& engine, const Belief& root,
                    const SawLeaf& leaf) {
  DecideRecord record;
  ExpansionOptions opts;
  opts.beta = c.beta;
  opts.skip_action = c.skip;
  opts.branch_floor = c.floor;
  opts.stats = &record.stats;
  engine.action_values(root.probabilities(), c.depth, SpanLeaf::of(leaf), opts,
                       record.values);
  return record;
}

// The decide sequence on one long-lived engine.
std::vector<DecideRecord> run_sequence(const CarryCase& c, ExpansionEngine& engine,
                                       const SawLeaf& leaf) {
  std::vector<DecideRecord> out;
  for (const Belief& root : c.roots) out.push_back(decide(c, engine, root, leaf));
  return out;
}

// The same sequence with a fresh engine per decide: nothing to carry.
std::vector<DecideRecord> run_fresh(const CarryCase& c, const SawLeaf& leaf) {
  std::vector<DecideRecord> out;
  for (const Belief& root : c.roots) {
    ExpansionEngine fresh(c.pomdp);
    out.push_back(decide(c, fresh, root, leaf));
  }
  return out;
}

// Values bitwise, and the memo work tally by tally: an entry carried into
// a later decide would show up as an extra hit and a missing miss.
void expect_sequences_equal(const std::vector<DecideRecord>& a,
                            const std::vector<DecideRecord>& b, std::uint64_t seed,
                            const char* label) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t d = 0; d < a.size(); ++d) {
    ASSERT_EQ(a[d].values.size(), b[d].values.size());
    for (std::size_t i = 0; i < a[d].values.size(); ++i) {
      EXPECT_EQ(a[d].values[i].action, b[d].values[i].action)
          << label << " seed=" << seed << " decide=" << d << " action=" << i;
      EXPECT_EQ(a[d].values[i].value, b[d].values[i].value)
          << label << " seed=" << seed << " decide=" << d << " action=" << i;
    }
    EXPECT_EQ(a[d].stats.memo_hits, b[d].stats.memo_hits)
        << label << " seed=" << seed << " decide=" << d;
    EXPECT_EQ(a[d].stats.memo_misses, b[d].stats.memo_misses)
        << label << " seed=" << seed << " decide=" << d;
    EXPECT_EQ(a[d].stats.memo_insertions, b[d].stats.memo_insertions)
        << label << " seed=" << seed << " decide=" << d;
    EXPECT_EQ(a[d].stats.leaf_evaluations, b[d].stats.leaf_evaluations)
        << label << " seed=" << seed << " decide=" << d;
    EXPECT_EQ(a[d].stats.nodes, b[d].stats.nodes)
        << label << " seed=" << seed << " decide=" << d;
  }
}

class CarryParityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CarryParityTest, DecideSequenceMatchesCarryOffBitwise) {
  const CarryCase c = make_case(GetParam());
  ExpansionEngine long_lived(c.pomdp);
  expect_sequences_equal(run_fresh(c, c.leaf), run_sequence(c, long_lived, c.leaf),
                         GetParam(), "long-lived vs fresh");
}

TEST_P(CarryParityTest, RootJobsInvariantWithCarryOn) {
  // Concurrent episodes each run their decide sequence on their own
  // long-lived engine; three such sequences on three threads must match
  // the serial one bitwise, memo work included.
  const CarryCase c = make_case(GetParam());
  ExpansionEngine serial_engine(c.pomdp);
  const std::vector<DecideRecord> serial = run_sequence(c, serial_engine, c.leaf);

  constexpr std::size_t kJobs = 3;
  std::vector<std::vector<DecideRecord>> parallel(kJobs);
  std::vector<std::thread> workers;
  for (std::size_t j = 0; j < kJobs; ++j) {
    workers.emplace_back([&c, &parallel, j] {
      ExpansionEngine local(c.pomdp);
      parallel[j] = run_sequence(c, local, c.leaf);
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (std::size_t j = 0; j < kJobs; ++j) {
    expect_sequences_equal(serial, parallel[j], GetParam(), "threaded");
  }
}

TEST_P(CarryParityTest, ContextBumpInvalidatesExactly) {
  // The controller contract: the bound set may mutate between decides (an
  // Eq. 7 update adds a vector), while the cache is keyed by belief bits
  // and depth only. A long-lived engine's next decides must equal a fresh
  // engine's under the new leaf — no value computed under the old leaf
  // survives.
  const CarryCase c = make_case(GetParam());
  ExpansionEngine long_lived(c.pomdp);
  const std::vector<DecideRecord> before = run_sequence(c, long_lived, c.leaf);

  // A plane above every old one, so the leaf rises at every belief.
  SawLeaf bumped = c.leaf;
  std::vector<double> top(c.pomdp.num_states(), -std::numeric_limits<double>::infinity());
  for (const auto& w : c.leaf.planes) {
    for (std::size_t s = 0; s < top.size(); ++s) top[s] = std::max(top[s], w[s] + 1.0);
  }
  bumped.planes.push_back(std::move(top));

  const std::vector<DecideRecord> after = run_sequence(c, long_lived, bumped);
  expect_sequences_equal(run_fresh(c, bumped), after, GetParam(), "after bump");

  // The bump is visible, so a stale value could not have passed unnoticed.
  bool moved = false;
  for (std::size_t d = 0; d < before.size(); ++d) {
    for (std::size_t i = 0; i < before[d].values.size(); ++i) {
      if (before[d].values[i].value != after[d].values[i].value) moved = true;
    }
  }
  EXPECT_TRUE(moved) << "seed=" << GetParam();
}

// 120 seeds x the tests above, with the decide sequence, depth, beta, mask
// and floor all derived from the seed; every comparison EXPECT_EQ (bitwise).
INSTANTIATE_TEST_SUITE_P(Seeds, CarryParityTest,
                         ::testing::Range<std::uint64_t>(1, 121));

// A model engineered to collide (uniform state-independent observations):
// every observation branch of a node yields the same posterior, so a
// decide hits its own entries many times over.
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

TEST(CarryMetricsTest, CarryOffNeverTouchesCarryCounters) {
  // A repeated decide over the same belief re-derives every hit inside
  // itself: its tallies, and the global pomdp.memo.* deltas, equal the
  // first decide's, and no cross-decide instrument is ever registered.
  const Pomdp p = make_colliding_pomdp();
  ExpansionEngine engine(p);
  const QuadraticLeaf leaf;
  const Belief pi = Belief::uniform(p.num_states());
  obs::Counter& hits = obs::metrics().counter("pomdp.memo.hits");

  ExpansionNodeStats first_stats;
  ExpansionOptions opts;
  opts.stats = &first_stats;
  const std::uint64_t hits0 = hits.value();
  const double first = engine.value(pi.probabilities(), 3, SpanLeaf::of(leaf), opts);
  const std::uint64_t first_hits = hits.value() - hits0;

  ExpansionNodeStats second_stats;
  opts.stats = &second_stats;
  const std::uint64_t hits1 = hits.value();
  const double second = engine.value(pi.probabilities(), 3, SpanLeaf::of(leaf), opts);
  const std::uint64_t second_hits = hits.value() - hits1;

  EXPECT_EQ(first, second);
  EXPECT_GT(first_stats.memo_hits, 0u);  // the model does collide
  EXPECT_EQ(first_stats.memo_hits, second_stats.memo_hits);
  EXPECT_EQ(first_stats.memo_misses, second_stats.memo_misses);
  EXPECT_EQ(first_stats.memo_insertions, second_stats.memo_insertions);
  EXPECT_EQ(first_hits, second_hits);

  for (const obs::CounterSample& counter : obs::metrics().snapshot().counters) {
    EXPECT_EQ(counter.name.find("expansion.memo.carry"), std::string::npos)
        << counter.name;
  }
}

}  // namespace
}  // namespace recoverd
