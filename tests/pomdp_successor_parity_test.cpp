// Exactness suite for the fused successor kernel (DESIGN.md §16): on
// generated POMDPs sized around the 8-lane edges, with and without the
// dense observation mirrors, and on EMN, expand_successors_batch() must
// reproduce the frozen per-lane expansion (tests/reference_successors.hpp)
// BIT FOR BIT under every SIMD tier the host supports — the same offsets,
// observation ids, likelihoods and unnormalised posterior rows (memcmp), and
// the same branches_kept / branches_pruned totals. The lanes include zeros,
// -0.0, NaN and ±inf entries, so the support skip and the unordered floor
// classification are held to the reference on every input the kernel can
// see, not only on valid beliefs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "models/emn.hpp"
#include "obs/metrics.hpp"
#include "pomdp/belief.hpp"
#include "pomdp/belief_batch.hpp"
#include "pomdp/expansion.hpp"
#include "pomdp/pomdp.hpp"
#include "reference_successors.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace recoverd {
namespace {

// Concatenates the pieces with `+=` (GCC 12 flags `"lit" + std::string`
// temporaries with a false -Wrestrict).
template <class... Pieces>
std::string cat(const Pieces&... pieces) {
  std::string out;
  ((out += pieces), ...);
  return out;
}

std::string num(std::size_t v) { return std::to_string(v); }

// Every kernel tier this host can run; scalar is always first.
std::vector<std::string> host_tiers() {
  std::vector<std::string> tiers{"scalar"};
  if (simd::cpu_supports_avx2()) tiers.emplace_back("avx2");
  if (simd::cpu_supports_avx512()) tiers.emplace_back("avx512");
  return tiers;
}

// Restores the default tier when a test leaves, pass or fail.
struct TierReset {
  ~TierReset() { simd::configure("auto"); }
};

constexpr double kFloors[] = {0.0, 1e-3, 1e-2};
constexpr std::size_t kStateCounts[] = {1, 2, 7, 8, 9, 15, 16, 17, 33};
constexpr std::size_t kObsCounts[] = {1, 7, 8, 9, 31, 32, 33, 129};

// Random POMDP with the given dimensions and three actions: action 0 moves
// each state to one to three random targets, action 1 is the identity and
// action 2 a random permutation. With dense_obs every state emits every
// observation, with weights mixing large and tiny values so the floors
// prune some branches but not all; otherwise each state emits a single
// observation, which keeps q below the dense-mirror threshold whenever
// |O| > 2.
Pomdp make_model(std::size_t num_states, std::size_t num_obs, bool dense_obs,
                 std::uint64_t seed) {
  Rng rng(seed);
  constexpr std::size_t kActions = 3;
  PomdpBuilder b;
  for (StateId s = 0; s < num_states; ++s) b.add_state(cat("s", num(s)), -1.0);
  for (ActionId a = 0; a < kActions; ++a) b.add_action(cat("a", num(a)), 1.0);
  for (ObsId o = 0; o < num_obs; ++o) b.add_observation(cat("o", num(o)));

  std::vector<StateId> perm(num_states);
  for (StateId s = 0; s < num_states; ++s) perm[s] = s;
  for (std::size_t i = num_states; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.uniform_index(i)]);
  }
  for (StateId s = 0; s < num_states; ++s) {
    std::vector<double> row(num_states, 0.0);
    const std::size_t targets = 1 + rng.uniform_index(3);
    double total = 0.0;
    std::vector<std::pair<StateId, double>> picks;
    for (std::size_t k = 0; k < targets; ++k) {
      picks.emplace_back(rng.uniform_index(num_states), rng.uniform(0.1, 1.0));
      total += picks.back().second;
    }
    for (const auto& [t, w] : picks) row[t] += w / total;
    for (StateId t = 0; t < num_states; ++t) {
      if (row[t] > 0.0) b.set_transition(s, 0, t, row[t]);
    }
    b.set_transition(s, 1, s, 1.0);
    b.set_transition(s, 2, perm[s], 1.0);
  }
  for (StateId s = 0; s < num_states; ++s) {
    for (ActionId a = 0; a < kActions; ++a) {
      if (!dense_obs) {
        b.set_observation(s, a, rng.uniform_index(num_obs), 1.0);
        continue;
      }
      std::vector<double> row(num_obs);
      double total = 0.0;
      for (auto& v : row) {
        v = rng.bernoulli(0.3) ? rng.uniform(0.5, 1.0) : rng.uniform(1e-4, 0.02);
        total += v;
      }
      for (ObsId o = 0; o < num_obs; ++o) b.set_observation(s, a, o, row[o] / total);
    }
  }
  return b.build();
}

// Lanes of `num_states` entries, `stride` doubles apart: normalised random
// beliefs, beliefs with zero and -0.0 entries, point masses, and the
// non-finite lanes (NaN, +inf, -inf) a poisoned session can carry.
std::vector<double> make_lanes(std::size_t num_states, std::size_t stride,
                               std::size_t& lanes, std::uint64_t seed) {
  Rng rng(seed);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::vector<double>> rows;
  for (int k = 0; k < 12; ++k) {
    std::vector<double> row(num_states);
    double total = 0.0;
    for (auto& v : row) {
      v = rng.bernoulli(0.4) ? 0.0 : rng.uniform(0.0, 1.0);
      total += v;
    }
    if (total == 0.0) {
      row[rng.uniform_index(num_states)] = 1.0;
      total = 1.0;
    }
    for (auto& v : row) v /= total;
    if (k % 3 == 1) {
      for (auto& v : row) {
        if (v == 0.0) v = -0.0;
      }
    }
    rows.push_back(std::move(row));
  }
  for (StateId s = 0; s < num_states; s += 1 + num_states / 4) {
    std::vector<double> row(num_states, 0.0);
    row[s] = 1.0;
    rows.push_back(std::move(row));
  }
  for (const double poison : {kNaN, kInf, -kInf}) {
    std::vector<double> row(num_states, 1.0 / static_cast<double>(num_states));
    row[rng.uniform_index(num_states)] = poison;
    rows.push_back(std::move(row));
  }
  lanes = rows.size();
  std::vector<double> out(lanes * stride, 7.0);  // padding that must never be read
  for (std::size_t l = 0; l < lanes; ++l) {
    std::memcpy(out.data() + l * stride, rows[l].data(), num_states * sizeof(double));
  }
  return out;
}

struct Totals {
  std::uint64_t kept = 0;
  std::uint64_t pruned = 0;
};

Totals counter_totals() {
  return {obs::metrics().counter("pomdp.belief.branches_kept").value(),
          obs::metrics().counter("pomdp.belief.branches_pruned").value()};
}

template <class T>
bool same_bytes(const T* a, const T* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(T)) == 0;
}

// One kernel call against the reference on the same lanes; `frontier` is
// reused across calls, as the engine reuses it.
void expect_parity(const Pomdp& pomdp, const std::vector<double>& rows, std::size_t lanes,
                   std::size_t stride, ActionId action, double floor,
                   SuccessorFrontier& frontier) {
  const std::size_t num_states = pomdp.num_states();
  const Totals before_ref = counter_totals();
  const testref::ReferenceFrontier ref = testref::reference_expand_successors_batch(
      pomdp, rows.data(), lanes, stride, action, floor);
  const Totals after_ref = counter_totals();
  const std::size_t branches =
      expand_successors_batch(pomdp, rows.data(), lanes, stride, action, floor, frontier);
  const Totals after = counter_totals();

  ASSERT_EQ(frontier.offsets.size(), lanes + 1);
  ASSERT_EQ(branches, ref.obs.size());
  EXPECT_EQ(frontier.branches(), branches);
  EXPECT_TRUE(same_bytes(frontier.offsets.data(), ref.offsets.data(), lanes + 1));
  EXPECT_TRUE(same_bytes(frontier.obs.data(), ref.obs.data(), branches));
  EXPECT_TRUE(same_bytes(frontier.gamma.data(), ref.gamma.data(), branches));
  EXPECT_TRUE(same_bytes(frontier.posteriors.data(), ref.posteriors.data(),
                         branches * num_states));
  EXPECT_EQ(after.kept - after_ref.kept, after_ref.kept - before_ref.kept);
  EXPECT_EQ(after.pruned - after_ref.pruned, after_ref.pruned - before_ref.pruned);
}

void sweep_generated(bool dense_obs) {
  TierReset reset;
  std::uint64_t seed = dense_obs ? 1000 : 2000;
  for (const std::size_t num_states : kStateCounts) {
    for (const std::size_t num_obs : kObsCounts) {
      ++seed;
      const Pomdp pomdp = make_model(num_states, num_obs, dense_obs, seed);
      const bool mirrored = !pomdp.observation_dense(0).empty();
      if (num_obs > 2) {
        EXPECT_EQ(mirrored, dense_obs);
      }
      const std::size_t stride = num_states + 3;
      std::size_t lanes = 0;
      const std::vector<double> rows = make_lanes(num_states, stride, lanes, seed);
      for (const std::string& tier : host_tiers()) {
        simd::configure(tier);
        SuccessorFrontier frontier;
        for (const double floor : kFloors) {
          for (ActionId a = 0; a < pomdp.num_actions(); ++a) {
            SCOPED_TRACE(cat("|S|=", num(num_states), " |O|=", num(num_obs),
                             mirrored ? " mirrored" : " sparse", " tier=", tier,
                             " floor=", std::to_string(floor), " action=", num(a)));
            expect_parity(pomdp, rows, lanes, stride, a, floor, frontier);
          }
        }
      }
    }
  }
}

TEST(SuccessorParityTest, DenseMirrorModelsMatchReferenceUnderEveryTier) {
  sweep_generated(true);
}

TEST(SuccessorParityTest, SparseModelsMatchReferenceUnderEveryTier) {
  sweep_generated(false);
}

// EMN (|S| = 15, |O| = 129, dense mirrors): every action at the lanes above
// plus beliefs conditioned along random histories, the fleet's population.
TEST(SuccessorParityTest, EmnMatchesReferenceUnderEveryTier) {
  TierReset reset;
  const Pomdp pomdp = models::make_emn_recovery_model();
  ASSERT_FALSE(pomdp.observation_dense(0).empty());
  const std::size_t num_states = pomdp.num_states();
  std::size_t lanes = 0;
  std::vector<double> rows = make_lanes(num_states, num_states, lanes, 7);
  Rng rng(11);
  for (int k = 0; k < 40; ++k) {
    Belief b = Belief::uniform(num_states);
    for (int step = 0; step < 6; ++step) {
      const ActionId a = rng.uniform_index(pomdp.num_actions());
      const auto successors = belief_successors(pomdp, b, a);
      if (successors.empty()) break;
      b = successors[rng.uniform_index(successors.size())].posterior;
    }
    rows.insert(rows.end(), b.probabilities().begin(), b.probabilities().end());
    ++lanes;
  }
  for (const std::string& tier : host_tiers()) {
    simd::configure(tier);
    SuccessorFrontier frontier;
    for (const double floor : kFloors) {
      for (ActionId a = 0; a < pomdp.num_actions(); ++a) {
        SCOPED_TRACE(cat("tier=", tier, " floor=", std::to_string(floor), " action=", num(a)));
        expect_parity(pomdp, rows, lanes, num_states, a, floor, frontier);
      }
    }
  }
}

// The serial walk calls the kernel one lane at a time on a frontier that a
// wider call left larger: every one-lane result must be its lane's slice of
// the batch result.
TEST(SuccessorParityTest, OneLaneCallsMatchTheirBatchSlice) {
  TierReset reset;
  const Pomdp pomdp = make_model(17, 33, true, 5);
  const std::size_t num_states = pomdp.num_states();
  std::size_t lanes = 0;
  const std::vector<double> rows = make_lanes(num_states, num_states, lanes, 5);
  for (const std::string& tier : host_tiers()) {
    simd::configure(tier);
    SuccessorFrontier batch;
    SuccessorFrontier one;
    for (ActionId a = 0; a < pomdp.num_actions(); ++a) {
      expand_successors_batch(pomdp, rows.data(), lanes, num_states, a, 1e-3, batch);
      for (std::size_t l = 0; l < lanes; ++l) {
        SCOPED_TRACE(cat("tier=", tier, " action=", num(a), " lane=", num(l)));
        const std::size_t first = batch.offsets[l];
        const std::size_t n = batch.offsets[l + 1] - first;
        ASSERT_EQ(expand_successors_batch(pomdp, rows.data() + l * num_states, 1, num_states,
                                          a, 1e-3, one),
                  n);
        EXPECT_TRUE(same_bytes(one.obs.data(), batch.obs.data() + first, n));
        EXPECT_TRUE(same_bytes(one.gamma.data(), batch.gamma.data() + first, n));
        EXPECT_TRUE(same_bytes(one.posteriors.data(),
                               batch.posteriors.data() + first * num_states,
                               n * num_states));
      }
    }
  }
}

// Random POMDP whose actions share one observation model: action 0 moves
// each state to random targets, action 1 is the identity, and action 2
// copies action 0's row for even states and action 1's for odd ones. The
// deep pipeline copies a lane's branches from an earlier action whenever
// the lane's support lies where the two actions' transition rows match.
Pomdp make_shared_obs_model(std::size_t num_states, std::size_t num_obs, std::uint64_t seed) {
  Rng rng(seed);
  PomdpBuilder b;
  for (StateId s = 0; s < num_states; ++s) b.add_state(cat("s", num(s)), -1.0);
  for (ActionId a = 0; a < 3; ++a) b.add_action(cat("a", num(a)), 1.0 + a);
  for (ObsId o = 0; o < num_obs; ++o) b.add_observation(cat("o", num(o)));
  for (StateId s = 0; s < num_states; ++s) {
    const StateId t0 = rng.uniform_index(num_states);
    const StateId t1 = rng.uniform_index(num_states);
    const double w = rng.uniform(0.2, 0.8);
    const auto random_row = [&](ActionId a) {
      if (t0 == t1) {
        b.set_transition(s, a, t0, 1.0);
      } else {
        b.set_transition(s, a, t0, w);
        b.set_transition(s, a, t1, 1.0 - w);
      }
    };
    random_row(0);
    b.set_transition(s, 1, s, 1.0);
    if (s % 2 == 0) {
      random_row(2);
    } else {
      b.set_transition(s, 2, s, 1.0);
    }
    std::vector<double> row(num_obs);
    double total = 0.0;
    for (auto& v : row) {
      v = rng.bernoulli(0.3) ? rng.uniform(0.5, 1.0) : rng.uniform(1e-4, 0.02);
      total += v;
    }
    for (ObsId o = 0; o < num_obs; ++o) b.set_observation_all_actions(s, o, row[o] / total);
  }
  return b.build();
}

// Byte-wise ordering, so a std::set of rows holds bitwise-distinct beliefs.
struct BitsLess {
  bool operator()(const std::vector<double>& x, const std::vector<double>& y) const {
    return std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) < 0;
  }
};

// The branch counters of a deep call, counted independently: every action
// but `skip` expands every distinct node of every level through the
// reference, and a level's distinct normalised posteriors are the next
// level's nodes.
Totals expected_deep_totals(const Pomdp& pomdp, std::set<std::vector<double>, BitsLess> nodes,
                            int depth, double floor, ActionId skip) {
  const std::size_t num_states = pomdp.num_states();
  Totals totals;
  for (int level = 0; level < depth; ++level) {
    std::set<std::vector<double>, BitsLess> next;
    for (const std::vector<double>& node : nodes) {
      for (ActionId a = 0; a < pomdp.num_actions(); ++a) {
        if (a == skip) continue;
        std::vector<double> pred, weight, posteriors;
        std::vector<std::size_t> branch_of;
        std::vector<ObsId> kept;
        const std::size_t n = testref::reference_expand_successors_into(
            pomdp, node, a, floor, pred, weight, branch_of, kept, posteriors);
        totals.kept += n;
        for (ObsId o = 0; o < pomdp.num_observations(); ++o) {
          if (weight[o] > 0.0 && weight[o] < floor) ++totals.pruned;
        }
        for (std::size_t i = 0; i < n; ++i) {
          std::vector<double> child(posteriors.begin() + i * num_states,
                                    posteriors.begin() + (i + 1) * num_states);
          linalg::normalize_probability(child);
          next.insert(std::move(child));
        }
      }
    }
    nodes = std::move(next);
  }
  return totals;
}

// Lanes an earlier action already expanded are copied, not recomputed: the
// values must stay the serial walk's bits, and the branch counters must
// count every (node, action) expansion the copies stand for.
TEST(SuccessorParityTest, DeepCopiesOfEarlierActionsAreExact) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::size_t num_states = 3 + seed % 9;
    const Pomdp pomdp = make_shared_obs_model(num_states, 4 + seed % 7, seed);
    Rng rng(seed * 31);
    BeliefBatch batch(num_states);
    std::set<std::vector<double>, BitsLess> roots;
    for (std::size_t lane = 0; lane < 12; ++lane) {
      std::vector<double> pi(num_states, 0.0);
      const std::size_t support = 1 + rng.uniform_index(num_states);
      for (std::size_t k = 0; k < support; ++k) pi[rng.uniform_index(num_states)] += 1.0;
      const Belief belief(std::move(pi));
      batch.push_back(belief, lane);
      roots.emplace(belief.probabilities().begin(), belief.probabilities().end());
    }
    const int depth = 1 + static_cast<int>(seed % 2);
    const double floor = seed % 3 == 0 ? 0.0 : 1e-2;
    const ActionId skip = seed % 4 == 0 ? ActionId{0} : kInvalidId;
    SCOPED_TRACE(cat("seed=", num(seed), " depth=", num(static_cast<std::size_t>(depth))));
    const auto leaf = [](std::span<const double> pi) { return -linalg::dot(pi, pi); };
    ExpansionOptions opts;
    opts.branch_floor = floor;
    opts.skip_action = skip;

    ExpansionEngine engine(pomdp);
    std::vector<ActionValue> deep;
    BatchExpansionStats stats;
    const Totals before = counter_totals();
    engine.action_values_batch_deep(batch, depth, SpanLeaf::of(leaf), opts, deep, &stats);
    const Totals after = counter_totals();
    ASSERT_TRUE(stats.deep);
    const Totals want = expected_deep_totals(pomdp, roots, depth, floor, skip);
    EXPECT_EQ(after.kept - before.kept, want.kept);
    EXPECT_EQ(after.pruned - before.pruned, want.pruned);

    std::vector<double> pi(num_states);
    std::vector<ActionValue> looped;
    for (std::size_t lane = 0; lane < batch.size(); ++lane) {
      batch.copy_lane(lane, pi);
      engine.action_values(pi, depth, SpanLeaf::of(leaf), opts, looped);
      for (std::size_t a = 0; a < pomdp.num_actions(); ++a) {
        EXPECT_EQ(deep[lane * pomdp.num_actions() + a].value, looped[a].value)
            << "lane " << lane << " action " << a;
      }
    }
  }
}

}  // namespace
}  // namespace recoverd
