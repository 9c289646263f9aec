// Exactness suite for the batched Eq. 7 backup (DESIGN.md §17): on
// generated POMDPs sized around the 4- and 8-lane tile edges, the 8-stage
// pipeline and EMN, bounds::backup_vector() and improve_at() must reproduce
// the frozen per-action reference (tests/reference_backup.hpp) BIT FOR BIT
// under every SIMD tier the host supports — the same backed-up vector
// (memcmp), the same backing action and, along an improve_at() sequence,
// the same set snapshot (planes, protection, use counts, generation) after
// every step.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bounds/bound_set.hpp"
#include "bounds/incremental_update.hpp"
#include "bounds/ra_bound.hpp"
#include "models/emn.hpp"
#include "models/pipeline.hpp"
#include "pomdp/belief.hpp"
#include "pomdp/pomdp.hpp"
#include "reference_backup.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace recoverd::bounds {
namespace {

// Concatenates the pieces with `+=` (GCC 12 flags `"lit" + std::string`
// temporaries with a false -Wrestrict).
template <class... Pieces>
std::string cat(const Pieces&... pieces) {
  std::string out;
  ((out += pieces), ...);
  return out;
}

std::string num(double v) { return std::to_string(v); }
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

// Random recovery POMDP with |S| = num_states. State 0 is the goal; the last
// state is isolated — only it transitions into itself — and alone emits the
// "ghost" observation, so beliefs without mass there leave that
// observation's weight row empty. The "never" observation no state emits.
// With sparse_obs each state emits one or two observations, which keeps
// q below the dense-mirror threshold; otherwise q is dense apart from the
// two special columns.
Pomdp make_generated_pomdp(std::size_t num_states, bool sparse_obs, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t num_actions = 2 + rng.uniform_index(3);  // 2..4
  const std::size_t regular_obs = 2 + rng.uniform_index(8);  // 2..9
  const StateId isolated = num_states - 1;

  PomdpBuilder b;
  for (StateId s = 0; s < num_states; ++s) {
    b.add_state(cat("s", num(s)), s == 0 ? 0.0 : -rng.uniform(0.05, 1.0));
  }
  b.mark_goal(0);
  for (ActionId a = 0; a < num_actions; ++a) {
    b.add_action(cat("a", num(a)), rng.uniform(0.5, 10.0));
  }
  for (ObsId o = 0; o < regular_obs; ++o) b.add_observation(cat("o", num(o)));
  const ObsId ghost = b.add_observation("ghost");
  b.add_observation("never");

  for (StateId s = 0; s < num_states; ++s) {
    for (ActionId a = 0; a < num_actions; ++a) {
      if (s == isolated) {
        b.set_transition(s, a, s, 1.0);
        continue;
      }
      // Targets exclude the isolated state (when there is another state).
      const std::size_t reachable = num_states > 1 ? num_states - 1 : 1;
      std::vector<double> row(num_states, 0.0);
      std::vector<StateId> targets;
      if (s > 0 && a == 0) targets.push_back(rng.uniform_index(s));
      targets.push_back(rng.uniform_index(reachable));
      if (rng.bernoulli(0.5)) targets.push_back(rng.uniform_index(reachable));
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
      if (s == isolated) {
        b.set_observation(s, a, ghost, 1.0);
        continue;
      }
      std::vector<double> row(regular_obs, 0.0);
      if (sparse_obs) {
        row[rng.uniform_index(regular_obs)] += rng.uniform(0.5, 1.0);
        if (rng.bernoulli(0.5)) row[rng.uniform_index(regular_obs)] += rng.uniform(0.001, 0.5);
      } else {
        for (auto& v : row) {
          v = rng.bernoulli(0.4) ? rng.uniform(0.5, 1.0) : rng.uniform(0.001, 0.05);
        }
      }
      double total = 0.0;
      for (double v : row) total += v;
      for (ObsId o = 0; o < regular_obs; ++o) {
        if (row[o] > 0.0) b.set_observation(s, a, o, row[o] / total);
      }
    }
  }
  return b.build();
}

// A bound set of exactly `planes` hyperplanes, built through restore() so
// no plane is dropped as dominated. With `ties`, plane 2k+1 repeats plane
// 2k except (sometimes) in one coordinate: exact duplicates tie on every
// row, near-duplicates on every row that weighs that coordinate by zero.
BoundSet make_plane_set(std::size_t dimension, std::size_t planes, bool ties, Rng& rng) {
  BoundSet::Snapshot snap;
  snap.dimension = dimension;
  snap.first_added = true;
  for (std::size_t k = 0; k < planes; ++k) {
    BoundSet::Snapshot::Plane plane;
    if (ties && k % 2 == 1) {
      plane.vector = snap.planes.back().vector;
      if (rng.bernoulli(0.5)) plane.vector[rng.uniform_index(dimension)] -= 1.0;
    } else {
      const double base = -rng.uniform(0.0, 30.0);
      plane.vector.resize(dimension);
      for (auto& x : plane.vector) {
        x = rng.bernoulli(0.3) ? base : base - rng.uniform(0.0, 20.0);
      }
    }
    plane.is_protected = k == 0;
    snap.planes.push_back(std::move(plane));
  }
  return BoundSet::restore(snap);
}

// Beliefs with zero entries: a vertex, a random sparse one, one with mass
// on the isolated last state, and a full-support one.
std::vector<Belief> make_beliefs(std::size_t n, Rng& rng) {
  std::vector<Belief> beliefs;
  beliefs.push_back(Belief::point(n, rng.uniform_index(n)));
  std::vector<double> sparse(n, 0.0);
  for (auto& v : sparse) v = rng.bernoulli(0.5) ? rng.uniform(0.0, 1.0) : 0.0;
  sparse[rng.uniform_index(n)] += 0.25;
  beliefs.emplace_back(sparse);
  std::vector<double> isolated(n, 0.0);
  isolated[n - 1] = 0.5;
  isolated[rng.uniform_index(n)] += 0.5;
  beliefs.emplace_back(isolated);
  std::vector<double> full(n);
  for (auto& v : full) v = rng.uniform(0.01, 1.0);
  beliefs.emplace_back(full);
  return beliefs;
}

// Backs up `set` at every belief and β under every host tier and requires
// the kernel's vector and action to equal the reference bit for bit.
void expect_backups_match(const Pomdp& model, const BoundSet& set,
                          const std::vector<Belief>& beliefs) {
  const TierReset reset;
  for (const double beta : {1.0, 0.9}) {
    for (std::size_t i = 0; i < beliefs.size(); ++i) {
      ActionId ref_action = kInvalidId;
      const BoundVector ref =
          testref::reference_backup_vector(model, set, beliefs[i], &ref_action, beta);
      for (const std::string& tier : host_tiers()) {
        simd::configure(tier);
        ActionId action = kInvalidId;
        const BoundVector got = backup_vector(model, set, beliefs[i], &action, beta);
        SCOPED_TRACE(cat("tier ", tier, ", belief ", num(i), ", beta ", num(beta), ", |B| ",
                         num(set.size())));
        ASSERT_EQ(got.size(), ref.size());
        EXPECT_EQ(std::memcmp(got.data(), ref.data(), ref.size() * sizeof(double)), 0);
        EXPECT_EQ(action, ref_action);
      }
    }
  }
}

constexpr std::size_t kSetSizes[] = {1, 3, 8, 9, 64, 128};

class GeneratedModelParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GeneratedModelParity, BackupMatchesReferenceUnderEveryTier) {
  const std::size_t n = GetParam();
  for (const bool sparse_obs : {false, true}) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      const Pomdp model = make_generated_pomdp(n, sparse_obs, 1000 * n + seed);
      Rng rng(7 * n + seed);
      const std::vector<Belief> beliefs = make_beliefs(n, rng);
      for (const std::size_t planes : kSetSizes) {
        for (const bool ties : {false, true}) {
          SCOPED_TRACE(cat("sparse_obs ", num(std::size_t{sparse_obs}), ", seed ",
                           num(std::size_t{seed}), ", ties ", num(std::size_t{ties})));
          expect_backups_match(model, make_plane_set(n, planes, ties, rng), beliefs);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TileEdges, GeneratedModelParity,
                         ::testing::Values(2, 7, 8, 9, 15, 16, 17, 33),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return cat("S", num(info.param));
                         });

TEST(BackupParity, GeneratedModelsCoverDenseAndSparseObservationPaths) {
  // The kernel builds weight rows from q's dense mirror when the model has
  // one and from its sparse transpose otherwise; the suite must hit both.
  bool dense = false;
  bool sparse = false;
  for (const std::size_t n : {2, 7, 8, 9, 15, 16, 17, 33}) {
    for (const bool sparse_obs : {false, true}) {
      const Pomdp model = make_generated_pomdp(n, sparse_obs, 1000 * n + 1);
      for (ActionId a = 0; a < model.num_actions(); ++a) {
        (model.observation_transpose_dense(a).empty() ? sparse : dense) = true;
      }
    }
  }
  EXPECT_TRUE(dense);
  EXPECT_TRUE(sparse);
}

TEST(BackupParity, PipelineModelMatchesReferenceUnderEveryTier) {
  models::PipelineConfig config;
  config.stages = 8;
  const Pomdp model = models::make_pipeline_recovery_model(config);
  ASSERT_EQ(model.num_states(), 22u);
  ASSERT_EQ(model.num_observations(), 513u);
  Rng rng(8);
  std::vector<Belief> beliefs;
  beliefs.push_back(Belief::uniform(model.num_states()));
  std::vector<double> sparse(model.num_states(), 0.0);
  for (int k = 0; k < 3; ++k) sparse[1 + rng.uniform_index(model.num_states() - 2)] += 1.0;
  beliefs.emplace_back(sparse);
  for (const std::size_t planes : {1, 9, 64}) {
    expect_backups_match(model, make_plane_set(model.num_states(), planes, true, rng),
                         beliefs);
  }
}

TEST(BackupParity, UnemittedObservationKeepsIndexZero) {
  // Plane 0 is the worst plane everywhere, so scoring the ghost row would
  // pick another plane. Without mass on the isolated state the ghost row is
  // empty and its b^{π,a,o} must stay index 0 — visible in z(isolated) and
  // so in the backed-up vector's last coordinate.
  for (const bool sparse_obs : {false, true}) {
    const std::size_t n = 9;
    const Pomdp model = make_generated_pomdp(n, sparse_obs, 4711);
    BoundSet::Snapshot snap;
    snap.dimension = n;
    snap.first_added = true;
    for (std::size_t k = 0; k < 5; ++k) {
      BoundSet::Snapshot::Plane plane;
      plane.vector.assign(n, -100.0 + 10.0 * static_cast<double>(k));
      plane.is_protected = k == 0;
      snap.planes.push_back(std::move(plane));
    }
    const BoundSet set = BoundSet::restore(snap);
    std::vector<double> pi(n, 0.0);
    pi[1] = 0.5;
    pi[n - 2] = 0.5;
    const Belief belief(pi);

    const TierReset reset;
    for (const std::string& tier : host_tiers()) {
      simd::configure(tier);
      SCOPED_TRACE(cat("tier ", tier, ", sparse_obs ", num(std::size_t{sparse_obs})));
      ActionId action = kInvalidId;
      ActionId ref_action = kInvalidId;
      const BoundVector got = backup_vector(model, set, belief, &action, 0.9);
      const BoundVector ref = testref::reference_backup_vector(model, set, belief,
                                                               &ref_action, 0.9);
      ASSERT_EQ(got.size(), n);
      EXPECT_EQ(std::memcmp(got.data(), ref.data(), n * sizeof(double)), 0);
      EXPECT_EQ(action, ref_action);
      // The isolated state self-loops and emits only the ghost observation:
      // b_a(isolated) = r(isolated, a) + 0.9 · b_0(isolated).
      const double expected =
          model.mdp().reward(n - 1, action) + 0.9 * 1.0 * set.vector_at(0)[n - 1];
      EXPECT_EQ(got[n - 1], expected);
    }
  }
}

TEST(BackupParity, BestIndicesMatchesBestIndexOnEveryRow) {
  // Rows with zero entries, an all-zero column and all-zero rows, in counts
  // that leave partial 4- and 8-row tiles; exact duplicate planes tie.
  Rng rng(20261018);
  const TierReset reset;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t dim = 1 + rng.uniform_index(20);
    const std::size_t count = rng.uniform_index(21);
    const BoundSet set = make_plane_set(dim, 1 + rng.uniform_index(70), true, rng);
    std::vector<double> rows(count * dim, 0.0);
    const std::size_t zero_col = rng.uniform_index(dim);
    for (std::size_t r = 0; r < count; ++r) {
      if (rng.bernoulli(0.15)) continue;  // all-zero row
      for (std::size_t i = 0; i < dim; ++i) {
        if (i != zero_col && rng.bernoulli(0.6)) rows[r * dim + i] = rng.uniform(0.0, 1.0);
      }
    }
    for (const std::string& tier : host_tiers()) {
      simd::configure(tier);
      BoundSet::TileScratch scratch;
      std::vector<std::size_t> winners(count, 12345);
      set.best_indices(rows.data(), count, winners, scratch);
      for (std::size_t r = 0; r < count; ++r) {
        EXPECT_EQ(winners[r], set.best_index({rows.data() + r * dim, dim}))
            << "tier " << tier << ", trial " << trial << ", row " << r;
      }
    }
    // A pure query: no use was recorded.
    for (std::size_t i = 0; i < set.size(); ++i) EXPECT_EQ(set.use_count(i), 0u);
  }
}

void expect_same_snapshot(const BoundSet& got, const BoundSet& want, const std::string& what) {
  const BoundSet::Snapshot a = got.snapshot();
  const BoundSet::Snapshot b = want.snapshot();
  ASSERT_EQ(a.dimension, b.dimension) << what;
  ASSERT_EQ(a.capacity, b.capacity) << what;
  ASSERT_EQ(a.generation, b.generation) << what;
  ASSERT_EQ(a.first_added, b.first_added) << what;
  ASSERT_EQ(a.planes.size(), b.planes.size()) << what;
  for (std::size_t k = 0; k < a.planes.size(); ++k) {
    ASSERT_EQ(std::memcmp(a.planes[k].vector.data(), b.planes[k].vector.data(),
                          a.dimension * sizeof(double)),
              0)
        << what << ", plane " << k;
    ASSERT_EQ(a.planes[k].is_protected, b.planes[k].is_protected) << what << ", plane " << k;
    ASSERT_EQ(a.planes[k].uses, b.planes[k].uses) << what << ", plane " << k;
  }
}

const Pomdp& emn_model() {
  static const Pomdp model = models::make_emn_recovery_model();
  return model;
}

// Sparse fault beliefs (1–4 fault states) keep producing undominated
// backups, so a sequence fills a capacity-64 set and then evicts.
std::vector<Belief> emn_update_beliefs(std::size_t count, std::uint64_t seed) {
  const Pomdp& model = emn_model();
  std::vector<StateId> faults;
  for (StateId s = 0; s < model.num_states(); ++s) {
    if (!model.mdp().is_goal(s) && s != model.terminate_state()) faults.push_back(s);
  }
  Rng rng(seed);
  std::vector<Belief> beliefs;
  for (std::size_t k = 0; k < count; ++k) {
    std::vector<double> pi(model.num_states(), 0.0);
    const std::size_t support = 1 + rng.uniform_index(4);
    for (std::size_t j = 0; j < support; ++j) {
      pi[faults[rng.uniform_index(faults.size())]] += rng.uniform(0.05, 1.0);
    }
    beliefs.emplace_back(std::move(pi));
  }
  return beliefs;
}

TEST(BackupParity, ImproveAtSequenceOnEmnMatchesReferenceSnapshots) {
  const Pomdp& model = emn_model();
  const std::vector<Belief> beliefs = emn_update_beliefs(300, 2006);
  const BoundSet seed_set = make_ra_bound_set(model.mdp(), 64);
  const TierReset reset;
  for (const std::string& tier : host_tiers()) {
    simd::configure(tier);
    BoundSet set = seed_set;
    BoundSet ref = seed_set;
    std::size_t added = 0;
    for (std::size_t step = 0; step < beliefs.size(); ++step) {
      const std::string what = cat("tier ", tier, ", step ", num(step));
      const UpdateResult got = improve_at(model, set, beliefs[step]);
      const UpdateResult want = testref::reference_improve_at(model, ref, beliefs[step]);
      ASSERT_EQ(got.added, want.added) << what;
      ASSERT_EQ(got.backing_action, want.backing_action) << what;
      ASSERT_EQ(got.value_before, want.value_before) << what;
      ASSERT_EQ(got.value_after, want.value_after) << what;
      expect_same_snapshot(set, ref, what);
      if (::testing::Test::HasFatalFailure()) return;
      added += got.added ? 1 : 0;
    }
    // The sequence must exercise the capacity path: a full set that evicts.
    EXPECT_EQ(set.size(), 64u) << tier;
    EXPECT_GT(added, 64u) << tier;
  }
}

TEST(BackupParity, ParallelPrivateSetsMatchSerial) {
  // The backup workspace is thread-local: concurrent updates of private
  // sets must neither race nor disturb each other's results.
  const Pomdp& model = emn_model();
  const BoundSet seed_set = make_ra_bound_set(model.mdp(), 64);
  const std::vector<Belief> first = emn_update_beliefs(120, 1);
  const std::vector<Belief> second = emn_update_beliefs(120, 2);
  const auto run = [&](const std::vector<Belief>& beliefs, BoundSet& set,
                       std::vector<UpdateResult>& results) {
    for (const Belief& pi : beliefs) results.push_back(improve_at(model, set, pi));
  };

  BoundSet serial_a = seed_set;
  BoundSet serial_b = seed_set;
  std::vector<UpdateResult> serial_ra;
  std::vector<UpdateResult> serial_rb;
  run(first, serial_a, serial_ra);
  run(second, serial_b, serial_rb);

  BoundSet par_a = seed_set;
  BoundSet par_b = seed_set;
  std::vector<UpdateResult> par_ra;
  std::vector<UpdateResult> par_rb;
  std::thread ta([&] { run(first, par_a, par_ra); });
  std::thread tb([&] { run(second, par_b, par_rb); });
  ta.join();
  tb.join();

  expect_same_snapshot(par_a, serial_a, "thread a");
  expect_same_snapshot(par_b, serial_b, "thread b");
  ASSERT_EQ(par_ra.size(), serial_ra.size());
  ASSERT_EQ(par_rb.size(), serial_rb.size());
  for (std::size_t k = 0; k < par_ra.size(); ++k) {
    EXPECT_EQ(par_ra[k].value_after, serial_ra[k].value_after) << "a step " << k;
    EXPECT_EQ(par_rb[k].value_after, serial_rb[k].value_after) << "b step " << k;
  }
}

}  // namespace
}  // namespace recoverd::bounds
