// Determinism and parity of the parallel topology-aware solver: the SCC
// level-scheduled solve must match the sequential global sweep within
// tolerance on a broad sweep of seeded synthetic recovery models, and must
// be *bitwise identical* for every worker count — the contract that makes
// `--solver-jobs` safe to flip on reproduction runs. Suite names contain
// "Parallel" so tools/check.sh can select them for the TSan pass.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "bounds/ra_bound.hpp"
#include "linalg/gauss_seidel.hpp"
#include "models/emn.hpp"
#include "models/synthetic.hpp"
#include "reference_chain.hpp"

namespace recoverd {
namespace {

using bounds::RandomActionChain;
using bounds::build_random_action_chain;
using linalg::GaussSeidelOptions;
using linalg::SccSolveOptions;
using linalg::SparseMatrix;

models::SyntheticMdpParams sweep_params(std::uint64_t seed) {
  // Rotate through the three topology regimes the generator supports:
  // giant coupled SCC (legacy), pure near-DAG, and scattered small SCCs.
  models::SyntheticMdpParams params;
  params.num_states = 300 + (seed * 13) % 500;
  params.num_actions = 4;
  params.branching = 3;
  params.seed = seed + 1;
  switch (seed % 3) {
    case 0: params.locality = 0; break;                              // giant SCC
    case 1: params.locality = 24; params.forward_probability = 0.0; break;  // DAG
    default: params.locality = 24; params.forward_probability = 0.08; break;
  }
  return params;
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double diff = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) diff = std::max(diff, std::abs(a[i] - b[i]));
  return diff;
}

void expect_bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // EXPECT_EQ on doubles is exact — precisely what the determinism
    // contract promises.
    EXPECT_EQ(a[i], b[i]) << "state " << i;
  }
}

TEST(ParallelSolve, MatchesSequentialAcrossHundredSeededModels) {
  const GaussSeidelOptions options = bounds::default_ra_solver_options();
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    const auto mdp = models::make_synthetic_recovery_mdp(sweep_params(seed));
    const RandomActionChain chain = build_random_action_chain(mdp);

    const auto sequential = linalg::solve_fixed_point(chain.q, chain.c, options);
    ASSERT_TRUE(sequential.converged()) << "seed " << seed << ": " << sequential.detail;

    SccSolveOptions serial;
    const auto scc = linalg::solve_fixed_point_scc(chain.q, chain.c, options, serial,
                                                   chain.plan);
    ASSERT_TRUE(scc.converged()) << "seed " << seed << ": " << scc.detail;
    EXPECT_LE(max_abs_diff(sequential.x, scc.x), 1e-8) << "seed " << seed;

    // Worker count must not change a single bit of the solution.
    SccSolveOptions parallel;
    parallel.jobs = 4;
    const auto fanned = linalg::solve_fixed_point_scc(chain.q, chain.c, options,
                                                      parallel, chain.plan);
    ASSERT_TRUE(fanned.converged()) << "seed " << seed;
    expect_bitwise_equal(scc.x, fanned.x);
  }
}

TEST(ParallelSolve, BitwiseInvariantAcrossJobCounts) {
  // One model large enough to carry wide levels and nontrivial components,
  // swept across several worker counts.
  models::SyntheticMdpParams params;
  params.num_states = 5000;
  params.num_actions = 4;
  params.locality = 32;
  params.forward_probability = 0.05;
  params.seed = 42;
  const auto mdp = models::make_synthetic_recovery_mdp(params);
  const RandomActionChain chain = build_random_action_chain(mdp);
  const GaussSeidelOptions options = bounds::default_ra_solver_options();

  SccSolveOptions scc;
  scc.jobs = 1;
  const auto reference = linalg::solve_fixed_point_scc(chain.q, chain.c, options, scc,
                                                       chain.plan);
  ASSERT_TRUE(reference.converged()) << reference.detail;

  for (const std::size_t jobs : {2, 3, 8}) {
    scc.jobs = jobs;
    const auto result = linalg::solve_fixed_point_scc(chain.q, chain.c, options, scc,
                                                      chain.plan);
    ASSERT_TRUE(result.converged()) << "jobs " << jobs;
    EXPECT_EQ(result.iterations, reference.iterations) << "jobs " << jobs;
    expect_bitwise_equal(reference.x, result.x);
  }
}

TEST(ParallelSolve, ChunkedComponentsStayBitwiseInvariant) {
  // Force the chunked large-component path (threshold 8 routes every
  // nontrivial SCC through it) and check the chunk-parallel sweeps remain
  // bitwise deterministic — the grid keys on component size, never jobs.
  models::SyntheticMdpParams params;
  params.num_states = 1500;
  params.num_actions = 4;
  params.locality = 0;  // giant coupled SCC => genuinely chunked sweeps
  params.seed = 7;
  const auto mdp = models::make_synthetic_recovery_mdp(params);
  const RandomActionChain chain = build_random_action_chain(mdp);
  const GaussSeidelOptions options = bounds::default_ra_solver_options();

  SccSolveOptions chunked;
  chunked.block_jacobi_threshold = 8;
  chunked.jobs = 1;
  const auto reference = linalg::solve_fixed_point_scc(chain.q, chain.c, options,
                                                       chunked, chain.plan);
  ASSERT_TRUE(reference.converged()) << reference.detail;

  for (const std::size_t jobs : {2, 5}) {
    chunked.jobs = jobs;
    const auto result = linalg::solve_fixed_point_scc(chain.q, chain.c, options,
                                                      chunked, chain.plan);
    ASSERT_TRUE(result.converged()) << "jobs " << jobs;
    expect_bitwise_equal(reference.x, result.x);
  }

  // And the chunked answer agrees with the default path on the same system.
  const auto plain = linalg::solve_fixed_point_scc(chain.q, chain.c, options, {},
                                                   chain.plan);
  ASSERT_TRUE(plain.converged());
  EXPECT_LE(max_abs_diff(plain.x, reference.x), 1e-8);
}

TEST(ParallelAssembly, ChainBitwiseIdenticalAcrossWorkers) {
  // One-shot CSR assembly merges each row independently in a fixed action
  // order, so any worker count must produce the identical artifact.
  models::SyntheticMdpParams params;
  params.num_states = 2000;
  params.num_actions = 5;
  params.locality = 48;
  params.forward_probability = 0.02;
  params.seed = 11;
  const auto mdp = models::make_synthetic_recovery_mdp(params);

  const RandomActionChain reference = build_random_action_chain(mdp, 1);
  for (const std::size_t jobs : {2, 7}) {
    const RandomActionChain chain = build_random_action_chain(mdp, jobs);
    ASSERT_EQ(chain.num_states(), reference.num_states());
    EXPECT_EQ(chain.num_actions, reference.num_actions);
    expect_bitwise_equal(reference.c, chain.c);
    ASSERT_EQ(chain.q.rows(), reference.q.rows());
    for (std::size_t i = 0; i < reference.q.rows(); ++i) {
      const auto a = reference.q.row(i);
      const auto b = chain.q.row(i);
      ASSERT_EQ(a.size(), b.size()) << "row " << i;
      for (std::size_t e = 0; e < a.size(); ++e) {
        EXPECT_EQ(a[e].col, b[e].col) << "row " << i;
        EXPECT_EQ(a[e].value, b[e].value) << "row " << i;
      }
    }
    EXPECT_EQ(chain.plan.num_components, reference.plan.num_components);
  }
}

template <class T>
bool same_bytes(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

TEST(ParallelAssembly, InPlaceBuildMatchesTheScratchOracleAtJobs1And4) {
  // The in-place row merge must leave the same CSR, reward and solve-plan
  // bytes as the scratch-and-copy assembly it replaced (tests/
  // reference_chain.hpp): every topology regime of the sweep, single-action
  // and duplicate-heavy models, and EMN.
  std::vector<Mdp> mdps;
  for (std::uint64_t seed = 0; seed < 9; ++seed) {
    models::SyntheticMdpParams params = sweep_params(seed);
    params.num_actions = 1 + seed % 6;
    params.branching = 1 + seed % 5;
    mdps.push_back(models::make_synthetic_recovery_mdp(params));
  }
  mdps.push_back(models::make_emn_recovery_model().mdp());
  for (std::size_t m = 0; m < mdps.size(); ++m) {
    for (const std::size_t jobs : {1, 4}) {
      const RandomActionChain chain = build_random_action_chain(mdps[m], jobs);
      const RandomActionChain want = testref::reference_build_random_action_chain(mdps[m], jobs);
      EXPECT_EQ(chain.num_actions, want.num_actions);
      EXPECT_TRUE(same_bytes(chain.q.row_offsets(), want.q.row_offsets()))
          << "model " << m << ", jobs " << jobs;
      EXPECT_TRUE(same_bytes(chain.q.entry_array(), want.q.entry_array()))
          << "model " << m << ", jobs " << jobs;
      EXPECT_TRUE(same_bytes(std::span<const double>(chain.c), std::span<const double>(want.c)))
          << "model " << m << ", jobs " << jobs;
      EXPECT_EQ(chain.plan.component, want.plan.component);
      EXPECT_EQ(chain.plan.members, want.plan.members);
      EXPECT_EQ(chain.plan.component_ptr, want.plan.component_ptr);
      EXPECT_EQ(chain.plan.level_of, want.plan.level_of);
      EXPECT_EQ(chain.plan.level_components, want.plan.level_components);
      EXPECT_EQ(chain.plan.level_ptr, want.plan.level_ptr);
    }
  }
}

TEST(ParallelSolve, RaBoundValuesInvariantAcrossJobs) {
  // End-to-end through the bounds layer: compute_ra_bound on a shared chain
  // must return identical V_m⁻ for every --solver-jobs setting.
  models::SyntheticMdpParams params;
  params.num_states = 3000;
  params.num_actions = 4;
  params.locality = 32;
  params.forward_probability = 0.05;
  params.seed = 23;
  const auto mdp = models::make_synthetic_recovery_mdp(params);
  const RandomActionChain chain = build_random_action_chain(mdp);

  SccSolveOptions scc;
  scc.jobs = 1;
  const auto reference = bounds::compute_ra_bound(chain,
                                                  bounds::default_ra_solver_options(),
                                                  scc);
  ASSERT_TRUE(reference.converged()) << reference.detail;

  for (const std::size_t jobs : {2, 8}) {
    scc.jobs = jobs;
    const auto result = bounds::compute_ra_bound(chain,
                                                 bounds::default_ra_solver_options(),
                                                 scc);
    ASSERT_TRUE(result.converged()) << "jobs " << jobs;
    expect_bitwise_equal(reference.values, result.values);
  }
}

}  // namespace
}  // namespace recoverd
