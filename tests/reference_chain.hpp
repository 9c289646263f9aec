// Frozen copy of the random-action chain assembly that predates the in-place
// build in src/bounds/ra_bound.cpp. It gathers every row into a scratch
// array sized by the upper-bound offsets, merges it there, and copies the
// merged rows out into a second, exact-size entry array. The parity suite
// requires the in-place build to produce the same CSR, reward and solve-plan
// bytes at every worker count.
// reference_build_random_action_chain() is build_random_action_chain() minus
// its metrics and trace span.
// Do not "modernise" this file; its value is that it never changes.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "bounds/ra_bound.hpp"
#include "util/check.hpp"
#include "util/work_pool.hpp"

namespace recoverd::testref {

inline void reference_sort_row_by_col(std::span<linalg::SparseEntry> row) {
  for (std::size_t i = 1; i < row.size(); ++i) {
    linalg::SparseEntry e = row[i];
    std::size_t j = i;
    while (j > 0 && row[j - 1].col > e.col) {
      row[j] = row[j - 1];
      --j;
    }
    row[j] = e;
  }
}

inline bounds::RandomActionChain reference_build_random_action_chain(
    const Mdp& mdp, linalg::SolverJobs jobs) {
  RD_EXPECTS(jobs >= 1, "build_random_action_chain: jobs must be >= 1");
  const std::size_t n = mdp.num_states();
  const std::size_t num_actions = mdp.num_actions();
  const double inv_actions = 1.0 / static_cast<double>(num_actions);

  bounds::RandomActionChain chain;
  chain.num_actions = num_actions;
  chain.c.assign(n, 0.0);

  std::vector<const linalg::SparseMatrix*> transitions(num_actions);
  std::vector<std::span<const double>> rewards(num_actions);
  for (ActionId a = 0; a < num_actions; ++a) {
    transitions[a] = &mdp.transition(a);
    rewards[a] = mdp.rewards(a);
  }

  std::vector<std::size_t> upper(n + 1, 0);
  for (ActionId a = 0; a < num_actions; ++a) {
    for (std::size_t s = 0; s < n; ++s) upper[s + 1] += transitions[a]->row(s).size();
  }
  for (std::size_t s = 0; s < n; ++s) upper[s + 1] += upper[s];

  std::vector<linalg::SparseEntry> scratch(upper[n]);
  std::vector<std::size_t> counts(n, 0);

  const auto assemble_rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      const std::size_t base = upper[s];
      std::size_t out = base;
      double reward_acc = 0.0;
      for (ActionId a = 0; a < num_actions; ++a) {
        for (const auto& e : transitions[a]->row(s)) {
          scratch[out++] = {e.col, inv_actions * e.value};
        }
        reward_acc += inv_actions * rewards[a][s];
      }
      chain.c[s] = reward_acc;
      const std::span<linalg::SparseEntry> row{scratch.data() + base, out - base};
      reference_sort_row_by_col(row);
      std::size_t merged = 0;
      std::size_t i = 0;
      while (i < row.size()) {
        linalg::SparseEntry acc = row[i++];
        while (i < row.size() && row[i].col == acc.col) acc.value += row[i++].value;
        row[merged++] = acc;
      }
      counts[s] = merged;
    }
  };

  const std::size_t workers = std::max<std::size_t>(1, std::min(jobs, n));
  if (workers <= 1) {
    assemble_rows(0, n);
  } else {
    util::WorkPool::instance().run(workers, [&](std::size_t t) {
      assemble_rows(n * t / workers, n * (t + 1) / workers);
    });
  }

  std::vector<std::size_t> row_ptr(n + 1, 0);
  for (std::size_t s = 0; s < n; ++s) row_ptr[s + 1] = row_ptr[s] + counts[s];
  std::vector<linalg::SparseEntry> entries(row_ptr[n]);
  for (std::size_t s = 0; s < n; ++s) {
    std::copy_n(scratch.begin() + static_cast<std::ptrdiff_t>(upper[s]), counts[s],
                entries.begin() + static_cast<std::ptrdiff_t>(row_ptr[s]));
  }
  chain.q = linalg::SparseMatrix::from_csr(n, std::move(row_ptr), std::move(entries));
  chain.plan = linalg::build_solve_plan(chain.q);
  return chain;
}

}  // namespace recoverd::testref
