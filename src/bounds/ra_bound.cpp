#include "bounds/ra_bound.hpp"

#include <algorithm>
#include <cstring>

#include "obs/metrics.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/work_pool.hpp"

namespace recoverd::bounds {

linalg::GaussSeidelOptions default_ra_solver_options() {
  linalg::GaussSeidelOptions options;
  options.relaxation = 1.1;  // mild successive over-relaxation (§3.1)
  options.tolerance = 1e-10;
  return options;
}

namespace {
struct ChainInstruments {
  obs::Counter& assemblies;
  obs::Gauge& jobs;
  obs::Gauge& nnz;
  obs::Histogram& assembly_ms;
  obs::Histogram& plan_ms;

  static ChainInstruments& get() {
    static ChainInstruments instruments{
        obs::metrics().counter("bounds.ra_chain.assemblies"),
        obs::metrics().gauge("bounds.ra_chain.jobs"),
        obs::metrics().gauge("bounds.ra_chain.nnz"),
        obs::metrics().histogram("bounds.ra_chain.assembly_ms",
                                 obs::exponential_buckets(0.001, 2.0, 26)),
        obs::metrics().histogram("bounds.ra_chain.plan_ms",
                                 obs::exponential_buckets(0.001, 2.0, 26)),
    };
    return instruments;
  }
};

/// Stable insertion sort by column over one gathered row (rows are tiny —
/// |A|·branching entries — and nearly sorted, so this beats a general sort
/// and keeps equal columns in action order for a deterministic sum).
void sort_row_by_col(std::span<linalg::SparseEntry> row) {
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
}  // namespace

RandomActionChain build_random_action_chain(const Mdp& mdp, linalg::SolverJobs jobs) {
  RD_EXPECTS(jobs >= 1, "build_random_action_chain: jobs must be >= 1");
  ChainInstruments& instruments = ChainInstruments::get();
  obs::TraceSpan span("ra_bound.assemble_chain", obs::TraceLevel::Decide);
  obs::ScopedTimer assembly_timer(instruments.assembly_ms);
  instruments.assemblies.add();
  instruments.jobs.set(static_cast<double>(jobs));

  const std::size_t n = mdp.num_states();
  const std::size_t num_actions = mdp.num_actions();
  const double inv_actions = 1.0 / static_cast<double>(num_actions);

  RandomActionChain chain;
  chain.num_actions = num_actions;
  chain.c.assign(n, 0.0);

  // Hoist the per-action accessors once; workers only read them.
  std::vector<const linalg::SparseMatrix*> transitions(num_actions);
  std::vector<std::span<const double>> rewards(num_actions);
  for (ActionId a = 0; a < num_actions; ++a) {
    transitions[a] = &mdp.transition(a);
    rewards[a] = mdp.rewards(a);
  }

  // Upper-bound CSR offsets: row s holds at most Σ_a nnz_a(s) entries
  // before duplicate columns merge. They size the final entry array, and
  // each worker's row range owns the matching slice of it.
  std::vector<std::size_t> row_ptr(n + 1, 0);
  for (ActionId a = 0; a < num_actions; ++a) {
    for (std::size_t s = 0; s < n; ++s) row_ptr[s + 1] += transitions[a]->row(s).size();
  }
  for (std::size_t s = 0; s < n; ++s) row_ptr[s + 1] += row_ptr[s];

  std::vector<linalg::SparseEntry> entries(row_ptr[n]);
  std::vector<std::size_t> counts(n, 0);

  // Each row merges its per-action entries independently (gather in action
  // order, stable sort by column, sum runs), so chunking rows across
  // workers cannot change a single bit of the output. A range writes its
  // rows back to back from the start of its slice: the next row is
  // gathered where the previous merged row ended, so it never reaches past
  // its own upper bound.
  const auto assemble_rows = [&](std::size_t begin, std::size_t end) {
    std::size_t out = row_ptr[begin];
    for (std::size_t s = begin; s < end; ++s) {
      const std::size_t base = out;
      double reward_acc = 0.0;
      for (ActionId a = 0; a < num_actions; ++a) {
        for (const auto& e : transitions[a]->row(s)) {
          entries[out++] = {e.col, inv_actions * e.value};
        }
        reward_acc += inv_actions * rewards[a][s];
      }
      chain.c[s] = reward_acc;
      const std::span<linalg::SparseEntry> row{entries.data() + base, out - base};
      sort_row_by_col(row);
      std::size_t merged = 0;
      std::size_t i = 0;
      while (i < row.size()) {
        linalg::SparseEntry acc = row[i++];
        while (i < row.size() && row[i].col == acc.col) acc.value += row[i++].value;
        row[merged++] = acc;
      }
      counts[s] = merged;
      out = base + merged;
    }
  };

  const std::size_t workers = std::max<std::size_t>(1, std::min(jobs, n));
  const auto range_begin = [&](std::size_t t) { return n * t / workers; };
  if (workers <= 1) {
    assemble_rows(0, n);
  } else {
    // Same contiguous row partition as the per-call thread team this
    // replaces; ranges write disjoint slices of `entries`, so the assembly
    // is bit-identical for any worker count.
    util::WorkPool::instance().run(workers, [&](std::size_t t) {
      assemble_rows(range_begin(t), range_begin(t + 1));
    });
  }

  // Compact in place: slide each range's merged rows down to where the
  // previous range's ended (a no-op for the first range, so a serial build
  // moves nothing), then turn the upper bounds into the final offsets.
  std::size_t nnz = 0;
  for (std::size_t t = 0; t < workers; ++t) {
    const std::size_t from = row_ptr[range_begin(t)];
    std::size_t len = 0;
    for (std::size_t s = range_begin(t); s < range_begin(t + 1); ++s) len += counts[s];
    if (from != nnz) {
      std::memmove(entries.data() + nnz, entries.data() + from,
                   len * sizeof(linalg::SparseEntry));
    }
    nnz += len;
  }
  for (std::size_t s = 0; s < n; ++s) row_ptr[s + 1] = row_ptr[s] + counts[s];
  entries.resize(nnz);
  chain.q = linalg::SparseMatrix::from_csr(n, std::move(row_ptr), std::move(entries));
  instruments.nnz.set(static_cast<double>(chain.q.nonzeros()));
  assembly_timer.stop();

  obs::ScopedTimer plan_timer(instruments.plan_ms);
  chain.plan = linalg::build_solve_plan(chain.q);
  return chain;
}

namespace {
RaBoundResult solve_random_action_chain(const RandomActionChain& chain, double beta,
                                        const linalg::GaussSeidelOptions& options,
                                        const linalg::SccSolveOptions& scc_options) {
  linalg::SccSolveOptions scc = scc_options;
  scc.scale = beta;
  obs::TraceSpan span("ra_bound.solve_chain", obs::TraceLevel::Decide);
  const auto solve =
      linalg::solve_fixed_point_scc(chain.q, chain.c, options, scc, chain.plan);
  RaBoundResult result;
  result.status = solve.status;
  result.iterations = solve.iterations;
  result.detail = solve.detail;
  if (solve.converged()) result.values = solve.x;

  static obs::Counter& solves = obs::metrics().counter("bounds.ra_bound.solves");
  static obs::Counter& diverged = obs::metrics().counter("bounds.ra_bound.diverged");
  static obs::Gauge& iterations = obs::metrics().gauge("bounds.ra_bound.iterations");
  solves.add();
  if (result.status == linalg::SolveStatus::Diverged) diverged.add();
  iterations.set(static_cast<double>(result.iterations));
  return result;
}
}  // namespace

RaBoundResult compute_ra_bound(const Mdp& mdp, const linalg::GaussSeidelOptions& options,
                               const linalg::SccSolveOptions& scc) {
  return compute_ra_bound(build_random_action_chain(mdp, scc.jobs), options, scc);
}

RaBoundResult compute_ra_bound(const RandomActionChain& chain,
                               const linalg::GaussSeidelOptions& options,
                               const linalg::SccSolveOptions& scc) {
  return solve_random_action_chain(chain, 1.0, options, scc);
}

RaBoundResult compute_ra_bound_discounted(const Mdp& mdp, double beta,
                                          const linalg::GaussSeidelOptions& options,
                                          const linalg::SccSolveOptions& scc) {
  RD_EXPECTS(beta > 0.0 && beta < 1.0,
             "compute_ra_bound_discounted: beta must lie in (0,1)");
  return compute_ra_bound_discounted(build_random_action_chain(mdp, scc.jobs), beta,
                                     options, scc);
}

RaBoundResult compute_ra_bound_discounted(const RandomActionChain& chain, double beta,
                                          const linalg::GaussSeidelOptions& options,
                                          const linalg::SccSolveOptions& scc) {
  RD_EXPECTS(beta > 0.0 && beta < 1.0,
             "compute_ra_bound_discounted: beta must lie in (0,1)");
  return solve_random_action_chain(chain, beta, options, scc);
}

BoundSet make_ra_bound_set(const Mdp& mdp, std::size_t capacity,
                           const linalg::GaussSeidelOptions& options,
                           const linalg::SccSolveOptions& scc) {
  return make_ra_bound_set(build_random_action_chain(mdp, scc.jobs), capacity, options,
                           scc);
}

BoundSet make_ra_bound_set(const RandomActionChain& chain, std::size_t capacity,
                           const linalg::GaussSeidelOptions& options,
                           const linalg::SccSolveOptions& scc) {
  const RaBoundResult ra = compute_ra_bound(chain, options, scc);
  if (!ra.converged()) {
    throw ModelError(
        "make_ra_bound_set: the RA-Bound linear system did not converge (" +
        linalg::to_string(ra.status) +
        (ra.detail.empty() ? "" : ": " + ra.detail) +
        "); apply with_recovery_notification or add_termination first (see §3.1)");
  }
  BoundSet set(chain.num_states(), capacity);
  set.add(ra.values);  // first vector: protected automatically
  return set;
}

}  // namespace recoverd::bounds
