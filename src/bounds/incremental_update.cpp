#include "bounds/incremental_update.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace recoverd::bounds {

namespace {

// Per-thread arena of the Eq. 7 backup (DESIGN.md §17). Thread-local, not
// a shared static: the --jobs episode runner and HSVI back up concurrently.
// Buffers only ever grow, so a warm thread allocates nothing but the
// returned vector.
struct BackupWorkspace {
  std::vector<double> pred;          ///< P(a)ᵀπ of the action being expanded
  std::vector<double> rows;          ///< touched (a, o) weight rows, row-major
  std::vector<std::size_t> touched;  ///< a·|O| + o of each row
  std::vector<std::size_t> winners;  ///< b^{π,a,o} index of each row
  std::vector<std::size_t> chosen;   ///< b^{π,a,o} index of every (a, o)
  std::vector<double> z;
  std::vector<double> b_a;
  BoundSet::TileScratch tiles;
};

BackupWorkspace& backup_workspace() {
  thread_local BackupWorkspace workspace;
  return workspace;
}

template <class T>
void grow(std::vector<T>& v, std::size_t size) {
  if (v.size() < size) v.resize(size);
}

}  // namespace

BoundVector backup_vector(const Pomdp& pomdp, const BoundSet& set, const Belief& belief,
                          ActionId* backing_action, double beta) {
  RD_EXPECTS(set.size() > 0, "backup_vector: the bound set is empty");
  RD_EXPECTS(set.dimension() == pomdp.num_states(),
             "backup_vector: bound set dimension mismatch");
  RD_EXPECTS(belief.size() == pomdp.num_states(), "backup_vector: belief dimension mismatch");
  RD_EXPECTS(beta > 0.0 && beta <= 1.0, "backup_vector: beta must lie in (0,1]");

  const Mdp& mdp = pomdp.mdp();
  const std::size_t n = pomdp.num_states();
  const std::size_t num_actions = pomdp.num_actions();
  const std::size_t num_obs = pomdp.num_observations();
  BackupWorkspace& ws = backup_workspace();
  grow(ws.pred, n);
  grow(ws.rows, num_actions * num_obs * n);
  grow(ws.touched, num_actions * num_obs);
  const std::span<double> pred(ws.pred.data(), n);

  // Weight rows w_{a,o}(s') = q(o|s',a)·pred(s'), one contiguous row per
  // observation, from q's transpose (its dense mirror where the model has
  // one). States outside pred's support get +0.0 either way, as in a sparse
  // pass over pred's support. A row that is all zero is not kept: its
  // argmax would be index 0 (every dot is +0.0), the default below.
  std::size_t count = 0;
  for (ActionId a = 0; a < num_actions; ++a) {
    mdp.transition(a).multiply_transpose_into(belief.probabilities(), pred);
    const std::span<const double> dense = pomdp.observation_transpose_dense(a);
    const auto& qt = pomdp.observation_transpose(a);
    for (ObsId o = 0; o < num_obs; ++o) {
      double* w = ws.rows.data() + count * n;
      std::uint64_t bits = 0;
      if (!dense.empty()) {
        const double* q = dense.data() + o * n;
        for (StateId s = 0; s < n; ++s) {
          w[s] = q[s] * pred[s];
          bits |= std::bit_cast<std::uint64_t>(w[s]);
        }
      } else {
        std::fill(w, w + n, 0.0);
        for (const auto& e : qt.row(o)) {
          w[e.col] = e.value * pred[e.col];
          bits |= std::bit_cast<std::uint64_t>(w[e.col]);
        }
      }
      if (bits != 0) ws.touched[count++] = a * num_obs + o;
    }
  }

  // b^{π,a,o} = argmax_b ⟨w_{a,o}, b⟩ for every touched (a, o) in one call.
  // Observations with zero weight under π keep a default choice (index 0,
  // the protected RA plane) — any member of B keeps the backup a valid
  // lower bound.
  grow(ws.winners, count);
  set.best_indices(ws.rows.data(), count, ws.winners, ws.tiles);
  ws.chosen.assign(num_actions * num_obs, 0);
  for (std::size_t r = 0; r < count; ++r) ws.chosen[ws.touched[r]] = ws.winners[r];

  grow(ws.z, n);
  grow(ws.b_a, n);
  BoundVector best_vector;
  double best_value = -std::numeric_limits<double>::infinity();
  ActionId best_action = kInvalidId;
  for (ActionId a = 0; a < num_actions; ++a) {
    const std::size_t* chosen = ws.chosen.data() + a * num_obs;

    // z(s') = Σ_o q(o|s',a) · b^{π,a,o}(s'): walking q's transpose row by
    // row adds each z(s')'s terms in ascending o, q's own row order. The
    // dense mirror's zeros add q·b = ±0, which leaves z unchanged.
    double* z = ws.z.data();
    std::fill(z, z + n, 0.0);
    const std::span<const double> dense = pomdp.observation_transpose_dense(a);
    const auto& qt = pomdp.observation_transpose(a);
    for (ObsId o = 0; o < num_obs; ++o) {
      const double* b = set.vector_at(chosen[o]).data();
      if (!dense.empty()) {
        const double* q = dense.data() + o * n;
        for (StateId s = 0; s < n; ++s) z[s] += q[s] * b[s];
      } else {
        for (const auto& e : qt.row(o)) z[e.col] += e.value * b[e.col];
      }
    }

    // b_a = r(a) + β P(a) z.
    double* ba = ws.b_a.data();
    const auto& t = mdp.transition(a);
    for (StateId s = 0; s < n; ++s) {
      double acc = mdp.reward(s, a);
      for (const auto& e : t.row(s)) acc += beta * e.value * z[e.col];
      ba[s] = acc;
    }

    const double value = linalg::dot({ba, n}, belief.probabilities());
    if (value > best_value) {
      best_value = value;
      best_vector.assign(ba, ba + n);
      best_action = a;
    }
  }

  if (backing_action != nullptr) *backing_action = best_action;
  return best_vector;
}

UpdateResult improve_at(const Pomdp& pomdp, BoundSet& set, const Belief& belief,
                        double min_gain, double beta) {
  // Eq. 7 instrumentation: attempted = accepted + rejected; the improvement
  // histogram records how much each *accepted* backup tightened V_B⁻ at π.
  static obs::Counter& attempted = obs::metrics().counter("bounds.update.attempted");
  static obs::Counter& accepted = obs::metrics().counter("bounds.update.accepted");
  static obs::Counter& rejected = obs::metrics().counter("bounds.update.rejected");
  static obs::Histogram& improvement = obs::metrics().histogram(
      "bounds.update.improvement", obs::exponential_buckets(1e-6, 10.0, 12));

  obs::TraceSpan span("bounds.improve_at", obs::TraceLevel::Decide);
  span.arg("planes", static_cast<double>(set.size()));

  UpdateResult result;
  result.value_before = set.evaluate(belief.probabilities());

  ActionId action = kInvalidId;
  BoundVector backup = backup_vector(pomdp, set, belief, &action, beta);
  result.backing_action = action;

  const double backup_value = linalg::dot(backup, belief.probabilities());
  if (backup_value > result.value_before + min_gain) {
    result.added = set.add(std::move(backup)) == BoundSet::AddResult::Added;
  }
  result.value_after = set.evaluate(belief.probabilities());

  attempted.add();
  if (result.added) {
    accepted.add();
    improvement.observe(result.improvement());
  } else {
    rejected.add();
  }
  return result;
}

}  // namespace recoverd::bounds
