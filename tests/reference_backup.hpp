// Frozen copy of the per-action Eq. 7 backup that predates the batched
// kernel in src/bounds/incremental_update.cpp (DESIGN.md §17). The parity
// suite checks the kernel bit-for-bit against this reference, so it stays a
// straight transcription with the library's exact conventions:
//   - actions ascending, outer argmax by strict `>` (first action wins ties),
//   - one weight row per observation some predicted state emits, scored by
//     the scalar pruned BoundSet::best_index (lowest index wins ties),
//   - observations no predicted state emits default to index 0,
//   - z(s') = Σ_o q(o|s',a)·b^{π,a,o}(s') in q's row order,
//   - b_a(s) = r(s,a) + Σ_{s'} β·p(s'|s,a)·z(s') in P's row order.
// reference_improve_at() is improve_at() minus its metrics and trace span.
// Do not "modernise" this file; its value is that it never changes.
#pragma once

#include <limits>
#include <vector>

#include "bounds/bound_set.hpp"
#include "bounds/incremental_update.hpp"
#include "linalg/vector_ops.hpp"
#include "pomdp/belief.hpp"
#include "pomdp/pomdp.hpp"
#include "util/check.hpp"

namespace recoverd::testref {

inline bounds::BoundVector reference_backup_vector(const Pomdp& pomdp,
                                                   const bounds::BoundSet& set,
                                                   const Belief& belief,
                                                   ActionId* backing_action,
                                                   double beta) {
  RD_EXPECTS(set.size() > 0, "backup_vector: the bound set is empty");
  RD_EXPECTS(set.dimension() == pomdp.num_states(),
             "backup_vector: bound set dimension mismatch");
  RD_EXPECTS(belief.size() == pomdp.num_states(), "backup_vector: belief dimension mismatch");
  RD_EXPECTS(beta > 0.0 && beta <= 1.0, "backup_vector: beta must lie in (0,1]");

  const Mdp& mdp = pomdp.mdp();
  const std::size_t n = pomdp.num_states();

  bounds::BoundVector best_vector;
  double best_value = -std::numeric_limits<double>::infinity();
  ActionId best_action = kInvalidId;

  for (ActionId a = 0; a < pomdp.num_actions(); ++a) {
    const auto pred = pomdp.mdp().transition(a).multiply_transpose(belief.probabilities());
    const auto& q = pomdp.observation(a);

    // For each observation o select b^{π,a,o} = argmax_b Σ_{s'}
    // q(o|s',a)·pred(s')·b(s'). The per-observation weight vectors are built
    // in one sparse pass over q's rows.
    std::vector<std::vector<double>> weights(pomdp.num_observations());
    for (StateId sp = 0; sp < n; ++sp) {
      if (pred[sp] <= 0.0) continue;
      for (const auto& e : q.row(sp)) {
        auto& w = weights[e.col];
        if (w.empty()) w.assign(n, 0.0);
        w[sp] += e.value * pred[sp];
      }
    }

    // z(s') = Σ_o q(o|s',a) · b^{π,a,o}(s'). Observations with zero weight
    // under π contribute through a default choice (index 0, the protected
    // RA plane) — any member of B keeps the backup a valid lower bound.
    std::vector<std::size_t> chosen(pomdp.num_observations(), 0);
    for (ObsId o = 0; o < pomdp.num_observations(); ++o) {
      if (!weights[o].empty()) chosen[o] = set.best_index(weights[o]);
    }
    std::vector<double> z(n, 0.0);
    for (StateId sp = 0; sp < n; ++sp) {
      for (const auto& e : q.row(sp)) {
        z[sp] += e.value * set.vector_at(chosen[e.col])[sp];
      }
    }

    // b_a = r(a) + β P(a) z.
    bounds::BoundVector ba(n, 0.0);
    const auto& t = mdp.transition(a);
    for (StateId s = 0; s < n; ++s) {
      double acc = mdp.reward(s, a);
      for (const auto& e : t.row(s)) acc += beta * e.value * z[e.col];
      ba[s] = acc;
    }

    const double value = linalg::dot(ba, belief.probabilities());
    if (value > best_value) {
      best_value = value;
      best_vector = std::move(ba);
      best_action = a;
    }
  }

  if (backing_action != nullptr) *backing_action = best_action;
  return best_vector;
}

inline bounds::UpdateResult reference_improve_at(const Pomdp& pomdp, bounds::BoundSet& set,
                                                 const Belief& belief, double min_gain = 1e-12,
                                                 double beta = 1.0) {
  bounds::UpdateResult result;
  result.value_before = set.evaluate(belief.probabilities());

  ActionId action = kInvalidId;
  bounds::BoundVector backup = reference_backup_vector(pomdp, set, belief, &action, beta);
  result.backing_action = action;

  const double backup_value = linalg::dot(backup, belief.probabilities());
  if (backup_value > result.value_before + min_gain) {
    result.added = set.add(std::move(backup)) == bounds::BoundSet::AddResult::Added;
  }
  result.value_after = set.evaluate(belief.probabilities());
  return result;
}

}  // namespace recoverd::testref
