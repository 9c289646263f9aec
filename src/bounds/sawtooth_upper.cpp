#include "bounds/sawtooth_upper.hpp"

#include <algorithm>
#include <atomic>
#include <limits>

#include "bounds/upper_bound.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/trace.hpp"
#include "pomdp/bellman.hpp"
#include "util/check.hpp"

namespace recoverd::bounds {

SawtoothUpperBound::SawtoothUpperBound(const Pomdp& pomdp, std::size_t capacity)
    : pomdp_(pomdp), capacity_(capacity) {
  const QmdpBoundResult qmdp = compute_qmdp_bound(pomdp.mdp());
  if (!qmdp.converged()) {
    throw ModelError(
        "SawtoothUpperBound: the underlying MDP has no finite optimal value; "
        "apply a §3.1 transform first");
  }
  corners_ = qmdp.values;
}

double SawtoothUpperBound::interpolate(const Point& point,
                                       std::span<const double> pi) const {
  // min_{s: π_i(s)>0} π(s)/π_i(s): how far toward the stored point the query
  // belief can be stretched while staying in the simplex.
  double ratio = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < pi.size(); ++s) {
    if (point.belief[s] > 0.0) ratio = std::min(ratio, pi[s] / point.belief[s]);
  }
  const double corner_part = linalg::dot(corners_, pi);
  return corner_part + (point.value - point.corner_mix) * ratio;
}

double SawtoothUpperBound::evaluate(const Belief& belief) const {
  return evaluate(belief.probabilities());
}

double SawtoothUpperBound::evaluate(std::span<const double> pi) const {
  RD_EXPECTS(pi.size() == corners_.size(),
             "SawtoothUpperBound::evaluate: belief dimension mismatch");
  double best = linalg::dot(corners_, pi);
  const Point* winner = nullptr;
  for (const auto& point : points_) {
    const double v = interpolate(point, pi);
    if (v < best) {
      best = v;
      winner = &point;
    }
  }
  // Relaxed atomic so concurrent evaluations of one bound race benignly on
  // the eviction statistic.
  if (winner != nullptr) {
    std::atomic_ref<std::size_t>(winner->uses).fetch_add(1, std::memory_order_relaxed);
  }
  return best;
}

void SawtoothUpperBound::add_point(const Belief& belief, double value) {
  if (capacity_ > 0 && points_.size() >= capacity_) {
    const auto victim = std::min_element(
        points_.begin(), points_.end(),
        [](const Point& a, const Point& b) { return a.uses < b.uses; });
    points_.erase(victim);
  }
  Point point;
  point.belief.assign(belief.probabilities().begin(), belief.probabilities().end());
  point.value = value;
  point.corner_mix = linalg::dot(corners_, point.belief);
  points_.push_back(std::move(point));
}

double SawtoothUpperBound::improve_at(const Belief& belief, double min_gain,
                                      double branch_floor) {
  obs::TraceSpan span("sawtooth.improve_at", obs::TraceLevel::Decide);
  span.arg("points", static_cast<double>(points_.size()));
  const double before = evaluate(belief);
  const LeafEvaluator leaf = [this](const Belief& b) { return evaluate(b); };
  const double backed_up =
      bellman_value(pomdp_, belief, 1, leaf, 1.0, kInvalidId, branch_floor);
  // L_p maps upper bounds to upper bounds; only store genuine improvements.
  if (backed_up < before - min_gain) {
    add_point(belief, backed_up);
    return before - backed_up;
  }
  return 0.0;
}

}  // namespace recoverd::bounds
