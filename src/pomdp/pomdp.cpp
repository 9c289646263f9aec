#include "pomdp/pomdp.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace recoverd {

const std::string& Pomdp::observation_name(ObsId o) const {
  RD_EXPECTS(o < num_observations(), "Pomdp::observation_name: out of range");
  return obs_names_[o];
}

ObsId Pomdp::find_observation(const std::string& name) const {
  const auto it = std::find(obs_names_.begin(), obs_names_.end(), name);
  return it == obs_names_.end() ? kInvalidId
                                : static_cast<ObsId>(it - obs_names_.begin());
}

const linalg::SparseMatrix& Pomdp::observation(ActionId a) const {
  RD_EXPECTS(a < num_actions(), "Pomdp::observation: action out of range");
  return observations_[a];
}

const linalg::SparseMatrix& Pomdp::transition_transpose(ActionId a) const {
  RD_EXPECTS(a < num_actions(), "Pomdp::transition_transpose: action out of range");
  return transition_transposes_[a];
}

const linalg::SparseMatrix& Pomdp::observation_transpose(ActionId a) const {
  RD_EXPECTS(a < num_actions(), "Pomdp::observation_transpose: action out of range");
  return observation_transposes_[a];
}

std::span<const double> Pomdp::observation_dense(ActionId a) const {
  RD_EXPECTS(a < num_actions(), "Pomdp::observation_dense: action out of range");
  return observations_dense_[a];
}

std::span<const double> Pomdp::observation_transpose_dense(ActionId a) const {
  RD_EXPECTS(a < num_actions(),
             "Pomdp::observation_transpose_dense: action out of range");
  return observation_transposes_dense_[a];
}

double Pomdp::observation_prob(StateId next, ActionId a, ObsId o) const {
  RD_EXPECTS(next < num_states(), "Pomdp::observation_prob: state out of range");
  RD_EXPECTS(o < num_observations(), "Pomdp::observation_prob: observation out of range");
  return observation(a).at(next, o);
}

StateId PomdpBuilder::add_state(std::string name, double ambient_rate) {
  const StateId s = mdp_.add_state(std::move(name), ambient_rate);
  for (auto& per_action : obs_) per_action.emplace_back();
  ++states_;
  return s;
}

ActionId PomdpBuilder::add_action(std::string name, double duration) {
  const ActionId a = mdp_.add_action(std::move(name), duration);
  obs_.emplace_back(states_);
  ++actions_;
  return a;
}

void PomdpBuilder::set_transition(StateId s, ActionId a, StateId next, double prob) {
  mdp_.set_transition(s, a, next, prob);
}

void PomdpBuilder::set_rate_reward(StateId s, ActionId a, double rate) {
  mdp_.set_rate_reward(s, a, rate);
}

void PomdpBuilder::set_impulse_reward(StateId s, ActionId a, double impulse) {
  mdp_.set_impulse_reward(s, a, impulse);
}

void PomdpBuilder::mark_goal(StateId s) { mdp_.mark_goal(s); }

ObsId PomdpBuilder::add_observation(std::string name) {
  RD_EXPECTS(!name.empty(), "PomdpBuilder::add_observation: name must be non-empty");
  obs_names_.push_back(std::move(name));
  return obs_names_.size() - 1;
}

void PomdpBuilder::set_observation(StateId next, ActionId a, ObsId o, double prob) {
  RD_EXPECTS(next < states_, "PomdpBuilder::set_observation: state out of range");
  RD_EXPECTS(a < actions_, "PomdpBuilder::set_observation: action out of range");
  RD_EXPECTS(o < obs_names_.size(), "PomdpBuilder::set_observation: observation out of range");
  RD_EXPECTS(std::isfinite(prob) && prob >= 0.0 && prob <= 1.0 + 1e-12,
             "PomdpBuilder::set_observation: probability must lie in [0,1]");
  auto& row = obs_[a][next];
  const auto it =
      std::find_if(row.begin(), row.end(), [o](const auto& e) { return e.first == o; });
  if (it != row.end()) {
    it->second = prob;
  } else {
    row.emplace_back(o, prob);
  }
}

void PomdpBuilder::set_observation_all_actions(StateId next, ObsId o, double prob) {
  for (ActionId a = 0; a < actions_; ++a) set_observation(next, a, o, prob);
}

void PomdpBuilder::mark_terminate(ActionId a, StateId absorbing_state) {
  RD_EXPECTS(a < actions_, "PomdpBuilder::mark_terminate: action out of range");
  RD_EXPECTS(absorbing_state < states_, "PomdpBuilder::mark_terminate: state out of range");
  terminate_action_ = a;
  terminate_state_ = absorbing_state;
}

Pomdp PomdpBuilder::build(double tol) const {
  if (obs_names_.empty()) throw ModelError("PomdpBuilder: model has no observations");

  Pomdp p;
  p.mdp_ = mdp_.build(tol);
  p.obs_names_ = obs_names_;
  p.terminate_action_ = terminate_action_;
  p.terminate_state_ = terminate_state_;

  const std::size_t n = states_;
  for (std::size_t a = 0; a < actions_; ++a) {
    p.transition_transposes_.push_back(p.mdp_.transition(a).transpose());
    linalg::SparseMatrixBuilder qb(n, obs_names_.size());
    for (std::size_t next = 0; next < n; ++next) {
      double total = 0.0;
      for (const auto& [o, prob] : obs_[a][next]) {
        if (prob == 0.0) continue;
        qb.add(next, o, prob);
        total += prob;
      }
      if (std::abs(total - 1.0) > tol) {
        throw ModelError("PomdpBuilder: observation row for next-state '" +
                         p.mdp_.state_name(next) + "', action '" +
                         p.mdp_.action_name(a) + "' sums to " + std::to_string(total) +
                         " (expected 1)");
      }
    }
    p.observations_.push_back(qb.build());
    p.observation_transposes_.push_back(p.observations_.back().transpose());

    const linalg::SparseMatrix& qt = p.observation_transposes_.back();
    const std::size_t total = qt.rows() * qt.cols();
    std::size_t nnz = 0;
    for (std::size_t o = 0; o < qt.rows(); ++o) nnz += qt.row(o).size();
    std::vector<double> dense;
    std::vector<double> dense_t;
    if (total > 0 && total <= Pomdp::kDenseMirrorMaxEntries &&
        static_cast<double>(nnz) >=
            Pomdp::kDenseMirrorMinDensity * static_cast<double>(total)) {
      dense.assign(total, 0.0);
      dense_t.assign(total, 0.0);
      const std::size_t num_obs = qt.rows();
      for (std::size_t o = 0; o < num_obs; ++o) {
        double* row_t = dense_t.data() + o * qt.cols();
        for (const auto& e : qt.row(o)) {
          row_t[e.col] = e.value;
          dense[e.col * num_obs + o] = e.value;
        }
      }
    }
    p.observations_dense_.push_back(std::move(dense));
    p.observation_transposes_dense_.push_back(std::move(dense_t));
  }
  return p;
}

}  // namespace recoverd
