#include "bench_common.hpp"

#include <ostream>

#include "util/table.hpp"

namespace recoverd::bench {

EmnExperimentSetup parse_emn_setup(const CliArgs& args) {
  EmnExperimentSetup setup;
  setup.emn.operator_response_time =
      args.get_double("top", setup.emn.operator_response_time);
  setup.seed = static_cast<std::uint64_t>(args.get_size("seed", 2006));
  // Validated parses (util/cli.hpp): a negative count used to wrap through
  // the size_t cast into an absurd huge value; now it fails loudly.
  setup.bound_capacity = args.get_size("capacity", 64);  // 0 = unlimited
  setup.branch_floor = args.get_double("branch-floor", setup.branch_floor);
  setup.termination_probability =
      args.get_double("termination-probability", setup.termination_probability);
  setup.bootstrap_runs = args.get_count("bootstrap-runs", 10);
  setup.bootstrap_depth = static_cast<int>(args.get_count("bootstrap-depth", 2));
  setup.jobs = args.get_jobs(1);
  setup.memo_max_mb = args.get_size("memo-max-mb", 64);
  setup.mismatch = sim::parse_mismatch_options(args);
  setup.guard = controller::parse_guard_options(args);
  return setup;
}

std::vector<std::string> robustness_flag_names() {
  std::vector<std::string> names = sim::mismatch_flag_names();
  const std::vector<std::string> guard = controller::guard_flag_names();
  names.insert(names.end(), guard.begin(), guard.end());
  return names;
}

sim::ExperimentResult run_campaign(const Pomdp& env_model,
                                   controller::RecoveryController& serial_controller,
                                   const sim::ControllerFactory& factory,
                                   const sim::FaultInjector& injector,
                                   std::size_t episodes, std::uint64_t seed,
                                   const sim::EpisodeConfig& config, std::size_t jobs) {
  if (jobs <= 1) {
    return sim::run_experiment(env_model, serial_controller, injector, episodes, seed,
                               config);
  }
  return sim::run_experiment(env_model, factory, injector, episodes, seed, config, jobs);
}

sim::FaultInjector make_zombie_injector(const Pomdp& base_model,
                                        const models::EmnIds& ids) {
  (void)base_model;
  std::vector<StateId> zombies(ids.topo.zombie_states.begin(),
                               ids.topo.zombie_states.end());
  return sim::FaultInjector(std::move(zombies));
}

sim::EpisodeConfig make_emn_episode_config(const Pomdp& base_model,
                                           const models::EmnIds& ids) {
  sim::EpisodeConfig config;
  config.observe_action = ids.topo.observe_action;
  config.max_steps = 10000;
  config.initial_observation = true;
  for (StateId s = 0; s < base_model.num_states(); ++s) {
    if (!base_model.mdp().is_goal(s)) config.fault_support.push_back(s);
  }
  return config;
}

namespace {
struct PaperRow {
  const char* algorithm;
  const char* depth;
  double cost, recovery, residual, algorithm_ms, actions, monitor_calls;
};

// Table 1 of the paper (per-fault averages, 10,000 zombie injections).
constexpr PaperRow kPaperRows[] = {
    {"Most Likely", "1", 244.40, 394.73, 212.98, 0.09, 3.00, 3.00},
    {"Heuristic", "1", 151.04, 299.72, 193.24, 6.71, 1.71, 17.42},
    {"Heuristic", "2", 118.481, 269.96, 169.34, 123.59, 1.216, 22.51},
    {"Heuristic", "3", 118.846, 271.32, 169.86, 1485.0, 1.216, 22.50},
    {"Bounded", "1", 114.16, 192.30, 165.24, 92.0, 1.20, 7.69},
    {"Oracle", "-", 84.4, 132.00, 132.00, 0.0, 1.00, 0.00},
};
}  // namespace

void print_table1(std::ostream& os, const std::vector<TableRow>& rows,
                  std::size_t faults_note) {
  TextTable table;
  table.set_header({"Algorithm", "Depth", "Cost", "RecoveryTime(s)", "ResidualTime(s)",
                    "AlgTime(ms)", "Actions", "MonitorCalls", "Unrecovered"});
  for (const auto& row : rows) {
    table.add_row({row.algorithm, row.depth, TextTable::num(row.result.cost.mean()),
                   TextTable::num(row.result.recovery_time.mean()),
                   TextTable::num(row.result.residual_time.mean()),
                   TextTable::num(row.result.algorithm_time_ms.mean(), 3),
                   TextTable::num(row.result.recovery_actions.mean(), 2),
                   TextTable::num(row.result.monitor_calls.mean(), 2),
                   std::to_string(row.result.unrecovered)});
  }
  os << "Measured (per-fault averages over " << faults_note << " zombie injections):\n";
  table.print(os);

  TextTable paper;
  paper.set_header({"Algorithm", "Depth", "Cost", "RecoveryTime(s)", "ResidualTime(s)",
                    "AlgTime(ms)", "Actions", "MonitorCalls"});
  for (const auto& row : kPaperRows) {
    paper.add_row({row.algorithm, row.depth, TextTable::num(row.cost),
                   TextTable::num(row.recovery), TextTable::num(row.residual),
                   TextTable::num(row.algorithm_ms, 2), TextTable::num(row.actions),
                   TextTable::num(row.monitor_calls)});
  }
  os << "\nPaper Table 1 (reference, 2 GHz Athlon, 10,000 injections):\n";
  paper.print(os);
}

}  // namespace recoverd::bench
