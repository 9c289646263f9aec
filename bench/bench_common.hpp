// Shared setup for the experiment benches: the §5 EMN configuration, the
// controller roster of Table 1, and table/CSV output helpers.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "controller/guard.hpp"
#include "models/emn.hpp"
#include "sim/experiment.hpp"
#include "sim/mismatch_injector.hpp"
#include "util/cli.hpp"

namespace recoverd::bench {

/// Experiment-wide parameters shared by the Fig. 5 / Table 1 benches,
/// parsed from --flags with the paper's §5 values as defaults.
struct EmnExperimentSetup {
  models::EmnConfig emn;
  std::uint64_t seed = 2006;
  std::size_t bound_capacity = 64;  ///< finite storage per §4.3 (0 = unlimited)
  double branch_floor = 1e-2;      ///< tree pruning for the 128-observation model
  double termination_probability = 0.9999;
  std::size_t bootstrap_runs = 10;
  int bootstrap_depth = 2;
  std::size_t jobs = 1;  ///< worker threads for the episode runner (--jobs)
  std::size_t memo_max_mb = 64;  ///< expansion cache cap (--memo-max-mb)
  /// Chaos axes (--mismatch-*) and guard runtime (--guard-*,
  /// --decide-deadline-ms); all default off, keeping clean campaigns exact.
  sim::MismatchOptions mismatch;
  controller::GuardOptions guard;
};

/// Parses the common flags (--top, --seed, --capacity, --branch-floor,
/// --termination-probability, --bootstrap-runs, --bootstrap-depth, --jobs,
/// --memo-max-mb) plus the chaos/guard flags (see
/// parse_mismatch_options / parse_guard_options).
EmnExperimentSetup parse_emn_setup(const CliArgs& args);

/// The chaos/guard flag keys, for require_known() lists.
std::vector<std::string> robustness_flag_names();

/// Runs a fault-injection campaign with `jobs` workers. jobs == 1 drives
/// `serial_controller` through the serial runner — the paper's
/// configuration, where one long-lived controller carries its online bound
/// improvements across episodes. jobs > 1 switches to the parallel runner:
/// fresh per-episode controllers from `factory` on pre-derived RNG streams,
/// whose aggregates are identical for every worker count (see DESIGN.md §8)
/// though not to the accumulating serial configuration.
sim::ExperimentResult run_campaign(const Pomdp& env_model,
                                   controller::RecoveryController& serial_controller,
                                   const sim::ControllerFactory& factory,
                                   const sim::FaultInjector& injector,
                                   std::size_t episodes, std::uint64_t seed,
                                   const sim::EpisodeConfig& config, std::size_t jobs);

/// The §5 fault-injection campaign: zombie faults only, uniform.
sim::FaultInjector make_zombie_injector(const Pomdp& base_model,
                                        const models::EmnIds& ids);

/// Episode configuration: the 13-fault uniform initial belief, initial
/// monitor reading, observe action.
sim::EpisodeConfig make_emn_episode_config(const Pomdp& base_model,
                                           const models::EmnIds& ids);

/// One row of Table 1-style output.
struct TableRow {
  std::string algorithm;
  std::string depth;
  sim::ExperimentResult result;
};

/// Prints measured rows next to the paper's published values.
void print_table1(std::ostream& os, const std::vector<TableRow>& rows,
                  std::size_t faults_note);

}  // namespace recoverd::bench
