// Model-mismatch robustness campaign: sweeps the chaos axes of
// sim/mismatch_injector.hpp over increasing severities and reports how
// gracefully each controller degrades when the world stops matching the
// POMDP it plans with. The paper's experiments (Table 1) assume a faithful
// model; this bench measures the regime a deployed recovery daemon actually
// faces.
//
// Tiers: a clean baseline, observation corruption (ε ∈ {0.02, 0.05, 0.10}),
// silent action failures (p ∈ {0.10, 0.25, 0.50}), transition jitter
// (δ ∈ {0.05, 0.15, 0.30}), and a degraded-channel tier combining
// observation drops with stuck-at monitor outages. Each tier runs the
// Most Likely, Heuristic d1, and bootstrapped Bounded d1 controllers with
// the guard runtime enabled (renormalize mismatch policy, livelock window —
// override with --guard-*).
//
// Flags:
//   --faults=N          injections per (tier, controller) cell (default 300)
//   --max-steps=N       per-episode step cap (default 300; hitting it counts
//                       the episode as truncated, reported explicitly)
//   --guard-policy=P    ignore|renormalize|reset-prior|escalate
//                       (default renormalize — the campaign's point is to
//                       measure the hardened runtime)
//   --guard-livelock-window=N  decides without bound improvement before the
//                       bounded controller escalates to aT (default 64)
//   --decide-deadline-ms, --guard-deadline-overruns  deadline ladder knobs
//   --out=FILE          write the per-tier curves as JSON
//                       (schema recoverd.robustness.v1)
//   --top, --seed, --capacity, --branch-floor, --termination-probability,
//   --bootstrap-runs, --bootstrap-depth, --jobs, --metrics-out
//                       as in the other benches
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "bounds/ra_bound.hpp"
#include "controller/bootstrap.hpp"
#include "controller/bounded_controller.hpp"
#include "controller/heuristic_controller.hpp"
#include "controller/most_likely_controller.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/table.hpp"
#include "util/obs_main.hpp"

namespace recoverd::bench {
namespace {

struct Scenario {
  std::string axis;      ///< "baseline", "obs-flip", "action-fail", ...
  double severity;       ///< the swept knob's value (0 for baseline)
  sim::MismatchOptions mismatch;
};

std::vector<Scenario> make_scenarios() {
  std::vector<Scenario> scenarios;
  scenarios.push_back({"baseline", 0.0, {}});
  for (double eps : {0.02, 0.05, 0.10}) {
    Scenario s{"obs-flip", eps, {}};
    s.mismatch.obs_flip_rate = eps;
    scenarios.push_back(s);
  }
  for (double p : {0.10, 0.25, 0.50}) {
    Scenario s{"action-fail", p, {}};
    s.mismatch.action_fail_rate = p;
    scenarios.push_back(s);
  }
  for (double delta : {0.05, 0.15, 0.30}) {
    Scenario s{"transition-jitter", delta, {}};
    s.mismatch.transition_jitter = delta;
    scenarios.push_back(s);
  }
  // Degraded channel: a third of fresh readings replaced by stale ones plus
  // occasional multi-step stuck-at outages of the whole monitor bank.
  {
    Scenario s{"degraded-channel", 0.30, {}};
    s.mismatch.obs_drop_rate = 0.30;
    s.mismatch.stuck_rate = 0.02;
    s.mismatch.stuck_steps = 8;
    scenarios.push_back(s);
  }
  return scenarios;
}

struct CellResult {
  std::string controller;
  sim::ExperimentResult result;
  std::uint64_t escalations = 0;  ///< guard escalations during the cell
};

int run(const CliArgs& args) {
  EmnExperimentSetup setup = parse_emn_setup(args);
  // Campaign-specific guard defaults: the hardened runtime is the object
  // under test, so renormalize + livelock detection are on unless the
  // caller explicitly picks something else.
  setup.guard.mismatch_policy = controller::parse_guard_policy(args.get_choice(
      "guard-policy", "renormalize",
      {"ignore", "renormalize", "reset-prior", "escalate"}));
  setup.guard.livelock_window =
      static_cast<std::size_t>(args.get_int("guard-livelock-window", 64));
  const auto faults = static_cast<std::size_t>(args.get_int("faults", 300));
  const auto max_steps = static_cast<std::size_t>(args.get_int("max-steps", 300));
  RD_EXPECTS(faults >= 1, "robustness_campaign: --faults must be >= 1");
  RD_EXPECTS(max_steps >= 1, "robustness_campaign: --max-steps must be >= 1");

  const Pomdp base = models::make_emn_base(setup.emn);
  const Pomdp recovery = models::make_emn_recovery_model(setup.emn);
  const models::EmnIds ids = models::emn_ids(base, setup.emn);
  const sim::FaultInjector injector = make_zombie_injector(base, ids);
  sim::EpisodeConfig base_config = make_emn_episode_config(base, ids);
  base_config.max_steps = max_steps;

  // One clean bootstrap; every bounded cell starts from a copy of this warm
  // set so tiers stay independent and comparable.
  bounds::BoundSet warm_set =
      bounds::make_ra_bound_set(recovery.mdp(), setup.bound_capacity);
  {
    controller::BootstrapOptions boot;
    boot.iterations = setup.bootstrap_runs;
    boot.tree_depth = setup.bootstrap_depth;
    boot.observe_action = ids.topo.observe_action;
    boot.seed = setup.seed;
    boot.branch_floor = setup.branch_floor;
    controller::bootstrap_bounds(recovery, warm_set,
                                 Belief::uniform(recovery.num_states()), boot);
    std::cerr << "bootstrap done, |B|=" << warm_set.size() << "\n";
  }

  controller::MostLikelyControllerOptions ml_opts;
  ml_opts.observe_action = ids.topo.observe_action;
  ml_opts.termination_probability = setup.termination_probability;

  controller::HeuristicControllerOptions h_opts;
  h_opts.tree_depth = 1;
  h_opts.termination_probability = setup.termination_probability;
  h_opts.branch_floor = setup.branch_floor;

  controller::BoundedControllerOptions b_opts;
  b_opts.tree_depth = 1;
  b_opts.branch_floor = setup.branch_floor;
  b_opts.memo_max_mb = setup.memo_max_mb;

  obs::Counter& escalation_counter =
      obs::metrics().counter("controller.guard.escalations");

  const std::vector<Scenario> scenarios = make_scenarios();
  std::vector<std::vector<CellResult>> cells(scenarios.size());

  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const Scenario& scenario = scenarios[i];
    sim::EpisodeConfig config = base_config;
    config.mismatch = scenario.mismatch;

    const auto run_cell = [&](const std::string& name,
                              controller::BeliefTrackingController& serial,
                              const sim::ControllerFactory& factory) {
      const std::uint64_t escalations_before = escalation_counter.value();
      serial.set_guard_options(setup.guard);
      CellResult cell;
      cell.controller = name;
      cell.result = run_campaign(base, serial, factory, injector, faults, setup.seed,
                                 config, setup.jobs);
      cell.escalations = escalation_counter.value() - escalations_before;
      cells[i].push_back(cell);
      std::cerr << scenario.axis << "@" << scenario.severity << " " << name
                << ": cost=" << cell.result.cost.mean()
                << " unrecovered=" << cell.result.unrecovered
                << " truncated=" << cell.result.truncated() << "\n";
    };

    {
      controller::MostLikelyController c(base, ml_opts);
      const sim::ControllerFactory factory = [&] {
        auto controller = std::make_unique<controller::MostLikelyController>(base, ml_opts);
        controller->set_guard_options(setup.guard);
        return controller;
      };
      run_cell("MostLikely", c, factory);
    }
    {
      controller::HeuristicController c(base, h_opts);
      const sim::ControllerFactory factory = [&] {
        auto controller = std::make_unique<controller::HeuristicController>(base, h_opts);
        controller->set_guard_options(setup.guard);
        return controller;
      };
      run_cell("Heuristic(d=1)", c, factory);
    }
    {
      bounds::BoundSet set = warm_set;  // private copy per tier
      controller::BoundedController c(recovery, set, b_opts);
      const sim::ControllerFactory factory = [&] {
        auto controller =
            controller::BoundedController::make_owning(recovery, warm_set, b_opts);
        controller->set_guard_options(setup.guard);
        return controller;
      };
      run_cell("Bounded(d=1)", c, factory);
    }
  }

  // --- text report ---
  std::cout << "=== Robustness campaign: model-mismatch severity sweep (EMN) ===\n\n"
            << "guard policy: " << controller::guard_policy_name(setup.guard.mismatch_policy)
            << ", livelock window: " << setup.guard.livelock_window
            << ", injections per cell: " << faults << ", max steps: " << max_steps
            << "\n\n";
  TextTable table;
  table.set_header({"Axis", "Severity", "Controller", "Cost", "RecoveryRate",
                    "Unrecovered", "Truncated", "Escalations"});
  std::size_t total_episodes = 0;
  std::size_t total_truncated = 0;
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    for (const CellResult& cell : cells[i]) {
      const double rate =
          1.0 - static_cast<double>(cell.result.unrecovered) /
                    static_cast<double>(cell.result.episodes);
      table.add_row({scenarios[i].axis, TextTable::num(scenarios[i].severity, 2),
                     cell.controller, TextTable::num(cell.result.cost.mean()),
                     TextTable::num(rate, 4), std::to_string(cell.result.unrecovered),
                     std::to_string(cell.result.truncated()),
                     std::to_string(cell.escalations)});
      total_episodes += cell.result.episodes;
      total_truncated += cell.result.truncated();
    }
  }
  table.print(std::cout);
  std::cout << "\nEvery episode ended in recovery, guard escalation, or counted\n"
            << "truncation: " << total_episodes << " episodes, " << total_truncated
            << " truncated, zero aborts.\n";

  // --- JSON curves ---
  if (args.has("out")) {
    obs::Json::Array scenario_rows;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      obs::Json::Array controller_rows;
      for (const CellResult& cell : cells[i]) {
        obs::Json::Object row;
        row["controller"] = cell.controller;
        row["cost_mean"] = cell.result.cost.mean();
        row["recovery_time_mean"] = cell.result.recovery_time.mean();
        row["recovery_rate"] = 1.0 - static_cast<double>(cell.result.unrecovered) /
                                         static_cast<double>(cell.result.episodes);
        row["episodes"] = static_cast<std::uint64_t>(cell.result.episodes);
        row["unrecovered"] = static_cast<std::uint64_t>(cell.result.unrecovered);
        row["truncated"] = static_cast<std::uint64_t>(cell.result.truncated());
        row["guard_escalations"] = cell.escalations;
        controller_rows.push_back(obs::Json(std::move(row)));
      }
      obs::Json::Object scenario_row;
      scenario_row["axis"] = scenarios[i].axis;
      scenario_row["severity"] = scenarios[i].severity;
      scenario_row["controllers"] = obs::Json(std::move(controller_rows));
      scenario_rows.push_back(obs::Json(std::move(scenario_row)));
    }
    obs::Json::Object doc;
    doc["schema"] = "recoverd.robustness.v1";
    doc["model"] = "emn";
    doc["faults_per_cell"] = static_cast<std::uint64_t>(faults);
    doc["max_steps"] = static_cast<std::uint64_t>(max_steps);
    doc["seed"] = setup.seed;
    doc["guard_policy"] = controller::guard_policy_name(setup.guard.mismatch_policy);
    doc["guard_livelock_window"] =
        static_cast<std::uint64_t>(setup.guard.livelock_window);
    doc["scenarios"] = obs::Json(std::move(scenario_rows));

    const std::string path = args.get_string("out", "");
    std::ofstream out(path);
    RD_EXPECTS(out.good(), "robustness_campaign: cannot open --out file " + path);
    obs::Json(std::move(doc)).write(out);
    out << "\n";
    std::cout << "\nwrote " << path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace recoverd::bench

int main(int argc, char** argv) {
  std::vector<std::string> known = {
      "out",         "faults",
      "max-steps",   "top",         "seed",
      "capacity",    "branch-floor", "termination-probability",
      "bootstrap-runs", "bootstrap-depth", "jobs", "memo-max-mb"};
  const std::vector<std::string> robustness = recoverd::bench::robustness_flag_names();
  known.insert(known.end(), robustness.begin(), robustness.end());
  return recoverd::run_obs_main(argc, argv, std::move(known),
                                [](const recoverd::CliArgs& args) {
                                  return recoverd::bench::run(args);
                                });
}
