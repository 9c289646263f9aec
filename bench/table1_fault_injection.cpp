// Reproduces Table 1: per-fault recovery metrics of six controllers on the
// EMN model under uniform zombie-fault injection.
//
// Flags:
//   --faults=N       injections for Most Likely / Heuristic d1 / Bounded /
//                    Oracle (default 2000; the paper ran 10000 — pass
//                    --faults=10000 to match, at ~5x the runtime)
//   --faults-d2=N    injections for Heuristic depth 2 (default 400)
//   --faults-d3=N    injections for Heuristic depth 3 (default 60 — the
//                    depth-3 tree is ~100x costlier per decision; raise for
//                    tighter confidence intervals)
//   --top=SECONDS    operator response time (default 21600 = 6 h)
//   --jobs=N         worker threads for the episode runner (default 1 =
//                    serial, the paper's accumulating-controller setup; the
//                    Oracle row is always serial)
//   --seed, --capacity, --branch-floor, --termination-probability,
//   --bootstrap-runs, --bootstrap-depth  (see bench_common)
//   --mismatch-*, --guard-policy, --decide-deadline-ms, --guard-*
//                    chaos axes and guard runtime (default off — clean
//                    campaigns are byte-identical to pre-chaos builds; see
//                    bench/robustness_campaign.cpp for the severity sweep)
#include <iostream>

#include "bench_common.hpp"
#include "obs/export.hpp"
#include "bounds/ra_bound.hpp"
#include "controller/bootstrap.hpp"
#include "controller/bounded_controller.hpp"
#include "controller/heuristic_controller.hpp"
#include "controller/most_likely_controller.hpp"
#include "controller/oracle_controller.hpp"
#include "util/timer.hpp"
#include "util/obs_main.hpp"

namespace recoverd::bench {
namespace {

int run(const CliArgs& args) {
  const EmnExperimentSetup setup = parse_emn_setup(args);
  const auto faults = static_cast<std::size_t>(args.get_int("faults", 2000));
  const auto faults_d2 = static_cast<std::size_t>(args.get_int("faults-d2", 400));
  const auto faults_d3 = static_cast<std::size_t>(args.get_int("faults-d3", 60));

  const Pomdp base = models::make_emn_base(setup.emn);
  const Pomdp recovery = models::make_emn_recovery_model(setup.emn);
  const models::EmnIds ids = models::emn_ids(base, setup.emn);
  const sim::FaultInjector injector = make_zombie_injector(base, ids);
  sim::EpisodeConfig config = make_emn_episode_config(base, ids);
  config.mismatch = setup.mismatch;

  std::vector<TableRow> rows;

  // --- Most Likely ---
  {
    controller::MostLikelyControllerOptions opts;
    opts.observe_action = ids.topo.observe_action;
    opts.termination_probability = setup.termination_probability;
    controller::MostLikelyController c(base, opts);
    c.set_guard_options(setup.guard);
    const sim::ControllerFactory factory = [&base, opts, &setup] {
      auto controller = std::make_unique<controller::MostLikelyController>(base, opts);
      controller->set_guard_options(setup.guard);
      return controller;
    };
    rows.push_back({"Most Likely", "1",
                    run_campaign(base, c, factory, injector, faults, setup.seed, config,
                                 setup.jobs)});
    std::cerr << "most-likely done\n";
  }

  // --- Heuristic depths 1..3 ---
  const std::size_t heuristic_faults[3] = {faults, faults_d2, faults_d3};
  for (int depth = 1; depth <= 3; ++depth) {
    controller::HeuristicControllerOptions opts;
    opts.tree_depth = depth;
    opts.termination_probability = setup.termination_probability;
    opts.branch_floor = setup.branch_floor;
    controller::HeuristicController c(base, opts);
    c.set_guard_options(setup.guard);
    const sim::ControllerFactory factory = [&base, opts, &setup] {
      auto controller = std::make_unique<controller::HeuristicController>(base, opts);
      controller->set_guard_options(setup.guard);
      return controller;
    };
    const std::size_t n = heuristic_faults[depth - 1];
    rows.push_back({"Heuristic", std::to_string(depth),
                    run_campaign(base, c, factory, injector, n, setup.seed, config,
                                 setup.jobs)});
    std::cerr << "heuristic d" << depth << " done\n";
  }

  // --- Bounded (depth 1, bootstrapped per §5) ---
  {
    bounds::BoundSet set = bounds::make_ra_bound_set(recovery.mdp(), setup.bound_capacity);
    controller::BootstrapOptions boot;
    boot.iterations = setup.bootstrap_runs;
    boot.tree_depth = setup.bootstrap_depth;
    boot.observe_action = ids.topo.observe_action;
    boot.seed = setup.seed;
    boot.branch_floor = setup.branch_floor;
    const Belief reference = Belief::uniform(recovery.num_states());
    Timer bootstrap_timer;
    controller::bootstrap_bounds(recovery, set, reference, boot);
    std::cerr << "bootstrap done in " << bootstrap_timer.elapsed_ms() << " ms, |B|="
              << set.size() << "\n";

    controller::BoundedControllerOptions opts;
    opts.tree_depth = 1;
    opts.branch_floor = setup.branch_floor;
    opts.memo_max_mb = setup.memo_max_mb;
    controller::BoundedController c(recovery, set, opts);
    c.set_guard_options(setup.guard);
    // Parallel episodes each start from a private copy of the warm
    // bootstrapped set (snapshotted here, before the serial run mutates it).
    const sim::ControllerFactory factory = [&recovery, set, opts, &setup] {
      auto controller = controller::BoundedController::make_owning(recovery, set, opts);
      controller->set_guard_options(setup.guard);
      return controller;
    };
    rows.push_back({"Bounded", "1",
                    run_campaign(base, c, factory, injector, faults, setup.seed, config,
                                 setup.jobs)});
    std::cerr << "bounded done, final |B|=" << set.size() << "\n";
  }

  // --- Oracle ---
  {
    sim::EpisodeConfig oracle_config = config;
    oracle_config.initial_observation = false;
    // run_experiment constructs a fresh Environment per episode, so the
    // oracle reads the true state through an indirection the harness owns.
    // Simplest faithful wiring: run episodes manually.
    sim::ExperimentResult result;
    Rng master(setup.seed);
    for (std::size_t i = 0; i < faults; ++i) {
      Rng episode_rng = master.split();
      sim::Environment env(base, episode_rng.split());
      controller::OracleController oracle(base, [&env] { return env.true_state(); });
      const StateId fault = injector.sample(episode_rng);
      result.add(run_episode(env, oracle, fault, oracle_config));
    }
    rows.push_back({"Oracle", "-", result});
  }

  std::cout << "=== Table 1: Fault Injection Results (EMN model) ===\n\n";
  print_table1(std::cout, rows, faults);
  std::cout << "\nNotes: heuristic depth 2 used " << faults_d2 << " injections, depth 3 "
            << faults_d3 << " (adjust with --faults-d2/--faults-d3). Absolute\n"
            << "algorithm times are machine-dependent; the paper's claims are the\n"
            << "orderings: bounded cost < heuristic cost at every depth, bounded\n"
            << "decision time < heuristic depth-2 time, and no controller ever\n"
            << "quits without recovering the system (Unrecovered column).\n";
  return 0;
}

}  // namespace
}  // namespace recoverd::bench

int main(int argc, char** argv) {
  std::vector<std::string> known = {
      "faults", "faults-d2", "faults-d3", "top", "seed", "capacity",
      "branch-floor", "termination-probability", "bootstrap-runs",
      "bootstrap-depth", "jobs", "memo-max-mb"};
  const std::vector<std::string> robustness = recoverd::bench::robustness_flag_names();
  known.insert(known.end(), robustness.begin(), robustness.end());
  return recoverd::run_obs_main(argc, argv, std::move(known),
                                [](const recoverd::CliArgs& args) {
                                  return recoverd::bench::run(args);
                                });
}
