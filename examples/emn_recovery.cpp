// EMN walkthrough: inject a zombie fault into the paper's 3-tier e-commerce
// system and watch the bounded controller diagnose and recover it, with a
// step-by-step trace of beliefs, chosen actions, and monitor readings.
//
// Run: ./build/examples/emn_recovery [--fault=S1|S2|HG|VG|DB] [--seed=N]
//                                    [--metrics-out=metrics.json]
//                                    [--trace-out=trace.json] [--trace-level=full]
//                                    [--provenance-out=decisions.jsonl]
//                                    [--episode-trace-out=episode.jsonl]
//                                    [--bounds-out=b.rdb] [--bounds-in=b.rdb]
//                                    [--anytime]
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>

#include "bounds/artifact.hpp"
#include "bounds/ra_bound.hpp"
#include "obs/export.hpp"
#include "controller/bootstrap.hpp"
#include "controller/bounded_controller.hpp"
#include "models/emn.hpp"
#include "pomdp/sampling.hpp"
#include "sim/environment.hpp"
#include "sim/trace.hpp"
#include "util/cli.hpp"
#include "util/obs_main.hpp"

namespace {
int run(const recoverd::CliArgs& args) {
  using namespace recoverd;
  const std::string fault_component = args.get_string("fault", "S1");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  const Pomdp base = models::make_emn_base();
  const Pomdp recovery = models::make_emn_recovery_model();
  const models::EmnIds ids = models::emn_ids(base);

  const StateId fault = base.mdp().find_state("Zombie(" + fault_component + ")");
  if (fault == kInvalidId) {
    std::cerr << "unknown component '" << fault_component << "' (use HG, VG, S1, S2, DB)\n";
    return 2;
  }

  // Bound provenance: --bounds-in warm-starts from a saved artifact
  // (skipping the Eq. 5 solve and the bootstrap entirely), --bounds-out
  // saves the warmed set for the next run. hash_mdp ties the artifact to
  // this exact recovery model — a stale file is rejected, not misused.
  const std::string bounds_in = args.get_string("bounds-in", "");
  const std::string bounds_out = args.get_string("bounds-out", "");
  const std::uint64_t model_hash = bounds::hash_mdp(recovery.mdp());

  std::optional<bounds::BoundArtifact> loaded;
  if (!bounds_in.empty()) {
    loaded.emplace(bounds::load_bound_artifact(bounds_in, model_hash));
  }
  bounds::RandomActionChain chain =
      loaded ? std::move(loaded->chain)
             : bounds::build_random_action_chain(recovery.mdp());
  bounds::BoundSet set =
      loaded ? std::move(loaded->set) : bounds::make_ra_bound_set(chain);
  if (loaded) {
    std::cout << "Warm-started bound set from '" << bounds_in
              << "': |B| = " << set.size() << " hyperplanes\n\n";
  } else {
    // Warm the bound set as the paper's controller does (§5: 10 runs, depth 2).
    controller::BootstrapOptions boot;
    boot.iterations = 10;
    boot.tree_depth = 2;
    boot.observe_action = ids.topo.observe_action;
    boot.seed = seed;
    boot.branch_floor = 1e-2;
    controller::bootstrap_bounds(recovery, set, Belief::uniform(recovery.num_states()), boot);
    std::cout << "Bootstrapped lower bound: |B| = " << set.size() << " hyperplanes\n\n";
  }
  if (!bounds_out.empty()) {
    bounds::save_bound_artifact(bounds_out, chain, set, model_hash);
    std::cout << "bound artifact written to " << bounds_out << "\n\n";
  }

  controller::BoundedControllerOptions opts;
  opts.branch_floor = 1e-2;
  opts.anytime = args.get_bool("anytime", false);
  controller::BoundedController controller(recovery, set, opts);

  sim::Environment env(base, Rng(seed));
  env.reset(fault);
  std::cout << "Injected fault: " << base.mdp().state_name(fault) << "\n\n";

  // Initial belief: all faults equally likely, refined by one monitor pass.
  std::vector<StateId> support;
  for (StateId s = 0; s < base.num_states(); ++s) {
    if (!base.mdp().is_goal(s)) support.push_back(s);
  }
  controller.begin_episode(Belief::uniform_over(recovery.num_states(), support));
  sim::EpisodeTrace trace;
  trace.set_injected_fault(fault);
  {
    const auto step = env.step(ids.topo.observe_action);
    controller.record(ids.topo.observe_action, step.obs);
    std::cout << "initial monitors -> " << base.observation_name(step.obs) << "\n";
    trace.add_step({0, fault, ids.topo.observe_action, step.next_state, step.obs,
                    step.reward, env.elapsed_time(), 0.0, controller.belief().entropy()});
  }

  auto print_belief = [&](const Belief& b) {
    std::cout << "  belief:";
    for (StateId s = 0; s < recovery.num_states(); ++s) {
      if (b[s] > 0.02) {
        std::cout << ' ' << recovery.mdp().state_name(s) << '='
                  << std::fixed << std::setprecision(3) << b[s];
      }
    }
    std::cout << '\n';
  };

  for (int step_no = 1; step_no <= 60; ++step_no) {
    print_belief(controller.belief());
    const controller::Decision decision = controller.decide();
    if (decision.terminate) {
      std::cout << "step " << step_no << ": controller terminates recovery\n";
      trace.set_terminated(true);
      break;
    }
    const double goal_prob =
        recovery.mdp().goal_probability(controller.belief().probabilities());
    const double entropy = controller.belief().entropy();
    const StateId before = env.true_state();
    const auto step = env.step(decision.action);
    controller.record(decision.action, step.obs);
    trace.add_step({0, before, decision.action, step.next_state, step.obs, step.reward,
                    env.elapsed_time(), goal_prob, entropy});
    std::cout << "step " << step_no << ": "
              << recovery.mdp().action_name(decision.action) << " ("
              << step.duration << " s) -> state " << base.mdp().state_name(step.next_state)
              << ", monitors " << base.observation_name(step.obs) << "\n";
  }

  std::cout << "\nSummary: recovered=" << (env.recovered() ? "yes" : "NO")
            << ", cost=" << env.accumulated_cost()
            << " request-seconds, elapsed=" << env.elapsed_time() << " s, residual="
            << env.recovery_entered_time() << " s\n";
  const std::string trace_path = args.get_string("episode-trace-out", "");
  if (!trace_path.empty()) {
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot open episode trace file '" << trace_path << "'\n";
      return 2;
    }
    trace.write_jsonl(out);
    std::cout << "episode trace written to " << trace_path << "\n";
  }
  return env.recovered() ? 0 : 1;
}
}  // namespace

int main(int argc, char** argv) {
  return recoverd::run_obs_main(argc, argv,
                                {"fault", "seed", "episode-trace-out", "bounds-in",
                                 "bounds-out", "anytime"},
                                run);
}
