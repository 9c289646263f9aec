// Throughput campaign for the batched decision engine (DESIGN.md §13): a
// FleetDriver of N synchronized EMN recovery sessions per tick, swept over
// fleet widths, against the looped single-session baseline.
//
// Per width the campaign measures steady-state decisions/second and per-tick
// latency (p50/p99) of FleetMode::Batch, then re-measures the same schedule
// in FleetMode::Loop (capped at --loop-sessions lanes — per-decision cost is
// width-independent there, so the smaller fleet gives the same rate without
// hour-long cells) and reports the speedup. After the width sweep a
// deep-batch section (DESIGN.md §16) measures the same fleet at
// --deep-depth with the deep pipeline on and off. The checks that gate
// all_checks_passed:
//   - parity: a Batch and a Loop fleet from the same seed stay bitwise
//     identical (belief bits, chosen actions, episode tallies) tick by
//     tick — at depth 1 and again at the deep depth;
//   - simd parity: the deep fleet re-run under --simd=scalar and the auto
//     (widest) kernels produces identical belief bits, actions and tallies;
//   - speedup ≥ 10 at every width ≥ 10000 sessions (the shared-subtree
//     reuse claim the committed BENCH_throughput.json records);
//   - deep speedup ≥ 1.5 over the classic per-class walks at 10000
//     sessions, depth ≥ 2;
//   - zero per-decide thread spawns: WorkPool threads_created must not
//     move during any measured cell (the persistent-pool contract).
//
// Flags:
//   --sessions=N     largest fleet width (default 100000; sweep keeps
//                    {1000, 10000, 100000} ∩ [1, N])
//   --ticks=N        measured ticks per cell (default 20)
//   --warmup=N       unmeasured warm-up ticks per cell (default 2 — first
//                    ticks pay engine arena + batch scratch allocation)
//   --loop-sessions=N  width cap of the Loop baseline cells (default 512)
//   --parity-sessions=N, --parity-ticks=N
//                    shape of the bitwise Batch-vs-Loop check (default 64×8)
//   --deep-depth=N   tree depth of the deep-batch cells (default 2)
//   --deep-sessions=N  width of the deep-batch cells (default 10000;
//                    independent of the --sessions sweep)
//   --deep-warmup=N  unmeasured warm-up ticks of the deep cells (default 6:
//                    the fleet's belief population needs a few ticks to
//                    reach the steady-state diversity the claim is about)
//   --deep-batch=BOOL  skip the deep section entirely when false
//   --smoke          tiny sweep {64, 256} × 5 ticks, no speedup gate (CI)
//   --out=FILE       JSON report (default BENCH_throughput.json; schema
//                    recoverd.throughput.v1)
//   --seed, --capacity, --branch-floor, --bootstrap-runs, --bootstrap-depth,
//   --memo-max-mb, --simd, --metrics-out, --trace-out, ...
//                    shared knobs (bench_common / util/obs_main.hpp)
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "bench_common.hpp"
#include "bounds/ra_bound.hpp"
#include "controller/bootstrap.hpp"
#include "obs/json.hpp"
#include "sim/fleet_driver.hpp"
#include "util/check.hpp"
#include "util/obs_main.hpp"
#include "util/shutdown.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"
#include "util/work_pool.hpp"

namespace recoverd::bench {
namespace {

struct CellResult {
  std::size_t sessions = 0;
  std::size_t ticks = 0;
  double total_ms = 0.0;
  double tick_ms_p50 = 0.0;
  double tick_ms_p99 = 0.0;
  std::size_t decisions = 0;
  std::size_t classes = 0;
  std::size_t shared_hits = 0;
  std::size_t episodes = 0;
  double decisions_per_sec = 0.0;
  // WorkPool deltas across the measured ticks only (the team is warm after
  // construction + warmup, so threads_created must stay put: the
  // zero-per-decide-spawn contract of DESIGN.md §16).
  std::size_t pool_threads_created = 0;
  std::size_t pool_dispatches = 0;
  std::size_t pool_spawns_avoided = 0;
};

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;  // interrupted cell (shutdown mid-warmup)
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const auto index = static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5);
  return sorted[std::min(index, n - 1)];
}

CellResult run_cell(const Pomdp& recovery, const Pomdp& base,
                    bounds::BoundSet& set, const sim::FaultInjector& injector,
                    std::uint64_t seed, const sim::FleetOptions& options,
                    std::size_t warmup, std::size_t ticks) {
  sim::FleetDriver fleet(recovery, base, set, injector, seed, options);
  for (std::size_t i = 0; i < warmup && !shutdown_requested(); ++i) fleet.tick();

  const sim::FleetStats before = fleet.stats();
  const util::WorkPool::Stats pool_before = util::WorkPool::instance().stats();
  std::vector<double> tick_ms;
  tick_ms.reserve(ticks);
  for (std::size_t i = 0; i < ticks && !shutdown_requested(); ++i) {
    Timer timer;
    fleet.tick();
    tick_ms.push_back(timer.elapsed_ms());
  }
  const sim::FleetStats& after = fleet.stats();
  const util::WorkPool::Stats pool_after = util::WorkPool::instance().stats();

  CellResult cell;
  cell.sessions = options.sessions;
  cell.ticks = tick_ms.size();
  for (const double ms : tick_ms) cell.total_ms += ms;
  cell.tick_ms_p50 = percentile(tick_ms, 0.5);
  cell.tick_ms_p99 = percentile(tick_ms, 0.99);
  cell.decisions = after.decisions - before.decisions;
  cell.classes = after.classes - before.classes;
  cell.shared_hits = after.shared_hits - before.shared_hits;
  cell.episodes = after.episodes_completed - before.episodes_completed;
  cell.decisions_per_sec =
      cell.total_ms > 0.0 ? 1000.0 * static_cast<double>(cell.decisions) / cell.total_ms
                          : 0.0;
  cell.pool_threads_created = pool_after.threads_created - pool_before.threads_created;
  cell.pool_dispatches = pool_after.dispatches - pool_before.dispatches;
  cell.pool_spawns_avoided = pool_after.spawns_avoided - pool_before.spawns_avoided;
  return cell;
}

obs::Json cell_json(const CellResult& cell) {
  obs::Json::Object row;
  row["sessions"] = static_cast<std::uint64_t>(cell.sessions);
  row["ticks"] = static_cast<std::uint64_t>(cell.ticks);
  row["total_ms"] = cell.total_ms;
  row["tick_ms_p50"] = cell.tick_ms_p50;
  row["tick_ms_p99"] = cell.tick_ms_p99;
  row["decisions"] = static_cast<std::uint64_t>(cell.decisions);
  row["classes"] = static_cast<std::uint64_t>(cell.classes);
  row["shared_hits"] = static_cast<std::uint64_t>(cell.shared_hits);
  row["episodes_completed"] = static_cast<std::uint64_t>(cell.episodes);
  row["decisions_per_sec"] = cell.decisions_per_sec;
  row["pool_threads_created"] = static_cast<std::uint64_t>(cell.pool_threads_created);
  row["pool_dispatches"] = static_cast<std::uint64_t>(cell.pool_dispatches);
  row["pool_spawns_avoided"] = static_cast<std::uint64_t>(cell.pool_spawns_avoided);
  return obs::Json(std::move(row));
}

/// Bitwise lock-step comparison of a Batch and a Loop fleet from one seed.
bool parity_check(const Pomdp& recovery, const Pomdp& base, bounds::BoundSet& set,
                  const sim::FaultInjector& injector, std::uint64_t seed,
                  sim::FleetOptions options, std::size_t sessions, std::size_t ticks) {
  options.sessions = sessions;
  options.mode = sim::FleetMode::Batch;
  sim::FleetDriver batch(recovery, base, set, injector, seed, options);
  options.mode = sim::FleetMode::Loop;
  sim::FleetDriver loop(recovery, base, set, injector, seed, options);

  const std::size_t num_states = recovery.num_states();
  for (std::size_t t = 0; t <= ticks; ++t) {
    if (t > 0) {
      batch.tick();
      loop.tick();
    }
    for (StateId s = 0; s < num_states; ++s) {
      const auto a = batch.beliefs().state_lanes(s);
      const auto b = loop.beliefs().state_lanes(s);
      if (std::memcmp(a.data(), b.data(), sessions * sizeof(double)) != 0) {
        std::fprintf(stderr,
                     "throughput parity: belief bits diverged (tick %zu, state %zu)\n",
                     t, static_cast<std::size_t>(s));
        return false;
      }
    }
    if (t > 0 && !std::equal(batch.last_actions().begin(), batch.last_actions().end(),
                             loop.last_actions().begin())) {
      std::fprintf(stderr, "throughput parity: actions diverged (tick %zu)\n", t);
      return false;
    }
    const sim::FleetStats& sb = batch.stats();
    const sim::FleetStats& sl = loop.stats();
    if (sb.decisions != sl.decisions ||
        sb.episodes_completed != sl.episodes_completed ||
        sb.episodes_recovered != sl.episodes_recovered ||
        sb.episodes_truncated != sl.episodes_truncated ||
        sb.belief_mismatches != sl.belief_mismatches) {
      std::fprintf(stderr, "throughput parity: episode tallies diverged (tick %zu)\n", t);
      return false;
    }
  }
  return true;
}

/// The same fleet schedule run on the scalar reference kernels and again on
/// every vector tier the host supports (AVX2, AVX-512) must produce
/// identical belief bits, actions and episode tallies: the SIMD mode is a
/// pure performance knob (util/simd.hpp). Restores the mode that was
/// active on entry.
bool simd_parity_check(const Pomdp& recovery, const Pomdp& base, bounds::BoundSet& set,
                       const sim::FaultInjector& injector, std::uint64_t seed,
                       sim::FleetOptions options, std::size_t sessions,
                       std::size_t ticks) {
  options.sessions = sessions;
  options.mode = sim::FleetMode::Batch;
  const simd::Mode saved = simd::active_mode();

  struct Trace {
    std::vector<ActionId> actions;
    std::vector<double> beliefs;
    std::size_t decisions = 0;
    std::size_t episodes = 0;
  };
  const std::size_t num_states = recovery.num_states();
  const auto run_trace = [&](const char* mode) {
    simd::configure(mode);
    sim::FleetDriver fleet(recovery, base, set, injector, seed, options);
    Trace trace;
    for (std::size_t t = 0; t < ticks && !shutdown_requested(); ++t) {
      fleet.tick();
      trace.actions.insert(trace.actions.end(), fleet.last_actions().begin(),
                           fleet.last_actions().end());
      for (StateId s = 0; s < num_states; ++s) {
        const std::span<const double> lanes = fleet.beliefs().state_lanes(s);
        trace.beliefs.insert(trace.beliefs.end(), lanes.begin(), lanes.end());
      }
    }
    trace.decisions = fleet.stats().decisions;
    trace.episodes = fleet.stats().episodes_completed;
    return trace;
  };

  std::vector<const char*> tiers;
  if (simd::cpu_supports_avx2()) tiers.push_back("avx2");
  if (simd::cpu_supports_avx512()) tiers.push_back("avx512");
  const Trace scalar = run_trace("scalar");
  bool ok = true;
  for (const char* tier : tiers) {
    const Trace vector = run_trace(tier);
    if (scalar.beliefs.size() != vector.beliefs.size() ||
        std::memcmp(scalar.beliefs.data(), vector.beliefs.data(),
                    scalar.beliefs.size() * sizeof(double)) != 0) {
      std::fprintf(stderr, "throughput simd parity (%s): belief bits diverged\n", tier);
      ok = false;
    } else if (scalar.actions != vector.actions) {
      std::fprintf(stderr, "throughput simd parity (%s): actions diverged\n", tier);
      ok = false;
    } else if (scalar.decisions != vector.decisions || scalar.episodes != vector.episodes) {
      std::fprintf(stderr, "throughput simd parity (%s): episode tallies diverged\n", tier);
      ok = false;
    }
  }
  simd::configure(simd::mode_name(saved));
  return ok;
}

int run(const CliArgs& args) {
  const EmnExperimentSetup setup = parse_emn_setup(args);
  const bool smoke = args.get_bool("smoke", false);
  // Validated parses (util/cli.hpp): zero/negative widths or tick counts
  // fail loudly instead of wrapping through the size_t casts.
  const std::size_t max_sessions = args.get_count("sessions", smoke ? 256 : 100000);
  const std::size_t ticks = args.get_count("ticks", smoke ? 5 : 20);
  const std::size_t warmup = args.get_size("warmup", 2);
  const std::size_t loop_sessions = args.get_count("loop-sessions", 512);
  const std::size_t parity_sessions = args.get_count("parity-sessions", 64);
  const std::size_t parity_ticks = args.get_count("parity-ticks", 8);

  const Pomdp base = models::make_emn_base(setup.emn);
  const Pomdp recovery = models::make_emn_recovery_model(setup.emn);
  const models::EmnIds ids = models::emn_ids(base, setup.emn);
  const sim::FaultInjector injector = make_zombie_injector(base, ids);

  // The Table 1 bounded-controller setup: RA-Bound seed + bootstrap warm-up.
  // The fleet runs with the set frozen (no online improvement), so one warm
  // set serves every cell identically.
  bounds::BoundSet set = bounds::make_ra_bound_set(recovery.mdp(), setup.bound_capacity);
  controller::BootstrapOptions boot;
  boot.iterations = setup.bootstrap_runs;
  boot.tree_depth = setup.bootstrap_depth;
  boot.observe_action = ids.topo.observe_action;
  boot.seed = setup.seed;
  boot.branch_floor = setup.branch_floor;
  Timer bootstrap_timer;
  controller::bootstrap_bounds(recovery, set, Belief::uniform(recovery.num_states()),
                               boot);
  std::fprintf(stderr, "bootstrap done in %.0f ms, |B|=%zu\n",
               bootstrap_timer.elapsed_ms(), set.size());

  sim::FleetOptions fleet_options;
  fleet_options.observe_action = ids.topo.observe_action;
  fleet_options.tree_depth = 1;
  fleet_options.branch_floor = setup.branch_floor;
  fleet_options.memo_max_mb = setup.memo_max_mb;
  fleet_options.max_steps = 10000;

  std::printf("=== Batched decision throughput (EMN fleet, depth 1) ===\n");
  std::printf("simd: %s, |B|=%zu, seed=%llu\n\n", simd::describe_active_mode().c_str(),
              set.size(), static_cast<unsigned long long>(setup.seed));

  const bool parity_ok = parity_check(recovery, base, set, injector, setup.seed,
                                      fleet_options, parity_sessions, parity_ticks);
  std::printf("batch-vs-loop parity (%zu sessions, %zu ticks): %s\n\n", parity_sessions,
              parity_ticks, parity_ok ? "bitwise identical" : "MISMATCH");

  std::vector<std::size_t> widths;
  for (std::size_t n : smoke ? std::vector<std::size_t>{64, 256}
                             : std::vector<std::size_t>{1000, 10000, 100000}) {
    if (n <= max_sessions) widths.push_back(n);
  }
  RD_EXPECTS(!widths.empty(), "throughput campaign: --sessions excludes every width");

  std::printf("%9s | %12s %11s %11s %12s %11s | %12s | %8s\n", "sessions",
              "batch_dps", "tick_p50ms", "tick_p99ms", "classes/tick", "shared/tick",
              "loop_dps", "speedup");

  obs::Json::Array rows;
  bool all_checks_passed = parity_ok;
  // The persistent-pool contract: no measured cell may create a thread
  // (the team is warm after construction + warmup; a moving
  // threads_created would mean decide() went back to spawn-per-call).
  // Only meaningful when warmup ticks exist to absorb lazy growth.
  bool zero_spawn_ok = true;
  for (const std::size_t sessions : widths) {
    if (shutdown_requested()) break;  // wind down, still flush the report
    sim::FleetOptions options = fleet_options;
    options.sessions = sessions;
    options.mode = sim::FleetMode::Batch;
    const CellResult batch =
        run_cell(recovery, base, set, injector, setup.seed, options, warmup, ticks);

    options.sessions = std::min(sessions, loop_sessions);
    options.mode = sim::FleetMode::Loop;
    const CellResult loop =
        run_cell(recovery, base, set, injector, setup.seed, options, warmup, ticks);

    const double speedup = loop.decisions_per_sec > 0.0
                               ? batch.decisions_per_sec / loop.decisions_per_sec
                               : 0.0;
    // The committed claim: ≥10x decisions/sec at fleet widths ≥ 10k, where
    // cross-session belief coincidence makes canonicalization pay.
    const bool speedup_ok = sessions < 10000 || speedup >= 10.0;
    all_checks_passed = all_checks_passed && speedup_ok;
    if (warmup > 0) {
      zero_spawn_ok = zero_spawn_ok && batch.pool_threads_created == 0 &&
                      loop.pool_threads_created == 0;
    }

    std::printf("%9zu | %12.0f %11.2f %11.2f %12.1f %11.1f | %12.0f | %7.1fx%s\n",
                sessions, batch.decisions_per_sec, batch.tick_ms_p50, batch.tick_ms_p99,
                static_cast<double>(batch.classes) / static_cast<double>(ticks),
                static_cast<double>(batch.shared_hits) / static_cast<double>(ticks),
                loop.decisions_per_sec, speedup, speedup_ok ? "" : "  (< 10x!)");

    obs::Json::Object row;
    row["sessions"] = static_cast<std::uint64_t>(sessions);
    row["batch"] = cell_json(batch);
    row["loop"] = cell_json(loop);
    row["speedup"] = speedup;
    row["speedup_ok"] = speedup_ok;
    rows.push_back(obs::Json(std::move(row)));
  }

  // --- Deep-batch pipeline cells (DESIGN.md §16) -------------------------
  // The depth-2+ frontier is where whole-tree canonicalization pays: the
  // deep pipeline expands the action×observation frontier of the entire
  // fleet level by level, deduplicating beliefs across sessions, actions
  // AND levels, and evaluates one giant leaf batch — versus the classic
  // per-class serial walks (the engine before §16). Bits are identical by
  // construction; the committed claim is >= 1.5x decisions/sec at 10000
  // sessions, depth >= 2.
  const bool deep_enabled = args.get_bool("deep-batch", true);
  const std::size_t deep_depth = args.get_count("deep-depth", 2);
  const std::size_t deep_sessions =
      args.get_count("deep-sessions", smoke ? 256 : 10000);
  const std::size_t deep_warmup = args.get_size("deep-warmup", 6);
  obs::Json::Object deep_doc;
  if (deep_enabled && !shutdown_requested()) {
    sim::FleetOptions deep_base = fleet_options;
    deep_base.tree_depth = static_cast<int>(deep_depth);

    const bool deep_parity_ok =
        parity_check(recovery, base, set, injector, setup.seed, deep_base,
                     parity_sessions, parity_ticks);
    std::printf("\ndeep batch-vs-loop parity (depth %zu, %zu sessions, %zu ticks): %s\n",
                deep_depth, parity_sessions, parity_ticks,
                deep_parity_ok ? "bitwise identical" : "MISMATCH");
    const bool deep_simd_ok =
        simd_parity_check(recovery, base, set, injector, setup.seed, deep_base,
                          parity_sessions, parity_ticks);
    std::printf("deep scalar-vs-every-tier parity (depth %zu, %zu sessions, %zu ticks): %s\n",
                deep_depth, parity_sessions, parity_ticks,
                deep_simd_ok ? "bitwise identical" : "MISMATCH");

    sim::FleetOptions deep_options = deep_base;
    deep_options.sessions = deep_sessions;
    deep_options.mode = sim::FleetMode::Batch;
    deep_options.deep_batch = true;
    const CellResult deep_on = run_cell(recovery, base, set, injector, setup.seed,
                                        deep_options, deep_warmup, ticks);
    deep_options.deep_batch = false;
    const CellResult deep_off = run_cell(recovery, base, set, injector, setup.seed,
                                         deep_options, deep_warmup, ticks);

    const double deep_speedup = deep_off.decisions_per_sec > 0.0
                                    ? deep_on.decisions_per_sec / deep_off.decisions_per_sec
                                    : 0.0;
    const bool deep_speedup_ok =
        smoke || deep_sessions < 10000 || deep_depth < 2 || deep_speedup >= 1.5;
    if (deep_warmup > 0) {
      zero_spawn_ok = zero_spawn_ok && deep_on.pool_threads_created == 0 &&
                      deep_off.pool_threads_created == 0;
    }
    all_checks_passed =
        all_checks_passed && deep_parity_ok && deep_simd_ok && deep_speedup_ok;

    std::printf("deep pipeline (depth %zu, %zu sessions): %.0f dps on, %.0f dps off, "
                "%.2fx%s\n",
                deep_depth, deep_sessions, deep_on.decisions_per_sec,
                deep_off.decisions_per_sec, deep_speedup,
                deep_speedup_ok ? "" : "  (< 1.5x!)");

    deep_doc["depth"] = static_cast<std::uint64_t>(deep_depth);
    deep_doc["sessions"] = static_cast<std::uint64_t>(deep_sessions);
    deep_doc["parity_ok"] = deep_parity_ok;
    deep_doc["simd_parity_ok"] = deep_simd_ok;
    deep_doc["on"] = cell_json(deep_on);
    deep_doc["off"] = cell_json(deep_off);
    deep_doc["speedup"] = deep_speedup;
    deep_doc["speedup_ok"] = deep_speedup_ok;
  }

  all_checks_passed = all_checks_passed && zero_spawn_ok;
  if (!zero_spawn_ok) {
    std::fprintf(stderr,
                 "throughput campaign: a measured cell created pool threads "
                 "(per-decide spawns are back)\n");
  }

  const std::string out_path = args.get_string("out", "BENCH_throughput.json");
  if (!out_path.empty()) {
    obs::Json::Object doc;
    doc["schema"] = "recoverd.throughput.v1";
    doc["note"] =
        "Batched decision engine throughput (bench/throughput_campaign). batch = "
        "FleetDriver in Batch mode: per tick one action_values_batch call with "
        "cross-session root canonicalization plus one update_batch Bayes pass; "
        "loop = the same schedule through single-session action_values/"
        "update_belief (measured at min(sessions, loop-sessions) lanes — the "
        "per-decision rate there is width-independent). decisions_per_sec counts "
        "lanes decided per wall-clock second over the measured ticks. Absolute "
        "rates are machine-dependent; the committed claims are parity_ok "
        "(Batch and Loop fleets bitwise identical tick by tick), speedup >= "
        "10 at sessions >= 10000, the deep section (depth-2 whole-frontier "
        "expansion, DESIGN.md 16) at >= 1.5x over the classic per-class "
        "walks with bitwise Batch-vs-Loop and scalar-vs-every-host-tier parity, and "
        "zero_spawn_ok (no measured cell creates a work-pool thread).";
    doc["model"] = "emn-zombie-fleet";
    doc["simd"] = simd::describe_active_mode();
    doc["bound_size"] = static_cast<std::uint64_t>(set.size());
    doc["seed"] = static_cast<std::uint64_t>(setup.seed);
    doc["ticks"] = static_cast<std::uint64_t>(ticks);
    doc["warmup"] = static_cast<std::uint64_t>(warmup);
    doc["loop_sessions_cap"] = static_cast<std::uint64_t>(loop_sessions);
    obs::Json::Object pj;
    pj["sessions"] = static_cast<std::uint64_t>(parity_sessions);
    pj["ticks"] = static_cast<std::uint64_t>(parity_ticks);
    pj["ok"] = parity_ok;
    doc["parity"] = obs::Json(std::move(pj));
    doc["rows"] = obs::Json(std::move(rows));
    if (!deep_doc.empty()) doc["deep"] = obs::Json(std::move(deep_doc));
    doc["zero_spawn_ok"] = zero_spawn_ok;
    const util::WorkPool::Stats pool = util::WorkPool::instance().stats();
    obs::Json::Object pool_doc;
    pool_doc["dispatches"] = static_cast<std::uint64_t>(pool.dispatches);
    pool_doc["tasks"] = static_cast<std::uint64_t>(pool.tasks);
    pool_doc["inline_tasks"] = static_cast<std::uint64_t>(pool.inline_tasks);
    pool_doc["spawns_avoided"] = static_cast<std::uint64_t>(pool.spawns_avoided);
    pool_doc["threads_created"] = static_cast<std::uint64_t>(pool.threads_created);
    doc["pool"] = obs::Json(std::move(pool_doc));
    doc["all_checks_passed"] = all_checks_passed;
    std::ofstream out(out_path);
    RD_EXPECTS(out.good(), "throughput campaign: cannot open --out file");
    obs::Json(std::move(doc)).write(out);
    out << "\n";
    std::printf("\nwrote %s\n", out_path.c_str());
  }

  if (!all_checks_passed) {
    std::fprintf(stderr, "throughput campaign: CORRECTNESS CHECK FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace recoverd::bench

int main(int argc, char** argv) {
  std::vector<std::string> known = {
      "sessions", "ticks",          "warmup",         "loop-sessions",
      "parity-sessions", "parity-ticks", "smoke",     "out",
      "top",      "seed",           "capacity",       "branch-floor",
      "termination-probability",    "bootstrap-runs", "bootstrap-depth",
      "jobs",     "memo-max-mb",    "deep-batch",     "deep-depth",
      "deep-sessions", "deep-warmup"};
  const std::vector<std::string> robustness = recoverd::bench::robustness_flag_names();
  known.insert(known.end(), robustness.begin(), robustness.end());
  return recoverd::run_obs_main(argc, argv, std::move(known),
                                [](const recoverd::CliArgs& args) {
                                  return recoverd::bench::run(args);
                                });
}
