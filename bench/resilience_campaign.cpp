// Resilience campaign for the fault-tolerant fleet runtime (DESIGN.md §14):
// a guarded FleetDriver of N EMN recovery sessions driven through every
// infra-chaos axis, the overload-shedding path, and the crash-safety
// (checkpoint/restore) corruption matrix. Committed as BENCH_resilience.json.
//
// Cells (all at --sessions width, guard ladder enabled):
//   clean       no chaos — the byte-identical-to-unguarded baseline;
//   stall       injected decide stalls at --chaos-rate. The guard isolates a
//               stalled session down its ladder alone, so the stall never
//               materialises as wall-clock — the committed gate is that the
//               fleet still serves >= 0.8x the clean actions/second;
//   obs-corrupt corrupted observation ids at --chaos-rate (half in-alphabet,
//               half out-of-range — the latter must be detected + rejected);
//   poison      belief poisoning (NaN/denormal) at --chaos-rate — the hygiene
//               scan must quarantine poisoned lanes to the episode prior;
//   all-axes    the three axes together (optionally checkpointing every
//               --checkpoint-every ticks when --checkpoint is given);
//   overload    clean fleet under a deterministic per-tick admission quota
//               (--tick-budget-decisions, default sessions/2) — excess solve
//               intents must shed to ladder fallbacks, never over the quota.
//
// Gates folded into all_checks_passed:
//   - every chaos cell completes with zero aborted ticks, and each axis's
//     injection/repair counters actually moved (the chaos was real);
//   - a tiny *unguarded* poison fleet aborts (motivation: without the guard
//     one NaN lane takes down the whole batched Bayes update);
//   - stall-axis served/sec >= 0.8 x clean served/sec;
//   - overload: fresh decisions never exceed quota x ticks, and shedding
//     engaged;
//   - Batch == Loop stay bitwise identical with guards + all chaos axes + a
//     deterministic budget enabled (the §14 parity contract);
//   - checkpoint round trip: save mid-run, resume in a fresh driver, bitwise
//     equal to the uninterrupted run (beliefs, actions, ladder, tallies);
//   - checkpoint corruption matrix: truncation, bit flips, foreign magic,
//     unknown version, and an options mismatch are all rejected with
//     actionable errors, never partially applied.
//
// Flags:
//   --sessions=N       fleet width per cell (default 10000; --smoke: 256)
//   --ticks=N          measured ticks per cell (default 20; --smoke: 5)
//   --warmup=N         unmeasured warm-up ticks per cell (default 2)
//   --chaos-rate=P     per-axis event rate (default 0.3)
//   --checkpoint=FILE  also keep a checkpoint of the all-axes cell at FILE
//   --checkpoint-every=N  save cadence (ticks) of the all-axes cell when
//                      --checkpoint is given (default 10)
//   --parity-sessions=N, --parity-ticks=N   shape of the bitwise check
//   --smoke            tiny cells for CI
//   --out=FILE         JSON report (default BENCH_resilience.json; schema
//                      recoverd.resilience.v1)
//   plus the shared setup, --fleet-*/--tick-budget-*/--chaos-stall-ms, and
//   observability flags (bench_common / util/obs_main.hpp). SIGINT/SIGTERM
//   wind the campaign down between ticks and still write the (partial,
//   failed-gates) report.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "bounds/ra_bound.hpp"
#include "controller/bootstrap.hpp"
#include "obs/json.hpp"
#include "sim/checkpoint.hpp"
#include "sim/fleet_driver.hpp"
#include "util/check.hpp"
#include "util/obs_main.hpp"
#include "util/shutdown.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace recoverd::bench {
namespace {

struct AxisSpec {
  const char* name;
  double stall_rate = 0.0;
  double obs_corrupt_rate = 0.0;
  double poison_rate = 0.0;
};

struct CellResult {
  std::string axis;
  std::size_t sessions = 0;
  std::size_t ticks = 0;       // ticks actually measured (shutdown may cut short)
  bool aborted = false;        // a tick threw — the fleet did NOT survive
  std::string abort_error;
  double total_ms = 0.0;
  double tick_ms_p50 = 0.0;
  double tick_ms_p99 = 0.0;
  sim::FleetStats delta;       // counters over the measured ticks
  std::size_t served = 0;      // lanes handed an action: fresh + fallbacks
  double served_per_sec = 0.0;
};

sim::FleetStats stats_delta(const sim::FleetStats& after,
                            const sim::FleetStats& before) {
  sim::FleetStats d;
  d.ticks = after.ticks - before.ticks;
  d.decisions = after.decisions - before.decisions;
  d.classes = after.classes - before.classes;
  d.shared_hits = after.shared_hits - before.shared_hits;
  d.episodes_completed = after.episodes_completed - before.episodes_completed;
  d.episodes_recovered = after.episodes_recovered - before.episodes_recovered;
  d.episodes_truncated = after.episodes_truncated - before.episodes_truncated;
  d.belief_mismatches = after.belief_mismatches - before.belief_mismatches;
  d.degraded_decides = after.degraded_decides - before.degraded_decides;
  d.reduced_decides = after.reduced_decides - before.reduced_decides;
  d.cached_fallbacks = after.cached_fallbacks - before.cached_fallbacks;
  d.heuristic_fallbacks = after.heuristic_fallbacks - before.heuristic_fallbacks;
  d.shed = after.shed - before.shed;
  d.stalls_injected = after.stalls_injected - before.stalls_injected;
  d.poisons_injected = after.poisons_injected - before.poisons_injected;
  d.beliefs_repaired = after.beliefs_repaired - before.beliefs_repaired;
  d.obs_corrupted = after.obs_corrupted - before.obs_corrupted;
  d.obs_invalid_rejected = after.obs_invalid_rejected - before.obs_invalid_rejected;
  d.livelock_respawns = after.livelock_respawns - before.livelock_respawns;
  d.ladder_demotions = after.ladder_demotions - before.ladder_demotions;
  d.ladder_promotions = after.ladder_promotions - before.ladder_promotions;
  return d;
}

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const auto index = static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5);
  return sorted[std::min(index, n - 1)];
}

/// Runs one fleet cell: warmup, then `ticks` measured ticks (polling the
/// shutdown flag between ticks). A throwing tick marks the cell aborted —
/// the survival gates require that never to happen with the guard on.
CellResult run_cell(const std::string& axis, const Pomdp& recovery,
                    const Pomdp& base, bounds::BoundSet& set,
                    const sim::FaultInjector& injector, std::uint64_t seed,
                    const sim::FleetOptions& options, std::size_t warmup,
                    std::size_t ticks, const std::string& checkpoint_path = "",
                    std::size_t checkpoint_every = 0) {
  CellResult cell;
  cell.axis = axis;
  cell.sessions = options.sessions;
  std::vector<double> tick_ms;
  tick_ms.reserve(ticks);
  try {
    sim::FleetDriver fleet(recovery, base, set, injector, seed, options);
    for (std::size_t i = 0; i < warmup && !shutdown_requested(); ++i) fleet.tick();
    const sim::FleetStats before = fleet.stats();
    for (std::size_t i = 0; i < ticks; ++i) {
      if (shutdown_requested()) break;
      Timer timer;
      fleet.tick();
      tick_ms.push_back(timer.elapsed_ms());
      if (checkpoint_every > 0 && !checkpoint_path.empty() &&
          (i + 1) % checkpoint_every == 0) {
        fleet.save_checkpoint(checkpoint_path);
      }
    }
    cell.delta = stats_delta(fleet.stats(), before);
  } catch (const std::exception& error) {
    cell.aborted = true;
    cell.abort_error = error.what();
  }
  cell.ticks = tick_ms.size();
  for (const double ms : tick_ms) cell.total_ms += ms;
  cell.tick_ms_p50 = percentile(tick_ms, 0.5);
  cell.tick_ms_p99 = percentile(tick_ms, 0.99);
  cell.served = cell.delta.decisions + cell.delta.cached_fallbacks +
                cell.delta.heuristic_fallbacks;
  cell.served_per_sec =
      cell.total_ms > 0.0
          ? 1000.0 * static_cast<double>(cell.served) / cell.total_ms
          : 0.0;
  return cell;
}

obs::Json cell_json(const CellResult& cell) {
  obs::Json::Object row;
  row["axis"] = cell.axis;
  row["sessions"] = static_cast<std::uint64_t>(cell.sessions);
  row["ticks"] = static_cast<std::uint64_t>(cell.ticks);
  row["aborted"] = cell.aborted;
  if (cell.aborted) row["abort_error"] = cell.abort_error;
  row["total_ms"] = cell.total_ms;
  row["tick_ms_p50"] = cell.tick_ms_p50;
  row["tick_ms_p99"] = cell.tick_ms_p99;
  row["served"] = static_cast<std::uint64_t>(cell.served);
  row["served_per_sec"] = cell.served_per_sec;
  const sim::FleetStats& d = cell.delta;
  row["decisions"] = static_cast<std::uint64_t>(d.decisions);
  row["degraded_decides"] = static_cast<std::uint64_t>(d.degraded_decides);
  row["reduced_decides"] = static_cast<std::uint64_t>(d.reduced_decides);
  row["cached_fallbacks"] = static_cast<std::uint64_t>(d.cached_fallbacks);
  row["heuristic_fallbacks"] = static_cast<std::uint64_t>(d.heuristic_fallbacks);
  row["shed"] = static_cast<std::uint64_t>(d.shed);
  row["stalls_injected"] = static_cast<std::uint64_t>(d.stalls_injected);
  row["poisons_injected"] = static_cast<std::uint64_t>(d.poisons_injected);
  row["beliefs_repaired"] = static_cast<std::uint64_t>(d.beliefs_repaired);
  row["obs_corrupted"] = static_cast<std::uint64_t>(d.obs_corrupted);
  row["obs_invalid_rejected"] = static_cast<std::uint64_t>(d.obs_invalid_rejected);
  row["livelock_respawns"] = static_cast<std::uint64_t>(d.livelock_respawns);
  row["ladder_demotions"] = static_cast<std::uint64_t>(d.ladder_demotions);
  row["ladder_promotions"] = static_cast<std::uint64_t>(d.ladder_promotions);
  row["episodes_completed"] = static_cast<std::uint64_t>(d.episodes_completed);
  row["belief_mismatches"] = static_cast<std::uint64_t>(d.belief_mismatches);
  return obs::Json(std::move(row));
}

bool stats_equal_modulo_work(const sim::FleetStats& a, const sim::FleetStats& b) {
  // classes/shared_hits are Batch-mode work accounting — everything else is
  // under the bitwise contract.
  return a.ticks == b.ticks && a.decisions == b.decisions &&
         a.episodes_completed == b.episodes_completed &&
         a.episodes_recovered == b.episodes_recovered &&
         a.episodes_truncated == b.episodes_truncated &&
         a.belief_mismatches == b.belief_mismatches &&
         a.degraded_decides == b.degraded_decides &&
         a.reduced_decides == b.reduced_decides &&
         a.cached_fallbacks == b.cached_fallbacks &&
         a.heuristic_fallbacks == b.heuristic_fallbacks && a.shed == b.shed &&
         a.stalls_injected == b.stalls_injected &&
         a.poisons_injected == b.poisons_injected &&
         a.beliefs_repaired == b.beliefs_repaired &&
         a.obs_corrupted == b.obs_corrupted &&
         a.obs_invalid_rejected == b.obs_invalid_rejected &&
         a.livelock_respawns == b.livelock_respawns &&
         a.ladder_demotions == b.ladder_demotions &&
         a.ladder_promotions == b.ladder_promotions;
}

bool fleets_bitwise_equal(const sim::FleetDriver& a, const sim::FleetDriver& b,
                          std::size_t num_states, const char* label) {
  const std::size_t sessions = a.sessions();
  for (StateId s = 0; s < num_states; ++s) {
    const auto la = a.beliefs().state_lanes(s);
    const auto lb = b.beliefs().state_lanes(s);
    if (std::memcmp(la.data(), lb.data(), sessions * sizeof(double)) != 0) {
      std::fprintf(stderr, "resilience %s: belief bits diverged (state %zu)\n",
                   label, static_cast<std::size_t>(s));
      return false;
    }
  }
  if (!std::equal(a.last_actions().begin(), a.last_actions().end(),
                  b.last_actions().begin())) {
    std::fprintf(stderr, "resilience %s: actions diverged\n", label);
    return false;
  }
  if (!std::equal(a.ladder_stages().begin(), a.ladder_stages().end(),
                  b.ladder_stages().begin())) {
    std::fprintf(stderr, "resilience %s: ladder stages diverged\n", label);
    return false;
  }
  if (!stats_equal_modulo_work(a.stats(), b.stats())) {
    std::fprintf(stderr, "resilience %s: tallies diverged\n", label);
    return false;
  }
  return true;
}

/// Batch vs Loop lock-step under guards + every chaos axis + a deterministic
/// admission quota — the §14 extension of the throughput parity contract.
bool parity_check(const Pomdp& recovery, const Pomdp& base, bounds::BoundSet& set,
                  const sim::FaultInjector& injector, std::uint64_t seed,
                  sim::FleetOptions options, std::size_t sessions,
                  std::size_t ticks) {
  options.sessions = sessions;
  options.tick_budget_decisions = std::max<std::size_t>(1, sessions / 2);
  options.mode = sim::FleetMode::Batch;
  sim::FleetDriver batch(recovery, base, set, injector, seed, options);
  options.mode = sim::FleetMode::Loop;
  sim::FleetDriver loop(recovery, base, set, injector, seed, options);
  for (std::size_t t = 0; t < ticks; ++t) {
    batch.tick();
    loop.tick();
    if (!fleets_bitwise_equal(batch, loop, recovery.num_states(), "parity")) {
      std::fprintf(stderr, "resilience parity: diverged at tick %zu\n", t + 1);
      return false;
    }
  }
  return true;
}

/// Checkpoint round trip: run, save mid-stream, keep running to the
/// reference state; a fresh driver restores the file and must land on the
/// exact same bits after the same remaining ticks.
bool checkpoint_roundtrip_check(const Pomdp& recovery, const Pomdp& base,
                                bounds::BoundSet& set,
                                const sim::FaultInjector& injector,
                                std::uint64_t seed,
                                const sim::FleetOptions& options,
                                const std::string& path) {
  sim::FleetDriver reference(recovery, base, set, injector, seed, options);
  for (int t = 0; t < 3; ++t) reference.tick();
  reference.save_checkpoint(path);
  for (int t = 0; t < 5; ++t) reference.tick();

  sim::FleetDriver resumed(recovery, base, set, injector, seed, options);
  resumed.restore_checkpoint(path);
  for (int t = 0; t < 5; ++t) resumed.tick();
  return fleets_bitwise_equal(reference, resumed, recovery.num_states(),
                              "checkpoint round trip");
}

struct CorruptionCase {
  std::string name;
  bool rejected = false;
  bool state_intact = false;  // driver still bitwise equal to its twin after
  std::string error;
};

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  RD_EXPECTS(in.good(), "resilience campaign: cannot reread checkpoint");
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  RD_EXPECTS(out.good(), "resilience campaign: cannot write corrupted variant");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The infra-chaos checkpoint axis: every corrupted variant of a valid file
/// must be rejected with an actionable error, and a rejected restore must
/// leave the driver able to keep ticking in lock-step with an untouched twin.
std::vector<CorruptionCase> checkpoint_corruption_check(
    const Pomdp& recovery, const Pomdp& base, bounds::BoundSet& set,
    const sim::FaultInjector& injector, std::uint64_t seed,
    const sim::FleetOptions& options, const std::string& path) {
  const std::string bytes = read_file_bytes(path);
  const std::string variant_path = path + ".corrupt";

  std::vector<std::pair<std::string, std::string>> variants;
  variants.emplace_back("truncated", bytes.substr(0, bytes.size() / 2));
  std::string flipped = bytes;
  flipped[flipped.size() / 2] = static_cast<char>(flipped[flipped.size() / 2] ^ 0x20);
  variants.emplace_back("bit flip", std::move(flipped));
  std::string foreign = bytes;
  foreign[0] = static_cast<char>(foreign[0] ^ 0xff);
  variants.emplace_back("foreign magic", std::move(foreign));
  std::string future = bytes;
  future[8] = 0x7f;  // version field — must be rejected before the CRC check
  variants.emplace_back("unknown version", std::move(future));

  std::vector<CorruptionCase> cases;
  for (auto& [name, variant_bytes] : variants) {
    CorruptionCase c;
    c.name = name;
    write_file_bytes(variant_path, variant_bytes);
    sim::FleetDriver victim(recovery, base, set, injector, seed, options);
    sim::FleetDriver twin(recovery, base, set, injector, seed, options);
    try {
      victim.restore_checkpoint(variant_path);
    } catch (const ModelError& error) {
      c.rejected = true;
      c.error = error.what();
    }
    // A rejected restore must be a no-op: the victim keeps ticking bitwise
    // in step with the twin that never saw the file.
    victim.tick();
    twin.tick();
    c.state_intact = fleets_bitwise_equal(victim, twin, recovery.num_states(),
                                          ("corruption " + name).c_str());
    cases.push_back(std::move(c));
  }

  // Options drift: the same (valid) file into a fleet whose decision-relevant
  // options changed must be rejected by the options hash.
  {
    CorruptionCase c;
    c.name = "options mismatch";
    sim::FleetOptions other = options;
    other.tree_depth = options.tree_depth + 1;
    sim::FleetDriver victim(recovery, base, set, injector, seed, other);
    sim::FleetDriver twin(recovery, base, set, injector, seed, other);
    try {
      victim.restore_checkpoint(path);
    } catch (const ModelError& error) {
      c.rejected = true;
      c.error = error.what();
    }
    victim.tick();
    twin.tick();
    c.state_intact = fleets_bitwise_equal(victim, twin, recovery.num_states(),
                                          "corruption options mismatch");
    cases.push_back(std::move(c));
  }
  std::remove(variant_path.c_str());
  return cases;
}

int run(const CliArgs& args) {
  const EmnExperimentSetup setup = parse_emn_setup(args);
  const bool smoke = args.get_bool("smoke", false);
  const std::size_t sessions = args.get_count("sessions", smoke ? 256 : 10000);
  const std::size_t ticks = args.get_count("ticks", smoke ? 5 : 20);
  const std::size_t warmup = args.get_size("warmup", 2);
  const double chaos_rate = args.get_double("chaos-rate", 0.3);
  RD_EXPECTS(chaos_rate >= 0.0 && chaos_rate <= 1.0,
             "resilience campaign: --chaos-rate must be in [0, 1]");
  const std::size_t parity_sessions = args.get_count("parity-sessions", 64);
  const std::size_t parity_ticks = args.get_count("parity-ticks", 8);
  const std::string keep_checkpoint = args.get_string("checkpoint", "");
  const std::size_t checkpoint_every =
      keep_checkpoint.empty() ? 0 : args.get_count("checkpoint-every", 10);

  const Pomdp base = models::make_emn_base(setup.emn);
  const Pomdp recovery = models::make_emn_recovery_model(setup.emn);
  const models::EmnIds ids = models::emn_ids(base, setup.emn);
  const sim::FaultInjector injector = make_zombie_injector(base, ids);

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

  // The guarded fleet configuration every cell shares. The guard ladder is
  // the campaign's subject, so it defaults ON here (--fleet-guard=0 reverts);
  // chaos rates and budgets are set per cell below.
  sim::FleetOptions fleet_options;
  fleet_options.observe_action = ids.topo.observe_action;
  fleet_options.tree_depth = 1;
  fleet_options.branch_floor = setup.branch_floor;
  fleet_options.memo_max_mb = setup.memo_max_mb;
  fleet_options.max_steps = 10000;
  fleet_options.guard.enabled = true;
  apply_fleet_resilience_flags(args, fleet_options);
  const double stall_ms = fleet_options.chaos.stall_ms;
  const std::size_t quota =
      fleet_options.tick_budget_decisions > 0 ? fleet_options.tick_budget_decisions
                                              : std::max<std::size_t>(1, sessions / 2);
  fleet_options.tick_budget_decisions = 0;  // axis cells run unthrottled
  fleet_options.tick_budget_ms = 0.0;
  fleet_options.chaos = sim::ChaosOptions{};

  std::printf("=== Fleet resilience campaign (EMN fleet, depth %d, guard %s) ===\n",
              fleet_options.tree_depth, fleet_options.guard.enabled ? "on" : "off");
  std::printf("simd: %s, |B|=%zu, seed=%llu, chaos rate %.2f\n\n",
              simd::describe_active_mode().c_str(), set.size(),
              static_cast<unsigned long long>(setup.seed), chaos_rate);

  // --- §14 parity contract under full resilience -------------------------
  sim::FleetOptions parity_options = fleet_options;
  parity_options.chaos.stall_rate = chaos_rate;
  parity_options.chaos.stall_ms = stall_ms;
  parity_options.chaos.obs_corrupt_rate = chaos_rate;
  parity_options.chaos.poison_rate = chaos_rate;
  const bool parity_ok =
      !shutdown_requested() &&
      parity_check(recovery, base, set, injector, setup.seed, parity_options,
                   parity_sessions, parity_ticks);
  std::printf(
      "batch-vs-loop parity under guards+chaos+budget (%zu sessions, %zu ticks): %s\n\n",
      parity_sessions, parity_ticks, parity_ok ? "bitwise identical" : "MISMATCH");

  // --- chaos axes ---------------------------------------------------------
  const AxisSpec axes[] = {
      {"clean", 0.0, 0.0, 0.0},
      {"stall", chaos_rate, 0.0, 0.0},
      {"obs-corrupt", 0.0, chaos_rate, 0.0},
      {"poison", 0.0, 0.0, chaos_rate},
      {"all-axes", chaos_rate, chaos_rate, chaos_rate},
  };

  std::printf("%12s | %11s %11s %11s | %9s %9s %9s %9s | %7s\n", "axis",
              "served/sec", "tick_p50ms", "tick_p99ms", "decided", "degraded",
              "shed", "repaired", "aborted");

  obs::Json::Array rows;
  std::vector<CellResult> cells;
  for (const AxisSpec& axis : axes) {
    if (shutdown_requested()) break;
    sim::FleetOptions options = fleet_options;
    options.sessions = sessions;
    options.chaos.stall_rate = axis.stall_rate;
    options.chaos.stall_ms = stall_ms;
    options.chaos.obs_corrupt_rate = axis.obs_corrupt_rate;
    options.chaos.poison_rate = axis.poison_rate;
    const bool is_all = std::string(axis.name) == "all-axes";
    CellResult cell = run_cell(axis.name, recovery, base, set, injector, setup.seed,
                               options, warmup, ticks,
                               is_all ? keep_checkpoint : std::string(),
                               is_all ? checkpoint_every : 0);
    std::printf("%12s | %11.0f %11.2f %11.2f | %9zu %9zu %9zu %9zu | %7s\n",
                cell.axis.c_str(), cell.served_per_sec, cell.tick_ms_p50,
                cell.tick_ms_p99, cell.delta.decisions, cell.delta.degraded_decides,
                cell.delta.shed, cell.delta.beliefs_repaired,
                cell.aborted ? "YES" : "no");
    rows.push_back(cell_json(cell));
    cells.push_back(std::move(cell));
  }

  // --- overload cell ------------------------------------------------------
  CellResult overload;
  if (!shutdown_requested()) {
    sim::FleetOptions options = fleet_options;
    options.sessions = sessions;
    options.tick_budget_decisions = quota;
    overload = run_cell("overload", recovery, base, set, injector, setup.seed,
                        options, 0, ticks);
    std::printf("%12s | %11.0f %11.2f %11.2f | %9zu %9zu %9zu %9zu | %7s\n",
                overload.axis.c_str(), overload.served_per_sec, overload.tick_ms_p50,
                overload.tick_ms_p99, overload.delta.decisions,
                overload.delta.degraded_decides, overload.delta.shed,
                overload.delta.beliefs_repaired, overload.aborted ? "YES" : "no");
  }

  // --- the motivation cell: unguarded poison aborts the batch -------------
  bool unguarded_poison_aborts = false;
  std::string unguarded_error;
  if (!shutdown_requested()) {
    sim::FleetOptions options = fleet_options;
    options.sessions = 64;
    options.guard.enabled = false;
    options.chaos.poison_rate = 0.5;
    const CellResult cell = run_cell("unguarded-poison", recovery, base, set,
                                     injector, setup.seed, options, 0, 10);
    unguarded_poison_aborts = cell.aborted;
    unguarded_error = cell.abort_error;
    std::printf("\nunguarded poison fleet (64 sessions, rate 0.5): %s\n",
                cell.aborted ? "aborted as expected" : "SURVIVED (gate fails)");
  }

  // --- crash safety -------------------------------------------------------
  const std::string out_path = args.get_string("out", "BENCH_resilience.json");
  const std::string scratch_ckpt =
      keep_checkpoint.empty()
          ? (out_path.empty() ? std::string("resilience.ckpt") : out_path + ".ckpt")
          : keep_checkpoint + ".roundtrip";
  bool roundtrip_ok = false;
  std::vector<CorruptionCase> corruption;
  if (!shutdown_requested()) {
    sim::FleetOptions options = parity_options;  // guards + all chaos axes
    options.sessions = smoke ? 64 : 256;
    roundtrip_ok = checkpoint_roundtrip_check(recovery, base, set, injector,
                                              setup.seed, options, scratch_ckpt);
    std::printf("checkpoint round trip (%zu sessions, save@3, +5 ticks): %s\n",
                options.sessions, roundtrip_ok ? "bitwise identical" : "MISMATCH");
    corruption = checkpoint_corruption_check(recovery, base, set, injector,
                                             setup.seed, options, scratch_ckpt);
    for (const CorruptionCase& c : corruption) {
      std::printf("checkpoint corruption [%s]: %s%s\n", c.name.c_str(),
                  c.rejected ? "rejected" : "ACCEPTED (gate fails)",
                  c.state_intact ? "" : ", driver state DAMAGED");
    }
    std::remove(scratch_ckpt.c_str());
  }

  // --- gates --------------------------------------------------------------
  const bool interrupted = shutdown_requested();
  const CellResult* clean = nullptr;
  const CellResult* stall = nullptr;
  for (const CellResult& cell : cells) {
    if (cell.axis == "clean") clean = &cell;
    if (cell.axis == "stall") stall = &cell;
  }
  bool aborts_ok = cells.size() == 5 && !overload.axis.empty();
  for (const CellResult& cell : cells) aborts_ok = aborts_ok && !cell.aborted;
  aborts_ok = aborts_ok && !overload.aborted;

  bool chaos_active_ok = true;
  for (const CellResult& cell : cells) {
    if (cell.axis == "stall" || cell.axis == "all-axes")
      chaos_active_ok = chaos_active_ok && cell.delta.stalls_injected > 0;
    if (cell.axis == "obs-corrupt" || cell.axis == "all-axes")
      chaos_active_ok = chaos_active_ok && cell.delta.obs_corrupted > 0 &&
                        cell.delta.obs_invalid_rejected > 0;
    if (cell.axis == "poison" || cell.axis == "all-axes")
      chaos_active_ok = chaos_active_ok && cell.delta.poisons_injected > 0 &&
                        cell.delta.beliefs_repaired > 0;
    if (cell.axis == "clean")
      chaos_active_ok = chaos_active_ok && cell.delta.degraded_decides == 0 &&
                        cell.delta.shed == 0;
  }

  // The committed stall claim: with the guard isolating stalled sessions,
  // the fleet keeps serving >= 80% of the clean actions/second.
  const double stall_ratio =
      (clean && stall && clean->served_per_sec > 0.0)
          ? stall->served_per_sec / clean->served_per_sec
          : 0.0;
  const bool stall_ok = stall_ratio >= 0.8;

  const bool overload_ok =
      !overload.axis.empty() && !overload.aborted && overload.delta.shed > 0 &&
      overload.delta.decisions <= quota * overload.ticks;

  bool corruption_ok = !corruption.empty();
  for (const CorruptionCase& c : corruption)
    corruption_ok = corruption_ok && c.rejected && c.state_intact;

  const bool all_checks_passed = !interrupted && parity_ok && aborts_ok &&
                                 chaos_active_ok && stall_ok && overload_ok &&
                                 unguarded_poison_aborts && roundtrip_ok &&
                                 corruption_ok;

  std::printf("\nstall-axis served/sec ratio vs clean: %.3f (gate >= 0.8): %s\n",
              stall_ratio, stall_ok ? "ok" : "FAIL");
  std::printf("overload quota %zu/tick: %zu decided, %zu shed over %zu ticks: %s\n",
              quota, overload.delta.decisions, overload.delta.shed, overload.ticks,
              overload_ok ? "ok" : "FAIL");
  std::printf("all checks: %s\n", all_checks_passed ? "PASSED" : "FAILED");

  if (!out_path.empty()) {
    obs::Json::Object doc;
    doc["schema"] = "recoverd.resilience.v1";
    doc["note"] =
        "Fault-tolerant fleet runtime campaign (bench/resilience_campaign). "
        "Every cell runs the guarded FleetDriver (degradation ladder Full -> "
        "Reduced -> Cached -> Heuristic) at the given width; chaos axes inject "
        "decide stalls, corrupted observation ids, and NaN/denormal belief "
        "poisoning at chaos_rate per slot. served = lanes handed an action per "
        "measured wall-clock (fresh decisions + ladder fallbacks). Committed "
        "claims: zero aborted ticks on every axis; stall-axis served/sec >= "
        "0.8x clean; deterministic admission quota never exceeded and sheds in "
        "staleness order; Batch == Loop bitwise under guards+chaos+budget; "
        "checkpoint save/restore resumes bitwise; corrupted/mismatched "
        "checkpoints rejected without touching driver state. Absolute rates "
        "are machine-dependent; the gates are the claims.";
    doc["model"] = "emn-zombie-fleet";
    doc["simd"] = simd::describe_active_mode();
    doc["bound_size"] = static_cast<std::uint64_t>(set.size());
    doc["seed"] = static_cast<std::uint64_t>(setup.seed);
    doc["sessions"] = static_cast<std::uint64_t>(sessions);
    doc["ticks"] = static_cast<std::uint64_t>(ticks);
    doc["warmup"] = static_cast<std::uint64_t>(warmup);
    doc["chaos_rate"] = chaos_rate;
    obs::Json::Object guard;
    guard["enabled"] = fleet_options.guard.enabled;
    guard["reduced_depth"] = static_cast<std::uint64_t>(
        static_cast<std::size_t>(fleet_options.guard.reduced_depth));
    guard["promote_after"] =
        static_cast<std::uint64_t>(fleet_options.guard.promote_after);
    guard["livelock_window"] =
        static_cast<std::uint64_t>(fleet_options.guard.livelock_window);
    doc["guard"] = obs::Json(std::move(guard));
    obs::Json::Object pj;
    pj["sessions"] = static_cast<std::uint64_t>(parity_sessions);
    pj["ticks"] = static_cast<std::uint64_t>(parity_ticks);
    pj["ok"] = parity_ok;
    doc["parity"] = obs::Json(std::move(pj));
    doc["axes"] = obs::Json(std::move(rows));
    if (!overload.axis.empty()) doc["overload"] = cell_json(overload);
    obs::Json::Object oj;
    oj["tick_budget_decisions"] = static_cast<std::uint64_t>(quota);
    oj["shed_engaged"] = overload.delta.shed > 0;
    oj["quota_respected"] =
        overload.delta.decisions <= quota * std::max<std::size_t>(1, overload.ticks);
    oj["ok"] = overload_ok;
    doc["overload_gate"] = obs::Json(std::move(oj));
    obs::Json::Object sj;
    sj["served_ratio_vs_clean"] = stall_ratio;
    sj["ok"] = stall_ok;
    doc["stall_gate"] = obs::Json(std::move(sj));
    obs::Json::Object mj;
    mj["aborted"] = unguarded_poison_aborts;
    if (unguarded_poison_aborts) mj["error"] = unguarded_error;
    doc["unguarded_poison"] = obs::Json(std::move(mj));
    obs::Json::Object cj;
    cj["roundtrip_ok"] = roundtrip_ok;
    obs::Json::Array cc;
    for (const CorruptionCase& c : corruption) {
      obs::Json::Object row;
      row["case"] = c.name;
      row["rejected"] = c.rejected;
      row["state_intact"] = c.state_intact;
      row["error"] = c.error;
      cc.push_back(obs::Json(std::move(row)));
    }
    cj["corruption"] = obs::Json(std::move(cc));
    cj["ok"] = roundtrip_ok && corruption_ok;
    doc["checkpoint"] = obs::Json(std::move(cj));
    doc["interrupted"] = interrupted;
    doc["all_checks_passed"] = all_checks_passed;
    std::ofstream out(out_path);
    RD_EXPECTS(out.good(), "resilience campaign: cannot open --out file");
    obs::Json(std::move(doc)).write(out);
    out << "\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (interrupted) return 0;  // run_obs_main maps the shutdown flag to 130
  if (!all_checks_passed) {
    std::fprintf(stderr, "resilience campaign: CORRECTNESS CHECK FAILED\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace recoverd::bench

int main(int argc, char** argv) {
  std::vector<std::string> known = {
      "sessions",        "ticks",        "warmup",
      "chaos-rate",      "checkpoint",   "checkpoint-every",
      "parity-sessions", "parity-ticks", "smoke",
      "out",             "top",          "seed",
      "capacity",        "branch-floor", "termination-probability",
      "bootstrap-runs",  "bootstrap-depth", "jobs",
      "memo-max-mb"};
  for (std::string& name : recoverd::bench::robustness_flag_names())
    known.push_back(std::move(name));
  for (std::string& name : recoverd::sim::fleet_resilience_flag_names())
    known.push_back(std::move(name));
  return recoverd::run_obs_main(argc, argv, std::move(known),
                                [](const recoverd::CliArgs& args) {
                                  return recoverd::bench::run(args);
                                });
}
