// Micro-costs of the controller's building blocks on the EMN model
// (§4.1/§4.3): belief updates, successor enumeration, incremental bound
// updates as a function of |B|, and Max-Avg tree expansion by depth.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

#include "gbench_main.hpp"

#include "bounds/incremental_update.hpp"
#include "bounds/ra_bound.hpp"
#include "controller/bootstrap.hpp"
#include "models/emn.hpp"
#include "obs/metrics.hpp"
#include "pomdp/belief_batch.hpp"
#include "pomdp/bellman.hpp"
#include "pomdp/expansion.hpp"
#include "pomdp/sampling.hpp"
#include "sim/fleet_driver.hpp"
#include "util/rng.hpp"

namespace recoverd::bench {
namespace {

const Pomdp& emn_recovery() {
  static const Pomdp model = models::make_emn_recovery_model();
  return model;
}

const models::EmnIds& ids() {
  static const models::EmnIds value = models::emn_ids(emn_recovery());
  return value;
}

Belief uniform_fault_belief() {
  const Pomdp& p = emn_recovery();
  std::vector<StateId> faults;
  for (StateId s = 0; s < p.num_states(); ++s) {
    if (!p.mdp().is_goal(s) && s != p.terminate_state()) faults.push_back(s);
  }
  return Belief::uniform_over(p.num_states(), faults);
}

void BM_BeliefUpdate(benchmark::State& state) {
  const Pomdp& p = emn_recovery();
  const Belief pi = uniform_fault_belief();
  Rng rng(3);
  const ActionId observe = ids().topo.observe_action;
  for (auto _ : state) {
    const ObsId obs = sample_observation(p, rng.uniform_index(p.num_states()), observe, rng);
    const auto upd = update_belief(p, pi, observe, obs);
    benchmark::DoNotOptimize(upd.has_value());
  }
}
BENCHMARK(BM_BeliefUpdate);

void BM_BeliefSuccessors(benchmark::State& state) {
  const Pomdp& p = emn_recovery();
  const Belief pi = uniform_fault_belief();
  const ActionId observe = ids().topo.observe_action;
  const double floor = static_cast<double>(state.range(0)) * 1e-3;
  for (auto _ : state) {
    const auto branches = belief_successors(p, pi, observe, floor);
    benchmark::DoNotOptimize(branches.size());
  }
  state.counters["floor_milli"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_BeliefSuccessors)->Arg(0)->Arg(1)->Arg(10);

// Table 1's "Bounded" warm set: the RA-Bound plane at capacity 64, then the
// Table 1 bootstrap (10 depth-2 episodes, seed 2006, branch floor 1e-2),
// continued one episode per further seed until the set is full. Random-
// belief backups saturate near 16 planes (they stop producing undominated
// vectors), so only the bootstrap's visited beliefs reach Table 1's |B|.
const bounds::BoundSet& table1_bound_set() {
  static const bounds::BoundSet set = [] {
    const Pomdp& p = emn_recovery();
    bounds::BoundSet warm = bounds::make_ra_bound_set(p.mdp(), 64);
    controller::BootstrapOptions boot;
    boot.iterations = 10;
    boot.tree_depth = 2;
    boot.observe_action = ids().topo.observe_action;
    boot.seed = 2006;
    boot.branch_floor = 1e-2;
    const Belief reference = Belief::uniform(p.num_states());
    controller::bootstrap_bounds(p, warm, reference, boot);
    boot.iterations = 1;
    for (int extra = 0; extra < 100 && warm.size() < warm.capacity(); ++extra) {
      ++boot.seed;
      controller::bootstrap_bounds(p, warm, reference, boot);
    }
    return warm;
  }();
  return set;
}

// The first `planes` planes of the Table 1 set (plane 0 stays the protected
// RA-Bound plane), or nullopt when the set holds fewer.
std::optional<bounds::BoundSet> table1_prefix(std::size_t planes) {
  bounds::BoundSet::Snapshot snap = table1_bound_set().snapshot();
  if (snap.planes.size() < planes) return std::nullopt;
  snap.planes.resize(planes);
  return bounds::BoundSet::restore(snap);
}

// One Eq. 7 backup (no add) at the uniform fault belief, |B| = Arg.
void BM_IncrementalUpdate(benchmark::State& state) {
  const Pomdp& p = emn_recovery();
  const Belief pi = uniform_fault_belief();
  const std::optional<bounds::BoundSet> set =
      table1_prefix(static_cast<std::size_t>(state.range(0)));
  if (!set) {
    state.SkipWithError("the Table 1 bootstrap did not reach the requested |B|");
    return;
  }
  for (auto _ : state) {
    const auto backup = bounds::backup_vector(p, *set, pi);
    benchmark::DoNotOptimize(backup.data());
  }
  state.counters["bound_vectors"] = static_cast<double>(set->size());
}
BENCHMARK(BM_IncrementalUpdate)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

// The full update on the full Table 1 set: backup, dominance checks, add
// and least-used eviction at capacity 64. Each iteration starts from a copy
// of the warm set (copy untimed) and updates at the next of 16 sparse fault
// beliefs, so every iteration does the same work.
void BM_ImproveAt(benchmark::State& state) {
  const Pomdp& p = emn_recovery();
  const bounds::BoundSet& warm = table1_bound_set();
  if (warm.size() < warm.capacity()) {
    state.SkipWithError("the Table 1 bootstrap did not fill the set");
    return;
  }
  std::vector<Belief> beliefs;
  Rng rng(29);
  for (int k = 0; k < 16; ++k) {
    std::vector<double> raw(p.num_states(), 0.0);
    for (int j = 0; j < 3; ++j) {
      StateId s = 0;
      do {
        s = rng.uniform_index(p.num_states());
      } while (p.mdp().is_goal(s) || s == p.terminate_state());
      raw[s] += rng.uniform01() + 1e-3;
    }
    beliefs.emplace_back(std::move(raw));
  }
  std::size_t next = 0;
  std::size_t added = 0;
  for (auto _ : state) {
    state.PauseTiming();
    bounds::BoundSet set = warm;
    state.ResumeTiming();
    const bounds::UpdateResult result = bounds::improve_at(p, set, beliefs[next]);
    benchmark::DoNotOptimize(result.value_after);
    added += result.added ? 1 : 0;
    next = (next + 1) % beliefs.size();
  }
  state.counters["bound_vectors"] = static_cast<double>(warm.size());
  const auto iterations = std::max<std::int64_t>(state.iterations(), 1);
  state.counters["accept_ratio"] =
      static_cast<double>(added) / static_cast<double>(iterations);
}
BENCHMARK(BM_ImproveAt)->Unit(benchmark::kMicrosecond);

// Headline decision-latency number (BENCH_expansion.json): one depth-d best
// action on the EMN model with the RA-Bound leaf, in the exact configuration
// BoundedController::decide() runs — a directly-owned engine, the
// transposition cache on, a devirtualized ScratchBoundLeaf armed and flushed
// around each decision. (The legacy std::function wrapper path this used to
// measure lives on in BM_ExpansionWrapper.)
void BM_TreeExpansion(benchmark::State& state) {
  const Pomdp& p = emn_recovery();
  const Belief pi = uniform_fault_belief();
  bounds::BoundSet set = bounds::make_ra_bound_set(p.mdp());
  bounds::BoundSet::EvalScratch scratch;
  const bounds::ScratchBoundLeaf leaf{&set, &scratch};
  ExpansionEngine engine(p);
  ExpansionOptions opts;
  opts.branch_floor = 1e-2;
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    set.begin_eval(scratch);
    const auto best = engine.best_action(
        pi.probabilities(), depth, SpanLeaf::of_batched(leaf, set.size() + 1), opts);
    set.flush_eval(scratch);
    benchmark::DoNotOptimize(best.value);
  }
  state.counters["arena_bytes"] = static_cast<double>(engine.arena_bytes());
}
BENCHMARK(BM_TreeExpansion)->Arg(1)->Arg(2)->Arg(3)->Unit(benchmark::kMicrosecond);

// Depth x branch-floor sweep of the Max-Avg expansion, compatibility
// wrapper path: thread-local engine + std::function leaf + Belief
// construction at every leaf. Args: (depth, floor in thousandths).
void BM_ExpansionWrapper(benchmark::State& state) {
  const Pomdp& p = emn_recovery();
  const Belief pi = uniform_fault_belief();
  bounds::BoundSet set = bounds::make_ra_bound_set(p.mdp());
  const LeafEvaluator leaf = [&set](const Belief& b) {
    return set.evaluate(b.probabilities());
  };
  const int depth = static_cast<int>(state.range(0));
  const double floor = static_cast<double>(state.range(1)) * 1e-3;
  for (auto _ : state) {
    const auto best = bellman_best_action(p, pi, depth, leaf, 1.0, kInvalidId, floor);
    benchmark::DoNotOptimize(best.value);
  }
  state.counters["floor_milli"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_ExpansionWrapper)
    ->ArgsProduct({{1, 2, 3}, {1, 10}})
    ->Unit(benchmark::kMicrosecond);

// Same sweep through a directly-owned ExpansionEngine with a devirtualized
// SpanLeaf — the controllers' configuration. The delta against
// BM_ExpansionWrapper is the residual wrapper overhead (std::function leaf
// + per-leaf Belief copies); the delta against the committed pre-refactor
// BENCH_expansion.json baseline is the full engine win.
void BM_ExpansionEngine(benchmark::State& state) {
  const Pomdp& p = emn_recovery();
  const Belief pi = uniform_fault_belief();
  bounds::BoundSet set = bounds::make_ra_bound_set(p.mdp());
  const auto leaf_fn = [&set](std::span<const double> posterior) {
    return set.evaluate(posterior);
  };
  ExpansionEngine engine(p);
  ExpansionOptions opts;
  opts.branch_floor = static_cast<double>(state.range(1)) * 1e-3;
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto best =
        engine.best_action(pi.probabilities(), depth, SpanLeaf::of(leaf_fn), opts);
    benchmark::DoNotOptimize(best.value);
  }
  state.counters["floor_milli"] = static_cast<double>(state.range(1));
  state.counters["arena_bytes"] = static_cast<double>(engine.arena_bytes());
}
BENCHMARK(BM_ExpansionEngine)
    ->ArgsProduct({{1, 2, 3}, {1, 10}})
    ->Unit(benchmark::kMicrosecond);

// A fleet-like belief population: a small pool of distinct beliefs
// (random action/observation histories off the uniform fault belief, long
// enough to concentrate), with every lane drawn from the pool. Mirrors the
// steady-state FleetDriver class structure the throughput campaign
// measures — a 10^4-session EMN fleet decides ~600 distinct root beliefs
// per tick, so lanes coincide heavily and successors overlap across roots
// and levels.
BeliefBatch make_fleet_like_batch(const Pomdp& p, std::size_t lanes) {
  const Belief root = uniform_fault_belief();
  Rng rng(41);
  const std::size_t pool_size = std::max<std::size_t>(1, lanes / 32);
  std::vector<Belief> pool;
  pool.reserve(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) {
    Belief b = root;
    const std::size_t steps = 4 + rng.uniform_index(9);  // 4..12 updates
    for (std::size_t k = 0; k < steps; ++k) {
      const ActionId a = rng.uniform_index(p.num_actions());
      const StateId s = sample_state(b, rng);
      const StateId next = sample_transition(p.mdp(), s, a, rng);
      const ObsId o = sample_observation(p, next, a, rng);
      if (auto u = update_belief(p, b, a, o)) b = std::move(u->next);
    }
    pool.push_back(std::move(b));
  }
  BeliefBatch batch(p.num_states());
  batch.reserve(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    batch.push_back(pool[rng.uniform_index(pool.size())], lane);
  }
  return batch;
}

// Whole-batch decide() on that population: the deep pipeline (DESIGN.md
// §16 — level-wise frontier expansion with global canonicalization and one
// giant leaf batch) against the classic per-class walks (arg 2 = 0, the
// §13 path with the transposition cache on). Bit-identical results; the
// per-depth ratio is the headline §16 number. Args: (depth, lanes, deep).
void BM_DeepBatch(benchmark::State& state) {
  const Pomdp& p = emn_recovery();
  bounds::BoundSet set = bounds::make_ra_bound_set(p.mdp());
  bounds::BoundSet::EvalScratch scratch;
  const bounds::ScratchBoundLeaf leaf{&set, &scratch};
  ExpansionEngine engine(p);
  ExpansionOptions opts;
  opts.branch_floor = 1e-2;
  const int depth = static_cast<int>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  const bool deep = state.range(2) != 0;
  const BeliefBatch batch = make_fleet_like_batch(p, lanes);
  std::vector<ActionValue> best;
  for (auto _ : state) {
    set.begin_eval(scratch);
    if (deep) {
      engine.decide_batch_deep(batch, depth,
                               SpanLeaf::of_batched(leaf, set.size() + 1), opts, best);
    } else {
      engine.decide_batch(batch, depth, SpanLeaf::of_batched(leaf, set.size() + 1),
                          opts, best);
    }
    set.flush_eval(scratch);
    benchmark::DoNotOptimize(best.data());
  }
  state.counters["deep"] = static_cast<double>(state.range(2));
  state.counters["arena_bytes"] = static_cast<double>(engine.arena_bytes());
}
BENCHMARK(BM_DeepBatch)
    ->ArgsProduct({{2, 3}, {256, 4096}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// The deep pipeline's levels on a real fleet population: the beliefs of a
// 5000-session EMN fleet (seed 2006, depth 2, floor 1e-2) after 20 warm-up
// ticks, decided against the Table 1 bootstrap set (RA-Bound plane at
// capacity 64, then 10 depth-2 bootstrap episodes, seed 2006, floor 1e-2)
// — the set and fleet configuration of perfbench's fleet_emn_d2. One
// iteration is one depth-2 action_values_batch_deep over the whole pool:
// canonicalization, both expansion levels and the leaf batch, without a
// fleet's respawns, cache probes and Bayes updates around them.
struct DeepLevelFixture {
  bounds::BoundSet set;
  std::unique_ptr<BeliefBatch> pool;
};

const DeepLevelFixture& deep_level_fixture() {
  static const DeepLevelFixture fixture = [] {
    const Pomdp& p = emn_recovery();
    bounds::BoundSet set = bounds::make_ra_bound_set(p.mdp(), 64);
    controller::BootstrapOptions boot;
    boot.iterations = 10;
    boot.tree_depth = 2;
    boot.observe_action = ids().topo.observe_action;
    boot.seed = 2006;
    boot.branch_floor = 1e-2;
    controller::bootstrap_bounds(p, set, Belief::uniform(p.num_states()), boot);
    static const Pomdp env = models::make_emn_base();
    const sim::FaultInjector injector(models::emn_ids(env).topo.zombie_states);
    sim::FleetOptions options;
    options.sessions = 5000;
    options.observe_action = ids().topo.observe_action;
    options.tree_depth = 2;
    options.branch_floor = 1e-2;
    options.max_steps = 10000;
    sim::FleetDriver fleet(p, env, set, injector, 2006, options);
    for (int tick = 0; tick < 20; ++tick) fleet.tick();
    const BeliefBatch& lanes = fleet.beliefs();
    auto pool = std::make_unique<BeliefBatch>(p.num_states());
    pool->reserve(lanes.size());
    std::vector<double> row(p.num_states());
    for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
      lanes.copy_lane(lane, row);
      pool->push_back(row, lane);
    }
    return DeepLevelFixture{set, std::move(pool)};  // the fleet still refers to `set`
  }();
  return fixture;
}

void BM_DeepLevel(benchmark::State& state) {
  const Pomdp& p = emn_recovery();
  const DeepLevelFixture& fixture = deep_level_fixture();
  bounds::BoundSet set = fixture.set;
  bounds::BoundSet::EvalScratch scratch;
  const bounds::ScratchBoundLeaf leaf{&set, &scratch};
  ExpansionEngine engine(p);
  ExpansionOptions opts;
  opts.branch_floor = 1e-2;
  obs::Counter& kept = obs::metrics().counter("pomdp.belief.branches_kept");
  std::vector<ActionValue> values;
  BatchExpansionStats stats;
  std::uint64_t branches = 0;
  for (auto _ : state) {
    set.begin_eval(scratch);
    const std::uint64_t kept_before = kept.value();
    engine.action_values_batch_deep(*fixture.pool, 2,
                                    SpanLeaf::of_batched(leaf, set.size() + 1), opts,
                                    values, &stats);
    branches = kept.value() - kept_before;
    set.flush_eval(scratch);
    benchmark::DoNotOptimize(values.data());
    benchmark::ClobberMemory();
  }
  state.counters["lanes"] = static_cast<double>(fixture.pool->size());
  state.counters["classes"] = static_cast<double>(stats.classes);
  state.counters["nodes"] = static_cast<double>(stats.frontier_nodes);
  state.counters["branches"] = static_cast<double>(branches);
  state.counters["leaves"] = static_cast<double>(stats.frontier_leaves);
}
BENCHMARK(BM_DeepLevel)->Unit(benchmark::kMillisecond);

// The Eq. 6 leaf kernel in isolation, on synthetic hyperplane sets of
// `planes` vectors over `states` dimensions. "Naive" is the pre-PR 5
// two-pass scan (full dot per plane, then re-dot the winner); "Pruned" is
// BoundSet::evaluate with the max-coefficient skip bound and warm start;
// "Batch" runs whole 64-belief frontiers through evaluate_batch. All three
// return bit-identical values. Args: (planes, states).
bounds::BoundSet make_synthetic_set(std::size_t planes, std::size_t states) {
  bounds::BoundSet set(states);
  Rng rng(17);
  for (std::size_t i = 0; i < planes; ++i) {
    bounds::BoundVector v(states);
    // Negative costs-to-go of different magnitudes, so the running max
    // separates planes the way improved recovery bounds do.
    const double scale = 1.0 + rng.uniform01() * 9.0;
    for (auto& x : v) x = -scale * (0.1 + rng.uniform01());
    set.add(std::move(v));
  }
  return set;
}

std::vector<double> make_belief_rows(std::size_t count, std::size_t states) {
  Rng rng(23);
  std::vector<double> rows(count * states);
  for (std::size_t i = 0; i < count; ++i) {
    double sum = 0.0;
    for (std::size_t s = 0; s < states; ++s) {
      rows[i * states + s] = rng.uniform01();
      sum += rows[i * states + s];
    }
    for (std::size_t s = 0; s < states; ++s) rows[i * states + s] /= sum;
  }
  return rows;
}

constexpr std::size_t kEvalFrontier = 64;

void BM_BoundSetEvaluateNaive(benchmark::State& state) {
  const auto planes = static_cast<std::size_t>(state.range(0));
  const auto states = static_cast<std::size_t>(state.range(1));
  const bounds::BoundSet set = make_synthetic_set(planes, states);
  const std::vector<double> rows = make_belief_rows(kEvalFrontier, states);
  std::size_t row = 0;
  for (auto _ : state) {
    const std::span<const double> pi(rows.data() + row * states, states);
    row = (row + 1) % kEvalFrontier;
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < set.size(); ++i) {
      double dot = 0.0;
      const bounds::BoundVector& v = set.vector_at(i);
      for (std::size_t s = 0; s < states; ++s) dot += v[s] * pi[s];
      best = std::max(best, dot);
    }
    benchmark::DoNotOptimize(best);
  }
  state.counters["planes"] = static_cast<double>(planes);
}

void BM_BoundSetEvaluatePruned(benchmark::State& state) {
  const auto planes = static_cast<std::size_t>(state.range(0));
  const auto states = static_cast<std::size_t>(state.range(1));
  const bounds::BoundSet set = make_synthetic_set(planes, states);
  const std::vector<double> rows = make_belief_rows(kEvalFrontier, states);
  bounds::BoundSet::EvalScratch scratch;
  set.begin_eval(scratch);
  std::size_t row = 0;
  for (auto _ : state) {
    const std::span<const double> pi(rows.data() + row * states, states);
    row = (row + 1) % kEvalFrontier;
    benchmark::DoNotOptimize(set.evaluate(pi, scratch));
  }
  set.flush_eval(scratch);
  state.counters["planes"] = static_cast<double>(planes);
}

void BM_BoundSetEvaluateBatch(benchmark::State& state) {
  const auto planes = static_cast<std::size_t>(state.range(0));
  const auto states = static_cast<std::size_t>(state.range(1));
  const bounds::BoundSet set = make_synthetic_set(planes, states);
  const std::vector<double> rows = make_belief_rows(kEvalFrontier, states);
  std::vector<double> out(kEvalFrontier);
  bounds::BoundSet::EvalScratch scratch;
  set.begin_eval(scratch);
  for (auto _ : state) {
    set.evaluate_batch(rows.data(), kEvalFrontier, out, scratch);
    benchmark::DoNotOptimize(out.data());
  }
  set.flush_eval(scratch);
  state.counters["planes"] = static_cast<double>(planes);
  // Per-belief time, comparable to the other two variants.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * kEvalFrontier));
}

#define RD_BOUNDSET_EVAL_ARGS ArgsProduct({{8, 64, 256}, {16, 128}})
BENCHMARK(BM_BoundSetEvaluateNaive)->RD_BOUNDSET_EVAL_ARGS;
BENCHMARK(BM_BoundSetEvaluatePruned)->RD_BOUNDSET_EVAL_ARGS;
BENCHMARK(BM_BoundSetEvaluateBatch)->RD_BOUNDSET_EVAL_ARGS;
#undef RD_BOUNDSET_EVAL_ARGS

void BM_RaBoundEmn(benchmark::State& state) {
  const Pomdp& p = emn_recovery();
  for (auto _ : state) {
    const auto ra = bounds::compute_ra_bound(p.mdp());
    benchmark::DoNotOptimize(ra.values.data());
  }
}
BENCHMARK(BM_RaBoundEmn);

}  // namespace
}  // namespace recoverd::bench

int main(int argc, char** argv) {
  return recoverd::bench::gbench_main_with_metrics(argc, argv);
}
