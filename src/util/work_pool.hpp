// Persistent, epoch-barriered work pool — the one thread team every
// parallel site in the repo shares: the RA-Bound CSR assembly, both
// SCC-solver sites and the experiment episode runner. No site spawns or
// joins threads of its own; they all submit to a single process-wide team
// of persistent threads:
//
//  - `run(tasks, fn)` executes `fn(t)` for every index `t in [0, tasks)`
//    exactly once and returns only after all of them finished (an epoch
//    barrier, exactly like the join the call sites used to do). The caller
//    participates in the work itself, so `run(1, fn)` never touches a
//    thread and `run(n, fn)` needs at most `n - 1` pool threads.
//  - Task indices are claimed from an atomic cursor. Which *thread* runs
//    which index is scheduling-dependent, which is why every call site
//    keeps its pre-existing determinism discipline: tasks write disjoint
//    slices (or claim work through their own atomic cursor into
//    index-addressed slots) and the *caller* performs every floating-point
//    reduction in fixed index order after `run()` returns. The pool adds
//    no reduction of its own, so the bitwise contracts (`--jobs`,
//    `--solver-jobs` and `--pool-jobs` invariance) are untouched.
//  - Threads are created lazily, kept for the lifetime of the process and
//    capped by `configure_threads()` (the `--pool-jobs` flag). Running
//    with fewer threads than tasks is always correct — the team just
//    claims more indices each — so the cap is a resource knob, not a
//    semantics knob.
//  - Nested submission runs inline: a task that itself calls `run()`
//    (e.g. a parallel solve started from inside an experiment episode)
//    executes the nested indices serially on its own thread instead of
//    deadlocking on the shared team. Serial execution of all indices is
//    bit-identical by the worker-count invariance above.
//
// util sits below obs in the layer graph, so the pool cannot publish
// metrics itself; it keeps relaxed atomic tallies exposed via `stats()`
// and the obs exporter mirrors them into `pool.*` gauges at snapshot time.
#pragma once

#include <cstddef>
#include <cstdint>

namespace recoverd::util {

class WorkPool {
 public:
  /// Cumulative pool tallies since process start (relaxed atomics; exact
  /// once the pool is quiescent, e.g. after any `run()` returned).
  struct Stats {
    std::uint64_t dispatches = 0;      ///< run() calls that engaged the team
    std::uint64_t tasks = 0;           ///< task indices executed via dispatches
    std::uint64_t inline_tasks = 0;    ///< indices run inline (1-task or nested)
    std::uint64_t spawns_avoided = 0;  ///< threads a spawn-per-call design would have created
    std::uint64_t threads_created = 0; ///< pool threads actually created (ever)
    std::uint64_t threads_live = 0;    ///< pool threads currently alive
  };

  /// The process-wide pool. Thread-safe; concurrent external submitters
  /// serialize (the call sites at most nest, which runs inline).
  static WorkPool& instance();

  /// Caps the number of pool threads at `cap` (>= 1 meaning "caller plus
  /// up to cap - 1 helpers"). Affects future growth only; threads already
  /// created stay. Values are validated by the `--pool-jobs` CLI parser.
  void configure_threads(std::size_t cap);
  std::size_t thread_cap() const;

  /// Runs `fn(t)` for every `t in [0, tasks)` and returns once all
  /// completed. `fn` may be called concurrently from pool threads and from
  /// the calling thread; exceptions escaping `fn` terminate (same contract
  /// the raw `std::thread` sites had).
  template <typename Fn>
  void run(std::size_t tasks, Fn&& fn) {
    run_impl(tasks, [](void* ctx, std::size_t t) { (*static_cast<Fn*>(ctx))(t); }, &fn);
  }

  Stats stats() const;

  ~WorkPool();
  WorkPool(const WorkPool&) = delete;
  WorkPool& operator=(const WorkPool&) = delete;

 private:
  WorkPool();
  using TaskFn = void (*)(void* ctx, std::size_t task);
  void run_impl(std::size_t tasks, TaskFn fn, void* ctx);

  struct Impl;
  Impl* impl_;
};

}  // namespace recoverd::util
