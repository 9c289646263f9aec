// Allocation-free engine for the finite-depth Max-Avg expansion (Eq. 2).
//
// The recursive implementation in bellman.cpp's history heap-allocated a
// fresh Belief at every tree node and went through a type-erased
// std::function at every leaf. This engine walks the same depth-d tree
// iteratively over a per-engine *workspace arena* — one reusable frame of
// scratch buffers per tree level — with span-based kernels underneath
// (expand_successors_batch, run one lane at a time), so that
// after the first decision warms the arena, an expansion performs no heap
// allocation at all.
//
// On top of the iterative walk the engine keeps an exact, within-decision
// *transposition cache* (DESIGN.md §11): every successor belief is hashed
// bitwise and the value of its subtree memoized keyed by (belief bits,
// remaining depth), so beliefs reached along several (action, observation)
// paths — absorbing states, deterministic repairs, commuting histories —
// are expanded once. Because identical bit patterns at identical depth
// produce identical subtree values under the engine's fixed operation
// order, cache hits are bit-identical to the uncached walk. action_values()
// clears the cache at the start of every root-action subtree, which fixes
// how many leaf evaluations a decide makes (see root_action_future). Leaf
// frontiers (the children of depth-1 nodes) are additionally evaluated
// through the SpanLeaf batch entry point in one pass over the cache misses.
//
// Arithmetic is kept bit-identical to the recursive reference: the same
// operation order (immediate reward via linalg::dot, kept-mass accumulated
// before each child, (β·γ)·child products summed in ascending ObsId order,
// sum-then-divide renormalisation via linalg::normalize_probability), the
// same tie-breaks (std::max over actions in ascending ActionId order), the
// same skip_action masking and branch_floor semantics, and the same
// pomdp.bellman.* / pomdp.belief.* instrument updates. The parity test
// suite (tests/pomdp_expansion_parity_test.cpp) holds the two paths equal
// on randomized models, and tests/pomdp_memo_test.cpp holds the memoized
// walk equal to the memo-free reference bitwise on hit-heavy models.
//
// bellman_value / bellman_action_values / bellman_best_action / apply_lp in
// bellman.hpp remain the convenient entry points; they are now thin
// wrappers over a thread-local engine. Controllers that decide repeatedly
// over the same model own an engine directly and pass a devirtualized
// SpanLeaf so bound evaluations run over raw spans without constructing
// Belief objects.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pomdp/pomdp.hpp"
#include "pomdp/types.hpp"
#include "util/belief_table.hpp"

namespace recoverd {

class BeliefBatch;

/// Value of one root action after a depth-d expansion.
struct ActionValue {
  ActionId action = kInvalidId;
  double value = 0.0;
};

/// Work summary of one action_values_batch()/decide_batch() call: how much
/// of the batch was served by cross-session root canonicalization, and — on
/// the deep pipeline — how small the canonicalized tree actually was.
struct BatchExpansionStats {
  std::size_t sessions = 0;     ///< lanes in the batch
  std::size_t classes = 0;      ///< distinct (belief-bits) roots solved
  std::size_t shared_hits = 0;  ///< lanes that reused an earlier lane's solve
  /// Deep-pipeline tallies (action_values_batch_deep; zero on the classic
  /// path): distinct Max nodes expanded across every tree level, and
  /// distinct depth-0 beliefs evaluated in the single frontier leaf batch.
  std::size_t frontier_nodes = 0;
  std::size_t frontier_leaves = 0;
  /// True when the deep pipeline solved the batch; false when it fell back
  /// to the per-class walks (node budget exceeded) or was never asked.
  bool deep = false;
};

/// Devirtualized leaf evaluator: raw function pointers plus an opaque
/// context, called with the (already normalised) leaf belief as a span.
/// Cheaper than std::function on the hot path (no type erasure allocation,
/// trivially copyable, inlineable call through a known pointer pair) and
/// keeps the pomdp layer free of a dependency on bounds.
///
/// An evaluator may additionally expose a *batch* entry point that
/// evaluates `count` beliefs stored row-major in one pass — the engine
/// routes whole leaf frontiers through it (all cache-miss children of a
/// depth-1 node at once). Each batch output must be bit-identical to the
/// corresponding single-belief call.
///
/// The referenced callable must outlive every engine call made with the
/// SpanLeaf (bind a local lambda with SpanLeaf::of and use it within the
/// enclosing scope).
///
/// The *cost hint* estimates one evaluation's cost in |S|-length passes
/// (a bound set costs about one dot per stored plane). The engine memoizes
/// leaf values only when the hint exceeds the cache's own probe+insert
/// cost (~3 passes) — caching a 1-plane evaluation would spend more on
/// hashing than it saves. A wrapper that can't know the cost (`of`)
/// defaults to kDefaultCostHint, i.e. "assume memoizing pays"; the hint
/// never affects values, only whether depth-0 results are cached.
class SpanLeaf {
 public:
  using Fn = double (*)(const void*, std::span<const double>);
  using BatchFn = void (*)(const void*, const double* beliefs, std::size_t count,
                           std::size_t dim, double* out);

  static constexpr std::size_t kDefaultCostHint = 16;

  SpanLeaf(Fn fn, const void* ctx, BatchFn batch = nullptr,
           std::size_t cost_hint = kDefaultCostHint)
      : fn_(fn), batch_(batch), ctx_(ctx), cost_hint_(cost_hint) {}

  /// Wraps any callable `double(std::span<const double>)` by reference
  /// (no batch path).
  template <class F>
  static SpanLeaf of(const F& f) {
    return SpanLeaf(
        [](const void* ctx, std::span<const double> pi) {
          return (*static_cast<const F*>(ctx))(pi);
        },
        &f);
  }

  /// Wraps an evaluator exposing both `operator()(span)` and
  /// `batch(beliefs, count, dim, out)` (e.g. bounds::ScratchBoundLeaf).
  /// Pass the per-evaluation cost in |S|-passes when known (a bound set:
  /// `set.size() + 1`).
  template <class F>
  static SpanLeaf of_batched(const F& f, std::size_t cost_hint = kDefaultCostHint) {
    return SpanLeaf(
        [](const void* ctx, std::span<const double> pi) {
          return (*static_cast<const F*>(ctx))(pi);
        },
        &f,
        [](const void* ctx, const double* beliefs, std::size_t count, std::size_t dim,
           double* out) { static_cast<const F*>(ctx)->batch(beliefs, count, dim, out); },
        cost_hint);
  }

  double operator()(std::span<const double> pi) const { return fn_(ctx_, pi); }

  bool has_batch() const { return batch_ != nullptr; }

  void batch(const double* beliefs, std::size_t count, std::size_t dim, double* out) const {
    batch_(ctx_, beliefs, count, dim, out);
  }

  std::size_t cost_hint() const { return cost_hint_; }

 private:
  Fn fn_;
  BatchFn batch_;
  const void* ctx_;
  std::size_t cost_hint_ = kDefaultCostHint;
};

/// Per-expansion work tallies, opted into via ExpansionOptions::stats for
/// decision-provenance records (obs/provenance.hpp). Unlike the global
/// pomdp.bellman.* counters — which concurrent episodes under --jobs write
/// into simultaneously — these are tallied inside the engine's private
/// workspace, so they describe exactly one expansion.
struct ExpansionNodeStats {
  /// Per-level tallies cover root distance 0 (the root Max node) through
  /// kMaxLevels-1; deeper nodes fold into the last slot. Meaningful on the
  /// action_values() path, where frame index equals root distance.
  static constexpr std::size_t kMaxLevels = 8;

  std::uint64_t nodes = 0;             ///< Max nodes opened
  std::uint64_t leaf_evaluations = 0;  ///< bound evaluations performed
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t memo_insertions = 0;
  std::array<std::uint64_t, kMaxLevels> nodes_per_level{};

  void reset() { *this = ExpansionNodeStats{}; }

  void note_node(std::size_t level) {
    ++nodes;
    ++nodes_per_level[std::min(level, kMaxLevels - 1)];
  }
};

/// Knobs of one expansion, mirroring the bellman_* parameters.
struct ExpansionOptions {
  double beta = 1.0;             ///< discount per tree level, in [0,1]
  ActionId skip_action = kInvalidId;  ///< mask one action out of every max
  double branch_floor = 0.0;     ///< prune branches below this likelihood
  /// Size cap for the exact transposition cache over successor beliefs
  /// (DESIGN.md §11: hash table + belief-key arena). When reached, further
  /// insertions are dropped for the rest of the root-action subtree
  /// (lookups keep working); nothing is evicted, since entries only live
  /// until the next root action clears the cache.
  std::size_t memo_max_bytes = 64ull << 20;
  /// Deep-pipeline node budget (action_values_batch_deep only): when any
  /// tree level's distinct-node count would exceed this, the pipeline
  /// abandons the level-wise expansion and falls back to the per-class
  /// walks. Values are bit-identical either way — the budget only bounds
  /// the deep scratch footprint (a node is |S| doubles plus its edges).
  /// The default admits the transient frontier of a 10^4-session fleet
  /// before its belief population converges (the steady state is an order
  /// of magnitude smaller); a fallback tick pays the partial deep work on
  /// top of the classic walks, so the budget should only bite when memory
  /// genuinely matters.
  std::size_t deep_node_budget = 1u << 20;
  /// When non-null, reset at the start of value()/action_values() and
  /// filled with that one expansion's work tallies (provenance). Purely
  /// observational: never read by the walk, so values are unchanged.
  ExpansionNodeStats* stats = nullptr;
};

/// Iterative Max-Avg expansion over a reusable workspace arena. One engine
/// per controller (or thread); an engine is not safe for concurrent use.
class ExpansionEngine {
 public:
  explicit ExpansionEngine(const Pomdp& pomdp);
  ExpansionEngine(const ExpansionEngine&) = delete;
  ExpansionEngine& operator=(const ExpansionEngine&) = delete;
  ~ExpansionEngine();

  /// Points the engine at another model (the arena is re-sized lazily on
  /// the next expansion). Used by the thread-local wrapper cache in
  /// bellman.cpp.
  void rebind(const Pomdp& pomdp) { pomdp_ = &pomdp; }
  const Pomdp& pomdp() const { return *pomdp_; }

  /// Depth-d Bellman value V_d(π) (Eq. 2); depth 0 returns leaf(π).
  double value(std::span<const double> belief, int depth, const SpanLeaf& leaf,
               const ExpansionOptions& options = {});

  /// Values of every root action (depth ≥ 1) written into `out` (resized to
  /// num_actions(), element i is action i; a masked action gets -inf).
  void action_values(std::span<const double> belief, int depth, const SpanLeaf& leaf,
                     const ExpansionOptions& options, std::vector<ActionValue>& out);

  /// The maximising root action; ties break to the lowest ActionId exactly
  /// as bellman_best_action does.
  ActionValue best_action(std::span<const double> belief, int depth, const SpanLeaf& leaf,
                          const ExpansionOptions& options = {});

  /// Root-action values for every lane of a batch, written lane-major into
  /// `out` (lane L's values at out[L·num_actions .. +num_actions), element a
  /// is action a; masked actions get -inf) — the batch-first entry point of
  /// DESIGN.md §13.
  ///
  /// Lanes are *canonicalized* before any expansion: lanes whose beliefs
  /// are bitwise identical (hash over the belief's bit pattern, confirmed
  /// by memcmp) form one equivalence class, and each class is solved by a
  /// single action_values() call whose results are scattered to every
  /// member lane. Classes are solved in first-occurrence lane order, each
  /// against engine state identical to a standalone call (the memo cache is
  /// cleared per root action), so every lane's values are bit-identical to
  /// looping action_values() over the lanes — for any batch composition
  /// and SIMD mode. `options.stats`, when set, describes
  /// the last class solved (exactly the single call for a batch of one).
  void action_values_batch(const BeliefBatch& batch, int depth, const SpanLeaf& leaf,
                           const ExpansionOptions& options, std::vector<ActionValue>& out,
                           BatchExpansionStats* stats = nullptr);

  /// The maximising root action per lane (best[L] for lane L), with
  /// best_action()'s exact lowest-ActionId tie-break, atop
  /// action_values_batch()'s shared-subtree reuse.
  void decide_batch(const BeliefBatch& batch, int depth, const SpanLeaf& leaf,
                    const ExpansionOptions& options, std::vector<ActionValue>& best,
                    BatchExpansionStats* stats = nullptr);

  /// Deep-batched variant of action_values_batch() (DESIGN.md §16): instead
  /// of walking one per-class tree at a time, the whole action×observation
  /// frontier of every canonical root is expanded level by level in SoA
  /// passes (expand_successors_batch), with successors canonicalized
  /// *globally* — across actions, roots, and levels — so each distinct
  /// belief at each remaining depth is expanded exactly once and the entire
  /// depth-0 frontier is evaluated in one leaf batch call. Because a
  /// subtree's value is a pure function of (belief bits, remaining depth)
  /// under the engine's fixed operation order, the back-substituted values
  /// are bit-identical to action_values_batch() — for any batch
  /// composition and SIMD mode. When a
  /// level would exceed options.deep_node_budget the call falls back to
  /// action_values_batch() (stats->deep reports which path ran).
  void action_values_batch_deep(const BeliefBatch& batch, int depth, const SpanLeaf& leaf,
                                const ExpansionOptions& options,
                                std::vector<ActionValue>& out,
                                BatchExpansionStats* stats = nullptr);

  /// decide_batch() atop action_values_batch_deep(): the same per-lane
  /// lowest-ActionId argmax over the deep pipeline's value rows.
  void decide_batch_deep(const BeliefBatch& batch, int depth, const SpanLeaf& leaf,
                         const ExpansionOptions& options, std::vector<ActionValue>& best,
                         BatchExpansionStats* stats = nullptr);

  /// Current arena footprint in bytes (sum of scratch-buffer and memo-cache
  /// capacities across all levels and the deep pipeline).
  std::size_t arena_bytes() const;

 private:
  struct Frame;
  struct MemoCache;
  struct Workspace;
  struct DeepScratch;

  void begin_expansion(int depth, const ExpansionOptions& options);
  double expand_iterative(std::size_t base_level, std::span<const double> belief, int depth,
                          const SpanLeaf& leaf, const ExpansionOptions& options);
  double root_action_future(std::span<const double> belief, ActionId action, int depth,
                            const SpanLeaf& leaf, const ExpansionOptions& options);
  void evaluate_frontier(Frame& fr, const SpanLeaf& leaf, const ExpansionOptions& options);
  void note_expansion_finished(ExpansionNodeStats* stats);

  // Batch plumbing shared by the classic and deep entry points.
  std::size_t canonicalize_roots(const BeliefBatch& batch);
  void solve_classes_classic(int depth, const SpanLeaf& leaf,
                             const ExpansionOptions& options);
  bool solve_classes_deep(int depth, const SpanLeaf& leaf,
                          const ExpansionOptions& options, BatchExpansionStats* stats);
  void scatter_class_values(std::size_t lanes, std::vector<ActionValue>& out);
  void select_best_lanes(std::size_t lanes, const ExpansionOptions& options,
                         std::vector<ActionValue>& best);

  const Pomdp* pomdp_;
  std::unique_ptr<Workspace> ws_;
  std::vector<ActionValue> scratch_values_;  // best_action() scratch
  std::size_t peak_arena_bytes_ = 0;

  // Batch canonicalization scratch (capacities persist across ticks).
  std::vector<double> batch_class_rows_;      // class beliefs, row-major
  util::BeliefTable batch_table_;             // batch_class_rows_' index
  std::vector<std::size_t> batch_class_of_;   // lane -> equivalence class
  std::vector<ActionValue> batch_class_values_;  // class-major solve results
  std::vector<ActionValue> batch_best_scratch_;  // decide_batch() scratch
  std::vector<ActionValue> class_values_scratch_;
  std::unique_ptr<DeepScratch> deep_;  // lazily built by the deep pipeline
};

}  // namespace recoverd
