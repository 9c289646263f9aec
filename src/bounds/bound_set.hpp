// Sets of lower-bound hyperplanes over the belief simplex (Eq. 6).
//
// Each bound vector b assigns value b(s) to the simplex vertex of state s;
// the set's value at a belief π is V_B⁻(π) = max_{b∈B} Σ_s b(s)·π(s).
// Adding vectors can only raise the pointwise maximum, which is how the
// iterative improvement of §4.1 monotonically tightens the bound.
//
// Storage is bounded (§4.3): when a capacity is set, the least-used
// unprotected vector is evicted. The first vector added is protected by
// default so the RA-Bound guarantee never degrades.
//
// evaluate() is the leaf of every Max-Avg expansion, so it is engineered as
// a hot kernel: each stored hyperplane carries a precomputed *prune key*
// (its maximum coefficient plus a rigorous rounding margin) that lets the
// scan skip — exactly, without changing the returned value or the winning
// index — any hyperplane whose best-possible dot product cannot beat the
// running maximum. Callers on the expansion hot path use the EvalScratch
// overloads, which add a warm start (the previous winner is tried first, so
// the running maximum starts high and the prune keys bite immediately) and
// accumulate use-counter wins locally, deferring the shared-counter update
// to one flush per decision (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace recoverd::bounds {

/// One bounding hyperplane: an entry per POMDP state.
using BoundVector = std::vector<double>;

class BoundSet {
 public:
  /// `dimension` = |S|; `capacity` = maximum number of stored vectors
  /// (0 = unlimited).
  explicit BoundSet(std::size_t dimension, std::size_t capacity = 0);

  std::size_t dimension() const { return dimension_; }
  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

  /// Mutation counter: bumped by every add() that stores or prunes,
  /// remove(), and capacity eviction. Decision-provenance records snapshot
  /// it so a decision can be tied to the exact bound-set revision that
  /// produced its values (two decisions with equal generation evaluated
  /// the same hyperplanes).
  std::uint64_t generation() const { return generation_; }

  /// Whether a first vector was ever added (Snapshot::first_added).
  bool first_added() const { return first_added_; }

  /// Outcome of an add() call.
  enum class AddResult {
    Added,            ///< stored (possibly evicting or pruning others)
    Dominated,        ///< an existing vector pointwise-dominates it; dropped
  };

  /// Inserts a hyperplane. Vectors pointwise-dominated by the newcomer are
  /// pruned (they can never attain the max); a newcomer dominated by an
  /// existing vector is dropped. On overflow the least-used unprotected
  /// vector is evicted.
  AddResult add(BoundVector vector);

  /// Marks the vector at `index` as non-evictable (the RA-Bound base plane).
  void protect(std::size_t index);

  /// True when the vector at `index` is protected from eviction/removal.
  bool is_protected(std::size_t index) const;

  /// Removes the (unprotected) vector at `index` — the guard runtime's
  /// bound-consistency repair path. Indices past `index` shift down by one.
  void remove(std::size_t index);

  /// V_B⁻(π) = max_b ⟨b, π⟩, and records a "use" of the attaining vector
  /// (for least-used eviction). Precondition: at least one vector stored;
  /// `belief` has non-negative entries (the pruned scan's skip bound relies
  /// on it). Safe to call concurrently (the use-count bump is a relaxed
  /// atomic) as long as no thread mutates the set.
  double evaluate(std::span<const double> belief) const;

  /// Buffers of the SIMD tile scan behind evaluate_batch() and
  /// best_indices(): the gathered row tile, its kept-column list and the
  /// plane-pointer table. Caller-owned so repeated scans allocate nothing;
  /// one per thread.
  struct TileScratch {
    std::vector<double> tile;
    std::vector<std::size_t> cols;
    std::vector<const double*> planes;
  };

  /// Per-caller scratch for the hot-path evaluate() overloads: accumulates
  /// use-counter wins and bounds.eval.* tallies locally (no shared-memory
  /// RMW per leaf) and carries the warm-start winner between evaluations.
  /// One scratch per concurrently evaluating thread; begin_eval() before a
  /// batch of evaluations, flush_eval() once the set may mutate again.
  struct EvalScratch {
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    std::vector<std::uint64_t> wins;  ///< per-entry evaluate() wins since begin
    std::size_t warm = kNone;         ///< previous winner, tried first
    std::uint64_t evaluations = 0;    ///< evaluate() calls since last flush
    std::uint64_t planes_skipped = 0;  ///< hyperplanes pruned by the key bound
    std::uint64_t warm_start_hits = 0;  ///< warm plane turned out to be the winner
    std::uint64_t batch_calls = 0;      ///< evaluate_batch() invocations

    TileScratch tiles;  ///< SIMD tile-scan buffers (scratch only)
  };

  /// Sizes `scratch` for this set (wins has one slot per stored vector,
  /// zeroed) and clamps a stale warm-start index. Call after any mutation
  /// (add/remove/evictions shift indices) and before the evaluations whose
  /// wins the scratch will accumulate.
  void begin_eval(EvalScratch& scratch) const;

  /// evaluate() without shared-memory writes: the winner's use count is
  /// accumulated in `scratch.wins` and the previous winner is tried first
  /// (warm start). Bit-identical value and winning index to evaluate().
  double evaluate(std::span<const double> belief, EvalScratch& scratch) const;

  /// Evaluates `count` beliefs stored row-major (count × dimension) in one
  /// pass, writing out[i] for row i. Bit-identical values and winners to
  /// `count` sequential evaluate() calls in every SIMD mode: under the
  /// Avx2/Avx512 modes whole 4-/8-row groups go through the tile scan (see
  /// best_indices()), whose full unpruned scan reproduces the pruned scalar
  /// scan's max and lowest-index winner (pruning and warm starts are
  /// value-invariant by construction — only the planes_skipped tally
  /// differs between modes). Leftover rows, and every row in scalar mode,
  /// take the scalar path, where the warm start chains across rows —
  /// consecutive leaves of an expansion frontier are usually won by the
  /// same hyperplane.
  void evaluate_batch(const double* beliefs, std::size_t count, std::span<double> out,
                      EvalScratch& scratch) const;

  /// Applies the wins accumulated in `scratch` to the stored use counters
  /// (in ascending index order, so counts are deterministic for any caller
  /// structure), publishes the bounds.eval.* metric tallies, and zeroes the
  /// scratch tallies. The warm-start index survives the flush.
  void flush_eval(EvalScratch& scratch) const;

  /// Index of the hyperplane attaining the max at `belief`.
  std::size_t best_index(std::span<const double> belief) const;

  /// Winners-out argmax of `count` non-negative rows stored row-major
  /// (count × dimension): winners[r] = best_index(row r) for every r, bit
  /// for bit in every SIMD mode. The Eq. 7 backup scores all of its touched
  /// (action, observation) weight rows in this one call. Under Avx2/Avx512
  /// the rows are gathered into 4-/8-lane tiles (a final partial tile is
  /// zero-padded) and every hyperplane is scanned, four per pass, with
  /// per-lane sums in linalg::dot's term order — a column that is zero in
  /// every row of a tile is skipped, which leaves each sum unchanged — and
  /// a strict `>` in ascending index, so the lowest index still wins ties.
  /// In scalar mode each row takes the pruned scan of best_index(). Like
  /// best_index(), it records no use of the winners.
  void best_indices(const double* rows, std::size_t count, std::span<std::size_t> winners,
                    TileScratch& scratch) const;

  /// Read access to a stored hyperplane.
  const BoundVector& vector_at(std::size_t index) const;

  /// Number of evaluate() calls the vector at `index` has won.
  std::size_t use_count(std::size_t index) const;

  /// Lossless serialization image of a BoundSet — everything restore() needs
  /// to rebuild a set whose decisions, eviction order, and generation-based
  /// cache invalidation behave bitwise-identically to the original. Planes
  /// are stored in index order; prune keys are NOT stored (restore()
  /// recomputes them through make_entry, so they can never drift from the
  /// vector bits).
  struct Snapshot {
    struct Plane {
      BoundVector vector;
      bool is_protected = false;
      std::uint64_t uses = 0;
    };
    std::size_t dimension = 0;
    std::size_t capacity = 0;
    std::uint64_t generation = 0;
    /// Whether a first vector was ever added (controls whether the *next*
    /// add() is auto-protected); distinct from planes.empty() after prunes.
    bool first_added = false;
    std::vector<Plane> planes;
  };

  /// Captures the complete set state. Not safe against concurrent mutation
  /// (concurrent evaluate() is fine — use counts are read racily but each
  /// value read is a real count).
  Snapshot snapshot() const;

  /// Rebuilds a set from a snapshot, bypassing add(): no domination checks,
  /// no pruning, no eviction, no generation bumps — planes land at the same
  /// indices with the same protection flags, use counts, and generation as
  /// the captured set. Throws PreconditionError on inconsistent snapshots
  /// (zero dimension, plane length mismatch, non-finite coefficients).
  static BoundSet restore(const Snapshot& snapshot);

 private:
  struct Entry {
    BoundVector vector;
    /// Safe upper bound on ⟨b, π⟩ / Σπ for non-negative π: max_s b(s) plus a
    /// rounding margin (see make_entry). Lets the scan skip this plane when
    /// prune_key · Σπ is strictly below the running max — the skipped dot
    /// provably could neither win nor tie, so value AND winner are unchanged.
    double prune_key = 0.0;
    bool is_protected = false;
    mutable std::size_t uses = 0;
  };

  Entry make_entry(BoundVector vector) const;
  /// The shared pruned scan: returns the max dot product and stores the
  /// winning index (lowest index attaining the max, exactly the naive
  /// ascending scan's tie-break) in `*winner`. `warm` (kNone = cold) is
  /// evaluated first; `scratch` (may be null) receives the skip tallies.
  double scan(std::span<const double> belief, std::size_t warm, std::size_t* winner,
              EvalScratch* scratch) const;

  /// The tile scan shared by evaluate_batch() and best_indices(): the full
  /// argmax of row-major rows [0, count) in tiles of the active SIMD tier's
  /// width, calling sink(row, max, winner) for each row in order. Returns
  /// false, without scanning, in scalar mode or when the build lacks the
  /// kernels.
  template <class Sink>
  bool tile_scan(const double* rows, std::size_t count, TileScratch& scratch,
                 Sink&& sink) const;

  void evict_least_used();

  std::size_t dimension_;
  std::size_t capacity_;
  bool first_added_ = false;
  std::uint64_t generation_ = 0;
  std::vector<Entry> entries_;
};

/// Devirtualized leaf binding for the expansion engine: evaluates a
/// BoundSet through one EvalScratch (warm start and win tally). Shaped for
/// SpanLeaf::of_batched — the engine calls operator() for single leaves and
/// batch() for whole frontiers.
struct ScratchBoundLeaf {
  const BoundSet* set = nullptr;
  BoundSet::EvalScratch* scratch = nullptr;

  double operator()(std::span<const double> pi) const { return set->evaluate(pi, *scratch); }
  void batch(const double* beliefs, std::size_t count, std::size_t /*dim*/,
             double* out) const {
    set->evaluate_batch(beliefs, count, {out, count}, *scratch);
  }
};

}  // namespace recoverd::bounds
