#include "bounds/bound_set.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "linalg/simd_kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"

namespace recoverd::bounds {

namespace {
// Set-churn instruments. `bounds.set.size` is a gauge tracking the
// hyperplane count of the most recently mutated set — in the common
// single-controller setup that is *the* |B| of Eq. 6.
struct SetInstruments {
  obs::Counter& added;
  obs::Counter& dominated;
  obs::Counter& pruned;
  obs::Counter& evicted;
  obs::Gauge& size;

  static SetInstruments& get() {
    static SetInstruments instruments{
        obs::metrics().counter("bounds.set.added"),
        obs::metrics().counter("bounds.set.dominated"),
        obs::metrics().counter("bounds.set.pruned"),
        obs::metrics().counter("bounds.set.evicted"),
        obs::metrics().gauge("bounds.set.size"),
    };
    return instruments;
  }
};

// Evaluate-kernel instruments (DESIGN.md §11). The scratch overloads tally
// locally and publish through flush_eval(); the scratch-free evaluate()
// bumps them directly (it already pays an atomic for the use counter).
struct EvalInstruments {
  obs::Counter& calls;
  obs::Counter& planes_skipped;
  obs::Counter& warm_start_hits;
  obs::Counter& batches;
  obs::Counter& flushes;

  static EvalInstruments& get() {
    static EvalInstruments instruments{
        obs::metrics().counter("bounds.eval.calls"),
        obs::metrics().counter("bounds.eval.planes_skipped"),
        obs::metrics().counter("bounds.eval.warm_start_hits"),
        obs::metrics().counter("bounds.eval.batches"),
        obs::metrics().counter("bounds.eval.flushes"),
    };
    return instruments;
  }
};

// Rows per SIMD tile under the active kernel tier; 0 = scalar scan only.
std::size_t tile_width() {
#if RECOVERD_SIMD_KERNELS_X86
  switch (simd::active_mode()) {
    case simd::Mode::Avx512:
      return 8;
    case simd::Mode::Avx2:
      return 4;
    case simd::Mode::Scalar:
      break;
  }
#endif
  return 0;
}
}  // namespace

BoundSet::BoundSet(std::size_t dimension, std::size_t capacity)
    : dimension_(dimension), capacity_(capacity) {
  RD_EXPECTS(dimension > 0, "BoundSet: dimension must be positive");
}

BoundSet::Entry BoundSet::make_entry(BoundVector vector) const {
  Entry entry;
  double max_coef = -std::numeric_limits<double>::infinity();
  double max_abs = 0.0;
  for (double v : vector) {
    max_coef = std::max(max_coef, v);
    max_abs = std::max(max_abs, std::abs(v));
  }
  // Rigorous skip bound for the pruned scan. For a belief π with π(s) ≥ 0
  // and Σπ = S, the true dot obeys ⟨b, π⟩ ≤ max_coef · S (regardless of the
  // sign of max_coef, since each term π(s)·b(s) ≤ π(s)·max_coef). The
  // *floating-point* dot and the floating-point S each deviate from their
  // exact values by at most ~n·2⁻⁵³ relative to max_abs·S, so inflating the
  // key by n·2⁻⁴⁵·max_abs — a 256× safety factor over the worst-case
  // accumulation error — guarantees fl⟨b, π⟩ ≤ prune_key · fl(S). A plane
  // with prune_key·S strictly below the running max therefore cannot win
  // *or tie*: skipping it changes neither the value nor the winning index,
  // while costing only ~3·10⁻¹⁴·n relative pruning slack (DESIGN.md §11).
  const double margin =
      max_abs * static_cast<double>(dimension_) * 0x1p-45;
  entry.prune_key = max_coef + margin;
  entry.vector = std::move(vector);
  return entry;
}

BoundSet::AddResult BoundSet::add(BoundVector vector) {
  RD_EXPECTS(vector.size() == dimension_, "BoundSet::add: dimension mismatch");
  for (double v : vector) {
    RD_EXPECTS(std::isfinite(v), "BoundSet::add: entries must be finite");
  }

  // Dropped if an existing hyperplane already dominates it everywhere.
  for (const auto& entry : entries_) {
    if (linalg::dominates(entry.vector, vector)) {
      SetInstruments::get().dominated.add();
      return AddResult::Dominated;
    }
  }
  // Prune existing hyperplanes the newcomer dominates (never the protected
  // base plane: by the check above the newcomer is not *strictly* needed to
  // keep it, but the base plane carries the standalone RA guarantee).
  const std::size_t before = entries_.size();
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const Entry& e) {
                                  return !e.is_protected &&
                                         linalg::dominates(vector, e.vector);
                                }),
                 entries_.end());
  if (before > entries_.size()) SetInstruments::get().pruned.add(before - entries_.size());

  if (capacity_ > 0 && entries_.size() >= capacity_) evict_least_used();

  Entry entry = make_entry(std::move(vector));
  entry.is_protected = !first_added_;  // the first vector (RA-Bound) is protected
  first_added_ = true;
  entries_.push_back(std::move(entry));
  ++generation_;  // covers the insert plus any prune/evict above
  SetInstruments::get().added.add();
  SetInstruments::get().size.set(static_cast<double>(entries_.size()));
  return AddResult::Added;
}

void BoundSet::protect(std::size_t index) {
  RD_EXPECTS(index < entries_.size(), "BoundSet::protect: index out of range");
  entries_[index].is_protected = true;
}

bool BoundSet::is_protected(std::size_t index) const {
  RD_EXPECTS(index < entries_.size(), "BoundSet::is_protected: index out of range");
  return entries_[index].is_protected;
}

void BoundSet::remove(std::size_t index) {
  RD_EXPECTS(index < entries_.size(), "BoundSet::remove: index out of range");
  RD_EXPECTS(!entries_[index].is_protected,
             "BoundSet::remove: cannot remove a protected vector");
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(index));
  ++generation_;
  SetInstruments::get().evicted.add();
  SetInstruments::get().size.set(static_cast<double>(entries_.size()));
}

double BoundSet::scan(std::span<const double> belief, std::size_t warm,
                      std::size_t* winner, EvalScratch* scratch) const {
  RD_EXPECTS(!entries_.empty(), "BoundSet: no vectors stored");
  RD_EXPECTS(belief.size() == dimension_, "BoundSet: belief dimension mismatch");
  const std::size_t n = entries_.size();

  // Σπ makes the skip bound independent of how well the caller normalised:
  // the prune key scales with the actual mass, so the scan is exact for any
  // non-negative belief (sum ≈ 1 on the engine path). It is computed lazily
  // at the first prune check so single-plane sets — where nothing can ever
  // be skipped — pay one dot per call, not two passes.
  double belief_sum = -1.0;

  double best_value = -std::numeric_limits<double>::infinity();
  std::size_t best = n;
  if (warm < n) {
    best_value = linalg::dot(entries_[warm].vector, belief);
    best = warm;
  }
  std::uint64_t skipped = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i == warm) continue;
    const Entry& e = entries_[i];
    if (belief_sum < 0.0 && best != n) {
      belief_sum = 0.0;
      for (double v : belief) belief_sum += v;
    }
    if (best != n && e.prune_key * belief_sum < best_value) {
      ++skipped;
      continue;
    }
    const double v = linalg::dot(e.vector, belief);
    // `v == best_value && i < best` reproduces the naive ascending scan's
    // tie-break (lowest index attaining the max) when the warm start seeded
    // the running max from a higher index.
    if (v > best_value || (v == best_value && i < best)) {
      best_value = v;
      best = i;
    }
  }
  if (scratch != nullptr) {
    scratch->planes_skipped += skipped;
    if (warm < n && best == warm) ++scratch->warm_start_hits;
  }
  *winner = best;
  return best_value;
}

double BoundSet::evaluate(std::span<const double> belief) const {
  std::size_t best = 0;
  EvalScratch tally;  // local: publish the scan's skip count immediately
  const double value = scan(belief, EvalScratch::kNone, &best, &tally);
  EvalInstruments& instruments = EvalInstruments::get();
  instruments.calls.add();
  if (tally.planes_skipped > 0) instruments.planes_skipped.add(tally.planes_skipped);
  // Concurrent evaluations of one set are allowed: the use-count bump is
  // the only write, made atomic so the race is benign. (Mutations —
  // add/protect — still require exclusive access.)
  std::atomic_ref<std::size_t>(entries_[best].uses)
      .fetch_add(1, std::memory_order_relaxed);
  return value;
}

void BoundSet::begin_eval(EvalScratch& scratch) const {
  scratch.wins.assign(entries_.size(), 0);
  if (scratch.warm >= entries_.size()) scratch.warm = EvalScratch::kNone;
  scratch.evaluations = 0;
  scratch.planes_skipped = 0;
  scratch.warm_start_hits = 0;
  scratch.batch_calls = 0;
}

double BoundSet::evaluate(std::span<const double> belief, EvalScratch& scratch) const {
  RD_EXPECTS(scratch.wins.size() == entries_.size(),
             "BoundSet::evaluate: scratch not sized for this set (call begin_eval)");
  std::size_t best = 0;
  const double value = scan(belief, scratch.warm, &best, &scratch);
  ++scratch.wins[best];
  ++scratch.evaluations;
  scratch.warm = best;
  return value;
}

template <class Sink>
bool BoundSet::tile_scan(const double* rows, std::size_t count, TileScratch& scratch,
                         Sink&& sink) const {
#if RECOVERD_SIMD_KERNELS_X86
  const std::size_t width = tile_width();
  if (width == 0) return false;
  RD_EXPECTS(!entries_.empty(), "BoundSet: no vectors stored");
  const std::size_t n = entries_.size();
  scratch.planes.resize(n);
  for (std::size_t i = 0; i < n; ++i) scratch.planes[i] = entries_[i].vector.data();
  scratch.tile.resize(width * dimension_);
  scratch.cols.resize(dimension_);
  const double* const* planes = scratch.planes.data();
  double* tile = scratch.tile.data();
  std::size_t* cols = scratch.cols.data();
  double best[8];
  std::size_t win[8];
  for (std::size_t r = 0; r < count; r += width) {
    const std::size_t lanes = std::min(width, count - r);
    const double* group = rows + r * dimension_;
    // Full ascending scan, four planes per pass, over the columns that are
    // non-zero in some row. Each lane's dot is term-for-term linalg::dot
    // (a dropped column adds exact ±0), and a strict `>` keeps the lowest
    // index on ties — exactly the pruned scalar scan's value and winner
    // (the prune key and warm start never change either; see scan()).
    if (width == 8) {
      const std::size_t m = linalg::simd::gather_tile8(group, lanes, dimension_, tile, cols);
      linalg::simd::argmax8(planes, n, tile, cols, m, best, win);
    } else {
      const std::size_t m = linalg::simd::gather_tile4(group, lanes, dimension_, tile, cols);
      linalg::simd::argmax4(planes, n, tile, cols, m, best, win);
    }
    for (std::size_t l = 0; l < lanes; ++l) sink(r + l, best[l], win[l]);
  }
  return true;
#else
  (void)rows;
  (void)count;
  (void)scratch;
  (void)sink;
  return false;
#endif
}

void BoundSet::evaluate_batch(const double* beliefs, std::size_t count,
                              std::span<double> out, EvalScratch& scratch) const {
  RD_EXPECTS(out.size() >= count, "BoundSet::evaluate_batch: output too small");
  obs::TraceSpan span("bound_set.evaluate_batch", obs::TraceLevel::Full);
  span.arg("count", static_cast<double>(count));
  span.arg("planes", static_cast<double>(entries_.size()));
  ++scratch.batch_calls;
  // Whole tiles take the SIMD scan; the leftover rows keep the scalar
  // path's pruning and warm start.
  const std::size_t width = tile_width();
  const std::size_t tiled = width == 0 ? 0 : count - count % width;
  if (tiled > 0) {
    RD_EXPECTS(scratch.wins.size() == entries_.size(),
               "BoundSet::evaluate_batch: scratch not sized for this set");
    tile_scan(beliefs, tiled, scratch.tiles,
              [&](std::size_t row, double value, std::size_t winner) {
                out[row] = value;
                ++scratch.wins[winner];
                ++scratch.evaluations;
                if (winner == scratch.warm) ++scratch.warm_start_hits;
                scratch.warm = winner;
              });
  }
  for (std::size_t i = tiled; i < count; ++i) {
    out[i] = evaluate({beliefs + i * dimension_, dimension_}, scratch);
  }
}

void BoundSet::flush_eval(EvalScratch& scratch) const {
  RD_EXPECTS(scratch.wins.size() <= entries_.size(),
             "BoundSet::flush_eval: set shrank since begin_eval");
  // Ascending index order, one add per entry: deterministic counts for any
  // mix of scratches, and |B| atomics per decide instead of one per leaf.
  for (std::size_t i = 0; i < scratch.wins.size(); ++i) {
    if (scratch.wins[i] == 0) continue;
    std::atomic_ref<std::size_t>(entries_[i].uses)
        .fetch_add(scratch.wins[i], std::memory_order_relaxed);
    scratch.wins[i] = 0;
  }
  EvalInstruments& instruments = EvalInstruments::get();
  if (scratch.evaluations > 0) instruments.calls.add(scratch.evaluations);
  if (scratch.planes_skipped > 0) instruments.planes_skipped.add(scratch.planes_skipped);
  if (scratch.warm_start_hits > 0) {
    instruments.warm_start_hits.add(scratch.warm_start_hits);
  }
  if (scratch.batch_calls > 0) instruments.batches.add(scratch.batch_calls);
  instruments.flushes.add();
  scratch.evaluations = 0;
  scratch.planes_skipped = 0;
  scratch.warm_start_hits = 0;
  scratch.batch_calls = 0;
}

std::size_t BoundSet::best_index(std::span<const double> belief) const {
  std::size_t best = 0;
  (void)scan(belief, EvalScratch::kNone, &best, nullptr);
  return best;
}

void BoundSet::best_indices(const double* rows, std::size_t count,
                            std::span<std::size_t> winners, TileScratch& scratch) const {
  RD_EXPECTS(!entries_.empty(), "BoundSet: no vectors stored");
  RD_EXPECTS(winners.size() >= count, "BoundSet::best_indices: winners too small");
  const bool tiled = tile_scan(rows, count, scratch,
                               [&](std::size_t row, double /*value*/, std::size_t winner) {
                                 winners[row] = winner;
                               });
  if (tiled) return;
  for (std::size_t r = 0; r < count; ++r) {
    (void)scan({rows + r * dimension_, dimension_}, EvalScratch::kNone, &winners[r], nullptr);
  }
}

const BoundVector& BoundSet::vector_at(std::size_t index) const {
  RD_EXPECTS(index < entries_.size(), "BoundSet::vector_at: index out of range");
  return entries_[index].vector;
}

std::size_t BoundSet::use_count(std::size_t index) const {
  RD_EXPECTS(index < entries_.size(), "BoundSet::use_count: index out of range");
  return entries_[index].uses;
}

BoundSet::Snapshot BoundSet::snapshot() const {
  Snapshot snap;
  snap.dimension = dimension_;
  snap.capacity = capacity_;
  snap.generation = generation_;
  snap.first_added = first_added_;
  snap.planes.reserve(entries_.size());
  for (const Entry& e : entries_) {
    Snapshot::Plane plane;
    plane.vector = e.vector;
    plane.is_protected = e.is_protected;
    plane.uses = static_cast<std::uint64_t>(e.uses);
    snap.planes.push_back(std::move(plane));
  }
  return snap;
}

BoundSet BoundSet::restore(const Snapshot& snapshot) {
  BoundSet set(snapshot.dimension, snapshot.capacity);
  set.generation_ = snapshot.generation;
  set.first_added_ = snapshot.first_added;
  set.entries_.reserve(snapshot.planes.size());
  for (const Snapshot::Plane& plane : snapshot.planes) {
    RD_EXPECTS(plane.vector.size() == snapshot.dimension,
               "BoundSet::restore: plane dimension mismatch");
    for (double v : plane.vector) {
      RD_EXPECTS(std::isfinite(v), "BoundSet::restore: entries must be finite");
    }
    Entry entry = set.make_entry(plane.vector);
    entry.is_protected = plane.is_protected;
    entry.uses = static_cast<std::size_t>(plane.uses);
    set.entries_.push_back(std::move(entry));
  }
  return set;
}

void BoundSet::evict_least_used() {
  std::size_t victim = entries_.size();
  std::size_t fewest = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].is_protected) continue;
    if (entries_[i].uses < fewest) {
      fewest = entries_[i].uses;
      victim = i;
    }
  }
  RD_ENSURES(victim < entries_.size(),
             "BoundSet: capacity exhausted by protected vectors");
  entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(victim));
  SetInstruments::get().evicted.add();
}

}  // namespace recoverd::bounds
