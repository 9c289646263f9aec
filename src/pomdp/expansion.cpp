#include "pomdp/expansion.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>

#include "linalg/vector_ops.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pomdp/belief.hpp"
#include "pomdp/belief_batch.hpp"
#include "util/belief_table.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"

namespace recoverd {

namespace {
// Tree-shape instruments shared with the bellman.cpp wrappers: a "node" is
// a belief at which the max over actions is taken; leaves are the bound
// evaluations at depth 0. With memoization on, both count the work actually
// performed — cache hits expand no node and call no leaf.
obs::Counter& nodes_expanded_counter() {
  static obs::Counter& c = obs::metrics().counter("pomdp.bellman.nodes_expanded");
  return c;
}

obs::Counter& leaf_evaluations_counter() {
  static obs::Counter& c = obs::metrics().counter("pomdp.bellman.leaf_evaluations");
  return c;
}

// Engine-specific instruments (DESIGN.md §8).
obs::Counter& workspace_reuses_counter() {
  static obs::Counter& c = obs::metrics().counter("pomdp.engine.workspace_reuses");
  return c;
}

obs::Gauge& arena_peak_bytes_gauge() {
  static obs::Gauge& g = obs::metrics().gauge("pomdp.engine.arena_peak_bytes");
  return g;
}

// Transposition-cache instruments (DESIGN.md §11). Tallied in the
// workspace during the walk and drained once per expansion, so the hot loop
// never touches the shared counters.
struct MemoInstruments {
  obs::Counter& hits;
  obs::Counter& misses;
  obs::Counter& insertions;
  obs::Counter& capped;
  obs::Gauge& bytes;

  static MemoInstruments& get() {
    static MemoInstruments instruments{
        obs::metrics().counter("pomdp.memo.hits"),
        obs::metrics().counter("pomdp.memo.misses"),
        obs::metrics().counter("pomdp.memo.insertions"),
        obs::metrics().counter("pomdp.memo.capped"),
        obs::metrics().gauge("pomdp.memo.bytes"),
    };
    return instruments;
  }
};

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

void check_common_options(const Pomdp& pomdp, std::span<const double> belief,
                          const ExpansionOptions& o) {
  RD_EXPECTS(o.beta >= 0.0 && o.beta <= 1.0, "ExpansionEngine: beta must lie in [0,1]");
  RD_EXPECTS(belief.size() == pomdp.num_states(),
             "ExpansionEngine: belief dimension mismatch");
  RD_EXPECTS(o.skip_action == kInvalidId || pomdp.num_actions() > 1,
             "ExpansionEngine: cannot mask the only action");
  RD_EXPECTS(o.branch_floor >= 0.0 && o.branch_floor < 1.0,
             "ExpansionEngine: branch floor must lie in [0,1)");
}

// Batch-engine instruments (DESIGN.md §13): one `calls` bump per
// action_values_batch(); `sessions` counts lanes, `classes` the distinct
// roots actually expanded, `shared_hits` the lanes served by an earlier
// lane's solve (sessions = classes + shared_hits).
struct BatchInstruments {
  obs::Counter& calls;
  obs::Counter& sessions;
  obs::Counter& classes;
  obs::Counter& shared_hits;

  static BatchInstruments& get() {
    static BatchInstruments instruments{
        obs::metrics().counter("engine.batch.calls"),
        obs::metrics().counter("engine.batch.sessions"),
        obs::metrics().counter("engine.batch.classes"),
        obs::metrics().counter("engine.batch.shared_hits"),
    };
    return instruments;
  }
};

// Deep-pipeline instruments (DESIGN.md §16): `nodes` counts the distinct
// Max nodes expanded across every level, `leaves` the distinct depth-0
// beliefs in the single frontier batch, `fallbacks` the calls that hit the
// node budget and reran through the per-class walks.
struct DeepInstruments {
  obs::Counter& calls;
  obs::Counter& nodes;
  obs::Counter& leaves;
  obs::Counter& fallbacks;

  static DeepInstruments& get() {
    static DeepInstruments instruments{
        obs::metrics().counter("engine.deep.calls"),
        obs::metrics().counter("engine.deep.nodes"),
        obs::metrics().counter("engine.deep.leaves"),
        obs::metrics().counter("engine.deep.fallbacks"),
    };
    return instruments;
  }
};

// out[n] = linalg::dot(r, row n) for `count` row-major |r|-rows, four rows
// per pass: each sum still runs from 0.0 in ascending state order,
// multiply then add, so every value is linalg::dot's bit for bit; the four
// independent chains only overlap their add latencies.
void dot_rows(std::span<const double> r, const double* rows, std::size_t count,
              double* out) {
  const std::size_t dim = r.size();
  std::size_t n = 0;
  for (; n + 4 <= count; n += 4) {
    const double* a = rows + n * dim;
    const double* b = a + dim;
    const double* c = b + dim;
    const double* e = c + dim;
    double sa = 0.0;
    double sb = 0.0;
    double sc = 0.0;
    double se = 0.0;
    for (std::size_t s = 0; s < dim; ++s) {
      sa += r[s] * a[s];
      sb += r[s] * b[s];
      sc += r[s] * c[s];
      se += r[s] * e[s];
    }
    out[n] = sa;
    out[n + 1] = sb;
    out[n + 2] = sc;
    out[n + 3] = se;
  }
  for (; n < count; ++n) out[n] = linalg::dot(r, {rows + n * dim, dim});
}

// Row r of two CSR matrices holds the same (column, value) entries, bit
// for bit.
bool same_row(const linalg::SparseMatrix& x, const linalg::SparseMatrix& y, std::size_t r) {
  const auto a = x.row(r);
  const auto b = y.row(r);
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

bool same_matrix(const linalg::SparseMatrix& x, const linalg::SparseMatrix& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    if (!same_row(x, y, r)) return false;
  }
  return true;
}

// Two actions expand a belief into the same branches, bit for bit, when
// their observation matrices match and their transition rows match on the
// belief's support: pred(t) sums p(t|s)·π(s) over Pᵀ's row t, and a state
// off the support adds an exact zero under either action. For every pair
// a' < a this returns the states whose transition rows match, or 0 when
// the observation matrices differ or |S| > 64 (the masks are one word).
std::vector<std::uint64_t> successor_reuse_masks(const Pomdp& pomdp) {
  const std::size_t num_states = pomdp.num_states();
  const std::size_t num_actions = pomdp.num_actions();
  std::vector<std::uint64_t> masks(num_actions * num_actions, 0);
  if (num_states > 64) return masks;
  std::vector<ActionId> obs_class(num_actions);
  for (ActionId a = 0; a < num_actions; ++a) {
    obs_class[a] = a;
    for (ActionId b = 0; b < a; ++b) {
      if (obs_class[b] == b && same_matrix(pomdp.observation(a), pomdp.observation(b))) {
        obs_class[a] = b;
        break;
      }
    }
    for (ActionId b = 0; b < a; ++b) {
      if (obs_class[a] != obs_class[b]) continue;
      std::uint64_t mask = 0;
      for (StateId s = 0; s < num_states; ++s) {
        if (same_row(pomdp.mdp().transition(a), pomdp.mdp().transition(b), s)) {
          mask |= std::uint64_t{1} << s;
        }
      }
      masks[a * num_actions + b] = mask;
    }
  }
  return masks;
}

}  // namespace

// One tree level of the arena: the successor buffers of the node currently
// open at that level plus the little state machine that replaces the call
// stack of the recursive implementation.
struct ExpansionEngine::Frame {
  // The open action's branches: a one-lane expand_successors_batch()
  // frontier whose posterior rows are normalised in place. Capacities
  // persist across expansions, which is what makes the steady state
  // allocation-free.
  SuccessorFrontier successors;

  // Node state.
  std::span<const double> belief;  // points into the parent frame's posteriors
  double best = kNegInf;           // running max over completed actions
  ActionId next_action = 0;        // next action to open
  bool done = false;               // all actions folded into `best`

  // State of the currently open action.
  double immediate = 0.0;    // π·r(a)
  double value_acc = 0.0;    // Σ (β·γ)·child over finished branches
  double kept_mass = 0.0;    // Σ γ over visited branches
  std::size_t branch = 0;    // next branch to evaluate
  std::size_t num_kept = 0;  // branches of the open action
  double pending_gamma = 0.0;  // γ of the branch currently being descended
  std::uint64_t pending_hash = 0;  // memo hash of that branch's belief

  void begin_node(std::span<const double> node_belief, const Pomdp& pomdp,
                  const ExpansionOptions& o);
  void advance_action(const Pomdp& pomdp, const ExpansionOptions& o);
  void finish_action(const Pomdp& pomdp, const ExpansionOptions& o);

  const double* posterior(std::size_t i, std::size_t num_states) const {
    return successors.posteriors.data() + i * num_states;
  }

  std::size_t bytes() const { return successors.bytes(); }
};

// Exact transposition cache over successor beliefs (DESIGN.md §11).
//
// Open-addressing hash table (linear probing, power-of-two capacity, no
// deletions) over keys = (belief bit pattern, remaining subtree depth);
// belief bits are copied into a flat key arena so lookups compare with one
// memcmp. Equality is *bitwise*, never numeric: two beliefs hash equal only
// to be confirmed byte-for-byte, so a hash collision can only cause a miss
// (re-expansion, still exact), and distinct bit patterns with equal value —
// -0.0 vs 0.0, say — are simply cached twice. The per-call seed folds in
// beta / skip_action / branch_floor bits, making the skip-mask part of the
// key even though the cache never outlives a fixed-option call.
//
// Clearing is O(1) via an epoch stamp (capacities persist, so the steady
// state allocates nothing); action_values() clears the cache at the start
// of every root-action subtree (see root_action_future) and value() once
// per call. The size cap stops admission rather than evicting; entries only
// live until the next clear anyway.
struct ExpansionEngine::MemoCache {
  struct Slot {
    std::uint64_t hash = 0;
    std::uint32_t epoch = 0;         // valid iff == MemoCache::epoch
    std::int32_t depth = -1;         // remaining subtree depth of the entry
    std::size_t key_offset = 0;      // into keys_, units of doubles
    double value = 0.0;
  };

  std::vector<Slot> slots;   // power-of-two capacity
  std::vector<double> keys;  // belief-key arena, dim doubles per entry
  std::size_t keys_used = 0;
  std::size_t count = 0;     // live entries this epoch
  std::uint32_t epoch = 0;
  std::uint64_t seed = 0;
  std::size_t max_bytes = 0;
  bool capped = false;  // admission stopped until the next clear

  // Per-expansion tallies, drained by note_expansion_finished().
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t capped_insertions = 0;

  std::size_t bytes() const {
    return slots.capacity() * sizeof(Slot) + keys.capacity() * sizeof(double);
  }

  void configure(const ExpansionOptions& o) {
    max_bytes = o.memo_max_bytes;
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    h = util::fnv_step(h, util::bits_of(o.beta));
    h = util::fnv_step(h, util::bits_of(o.branch_floor));
    seed = util::fnv_step(h, static_cast<std::uint64_t>(o.skip_action));
  }

  // O(1): invalidates every entry by bumping the epoch; capacities persist.
  void clear() {
    if (++epoch == 0) {  // wrapped: hard-reset the stamps once per 2^32 clears
      for (Slot& s : slots) s.epoch = 0;
      epoch = 1;
    }
    keys_used = 0;
    count = 0;
    capped = false;
  }

  std::uint64_t hash_key(std::span<const double> belief, int depth) const {
    std::uint64_t h = seed;
    for (double d : belief) h = util::fnv_step(h, util::bits_of(d));
    h = util::fnv_step(h, static_cast<std::uint64_t>(depth));
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return h | 1;  // 0 never collides with the default Slot
  }

  bool lookup(std::span<const double> belief, int depth, std::uint64_t hash,
              double* value) {
    if (slots.empty() || count == 0) {
      ++misses;
      return false;
    }
    const std::size_t mask = slots.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& s = slots[i];
      if (s.epoch != epoch) break;  // empty slot: key absent
      if (s.hash == hash && s.depth == depth &&
          std::memcmp(keys.data() + s.key_offset, belief.data(),
                      belief.size() * sizeof(double)) == 0) {
        *value = s.value;
        ++hits;
        return true;
      }
    }
    ++misses;
    return false;
  }

  void insert(std::span<const double> belief, int depth, std::uint64_t hash,
              double value) {
    const std::size_t dim = belief.size();
    if (capped || !ensure_capacity(dim)) {
      capped = true;
      ++capped_insertions;
      return;
    }
    const std::size_t mask = slots.size() - 1;
    std::size_t i = hash & mask;
    while (slots[i].epoch == epoch) i = (i + 1) & mask;
    std::memcpy(keys.data() + keys_used, belief.data(), dim * sizeof(double));
    slots[i] = Slot{hash, epoch, depth, keys_used, value};
    keys_used += dim;
    ++count;
    ++insertions;
  }

 private:
  // Grows table and key arena for one more entry, honouring max_bytes.
  bool ensure_capacity(std::size_t dim) {
    if (slots.empty() || (count + 1) * 4 > slots.size() * 3) {  // load > 3/4
      const std::size_t new_cap = slots.empty() ? 256 : slots.size() * 2;
      if (new_cap * sizeof(Slot) + keys.capacity() * sizeof(double) > max_bytes) {
        return false;
      }
      std::vector<Slot> old = std::move(slots);
      slots.assign(new_cap, Slot{});
      const std::size_t mask = new_cap - 1;
      for (const Slot& s : old) {
        if (s.epoch != epoch) continue;
        std::size_t i = s.hash & mask;
        while (slots[i].epoch == epoch) i = (i + 1) & mask;
        slots[i] = s;
      }
    }
    if (keys_used + dim > keys.size()) {
      std::size_t grown = std::max(keys.size() * 2, keys_used + dim);
      grown = std::max<std::size_t>(grown, 4096);
      if (slots.capacity() * sizeof(Slot) + grown * sizeof(double) > max_bytes) {
        grown = keys_used + dim;  // exact fit as the last resort
        if (slots.capacity() * sizeof(Slot) + grown * sizeof(double) > max_bytes) {
          return false;
        }
      }
      keys.resize(grown);
    }
    return true;
  }
};

// The traversal context of the iterative walk: `frames[l]` serves tree
// level l, beside the memo cache and the leaf-frontier scratch.
struct ExpansionEngine::Workspace {
  std::vector<Frame> frames;
  MemoCache memo;

  // Frontier scratch (evaluate_frontier): leaf values in branch order, the
  // memo hash per branch, and the gathered cache-miss rows fed to the leaf
  // batch entry point. Capacities persist like the frame buffers.
  std::vector<double> frontier_values;
  std::vector<std::uint64_t> frontier_hashes;
  std::vector<double> frontier_miss_rows;
  std::vector<double> frontier_miss_values;
  std::vector<std::size_t> frontier_miss_index;

  // Grows the arena to `depth` levels. Counts a reuse when no growth was
  // needed — after the first decision at a given depth, every subsequent
  // expansion runs entirely on recycled buffers.
  void ensure(int depth) {
    const auto levels = static_cast<std::size_t>(depth);
    if (frames.size() >= levels) {
      workspace_reuses_counter().add();
      return;
    }
    frames.resize(levels);
  }

  std::size_t bytes() const {
    std::size_t total = memo.bytes();
    total += frontier_values.capacity() * sizeof(double);
    total += frontier_hashes.capacity() * sizeof(std::uint64_t);
    total += frontier_miss_rows.capacity() * sizeof(double);
    total += frontier_miss_values.capacity() * sizeof(double);
    total += frontier_miss_index.capacity() * sizeof(std::size_t);
    for (const Frame& f : frames) total += f.bytes();
    return total;
  }
};

// Arena of the deep pipeline (DESIGN.md §16). Per level the pipeline keeps
// a *node table* — the distinct beliefs at that root distance, row-major —
// and a per-(action, node) CSR edge list into the next level's table:
// `edge_offsets` is action-major (index a·N + n), `edge_gamma` the branch
// likelihoods in ascending ObsId order, `edge_child` the canonical index of
// each normalised posterior one level down. Back-substitution then folds
// values bottom-up through the same CSR. Capacities persist across calls,
// so the steady state allocates nothing — same contract as the frames.
struct ExpansionEngine::DeepScratch {
  struct Level {
    std::size_t num_nodes = 0;
    std::vector<double> immediate;          // action-major: a·num_nodes + n
    std::vector<std::size_t> edge_offsets;  // num_actions·num_nodes + 1
    std::vector<double> edge_gamma;
    std::vector<std::uint32_t> edge_child;

    std::size_t bytes() const {
      return immediate.capacity() * sizeof(double) +
             edge_offsets.capacity() * sizeof(std::size_t) +
             edge_gamma.capacity() * sizeof(double) +
             edge_child.capacity() * sizeof(std::uint32_t);
    }
  };

  std::vector<double> rows;       // node table of the level being expanded
  std::vector<double> next_rows;  // node table being built beneath it
  util::BeliefTable table;        // next_rows' index (one entry per node)
  std::vector<std::uint64_t> branch_hashes;  // pass 1 -> pass 2, per chunk branch
  std::vector<Level> levels;
  SuccessorFrontier frontier;

  // Successor reuse across actions (solve_classes_deep): `same_rows[a·A+a']`
  // (a' < a) holds the states whose transition rows under a and a' match
  // bitwise, and is 0 unless the two observation matrices match too;
  // `support` the nonzero states of each node of the level; `source` the
  // earlier action each lane of a chunk copies (kInvalidId: expand it);
  // `fresh_rows` the gathered rows of the lanes to expand; `pruned` the
  // per-(action, node) pruned count a copy replays.
  std::vector<std::uint64_t> same_rows;
  std::vector<std::uint64_t> support;
  std::vector<ActionId> source;
  std::vector<double> fresh_rows;
  std::vector<std::uint32_t> pruned;
  std::vector<double> values;        // back-substitution: this level
  std::vector<double> child_values;  // back-substitution: one level down

  std::size_t bytes() const {
    std::size_t total = rows.capacity() * sizeof(double) +
                        next_rows.capacity() * sizeof(double) + table.bytes() +
                        branch_hashes.capacity() * sizeof(std::uint64_t) +
                        frontier.bytes() + values.capacity() * sizeof(double) +
                        child_values.capacity() * sizeof(double) +
                        (same_rows.capacity() + support.capacity()) * sizeof(std::uint64_t) +
                        source.capacity() * sizeof(ActionId) +
                        fresh_rows.capacity() * sizeof(double) +
                        pruned.capacity() * sizeof(std::uint32_t);
    for (const Level& level : levels) total += level.bytes();
    return total;
  }
};

// Opens a Max node at this frame (bumping the nodes-expanded instrument,
// like the recursive expand() did on entry) and positions it at its first
// action.
void ExpansionEngine::Frame::begin_node(std::span<const double> node_belief,
                                        const Pomdp& pomdp, const ExpansionOptions& o) {
  nodes_expanded_counter().add();
  belief = node_belief;
  best = kNegInf;
  next_action = 0;
  done = false;
  advance_action(pomdp, o);
}

// Opens the next unmasked action, folding zero-branch actions (all
// observation mass pruned or unreachable: future value 0, exactly as the
// recursive action_future_value returns 0) straight into `best`. Sets
// `done` once all actions are folded.
void ExpansionEngine::Frame::advance_action(const Pomdp& pomdp,
                                            const ExpansionOptions& o) {
  const ActionId num_actions = pomdp.num_actions();
  const std::size_t num_states = pomdp.num_states();
  while (next_action < num_actions) {
    const ActionId a = next_action++;
    if (a == o.skip_action) continue;
    immediate = linalg::dot(pomdp.mdp().rewards(a), belief);
    num_kept = expand_successors_batch(pomdp, belief.data(), 1, num_states, a,
                                       o.branch_floor, successors);
    // Normalise every posterior exactly once — the same sum-then-divide the
    // Belief constructor performs, so leaves see bit-identical inputs.
    for (std::size_t i = 0; i < num_kept; ++i) {
      linalg::normalize_probability(
          std::span<double>(successors.posteriors.data() + i * num_states, num_states));
    }
    value_acc = 0.0;
    kept_mass = 0.0;
    branch = 0;
    if (num_kept == 0) {
      best = std::max(best, immediate + 0.0);
      continue;
    }
    return;
  }
  done = true;
}

// All branches of the open action are in: fold its value into `best` with
// the kept-mass renormalisation of the branch floor, then open the next
// action.
void ExpansionEngine::Frame::finish_action(const Pomdp& pomdp,
                                           const ExpansionOptions& o) {
  const double future = kept_mass <= 0.0 ? 0.0 : value_acc / kept_mass;
  best = std::max(best, immediate + future);
  advance_action(pomdp, o);
}

ExpansionEngine::ExpansionEngine(const Pomdp& pomdp)
    : pomdp_(&pomdp), ws_(std::make_unique<Workspace>()) {}

ExpansionEngine::~ExpansionEngine() = default;

// Evaluates every branch of the open action in `fr` — all children are
// leaves. The memo cache is probed for each child first; the misses are
// gathered into one contiguous buffer and handed to the leaf's batch entry
// point (falling back to per-belief calls when the evaluator has none),
// then inserted. Value and kept-mass accumulate in ascending branch order
// afterwards, so the floating-point sums are bit-identical to the
// branch-at-a-time reference regardless of the hit/miss split.
void ExpansionEngine::evaluate_frontier(Frame& fr, const SpanLeaf& leaf,
                                        const ExpansionOptions& options) {
  Workspace& ws = *ws_;
  const std::size_t num_states = pomdp_->num_states();
  const std::size_t n = fr.num_kept;
  if (n == 0) return;
  obs::TraceSpan span("expansion.leaf_frontier", obs::TraceLevel::Full);
  span.arg("count", static_cast<double>(n));
  ws.frontier_values.resize(n);
  double* values = ws.frontier_values.data();

  MemoCache& memo = ws.memo;
  // Memoizing a leaf only pays when one evaluation costs more than the
  // cache's probe+insert (~3 |S|-passes: hash, memcmp, key copy). Cheap
  // leaves — a freshly seeded 1-plane RA-Bound set is one dot — skip the
  // cache entirely; the values are identical either way.
  if (leaf.cost_hint() <= 3) {
    // Every child is a "miss" and the rows are already contiguous.
    if (leaf.has_batch() && n > 1) {
      leaf.batch(fr.posterior(0, num_states), n, num_states, values);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        values[i] = leaf({fr.posterior(i, num_states), num_states});
      }
    }
    leaf_evaluations_counter().add(n);
    if (options.stats != nullptr) options.stats->leaf_evaluations += n;
  } else {
    ws.frontier_hashes.resize(n);
    ws.frontier_miss_rows.resize(n * num_states);
    ws.frontier_miss_values.resize(n);
    ws.frontier_miss_index.resize(n);
    std::size_t miss_count = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::span<const double> child(fr.posterior(i, num_states), num_states);
      const std::uint64_t h = memo.hash_key(child, 0);
      ws.frontier_hashes[i] = h;
      if (!memo.lookup(child, 0, h, &values[i])) {
        std::memcpy(ws.frontier_miss_rows.data() + miss_count * num_states, child.data(),
                    num_states * sizeof(double));
        ws.frontier_miss_index[miss_count] = i;
        ++miss_count;
      }
    }
    span.arg("misses", static_cast<double>(miss_count));
    if (miss_count > 0) {
      double* miss_values = ws.frontier_miss_values.data();
      if (leaf.has_batch() && miss_count > 1) {
        leaf.batch(ws.frontier_miss_rows.data(), miss_count, num_states, miss_values);
      } else {
        for (std::size_t j = 0; j < miss_count; ++j) {
          miss_values[j] = leaf({ws.frontier_miss_rows.data() + j * num_states, num_states});
        }
      }
      leaf_evaluations_counter().add(miss_count);
      if (options.stats != nullptr) options.stats->leaf_evaluations += miss_count;
      for (std::size_t j = 0; j < miss_count; ++j) {
        const std::size_t i = ws.frontier_miss_index[j];
        values[i] = miss_values[j];
        memo.insert({fr.posterior(i, num_states), num_states}, 0,
                    ws.frontier_hashes[i], miss_values[j]);
      }
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const double gamma = fr.successors.gamma[i];
    fr.kept_mass += gamma;
    fr.value_acc += (options.beta * gamma) * values[i];
  }
  fr.branch = n;
}

// The iterative core. Walks the depth-d subtree rooted at `belief` using
// frames[base_level .. base_level+depth-1] as the explicit stack, visiting
// branches in ascending ObsId order and actions in ascending ActionId order
// — the exact traversal (and exact floating-point operation order) of the
// recursive reference implementation, with memoized subtrees spliced in at
// the point their value would have been computed. Precondition: depth >= 1
// and the workspace holds base_level + depth frames.
double ExpansionEngine::expand_iterative(std::size_t base_level,
                                         std::span<const double> belief, int depth,
                                         const SpanLeaf& leaf,
                                         const ExpansionOptions& options) {
  const Pomdp& pomdp = *pomdp_;
  const std::size_t num_states = pomdp.num_states();
  Workspace& ws = *ws_;
  MemoCache& memo = ws.memo;
  std::size_t top = base_level;
  ws.frames[top].begin_node(belief, pomdp, options);
  // Frame index == root distance on the action_values path (base_level 1
  // under a root successor).
  if (options.stats != nullptr) options.stats->note_node(top);
  for (;;) {
    Frame& fr = ws.frames[top];
    if (fr.done) {
      const double node_value = fr.best;
      if (top == base_level) return node_value;
      --top;
      Frame& parent = ws.frames[top];
      // The finished subtree's root belief is still intact in the parent
      // posterior row (the parent only refills its buffers after folding
      // this value); cache it at the subtree's remaining depth.
      memo.insert({parent.posterior(parent.branch, num_states), num_states},
                  depth - static_cast<int>(top + 1 - base_level), parent.pending_hash,
                  node_value);
      parent.value_acc += (options.beta * parent.pending_gamma) * node_value;
      ++parent.branch;
      if (parent.branch == parent.num_kept) parent.finish_action(pomdp, options);
      continue;
    }
    // fr has an open action with fr.branch < fr.num_kept.
    const int remaining = depth - static_cast<int>(top - base_level);
    if (remaining == 1) {  // children of this node are leaves
      evaluate_frontier(fr, leaf, options);
      fr.finish_action(pomdp, options);
      continue;
    }
    // Visit the next branch. Kept mass accrues before the child is
    // evaluated, exactly as in the recursive action_future_value.
    const double gamma = fr.successors.gamma[fr.branch];
    fr.kept_mass += gamma;
    const std::span<const double> child(fr.posterior(fr.branch, num_states), num_states);
    const std::uint64_t h = memo.hash_key(child, remaining - 1);
    double cached = 0.0;
    if (memo.lookup(child, remaining - 1, h, &cached)) {
      fr.value_acc += (options.beta * gamma) * cached;
      ++fr.branch;
      if (fr.branch == fr.num_kept) fr.finish_action(pomdp, options);
      continue;
    }
    fr.pending_hash = h;
    fr.pending_gamma = gamma;
    ++top;
    ws.frames[top].begin_node(child, pomdp, options);
    if (options.stats != nullptr) options.stats->note_node(top);
  }
}

// Future value of `action` at the root belief: β Σ_o γ(o) V_{d-1}(π^o)
// with sub-floor branches pruned and the kept mass renormalised. Uses
// frames[0] for the root successors and frames[1..] for the subtrees.
//
// The memo cache is cleared here, once per root action. Sharing it across
// actions would leave every value unchanged but would skip the leaf
// evaluations of posteriors two actions share. Each evaluation bumps the
// winning plane's use count, and BoundSet's least-used eviction reads those
// counts, so fewer evaluations could evict a different plane later and
// change later decisions (DESIGN.md §11).
double ExpansionEngine::root_action_future(std::span<const double> belief, ActionId action,
                                           int depth, const SpanLeaf& leaf,
                                           const ExpansionOptions& options) {
  const Pomdp& pomdp = *pomdp_;
  const std::size_t num_states = pomdp.num_states();
  Workspace& ws = *ws_;
  MemoCache& memo = ws.memo;
  memo.clear();
  Frame& fr = ws.frames[0];
  fr.num_kept = expand_successors_batch(pomdp, belief.data(), 1, num_states, action,
                                        options.branch_floor, fr.successors);
  for (std::size_t i = 0; i < fr.num_kept; ++i) {
    linalg::normalize_probability(
        std::span<double>(fr.successors.posteriors.data() + i * num_states, num_states));
  }
  fr.value_acc = 0.0;
  fr.kept_mass = 0.0;
  fr.branch = 0;
  if (depth == 1) {
    evaluate_frontier(fr, leaf, options);
  } else {
    for (std::size_t i = 0; i < fr.num_kept; ++i) {
      const double gamma = fr.successors.gamma[i];
      fr.kept_mass += gamma;
      const std::span<const double> child(fr.posterior(i, num_states), num_states);
      double child_value = 0.0;
      const std::uint64_t h = memo.hash_key(child, depth - 1);
      if (!memo.lookup(child, depth - 1, h, &child_value)) {
        child_value = expand_iterative(1, child, depth - 1, leaf, options);
        memo.insert(child, depth - 1, h, child_value);
      }
      fr.value_acc += (options.beta * gamma) * child_value;
    }
  }
  if (fr.kept_mass <= 0.0) return 0.0;  // everything pruned: future is the floor 0
  return fr.value_acc / fr.kept_mass;
}

// Readies the workspace for one expansion: frames for `depth` levels, the
// memo keyed to these options, and the provenance tallies zeroed.
void ExpansionEngine::begin_expansion(int depth, const ExpansionOptions& options) {
  ws_->ensure(depth);
  ws_->memo.configure(options);
  if (options.stats != nullptr) options.stats->reset();
}

double ExpansionEngine::value(std::span<const double> belief, int depth,
                              const SpanLeaf& leaf, const ExpansionOptions& options) {
  RD_EXPECTS(depth >= 0, "ExpansionEngine::value: depth must be >= 0");
  check_common_options(*pomdp_, belief, options);
  if (depth == 0) {
    leaf_evaluations_counter().add();
    if (options.stats != nullptr) {
      options.stats->reset();
      options.stats->leaf_evaluations = 1;
    }
    return leaf(belief);
  }
  begin_expansion(depth, options);
  // One cache spans value()'s whole tree, so root actions share subtree
  // values here; action_values() clears per root action instead.
  ws_->memo.clear();
  const double result = expand_iterative(0, belief, depth, leaf, options);
  note_expansion_finished(options.stats);
  return result;
}

void ExpansionEngine::action_values(std::span<const double> belief, int depth,
                                    const SpanLeaf& leaf, const ExpansionOptions& options,
                                    std::vector<ActionValue>& out) {
  RD_EXPECTS(depth >= 1, "ExpansionEngine::action_values: depth must be >= 1");
  check_common_options(*pomdp_, belief, options);
  const Pomdp& pomdp = *pomdp_;
  const std::size_t num_actions = pomdp.num_actions();
  nodes_expanded_counter().add();  // the root Max node
  out.assign(num_actions, ActionValue{});

  obs::TraceSpan span("expansion.action_values", obs::TraceLevel::Decide);
  span.arg("depth", static_cast<double>(depth));
  begin_expansion(depth, options);
  for (ActionId a = 0; a < num_actions; ++a) {
    if (a == options.skip_action) {
      out[a] = {a, kNegInf};
      continue;
    }
    obs::TraceSpan action_span("expansion.root_action", obs::TraceLevel::Full);
    action_span.arg("action", static_cast<double>(a));
    const double immediate = linalg::dot(pomdp.mdp().rewards(a), belief);
    out[a] = {a, immediate + root_action_future(belief, a, depth, leaf, options)};
  }
  note_expansion_finished(options.stats);
  // The root Max node (counted into nodes_expanded_counter above) is level
  // 0; the walk only sees its children onward.
  if (options.stats != nullptr) options.stats->note_node(0);
}

ActionValue ExpansionEngine::best_action(std::span<const double> belief, int depth,
                                         const SpanLeaf& leaf,
                                         const ExpansionOptions& options) {
  action_values(belief, depth, leaf, options, scratch_values_);
  RD_EXPECTS(options.skip_action != 0 || scratch_values_.size() > 1,
             "ExpansionEngine::best_action: cannot mask the only action");
  ActionValue best =
      options.skip_action == 0 ? scratch_values_[1] : scratch_values_.front();
  for (const auto& av : scratch_values_) {
    if (av.action == options.skip_action) continue;
    if (av.value > best.value) best = av;
  }
  return best;
}

// Canonicalize: hash each lane's belief bit pattern, then group bitwise-
// equal lanes (memcmp-confirmed, so a hash collision can only split a
// class, never merge distinct beliefs). Classes are numbered in first-
// occurrence lane order — the solve order of both batch paths — which keeps
// the whole pass deterministic for any batch composition. Each lane is
// copied to the next free class row; a lane that opens no class is
// overwritten by the next one.
std::size_t ExpansionEngine::canonicalize_roots(const BeliefBatch& batch) {
  const std::size_t num_states = pomdp_->num_states();
  const std::size_t lanes = batch.size();
  batch_class_rows_.resize(lanes * num_states);
  batch_class_of_.resize(lanes);
  batch_table_.clear();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    double* row = batch_class_rows_.data() + batch_table_.size() * num_states;
    batch.copy_lane(lane, {row, num_states});
    batch_class_of_[lane] =
        batch_table_
            .find_or_insert(util::hash_belief_bits(row, num_states), row,
                            batch_class_rows_.data(), num_states)
            .first;
  }
  return batch_table_.size();
}

// One action_values() per class, in class (= first-occurrence) order.
// Each call configures its own workspace and clears the memo per root
// action, so its results are bit-identical to a standalone call — the
// scatter afterwards therefore reproduces the looped single-session path
// exactly, with `classes` expansions instead of `lanes`.
void ExpansionEngine::solve_classes_classic(int depth, const SpanLeaf& leaf,
                                            const ExpansionOptions& options) {
  const std::size_t num_states = pomdp_->num_states();
  const std::size_t num_actions = pomdp_->num_actions();
  const std::size_t num_classes = batch_table_.size();
  batch_class_values_.resize(num_classes * num_actions);
  for (std::size_t cls = 0; cls < num_classes; ++cls) {
    const double* row = batch_class_rows_.data() + cls * num_states;
    action_values({row, num_states}, depth, leaf, options, class_values_scratch_);
    std::copy(class_values_scratch_.begin(), class_values_scratch_.end(),
              batch_class_values_.begin() +
                  static_cast<std::ptrdiff_t>(cls * num_actions));
  }
}

void ExpansionEngine::scatter_class_values(std::size_t lanes,
                                           std::vector<ActionValue>& out) {
  const std::size_t num_actions = pomdp_->num_actions();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const ActionValue* src =
        batch_class_values_.data() + batch_class_of_[lane] * num_actions;
    std::copy(src, src + num_actions,
              out.begin() + static_cast<std::ptrdiff_t>(lane * num_actions));
  }
}

void ExpansionEngine::action_values_batch(const BeliefBatch& batch, int depth,
                                          const SpanLeaf& leaf,
                                          const ExpansionOptions& options,
                                          std::vector<ActionValue>& out,
                                          BatchExpansionStats* stats) {
  RD_EXPECTS(depth >= 1, "ExpansionEngine::action_values_batch: depth must be >= 1");
  const std::size_t num_states = pomdp_->num_states();
  const std::size_t num_actions = pomdp_->num_actions();
  RD_EXPECTS(batch.num_states() == num_states,
             "ExpansionEngine::action_values_batch: batch/model dimension mismatch");
  const std::size_t lanes = batch.size();
  out.assign(lanes * num_actions, ActionValue{});
  if (stats != nullptr) *stats = BatchExpansionStats{};
  if (lanes == 0) return;

  obs::TraceSpan span("expansion.decide_batch", obs::TraceLevel::Decide);
  span.arg("sessions", static_cast<double>(lanes));
  span.arg("depth", static_cast<double>(depth));

  const std::size_t num_classes = canonicalize_roots(batch);
  solve_classes_classic(depth, leaf, options);
  scatter_class_values(lanes, out);

  span.arg("classes", static_cast<double>(num_classes));
  if (stats != nullptr) {
    stats->sessions = lanes;
    stats->classes = num_classes;
    stats->shared_hits = lanes - num_classes;
  }
  BatchInstruments& instruments = BatchInstruments::get();
  instruments.calls.add();
  instruments.sessions.add(lanes);
  instruments.classes.add(num_classes);
  if (lanes > num_classes) instruments.shared_hits.add(lanes - num_classes);
}

void ExpansionEngine::select_best_lanes(std::size_t lanes,
                                        const ExpansionOptions& options,
                                        std::vector<ActionValue>& best) {
  const std::size_t num_actions = pomdp_->num_actions();
  RD_EXPECTS(options.skip_action != 0 || num_actions > 1,
             "ExpansionEngine::decide_batch: cannot mask the only action");
  best.resize(lanes);
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    const ActionValue* row = batch_best_scratch_.data() + lane * num_actions;
    // best_action()'s exact selection: seed past a masked action 0, then a
    // strict `>` keeps the lowest ActionId on ties.
    ActionValue chosen = options.skip_action == 0 ? row[1] : row[0];
    for (std::size_t a = 0; a < num_actions; ++a) {
      if (row[a].action == options.skip_action) continue;
      if (row[a].value > chosen.value) chosen = row[a];
    }
    best[lane] = chosen;
  }
}

void ExpansionEngine::decide_batch(const BeliefBatch& batch, int depth,
                                   const SpanLeaf& leaf, const ExpansionOptions& options,
                                   std::vector<ActionValue>& best,
                                   BatchExpansionStats* stats) {
  action_values_batch(batch, depth, leaf, options, batch_best_scratch_, stats);
  select_best_lanes(batch.size(), options, best);
}

// The level-wise core of the deep pipeline. Expands the canonical roots
// (the class rows) down to depth 0 — one expand_successors_batch() sweep
// per (level, action, chunk), children canonicalized globally per level —
// evaluates the distinct depth-0 frontier in one leaf batch, and
// back-substitutes bottom-up. Every per-node fold replays the serial walk's
// exact operation order (immediate via linalg::dot's term order; per branch
// ascending ObsId: kept_mass += γ then value_acc += (β·γ)·child; future =
// kept_mass <= 0 ? 0 : value_acc/kept_mass; std::max over actions
// ascending), so a node's value is bitwise the value expand_iterative()
// computes for the same belief bits at the same remaining depth. Returns
// false — leaving batch_class_values_ untouched — when a level exceeds
// options.deep_node_budget.
bool ExpansionEngine::solve_classes_deep(int depth, const SpanLeaf& leaf,
                                         const ExpansionOptions& options,
                                         BatchExpansionStats* stats) {
  const Pomdp& pomdp = *pomdp_;
  const std::size_t num_states = pomdp.num_states();
  const std::size_t num_actions = pomdp.num_actions();
  if (!deep_) deep_ = std::make_unique<DeepScratch>();
  DeepScratch& d = *deep_;
  const std::size_t num_classes = batch_table_.size();
  if (num_classes > options.deep_node_budget) return false;

  // Level 0's node table is the class rows themselves.
  const double* rows = batch_class_rows_.data();
  std::size_t cur_count = num_classes;
  d.same_rows = successor_reuse_masks(pomdp);
  static obs::Counter& kept_counter = obs::metrics().counter("pomdp.belief.branches_kept");
  static obs::Counter& pruned_counter =
      obs::metrics().counter("pomdp.belief.branches_pruned");

  const auto num_levels = static_cast<std::size_t>(depth);
  if (d.levels.size() < num_levels) d.levels.resize(num_levels);
  std::size_t total_nodes = 0;

  for (std::size_t lvl = 0; lvl < num_levels; ++lvl) {
    DeepScratch::Level& level = d.levels[lvl];
    level.num_nodes = cur_count;
    total_nodes += cur_count;
    level.immediate.resize(cur_count * num_actions);
    level.edge_offsets.clear();
    level.edge_offsets.push_back(0);
    level.edge_gamma.clear();
    level.edge_child.clear();
    d.next_rows.clear();
    d.table.clear(cur_count);
    d.pruned.resize(cur_count * num_actions);
    d.support.resize(cur_count);
    for (std::size_t n = 0; n < cur_count; ++n) {
      std::uint64_t mask = ~std::uint64_t{0};  // |S| > 64: no reuse
      if (num_states <= 64) {
        mask = 0;
        for (StateId s = 0; s < num_states; ++s) {
          mask |= static_cast<std::uint64_t>(rows[n * num_states + s] != 0.0) << s;
        }
      }
      d.support[n] = mask;
    }

    obs::TraceSpan level_span("expansion.deep_level", obs::TraceLevel::Full);
    level_span.arg("level", static_cast<double>(lvl));
    level_span.arg("nodes", static_cast<double>(cur_count));

    for (ActionId a = 0; a < num_actions; ++a) {
      if (a == options.skip_action) {
        // Keep the action-major CSR aligned: zero-width ranges. The
        // immediate slots of a masked action are never read.
        for (std::size_t n = 0; n < cur_count; ++n) {
          level.edge_offsets.push_back(level.edge_gamma.size());
        }
        continue;
      }
      const std::span<const double> rewards = pomdp.mdp().rewards(a);
      // Chunked expansion: materializing the whole level×action frontier
      // at once costs hundreds of MB at large levels (every posterior row
      // lives until canonicalization). Chunks of nodes bound the transient
      // to a few MB while visiting the exact same branches in the exact
      // same order, so the CSR — and every bit downstream — is unchanged.
      constexpr std::size_t kExpandChunk = 2048;
      for (std::size_t chunk = 0; chunk < cur_count; chunk += kExpandChunk) {
        const std::size_t chunk_count = std::min(kExpandChunk, cur_count - chunk);
        const double* chunk_rows = rows + chunk * num_states;
        dot_rows(rewards, chunk_rows, chunk_count,
                 level.immediate.data() + a * cur_count + chunk);
        // A lane whose support lies where an earlier action's transition
        // rows match a's (observation matrices matching too) has that
        // action's branches exactly: it copies them below. (An empty
        // support expands to nothing under any action.) The rest are
        // expanded, gathered contiguous when some lane is copied.
        d.source.assign(chunk_count, kInvalidId);
        std::size_t fresh = 0;
        for (std::size_t c = 0; c < chunk_count; ++c) {
          for (ActionId b = 0; b < a; ++b) {
            if (b != options.skip_action &&
                (d.support[chunk + c] & ~d.same_rows[a * num_actions + b]) == 0) {
              d.source[c] = b;
              break;
            }
          }
          if (d.source[c] == kInvalidId) ++fresh;
        }
        const double* fresh_rows = chunk_rows;
        if (fresh < chunk_count) {
          d.fresh_rows.resize(fresh * num_states);
          std::size_t f = 0;
          for (std::size_t c = 0; c < chunk_count; ++c) {
            if (d.source[c] != kInvalidId) continue;
            std::memcpy(d.fresh_rows.data() + f * num_states, chunk_rows + c * num_states,
                        num_states * sizeof(double));
            ++f;
          }
          fresh_rows = d.fresh_rows.data();
        }
        const std::size_t branches = expand_successors_batch(
            pomdp, fresh_rows, fresh, num_states, a, options.branch_floor, d.frontier);

        // Pass 1: normalise every kept posterior exactly once — the same
        // sum-then-divide every walk performs — *before* canonicalizing, so
        // the child key is the bit pattern the leaf/subtree actually sees;
        // then hash the rows as independent chains and pull their home
        // slots toward the cache.
        double* posts = d.frontier.posteriors.data();
        for (std::size_t b = 0; b < branches; ++b) {
          linalg::normalize_probability({posts + b * num_states, num_states});
        }
        d.branch_hashes.resize(branches);
        util::hash_belief_rows(posts, branches, num_states, d.branch_hashes.data());
        for (std::size_t b = 0; b < branches; ++b) d.table.prefetch(d.branch_hashes[b]);

        // Pass 2: probe in branch order, so nodes are numbered by first
        // occurrence exactly as a branch-at-a-time probe numbers them. A
        // copied lane's children were all numbered when its source action
        // ran, so copying probes nothing and numbers nothing.
        std::size_t lane = 0;
        std::size_t copied_kept = 0;
        std::size_t copied_pruned = 0;
        for (std::size_t c = 0; c < chunk_count; ++c) {
          const std::size_t idx = a * cur_count + chunk + c;
          if (d.source[c] != kInvalidId) {
            const std::size_t from = d.source[c] * cur_count + chunk + c;
            for (std::size_t e = level.edge_offsets[from]; e < level.edge_offsets[from + 1];
                 ++e) {
              level.edge_gamma.push_back(level.edge_gamma[e]);
              level.edge_child.push_back(level.edge_child[e]);
            }
            copied_kept += level.edge_offsets[from + 1] - level.edge_offsets[from];
            copied_pruned += d.pruned[from];
            d.pruned[idx] = d.pruned[from];
            level.edge_offsets.push_back(level.edge_gamma.size());
            continue;
          }
          d.pruned[idx] = static_cast<std::uint32_t>(d.frontier.pruned[lane]);
          for (std::size_t b = d.frontier.offsets[lane]; b < d.frontier.offsets[lane + 1];
               ++b) {
            const double* post = posts + b * num_states;
            const auto [child, inserted] = d.table.find_or_insert(
                d.branch_hashes[b], post, d.next_rows.data(), num_states);
            if (inserted) {
              if (child + 1 > options.deep_node_budget) return false;
              d.next_rows.insert(d.next_rows.end(), post, post + num_states);
            }
            level.edge_gamma.push_back(d.frontier.gamma[b]);
            level.edge_child.push_back(static_cast<std::uint32_t>(child));
          }
          level.edge_offsets.push_back(level.edge_gamma.size());
          ++lane;
        }
        // The copies count as the expansions they replace.
        if (copied_kept > 0) kept_counter.add(copied_kept);
        if (copied_pruned > 0) pruned_counter.add(copied_pruned);
      }
    }
    // Every node at this level is a Max node the serial walk would open
    // (at least once; typically many times).
    nodes_expanded_counter().add(cur_count);
    std::swap(d.rows, d.next_rows);
    rows = d.rows.data();
    cur_count = d.table.size();
  }

  // The entire depth-0 frontier — every distinct leaf belief under every
  // root and action — in one batch evaluation.
  d.child_values.resize(cur_count);
  if (cur_count > 0) {
    obs::TraceSpan leaf_span("expansion.deep_leaf_frontier", obs::TraceLevel::Full);
    leaf_span.arg("count", static_cast<double>(cur_count));
    if (leaf.has_batch() && cur_count > 1) {
      leaf.batch(d.rows.data(), cur_count, num_states, d.child_values.data());
    } else {
      for (std::size_t i = 0; i < cur_count; ++i) {
        d.child_values[i] = leaf({d.rows.data() + i * num_states, num_states});
      }
    }
    leaf_evaluations_counter().add(cur_count);
  }

  // Back-substitute bottom-up. Interior levels fold to one value per node;
  // level 0 keeps the per-action values the batch contract returns.
  for (std::size_t lvl = num_levels; lvl-- > 1;) {
    const DeepScratch::Level& level = d.levels[lvl];
    d.values.resize(level.num_nodes);
    for (std::size_t n = 0; n < level.num_nodes; ++n) {
      double best = kNegInf;
      for (ActionId a = 0; a < num_actions; ++a) {
        if (a == options.skip_action) continue;
        const std::size_t idx = a * level.num_nodes + n;
        double value_acc = 0.0;
        double kept_mass = 0.0;
        for (std::size_t e = level.edge_offsets[idx]; e < level.edge_offsets[idx + 1];
             ++e) {
          kept_mass += level.edge_gamma[e];
          value_acc +=
              (options.beta * level.edge_gamma[e]) * d.child_values[level.edge_child[e]];
        }
        const double future = kept_mass <= 0.0 ? 0.0 : value_acc / kept_mass;
        best = std::max(best, level.immediate[idx] + future);
      }
      d.values[n] = best;
    }
    std::swap(d.values, d.child_values);
  }

  const DeepScratch::Level& root = d.levels[0];
  batch_class_values_.resize(num_classes * num_actions);
  for (std::size_t cls = 0; cls < num_classes; ++cls) {
    for (ActionId a = 0; a < num_actions; ++a) {
      if (a == options.skip_action) {
        batch_class_values_[cls * num_actions + a] = {a, kNegInf};
        continue;
      }
      const std::size_t idx = a * root.num_nodes + cls;
      double value_acc = 0.0;
      double kept_mass = 0.0;
      for (std::size_t e = root.edge_offsets[idx]; e < root.edge_offsets[idx + 1]; ++e) {
        kept_mass += root.edge_gamma[e];
        value_acc +=
            (options.beta * root.edge_gamma[e]) * d.child_values[root.edge_child[e]];
      }
      const double future = kept_mass <= 0.0 ? 0.0 : value_acc / kept_mass;
      batch_class_values_[cls * num_actions + a] = {a, root.immediate[idx] + future};
    }
  }

  if (stats != nullptr) {
    stats->frontier_nodes = total_nodes;
    stats->frontier_leaves = cur_count;
    stats->deep = true;
  }
  DeepInstruments& instruments = DeepInstruments::get();
  instruments.calls.add();
  instruments.nodes.add(total_nodes);
  instruments.leaves.add(cur_count);
  return true;
}

void ExpansionEngine::action_values_batch_deep(const BeliefBatch& batch, int depth,
                                               const SpanLeaf& leaf,
                                               const ExpansionOptions& options,
                                               std::vector<ActionValue>& out,
                                               BatchExpansionStats* stats) {
  RD_EXPECTS(depth >= 1, "ExpansionEngine::action_values_batch_deep: depth must be >= 1");
  const std::size_t num_states = pomdp_->num_states();
  const std::size_t num_actions = pomdp_->num_actions();
  RD_EXPECTS(batch.num_states() == num_states,
             "ExpansionEngine::action_values_batch_deep: batch/model dimension mismatch");
  // The option checks of check_common_options(), minus the belief-dimension
  // one (the batch constructor already fixed the lane dimension).
  RD_EXPECTS(options.beta >= 0.0 && options.beta <= 1.0,
             "ExpansionEngine: beta must lie in [0,1]");
  RD_EXPECTS(options.skip_action == kInvalidId || num_actions > 1,
             "ExpansionEngine: cannot mask the only action");
  RD_EXPECTS(options.branch_floor >= 0.0 && options.branch_floor < 1.0,
             "ExpansionEngine: branch floor must lie in [0,1)");
  const std::size_t lanes = batch.size();
  out.assign(lanes * num_actions, ActionValue{});
  if (stats != nullptr) *stats = BatchExpansionStats{};
  if (lanes == 0) return;

  obs::TraceSpan span("expansion.decide_batch_deep", obs::TraceLevel::Decide);
  span.arg("sessions", static_cast<double>(lanes));
  span.arg("depth", static_cast<double>(depth));

  const std::size_t num_classes = canonicalize_roots(batch);
  if (!solve_classes_deep(depth, leaf, options, stats)) {
    // Budget exceeded mid-level: rerun through the per-class walks. Values
    // are bit-identical either way, so the fallback is purely a memory cap
    // (the partial deep work only cost time and some instrument noise).
    DeepInstruments::get().fallbacks.add();
    solve_classes_classic(depth, leaf, options);
  }
  scatter_class_values(lanes, out);

  span.arg("classes", static_cast<double>(num_classes));
  if (stats != nullptr) {
    stats->sessions = lanes;
    stats->classes = num_classes;
    stats->shared_hits = lanes - num_classes;
  }
  BatchInstruments& instruments = BatchInstruments::get();
  instruments.calls.add();
  instruments.sessions.add(lanes);
  instruments.classes.add(num_classes);
  if (lanes > num_classes) instruments.shared_hits.add(lanes - num_classes);
}

void ExpansionEngine::decide_batch_deep(const BeliefBatch& batch, int depth,
                                        const SpanLeaf& leaf,
                                        const ExpansionOptions& options,
                                        std::vector<ActionValue>& best,
                                        BatchExpansionStats* stats) {
  action_values_batch_deep(batch, depth, leaf, options, batch_best_scratch_, stats);
  select_best_lanes(batch.size(), options, best);
}

std::size_t ExpansionEngine::arena_bytes() const {
  std::size_t total = ws_->bytes();
  if (deep_) total += deep_->bytes();
  return total;
}

void ExpansionEngine::note_expansion_finished(ExpansionNodeStats* stats) {
  // Drain the memo tallies once per expansion: into the provenance stats
  // when asked, and into the shared counters.
  MemoCache& memo = ws_->memo;
  if (stats != nullptr) {
    stats->memo_hits = memo.hits;
    stats->memo_misses = memo.misses;
    stats->memo_insertions = memo.insertions;
  }
  if (memo.hits + memo.misses + memo.insertions + memo.capped_insertions > 0) {
    MemoInstruments& instruments = MemoInstruments::get();
    if (memo.hits > 0) instruments.hits.add(memo.hits);
    if (memo.misses > 0) instruments.misses.add(memo.misses);
    if (memo.insertions > 0) instruments.insertions.add(memo.insertions);
    if (memo.capped_insertions > 0) instruments.capped.add(memo.capped_insertions);
    const auto memo_bytes = static_cast<double>(memo.bytes());
    if (memo_bytes > instruments.bytes.value()) instruments.bytes.set(memo_bytes);
  }
  memo.hits = memo.misses = memo.insertions = memo.capped_insertions = 0;

  const std::size_t bytes = arena_bytes();
  if (bytes > peak_arena_bytes_) {
    peak_arena_bytes_ = bytes;
    // The gauge tracks the high-water mark across every engine in the
    // process (last-writer on ties is irrelevant for a max).
    if (bytes > arena_peak_bytes_gauge().value()) {
      arena_peak_bytes_gauge().set(static_cast<double>(bytes));
    }
  }
}

}  // namespace recoverd
