// Decision-provenance records: one JSONL line per controller decide()
// answering "*why* was this action chosen" — the certification view that
// complements the span trace's "*where* did the time go" (DESIGN.md §12).
//
// Each record carries the chosen action, every candidate action's bound
// interval (lower always; upper when the controller maintains a sawtooth
// upper bound), the expansion work that produced them (nodes per level up
// to a capped depth, leaf evaluations, memo hit/miss/insert tallies), the
// deadline-ladder stage the guard settled on, and the bound-set generation
// — enough to replay or audit a single decision offline.
//
// The recorder is process-global and off by default; `emit()` behind a
// relaxed atomic costs one load when disabled. Records are serialised with
// obs::Json (doubles at 17 significant digits), so the written lower/upper
// values round-trip bit-exactly — the acceptance check compares them
// against the controller's in-memory return values with operator==.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace recoverd::obs {

/// One candidate action's bound interval at decision time.
struct ActionProvenance {
  std::uint32_t action = 0;
  double lower = 0.0;
  double upper = 0.0;     ///< meaningful only when has_upper
  bool has_upper = false;
  bool pruned = false;    ///< skipped by branch-and-bound (interval controller)
};

/// Expansion-tree work behind one decide(), tallied per root-distance level
/// up to kMaxProvenanceLevels (deeper nodes fold into the last slot).
inline constexpr std::size_t kMaxProvenanceLevels = 8;

struct ExpansionProvenance {
  std::uint64_t nodes = 0;
  std::uint64_t leaf_evaluations = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t memo_insertions = 0;
  std::vector<std::uint64_t> nodes_per_level;  ///< size <= kMaxProvenanceLevels
};

/// Everything recorded about one decide() call.
struct DecisionProvenance {
  std::uint64_t sequence = 0;    ///< assigned by the recorder at emit()
  std::string controller;        ///< "bounded" | "interval" | ...
  std::int64_t chosen_action = -1;  ///< -1 when the decision was terminate
  bool terminate = false;
  std::string stage;             ///< deadline-ladder outcome: "full",
                                 ///< "degraded", "goal-certain", "escalated"
  int configured_depth = 0;
  int achieved_depth = 0;
  double decide_ms = 0.0;
  std::uint64_t bound_generation = 0;  ///< BoundSet::generation() snapshot
  std::uint64_t bound_size = 0;        ///< hyperplanes in the set
  /// Anytime deepening work after the decision (zero unless --anytime):
  /// Eq. 7 backups attempted and how many grew the bound set.
  std::uint64_t anytime_backups = 0;
  std::uint64_t anytime_added = 0;
  ExpansionProvenance expansion;
  std::vector<ActionProvenance> actions;
};

/// Serialises one record as a compact single-line JSON object
/// (schema "recoverd.provenance.v1"; keys sorted by obs::Json).
std::string provenance_to_json(const DecisionProvenance& record);

/// Parses one JSONL line back (tests / offline tooling). Throws ModelError
/// on malformed input.
DecisionProvenance provenance_from_json(const std::string& line);

namespace detail {
extern std::atomic<bool> g_provenance_enabled;
}

/// True when a recorder sink is open — controllers skip all provenance
/// bookkeeping (stats plumbing included) when this is false, keeping the
/// default decide() path untouched.
inline bool provenance_enabled() {
  return detail::g_provenance_enabled.load(std::memory_order_relaxed);
}

/// Opens `path` (truncating) as the process-wide JSONL sink and enables
/// recording. Throws ModelError when the file cannot be opened.
void open_provenance(const std::string& path);

/// Assigns the next sequence number and appends one line to the sink.
/// No-op when disabled. Thread-safe (one mutex-guarded append per decide —
/// decide() granularity, far off any hot path).
void emit_provenance(DecisionProvenance record);

/// Flushes and closes the sink; disables recording. Idempotent.
void close_provenance();

}  // namespace recoverd::obs
