// Crash-safe checkpoint/restore of fleet state (DESIGN.md §14).
//
// A FleetDriver run at 10⁴–10⁵ sessions holds hours of accumulated belief
// state; a crash (or a SIGTERM from an impatient scheduler) used to lose all
// of it. A FleetCheckpoint captures everything a bitwise-identical resume
// needs — beliefs, per-slot RNG stream positions, environment hidden state,
// pending conditioning pairs, guard ladder state, the tick counter, and the
// cumulative stats — and nothing that is deterministically rebuildable
// (decision/memo caches start cold after a restore and refill with the
// exact bits a fresh solve produces, so resumed decisions are unchanged).
//
// File format (`recoverd fleet checkpoint v2`, little-endian):
//
//   [0]  magic      u64  "RDFLTCK1"
//   [8]  version    u32  kFleetCheckpointVersion
//   [12] payload_len u64 bytes of payload following this field
//   [20] payload    ...  fields in the order of FleetCheckpoint (see .cpp)
//   [..] crc64      u64  CRC-64/XZ over bytes [8, 20 + payload_len)
//
// Writes are atomic and durable: util::FramedFileWriter streams the file to
// `<path>.tmp` (no staging copy of the payload), fsyncs and closes it,
// rename(2)s it over `<path>` and fsyncs the directory — a crash or power
// loss mid-write leaves the previous checkpoint intact, never a torn file,
// and a failed write, fsync or close removes the tmp file.
//
// Reads go through util::FramedFileReader, the reader bound artifacts use
// too: it maps the file, checks the frame and serves bounds-checked fields,
// the per-slot arrays copied out of the mapping in bulk. Reads are
// paranoid: every failure mode of the infra-chaos checkpoint axis maps to a
// distinct, actionable ModelError —
//   - empty file                     → "empty file",
//   - short/truncated file           → "truncated" (with byte counts),
//   - wrong magic                    → "not a recoverd fleet checkpoint",
//   - unknown version                → "unsupported version" (got/want),
//   - any flipped bit                → "checksum mismatch",
//   - model changed since the save   → "different model" (hash mismatch,
//                                      checked by FleetDriver::restore),
//   - options changed since the save → "different fleet options",
//   - bound artifact changed         → "different bound artifact" (the v2
//                                      header records the content hash of the
//                                      bound artifact the fleet was warm-
//                                      started from; restoring into a fleet
//                                      over different bounds is rejected).
// A rejected checkpoint is never partially applied: FleetDriver's
// validation, environment states and RNG states included, completes before
// any driver state is touched.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "controller/guard.hpp"
#include "pomdp/pomdp.hpp"
#include "sim/environment.hpp"

namespace recoverd::sim {

inline constexpr std::uint32_t kFleetCheckpointVersion = 2;

/// The serialized fleet state. Plain data: FleetDriver::capture_checkpoint()
/// fills it, FleetDriver::adopt_checkpoint() applies it; the write/read pair
/// below moves it through the on-disk format.
struct FleetCheckpoint {
  std::uint64_t model_hash = 0;    ///< hash_pomdp of the controller model
  std::uint64_t options_hash = 0;  ///< hash of the decision-relevant options
  /// Content hash of the bound artifact the fleet was warm-started from
  /// (bounds::BoundArtifact::content_hash), or 0 for a cold-built bound set.
  /// Restoring into a fleet over a different artifact is rejected: the bound
  /// set shapes every decision, so a silent swap would break bitwise resume.
  std::uint64_t bound_artifact_hash = 0;
  std::uint64_t seed = 0;          ///< fleet seed (informational)
  std::uint64_t tick = 0;

  std::uint64_t sessions = 0;
  std::uint64_t num_states = 0;
  std::uint64_t num_actions = 0;
  std::uint64_t num_observations = 0;

  /// FleetStats counters in declaration order (forward-compatible: the
  /// driver writes/reads its own fixed order).
  std::vector<std::uint64_t> stats;

  std::vector<std::array<std::uint64_t, 4>> slot_rng;  ///< per-slot fault streams
  std::vector<Environment::Snapshot> envs;             ///< per-slot hidden state
  std::vector<std::array<std::uint64_t, 4>> chaos_rng; ///< empty = chaos off

  std::vector<double> beliefs;  ///< sessions × num_states, lane-major

  std::vector<std::uint64_t> episode_steps;
  std::vector<std::uint64_t> last_actions;
  std::vector<std::uint64_t> pending_action;
  std::vector<std::uint64_t> pending_obs;

  // Guard ladder state; empty when the fleet guard is disabled.
  std::vector<std::uint8_t> ladder_stage;
  std::vector<std::uint64_t> clean_streak;
  std::vector<std::uint64_t> ticks_since_fresh;
  std::vector<controller::GuardRuntime::State> guard_state;
};

/// Content hash of a POMDP (dimensions, transition/observation/reward bits,
/// goal set, terminate ids): two models hash equal iff a fleet over them
/// makes bitwise-identical decisions. Used to reject restoring a checkpoint
/// into a fleet over a different model.
std::uint64_t hash_pomdp(const Pomdp& model);

/// Atomically and durably writes the checkpoint (tmp file + fsync + close +
/// rename + directory fsync). Throws ModelError when the file cannot be
/// created, written, synced, closed or renamed; the previous checkpoint at
/// `path`, if any, is then untouched.
void write_fleet_checkpoint(const std::string& path, const FleetCheckpoint& cp);

/// Reads and fully validates a checkpoint file (magic, version, length,
/// CRC-64, internal consistency). Throws ModelError with an actionable
/// one-line message on any corruption; never returns partial data.
FleetCheckpoint read_fleet_checkpoint(const std::string& path);

}  // namespace recoverd::sim
