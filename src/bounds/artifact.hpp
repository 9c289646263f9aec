// Persistent bound artifacts: the offline RA-Bound/Eq. 6–7 state as a
// versioned, CRC-checked, mmap-friendly file (ROADMAP item 3, DESIGN.md §15).
//
// A bound artifact captures both reusable products of the offline phase —
// the assembled `RandomActionChain` (Q̄/c̄ CSR plus the SCC/level SolvePlan)
// and the seeded/improved `BoundSet` (planes, protection flags, use counts,
// generation) — so a process warm-starts by mapping a file instead of
// re-running assembly, Tarjan, and the Eq. 5 solve. At 10⁶ states that turns
// ~1 s of cold construction into milliseconds of load (gated ≥ 10× in
// bench/scaling_campaign).
//
// The restore is *lossless*: a loaded chain and set are bitwise-equal to the
// saved ones (same CSR bits, same plane coefficients and order, same use
// counters and generation), so every decision made on top of them is
// bitwise-identical to a cold-built run — the same contract as the fleet
// checkpoints.
//
// File format (`recoverd bound artifact v1`, little-endian):
//
//   [0]  magic       u64  "RDBNDAR1"
//   [8]  version     u32  kBoundArtifactVersion
//   [12] reserved    u32  zero (pads the payload to an 8-aligned offset)
//   [16] payload_len u64  bytes of payload following this field
//   [24] payload     ...  chain + plan + bound-set fields (see .cpp)
//   [..] crc64       u64  CRC-64/XZ over bytes [8, 24 + payload_len)
//
// The payload keeps every multi-byte field 8-byte aligned relative to the
// file start (u32 arrays are padded), so the loader borrows the chain's CSR
// arrays straight out of the mapping; every other field is copied out
// through bounds-checked reads, which are correct at any byte offset.
//
// Both directions go through util/framed_file, the framing shared with
// sim/checkpoint.cpp. util::FramedFileWriter streams the save: no payload
// buffer or file image is ever built, and the save is atomic and durable
// (tmp + fsync + close + rename + directory fsync). util::FramedFileReader
// maps the file and checks it: truncation, foreign magic, unknown version,
// flipped bits, length drift, model mismatch and structural drift behind a
// valid checksum (a non-finite plane coefficient included) each map to a
// distinct actionable ModelError naming the file, and a rejected file
// never returns partial data.
#pragma once

#include <cstdint>
#include <string>

#include "bounds/ra_bound.hpp"
#include "pomdp/mdp.hpp"

namespace recoverd::bounds {

inline constexpr std::uint32_t kBoundArtifactVersion = 1;

/// A loaded bound artifact: the chain + bound set, plus the identity hashes.
struct BoundArtifact {
  RandomActionChain chain;  ///< Q̄/c̄ + SolvePlan, bitwise as saved
  BoundSet set;             ///< planes/uses/generation, bitwise as saved
  std::uint64_t model_hash = 0;    ///< hash_mdp of the model it was built for
  /// The file's CRC-64 — the artifact's content identity. Recorded in fleet
  /// checkpoints (FleetCheckpoint::bound_artifact_hash) so a checkpoint
  /// cannot be resumed on top of different bounds.
  std::uint64_t content_hash = 0;

  BoundArtifact(RandomActionChain chain_in, BoundSet set_in)
      : chain(std::move(chain_in)), set(std::move(set_in)) {}
};

/// Content hash of an MDP (dimensions, goal set, durations, reward bits,
/// transition CSR bits): the bounds-layer analogue of sim::hash_pomdp,
/// without the observation model (bounds are a function of the MDP alone).
/// Stored in the artifact and checked on load, so an artifact built for one
/// model is rejected — with an actionable message — when offered to another.
std::uint64_t hash_mdp(const Mdp& mdp);

/// Atomically and durably serializes `chain` + `set` to `path` (tmp + fsync
/// + close + rename + directory fsync), streaming every array straight from
/// the chain and the set. `model_hash` should be hash_mdp of the model the
/// bounds were built from. Returns the artifact's content hash (the stored
/// CRC-64). Throws ModelError when the file cannot be created, fully
/// written, synced, closed or renamed; the previous file at `path`, if any,
/// is then untouched. Precondition: chain and set agree on the state
/// dimension.
std::uint64_t save_bound_artifact(const std::string& path,
                                  const RandomActionChain& chain,
                                  const BoundSet& set, std::uint64_t model_hash);

/// Reads and fully validates an artifact (magic, version, length, CRC-64,
/// dimension consistency, finite planes) through util::FramedFileReader's
/// read-only mapping. The returned chain's matrix borrows its CSR arrays
/// from that mapping, which stays mapped while the matrix or a copy of it
/// lives. When `expected_model_hash` is nonzero it must match the stored
/// model hash. Throws ModelError with an actionable one-line message on any
/// corruption or mismatch; never returns partial data.
BoundArtifact load_bound_artifact(const std::string& path,
                                  std::uint64_t expected_model_hash = 0);

}  // namespace recoverd::bounds
