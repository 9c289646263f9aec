// Bit-pattern hashing shared by the engine's belief caches and the content
// hashes persisted in bound artifacts and checkpoints. Inline on purpose:
// hash_mdp folds every transition of a 2·10⁵-state model through mix_in.
//
// Changing mix64, mix_in or bits_of changes every persisted hash and so
// invalidates saved artifacts and checkpoints;
// CheckpointTest.PersistedHashesArePinnedOnEmn pins them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace recoverd::util {

/// The raw IEEE-754 bits of `v`: -0.0 and 0.0 (or two NaN payloads) hash
/// apart, which is what bitwise-exact caches need.
inline std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// MurmurHash3's 64-bit finalizer (fmix64).
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Folds `v` into the running content hash `h`.
inline std::uint64_t mix_in(std::uint64_t h, std::uint64_t v) { return mix64(h ^ v); }

/// One FNV-style step: cheaper than mix_in, for in-memory tables whose
/// hashes are never stored.
inline std::uint64_t fnv_step(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
  h ^= h >> 29;
  return h;
}

/// Hash of a belief row's bit pattern, for root canonicalization, the deep
/// pipeline's node tables and the fleet's decision cache (BeliefTable).
/// Every probe is confirmed by memcmp, so a collision can only split a
/// class, never merge two distinct beliefs.
inline std::uint64_t hash_belief_bits(const double* row, std::size_t num_states) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (std::size_t s = 0; s < num_states; ++s) h = fnv_step(h, bits_of(row[s]));
  return h;
}

/// hash_belief_bits() of `count` row-major rows, out[r] for row r. Eight
/// rows advance together as independent chains, so their multiply
/// latencies overlap instead of serializing; each chain is the single-row
/// function.
inline void hash_belief_rows(const double* rows, std::size_t count, std::size_t num_states,
                             std::uint64_t* out) {
  constexpr std::size_t kChains = 8;
  std::size_t r = 0;
  for (; r + kChains <= count; r += kChains) {
    const double* base = rows + r * num_states;
    std::uint64_t h[kChains];
    for (std::size_t c = 0; c < kChains; ++c) h[c] = 0x9e3779b97f4a7c15ULL;
    for (std::size_t s = 0; s < num_states; ++s) {
      for (std::size_t c = 0; c < kChains; ++c) {
        h[c] = fnv_step(h[c], bits_of(base[c * num_states + s]));
      }
    }
    for (std::size_t c = 0; c < kChains; ++c) out[r + c] = h[c];
  }
  for (; r < count; ++r) out[r] = hash_belief_bits(rows + r * num_states, num_states);
}

}  // namespace recoverd::util
