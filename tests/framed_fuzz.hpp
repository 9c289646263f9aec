// Deterministic mutation fuzzing of the framed formats (DESIGN.md §15
// "Load"): bound artifacts and fleet checkpoints share one reader, and the
// ArtifactFuzzTest / CheckpointFuzzTest suites drive it with the mutants
// drawn here. Every mutant is run twice, as drawn and with its CRC-64
// trailer resealed, so it reaches the payload schema instead of stopping
// at the checksum. Only g++ is available, so there is no libFuzzer: a fixed
// seed and a fixed count keep each run the same corpus.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "util/crc64.hpp"

namespace recoverd::testfuzz {

inline constexpr std::uint64_t kSeed = 2006;
inline constexpr std::size_t kMutants = 1000;

/// Recomputes the CRC-64 trailer over bytes [8, size - 8), as a writer that
/// produced the mutated body would have. Files too short for a trailer are
/// left as they are.
inline void reseal(std::vector<unsigned char>& bytes) {
  if (bytes.size() < 16) return;
  const std::uint64_t crc = util::crc64(bytes.data() + 8, bytes.size() - 16);
  std::memcpy(bytes.data() + bytes.size() - 8, &crc, sizeof(crc));
}

/// One mutant of `bytes`, drawn from `rng`: one to four bit flips, a
/// truncation, a splice (a prefix joined to a suffix, which drops or
/// repeats a run of the file), or one u64 word between the magic and the
/// trailer overwritten with 0, 1, ~0, 2^40 or 2^62. The words lie on the
/// 8-byte grid of the payload, which starts at `payload_start`.
inline std::vector<unsigned char> mutate(const std::vector<unsigned char>& bytes,
                                         std::size_t payload_start,
                                         std::mt19937_64& rng) {
  const auto below = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  std::vector<unsigned char> out = bytes;
  switch (rng() % 4) {
    case 0: {
      const std::size_t flips = 1 + below(4);
      for (std::size_t i = 0; i < flips; ++i) {
        out[below(out.size())] ^= static_cast<unsigned char>(1u << below(8));
      }
      break;
    }
    case 1:
      out.resize(below(out.size()));
      break;
    case 2: {
      const std::size_t cut = below(bytes.size() + 1);
      const std::size_t resume = below(bytes.size() + 1);
      out.resize(cut);
      out.insert(out.end(), bytes.begin() + static_cast<std::ptrdiff_t>(resume),
                 bytes.end());
      break;
    }
    default: {
      static constexpr std::uint64_t kValues[] = {0, 1, ~std::uint64_t{0},
                                                  std::uint64_t{1} << 40,
                                                  std::uint64_t{1} << 62};
      const std::size_t first = 8 + payload_start % 8;
      const std::size_t offset = first + 8 * below((bytes.size() - 8 - first) / 8);
      std::memcpy(out.data() + offset, &kValues[below(5)], sizeof(std::uint64_t));
    }
  }
  return out;
}

}  // namespace recoverd::testfuzz
