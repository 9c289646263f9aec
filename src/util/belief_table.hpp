// Open-addressing index over belief rows, keyed by their bit pattern: the
// one table behind root canonicalization, the deep pipeline's per-level
// node tables and the fleet's cross-tick decision cache.
//
// The rows live in a store the caller owns — entry i's `dim` doubles at
// rows + i·dim, appended in entry order — so the table itself is two flat
// arrays and allocates nothing once warm. Slots are 64-bit: a 16-bit epoch,
// a 16-bit tag (the top bits of the row's hash_belief_bits() hash) and
// entry + 1. A slot stamped with an older epoch is empty, so clear() is
// O(1) however large the table grew. Linear probing starts at the hash's
// low bits, and a probe touches the row store only when a slot's tag
// matches, so a probe that passes other entries reads nothing but the slot
// array. Every match is confirmed by memcmp: a collision can only split two
// rows into two entries, never merge distinct beliefs. Equality is bitwise
// (-0.0 and 0.0 differ, as do NaN payloads).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace recoverd::util {

class BeliefTable {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Forgets every entry by advancing the epoch. The slot array keeps its
  /// capacity, grows to hold at least `expected` entries at load 1/2, and
  /// is zeroed only when it grows or the epoch wraps.
  void clear(std::size_t expected = 0) {
    std::size_t want = 64;
    while (want < 2 * expected) want <<= 1;
    if (slots_.size() < want) {
      slots_.assign(want, 0);
    } else if (++epoch_ == 0) {
      std::fill(slots_.begin(), slots_.end(), 0);
      epoch_ = 1;
    }
    mask_ = slots_.size() - 1;
    hashes_.clear();
  }

  /// Number of entries.
  std::size_t size() const { return hashes_.size(); }

  /// The entry whose row is bitwise `row`, or npos. `rows` is the caller's
  /// store of `dim`-double rows; `hash` is hash_belief_bits(row, dim).
  std::size_t find(std::uint64_t hash, const double* row, const double* rows,
                   std::size_t dim) const {
    if (slots_.empty()) return npos;
    const std::uint64_t key = stamp(hash);
    for (std::size_t pos = hash & mask_;; pos = (pos + 1) & mask_) {
      const std::uint64_t slot = slots_[pos];
      if ((slot >> 48) != epoch_) return npos;
      if ((slot & kKeyMask) == key) {
        const std::size_t entry = static_cast<std::size_t>(slot & ~kKeyMask) - 1;
        if (std::memcmp(rows + entry * dim, row, dim * sizeof(double)) == 0) return entry;
      }
    }
  }

  /// find(), and on a miss records `row` as the new entry size(): returns
  /// {entry, inserted}. On insertion the caller must append the row to its
  /// store at that index before the next probe.
  std::pair<std::size_t, bool> find_or_insert(std::uint64_t hash, const double* row,
                                              const double* rows, std::size_t dim) {
    if (slots_.empty()) clear();
    const std::uint64_t key = stamp(hash);
    std::size_t pos = hash & mask_;
    for (;; pos = (pos + 1) & mask_) {
      const std::uint64_t slot = slots_[pos];
      if ((slot >> 48) != epoch_) break;
      if ((slot & kKeyMask) == key) {
        const std::size_t entry = static_cast<std::size_t>(slot & ~kKeyMask) - 1;
        if (std::memcmp(rows + entry * dim, row, dim * sizeof(double)) == 0) {
          return {entry, false};
        }
      }
    }
    const std::size_t entry = hashes_.size();
    RD_EXPECTS(entry + 1 < (std::uint64_t{1} << 32), "BeliefTable: too many entries");
    slots_[pos] = key | static_cast<std::uint64_t>(entry + 1);
    hashes_.push_back(hash);
    if (2 * hashes_.size() >= slots_.size()) grow();
    return {entry, true};
  }

  /// Pulls the home slot of `hash` toward the cache ahead of its probe.
  void prefetch(std::uint64_t hash) const {
#if defined(__GNUC__) || defined(__clang__)
    if (!slots_.empty()) __builtin_prefetch(slots_.data() + (hash & mask_));
#else
    (void)hash;
#endif
  }

  /// Capacity footprint in bytes.
  std::size_t bytes() const {
    return (slots_.capacity() + hashes_.capacity()) * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::uint64_t kKeyMask = 0xffffffff00000000ULL;  // epoch | tag

  // The upper half of a slot holding `hash` in the current epoch.
  std::uint64_t stamp(std::uint64_t hash) const {
    return (std::uint64_t{epoch_} << 48) | ((hash >> 48) << 32);
  }

  // Doubles the slot array and re-places every entry from its stored hash.
  void grow() {
    slots_.assign(slots_.size() * 2, 0);
    mask_ = slots_.size() - 1;
    for (std::size_t entry = 0; entry < hashes_.size(); ++entry) {
      std::size_t pos = hashes_[entry] & mask_;
      while ((slots_[pos] >> 48) == epoch_) pos = (pos + 1) & mask_;
      slots_[pos] = stamp(hashes_[entry]) | static_cast<std::uint64_t>(entry + 1);
    }
  }

  // Occupied slots: epoch_ << 48 | tag << 32 | (entry + 1); any other epoch
  // (0 after zeroing) is empty.
  std::vector<std::uint64_t> slots_;
  std::vector<std::uint64_t> hashes_;  // per entry, for grow()
  std::size_t mask_ = 0;
  std::uint16_t epoch_ = 1;
};

}  // namespace recoverd::util
