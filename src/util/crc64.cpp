#include "util/crc64.hpp"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RECOVERD_CRC64_CLMUL 1
#include <immintrin.h>
#else
#define RECOVERD_CRC64_CLMUL 0
#endif

namespace recoverd::util {

namespace {

struct Crc64Tables {
  std::uint64_t t[16][256];
};

const Crc64Tables& crc64_tables() {
  static const Crc64Tables tables = [] {
    Crc64Tables out;
    const std::uint64_t poly = 0xC96C5795D7870F42ULL;  // reflected polynomial
    for (std::uint64_t i = 0; i < 256; ++i) {
      std::uint64_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
      }
      out.t[0][i] = crc;
    }
    // t[k][b] = CRC of byte b followed by k zero bytes; lets sixteen bytes
    // be folded with sixteen independent lookups per round (slice-by-16 —
    // twice the parallelism of slice-by-8, same polynomial, same result).
    for (int k = 1; k < 16; ++k) {
      for (std::uint64_t i = 0; i < 256; ++i) {
        const std::uint64_t prev = out.t[k - 1][i];
        out.t[k][i] = out.t[0][prev & 0xff] ^ (prev >> 8);
      }
    }
    return out;
  }();
  return tables;
}

// Table-driven update on the raw (pre-inversion) state. Serves three roles:
// the portable main path, the sub-block tail of the CLMUL path, and the
// reference the CLMUL kernel must match bit for bit.
std::uint64_t crc64_update_table(std::uint64_t crc, const unsigned char* p,
                                 std::size_t n) {
  const Crc64Tables& tb = crc64_tables();
  // Slice-by-16 main loop: the CRC folds into the first eight bytes, the
  // next eight are independent of it, so all sixteen table lookups can
  // issue in parallel. This is the integrity-check bottleneck of the mmap
  // bound-artifact loader, where every saved byte is verified per load.
  while (n >= 16) {
    std::uint64_t w0;
    std::uint64_t w1;
    std::memcpy(&w0, p, 8);
    std::memcpy(&w1, p + 8, 8);
    w0 ^= crc;  // little-endian: low byte of `w0` is the next input byte
    crc = tb.t[15][w0 & 0xff] ^ tb.t[14][(w0 >> 8) & 0xff] ^
          tb.t[13][(w0 >> 16) & 0xff] ^ tb.t[12][(w0 >> 24) & 0xff] ^
          tb.t[11][(w0 >> 32) & 0xff] ^ tb.t[10][(w0 >> 40) & 0xff] ^
          tb.t[9][(w0 >> 48) & 0xff] ^ tb.t[8][w0 >> 56] ^
          tb.t[7][w1 & 0xff] ^ tb.t[6][(w1 >> 8) & 0xff] ^
          tb.t[5][(w1 >> 16) & 0xff] ^ tb.t[4][(w1 >> 24) & 0xff] ^
          tb.t[3][(w1 >> 32) & 0xff] ^ tb.t[2][(w1 >> 40) & 0xff] ^
          tb.t[1][(w1 >> 48) & 0xff] ^ tb.t[0][w1 >> 56];
    p += 16;
    n -= 16;
  }
  if (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc ^= word;
    crc = tb.t[7][crc & 0xff] ^ tb.t[6][(crc >> 8) & 0xff] ^
          tb.t[5][(crc >> 16) & 0xff] ^ tb.t[4][(crc >> 24) & 0xff] ^
          tb.t[3][(crc >> 32) & 0xff] ^ tb.t[2][(crc >> 40) & 0xff] ^
          tb.t[1][(crc >> 48) & 0xff] ^ tb.t[0][crc >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = tb.t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

#if RECOVERD_CRC64_CLMUL

// ---------------------------------------------------------------------------
// PCLMULQDQ folding path. Carry-less multiplication folds 64 input bytes per
// iteration across four independent 128-bit accumulators, reaching memory-
// bound throughput (~3x the slice-by-16 tables on one core) — the difference
// between the artifact CRC being the dominant cost of a warm start and a
// rounding error. Same polynomial, bitwise-identical result; the table path
// remains the portable fallback and handles the sub-16-byte tail.
//
// Math, in the reflected convention the tables use (a 64-bit word w encodes
// the polynomial sum of bit_j(w) * x^(63-j); right-shift is multiply-by-x):
// a 128-bit accumulator A = (a_lo, a_hi) encodes p64(a_lo)*x^64 + p64(a_hi).
// Folding the next block D at stride S bits must produce A*x^S + D, i.e.
// p64(a_lo)*x^(S+64) + p64(a_hi)*x^S + D  (mod P). PCLMULQDQ of reflected
// operands yields the reflected product times one extra factor of x, so the
// fold constants are x^(S+64-1) mod P and x^(S-1) mod P, bit-reflected.
// ---------------------------------------------------------------------------

// Carry-less product, software (constant generation only — never on data).
inline unsigned __int128 clmul_soft(std::uint64_t a, std::uint64_t b) {
  unsigned __int128 r = 0;
  for (int i = 0; i < 64; ++i) {
    if ((b >> i) & 1) r ^= static_cast<unsigned __int128>(a) << i;
  }
  return r;
}

// Reduce a 128-bit polynomial modulo P_full = x^64 + P (normal encoding).
inline std::uint64_t polymod(unsigned __int128 v) {
  constexpr std::uint64_t kPoly = 0x42F0E1EBA9EA3693ULL;  // normal encoding
  for (int bit = 127; bit >= 64; --bit) {
    if ((v >> bit) & 1) {
      v ^= (static_cast<unsigned __int128>(kPoly) << (bit - 64)) |
           (static_cast<unsigned __int128>(1) << bit);
    }
  }
  return static_cast<std::uint64_t>(v);
}

// x^n mod P_full by square-and-multiply, normal encoding.
inline std::uint64_t xpow_mod(std::uint64_t n) {
  std::uint64_t r = 1;
  std::uint64_t b = 2;  // the polynomial x
  while (n != 0) {
    if (n & 1) r = polymod(clmul_soft(r, b));
    b = polymod(clmul_soft(b, b));
    n >>= 1;
  }
  return r;
}

inline std::uint64_t bit_reflect(std::uint64_t v) {
  std::uint64_t r = 0;
  for (int i = 0; i < 64; ++i) {
    if ((v >> i) & 1) r |= 1ULL << (63 - i);
  }
  return r;
}

struct ClmulConstants {
  std::uint64_t fold512_hi;  // x^(512+63) mod P, reflected: 64-byte stride
  std::uint64_t fold512_lo;  // x^(512-1)  mod P, reflected
  std::uint64_t fold128_hi;  // x^(128+63) mod P, reflected: 16-byte stride
  std::uint64_t fold128_lo;  // x^(128-1)  mod P, reflected
};

const ClmulConstants& clmul_constants() {
  static const ClmulConstants k = {
      bit_reflect(xpow_mod(575)),
      bit_reflect(xpow_mod(511)),
      bit_reflect(xpow_mod(191)),
      bit_reflect(xpow_mod(127)),
  };
  return k;
}

// One fold step: acc advanced by the stride `k` encodes, next block XOR'd in.
__attribute__((target("pclmul,sse2"))) inline __m128i fold_step(__m128i acc,
                                                                __m128i k,
                                                                __m128i data) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       data);
}

// Raw-state CRC over n >= 64 bytes. Folds with four accumulators at a
// 64-byte stride, collapses them with the 16-byte-stride constant, then
// finishes the 16 accumulator bytes and the tail through the table path.
__attribute__((target("pclmul,sse2"))) std::uint64_t crc64_update_clmul(
    std::uint64_t crc, const unsigned char* p, std::size_t n) {
  const ClmulConstants& kc = clmul_constants();
  const __m128i k512 = _mm_set_epi64x(static_cast<long long>(kc.fold512_lo),
                                      static_cast<long long>(kc.fold512_hi));
  const __m128i k128 = _mm_set_epi64x(static_cast<long long>(kc.fold128_lo),
                                      static_cast<long long>(kc.fold128_hi));
  const auto* q = reinterpret_cast<const __m128i*>(p);
  __m128i a0 = _mm_loadu_si128(q);
  __m128i a1 = _mm_loadu_si128(q + 1);
  __m128i a2 = _mm_loadu_si128(q + 2);
  __m128i a3 = _mm_loadu_si128(q + 3);
  a0 = _mm_xor_si128(a0, _mm_set_epi64x(0, static_cast<long long>(crc)));
  p += 64;
  n -= 64;
  while (n >= 64) {
    q = reinterpret_cast<const __m128i*>(p);
    a0 = fold_step(a0, k512, _mm_loadu_si128(q));
    a1 = fold_step(a1, k512, _mm_loadu_si128(q + 1));
    a2 = fold_step(a2, k512, _mm_loadu_si128(q + 2));
    a3 = fold_step(a3, k512, _mm_loadu_si128(q + 3));
    p += 64;
    n -= 64;
  }
  __m128i acc = fold_step(a0, k128, a1);  // collapse the lanes at 16-byte stride
  acc = fold_step(acc, k128, a2);
  acc = fold_step(acc, k128, a3);
  while (n >= 16) {
    acc = fold_step(acc, k128,
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    p += 16;
    n -= 16;
  }
  unsigned char folded[16];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(folded), acc);
  // The accumulator encodes the not-yet-reduced remainder; running its bytes
  // through the table step from state 0 performs the final reduction.
  return crc64_update_table(crc64_update_table(0, folded, 16), p, n);
}

bool cpu_has_clmul() {
  static const bool has = __builtin_cpu_supports("pclmul") != 0;
  return has;
}

#endif  // RECOVERD_CRC64_CLMUL

}  // namespace

std::uint64_t crc64(const void* data, std::size_t n, std::uint64_t crc) {
  const auto* p = static_cast<const unsigned char*>(data);
  // The final XOR undone is the raw state the kernels continue from; for
  // crc == 0 it is the CRC-64/XZ initial value ~0.
  const std::uint64_t state = ~crc;
#if RECOVERD_CRC64_CLMUL
  // Folding needs at least one 64-byte block; below that the table setup
  // dominates anyway.
  if (n >= 64 && cpu_has_clmul()) {
    return ~crc64_update_clmul(state, p, n);
  }
#endif
  return ~crc64_update_table(state, p, n);
}

}  // namespace recoverd::util
