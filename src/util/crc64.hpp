// CRC-64/XZ (reflected polynomial 0x42F0E1EBA9EA3693, init/final ~0).
//
// Shared by the fleet-checkpoint and bound-artifact formats, whose streaming
// writer (util/framed_file.hpp) feeds it piece by piece as bytes go out.
// The slice-by-8 kernel processes eight input bytes per table round, which
// matters for bound artifacts: a
// 10⁶-state artifact is hundreds of megabytes and the CRC pass is the single
// largest fixed cost of a warm start, so it has to run at memory speed, not
// at one table lookup per byte.
//
// crc64("123456789") == 0x995DC9BBDF1939FA (the CRC-64/XZ check value); the
// output is bitwise identical to the byte-at-a-time implementation the fleet
// checkpoints shipped with, so existing checkpoint files keep validating.
#pragma once

#include <cstddef>
#include <cstdint>

namespace recoverd::util {

/// CRC-64/XZ over `n` bytes, continuing from `crc`, the CRC of the bytes
/// before them (0 for none): crc64(b, nb, crc64(a, na)) equals the one-shot
/// crc64 of a followed by b, wherever the cut falls.
std::uint64_t crc64(const void* data, std::size_t n, std::uint64_t crc = 0);

}  // namespace recoverd::util
