// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320): the integrity
// check of binary telemetry pages (.qtz) and snapshot chunks (.qsnap).
//
// One function, two kernels.  On x86-64 CPUs with PCLMULQDQ the bulk of
// a buffer is folded 64 bytes per step with carry-less multiplies;
// everywhere else, and for the short tail, a slicing-by-8 table runs.
// The kernel is picked once per process at run time; both produce the
// same value for every input.
#pragma once

#include <cstddef>
#include <cstdint>

namespace quartz {

/// CRC-32 of `bytes` bytes at `data`.  Chains: passing the CRC of a
/// prefix as `seed` continues it over the rest of the buffer.
std::uint32_t crc32(const void* data, std::size_t bytes, std::uint32_t seed = 0);

namespace detail {

/// Slicing-by-8 table kernel; runs on every CPU.
std::uint32_t crc32_table(const void* data, std::size_t bytes, std::uint32_t seed);

/// True when this CPU can run crc32_folded's carry-less-multiply path.
bool crc32_folded_supported();

/// PCLMULQDQ folding kernel, with the table kernel for inputs under
/// 64 bytes and the last (bytes % 16).  Call it only where
/// crc32_folded_supported(); off x86-64 it is the table kernel.
std::uint32_t crc32_folded(const void* data, std::size_t bytes, std::uint32_t seed);

}  // namespace detail
}  // namespace quartz
