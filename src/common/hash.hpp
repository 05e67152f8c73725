// The simulator's integer hashes: SplitMix64 (seeds, flow hashes, keyed
// draws, sort stamps) and 64-bit FNV-1a (digests).  Every pinned digest
// and sharded-vs-serial identity depends on them staying bit-exact.
#pragma once

#include <cstddef>
#include <cstdint>

namespace quartz {

/// SplitMix64's increment (2^64 / golden ratio).
inline constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ull;

/// SplitMix64's output finalizer: a bijective avalanche mix.
constexpr std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// One SplitMix64 step from state `x`: advance by the gamma, then mix.
constexpr std::uint64_t splitmix64(std::uint64_t x) { return splitmix64_mix(x + kSplitMixGamma); }

/// Keyed PRF over (seed, domain, a, b): a pure function, so every
/// shard count derives the same draws without sharing a generator.
constexpr std::uint64_t prf(std::uint64_t seed, std::uint64_t domain, std::uint64_t a,
                            std::uint64_t b) {
  return splitmix64_mix(splitmix64_mix(splitmix64_mix(seed ^ (domain + kSplitMixGamma)) + a) + b);
}

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// FNV-1a over `value`'s eight bytes, least significant first.
constexpr std::uint64_t fnv1a_u64(std::uint64_t h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over a byte range.
inline std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

}  // namespace quartz
