// Seeded damage for reader fuzz tests: mutated copies of a committed
// fixture, which a reader may reject or throw on but must never crash
// or hang over.
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace quartz::test {

/// One to four bit flips or byte overwrites at random offsets, then a
/// truncation to a random length one time in four.  `Bytes` is any
/// contiguous byte container (std::string, std::vector<std::byte>).
template <typename Bytes>
Bytes mutant(Bytes bytes, Rng& rng) {
  using Byte = typename Bytes::value_type;
  const std::uint64_t edits = 1 + rng.next_below(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    Byte& target = bytes[rng.next_below(bytes.size())];
    const auto value = static_cast<unsigned>(rng.next_below(256));
    const auto old = static_cast<unsigned char>(target);
    target = static_cast<Byte>(rng.next_below(2) == 0 ? old ^ (1u << (value % 8)) : value);
  }
  if (rng.next_below(4) == 0) bytes.resize(rng.next_below(bytes.size()));
  return bytes;
}

}  // namespace quartz::test
