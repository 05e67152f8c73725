#include "common/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "telemetry/binary_stream.hpp"

namespace quartz {
namespace {

using Kernel = std::uint32_t (*)(const void*, std::size_t, std::uint32_t);

// Reference CRC-32: the textbook bit-at-a-time loop every kernel must
// agree with, on the raw (pre-inverted) state so callers can extend it
// one byte at a time.
std::uint32_t reference_update(std::uint32_t c, unsigned char byte) {
  c ^= byte;
  for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  return c;
}

std::uint32_t crc32_reference(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < bytes; ++i) c = reference_update(c, p[i]);
  return c ^ 0xFFFFFFFFu;
}

std::vector<unsigned char> pseudo_random_bytes(std::size_t n) {
  std::vector<unsigned char> buf(n);
  std::uint32_t state = 0x12345678u;
  for (auto& b : buf) {
    state = state * 1664525u + 1013904223u;
    b = static_cast<unsigned char>(state >> 24);
  }
  return buf;
}

// Every length 0..1024 at every start offset 0..15.  Each input sits in
// its own exactly-sized allocation, so a kernel reading one byte past
// the end trips AddressSanitizer.
void expect_matches_reference(Kernel kernel) {
  constexpr std::size_t kMaxLen = 1024;
  const std::vector<unsigned char> source = pseudo_random_bytes(kMaxLen + 16);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t len = 0; len <= kMaxLen; ++len) {
      const auto end = source.begin() + static_cast<std::ptrdiff_t>(offset + len);
      const std::vector<unsigned char> exact(source.begin(), end);
      ASSERT_EQ(kernel(exact.data() + offset, len, 0), c ^ 0xFFFFFFFFu)
          << "offset " << offset << " len " << len;
      c = reference_update(c, source[offset + len]);
    }
  }
  const std::vector<unsigned char> page = pseudo_random_bytes(telemetry::kPagePayloadBytes);
  EXPECT_EQ(kernel(page.data(), page.size(), 0), crc32_reference(page.data(), page.size()));
}

// Chaining: the CRC of a head seeds the CRC of the tail, at every split
// of an input long enough for the folded path on either side.
void expect_seed_chains(Kernel kernel) {
  const std::vector<unsigned char> data = pseudo_random_bytes(300);
  const std::uint32_t whole = kernel(data.data(), data.size(), 0);
  ASSERT_EQ(whole, crc32_reference(data.data(), data.size()));
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const std::uint32_t head = kernel(data.data(), split, 0);
    EXPECT_EQ(kernel(data.data() + split, data.size() - split, head), whole) << "split " << split;
  }
}

TEST(Crc32, KnownAnswerAndEmptyInput) {
  const char kat[] = "123456789";
  EXPECT_EQ(crc32(kat, 9), 0xCBF43926u);  // the IEEE 802.3 check value
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  EXPECT_EQ(crc32(nullptr, 0, 0xCBF43926u), 0xCBF43926u);
}

TEST(Crc32, SlicedPathMatchesBitwiseReferenceAtEveryLength) {
  expect_matches_reference(&detail::crc32_table);
}

TEST(Crc32, FoldedPathMatchesBitwiseReferenceAtEveryLength) {
  if (!detail::crc32_folded_supported()) GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1";
  expect_matches_reference(&detail::crc32_folded);
}

TEST(Crc32, SeedChainsAcrossSplits) {
  expect_seed_chains(&detail::crc32_table);
  expect_seed_chains(&crc32);
  if (detail::crc32_folded_supported()) expect_seed_chains(&detail::crc32_folded);
}

}  // namespace
}  // namespace quartz
