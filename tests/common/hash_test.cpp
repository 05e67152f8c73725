#include "common/hash.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>

namespace quartz {
namespace {

std::uint64_t fnv1a_of(std::string_view text) {
  return fnv1a(text.data(), text.size(), kFnvOffsetBasis);
}

// The published FNV-1a 64-bit test vectors (Fowler/Noll/Vo): seeded
// with kFnvOffsetBasis, fnv1a is the standard hash.
TEST(Fnv1a, MatchesPublishedVectors) {
  EXPECT_EQ(fnv1a_of(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a_of("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a_of("foobar"), 0x85944171f73967e8ull);
}

}  // namespace
}  // namespace quartz
