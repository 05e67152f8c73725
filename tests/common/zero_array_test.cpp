#include "common/zero_array.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <span>
#include <utility>

namespace quartz {
namespace {

// One size on each side of the calloc / anonymous-mapping split.
constexpr std::size_t kSmall = 1000;
constexpr std::size_t kLarge = std::size_t{1} << 20;  // >= 4 MiB for every type below

TEST(ZeroArray, FreshArraysReadAsZero) {
  for (const std::size_t size : {kSmall, kLarge}) {
    const ZeroArray<double> doubles(size);
    const ZeroArray<std::int64_t> ints(size);
    ASSERT_EQ(doubles.size(), size);
    EXPECT_FALSE(doubles.empty());
    EXPECT_TRUE(std::all_of(doubles.begin(), doubles.end(), [](double v) { return v == 0.0; }));
    EXPECT_EQ(std::count(ints.begin(), ints.end(), 0), static_cast<std::ptrdiff_t>(size));
  }
}

TEST(ZeroArray, WritesReadBack) {
  for (const std::size_t size : {kSmall, kLarge}) {
    ZeroArray<std::uint32_t> array(size);
    for (std::size_t i = 0; i < size; i += 97) array[i] = static_cast<std::uint32_t>(i + 1);
    for (std::size_t i = 0; i < size; ++i) {
      ASSERT_EQ(array[i], i % 97 == 0 ? i + 1 : 0u) << i;
    }
    EXPECT_EQ(array.data(), &array[0]);
    EXPECT_EQ(array.end() - array.begin(), static_cast<std::ptrdiff_t>(size));
  }
}

TEST(ZeroArray, CopiesAreDeepAndMovesTakeTheStorage) {
  for (const std::size_t size : {kSmall, kLarge}) {
    ZeroArray<std::int64_t> original(size);
    original[0] = -7;
    original[size - 1] = 42;

    ZeroArray<std::int64_t> copy(original);
    ASSERT_EQ(copy.size(), size);
    EXPECT_NE(copy.data(), original.data());
    EXPECT_TRUE(std::ranges::equal(copy, original));
    copy[0] = 1;
    EXPECT_EQ(original[0], -7);

    ZeroArray<std::int64_t> assigned(3);
    assigned = original;
    EXPECT_TRUE(std::ranges::equal(assigned, original));

    const std::int64_t* storage = original.data();
    ZeroArray<std::int64_t> moved(std::move(original));
    EXPECT_EQ(moved.data(), storage);
    EXPECT_EQ(moved[size - 1], 42);
    EXPECT_TRUE(original.empty());  // the documented moved-from state
    EXPECT_EQ(original.data(), nullptr);

    ZeroArray<std::int64_t> target(5);
    target = std::move(moved);
    EXPECT_EQ(target.data(), storage);
    EXPECT_EQ(target.size(), size);
    EXPECT_TRUE(moved.empty());
  }
}

TEST(ZeroArray, EmptyArrayHasNoStorage) {
  const ZeroArray<double> defaulted;
  const ZeroArray<double> sized(0);
  for (const ZeroArray<double>* array : {&defaulted, &sized}) {
    EXPECT_TRUE(array->empty());
    EXPECT_EQ(array->size(), 0u);
    EXPECT_EQ(array->data(), nullptr);
    EXPECT_EQ(array->begin(), array->end());
  }
  ZeroArray<double> copy(sized);
  EXPECT_TRUE(copy.empty());
  copy = ZeroArray<double>(4);
  EXPECT_EQ(copy.size(), 4u);
  const std::span<const double> view = copy;
  EXPECT_EQ(view.size(), 4u);
}

/// Resident set size in bytes (second field of /proc/self/statm), or 0
/// where the file does not exist.
std::size_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t size_pages = 0;
  std::size_t resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

TEST(ZeroArray, AssertionsBuildChecksTheIndex) {
#if defined(_GLIBCXX_ASSERTIONS)
  for (const std::size_t size : {kSmall, kLarge}) {
    ZeroArray<int> array(size);
    const ZeroArray<int>& view = array;
    EXPECT_DEATH(array[size] = 1, "out of range");
    EXPECT_DEATH((void)view[size], "out of range");
  }
  ZeroArray<int> empty;
  EXPECT_DEATH((void)empty[0], "out of range");
#else
  GTEST_SKIP() << "operator[] checks its index only with _GLIBCXX_ASSERTIONS";
#endif
}

TEST(ZeroArray, SparseWritesCommitOnlyTheirPages) {
  constexpr std::size_t kBytes = std::size_t{256} << 20;
  const std::size_t page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  const std::size_t before = resident_bytes();
  ZeroArray<char> array(kBytes);
  for (std::size_t offset = 0; offset < kBytes; offset += 1000 * page) array[offset] = 1;
  const std::size_t after = resident_bytes();
  for (std::size_t offset = 0; offset < kBytes; offset += 1000 * page) {
    ASSERT_EQ(array[offset], 1);
    ASSERT_EQ(array[offset + 1], 0);
  }
#if defined(__SANITIZE_ADDRESS__)
  // ASan's shadow memory and allocator make the resident size say
  // nothing about this array.
  (void)before;
  (void)after;
#else
  if (before == 0) GTEST_SKIP() << "/proc/self/statm unavailable";
  // 66 written pages; a dense array would add 256 MiB.
  EXPECT_LT(after - std::min(after, before), std::size_t{8} << 20)
      << "resident " << before << " -> " << after << " bytes";
#endif
}

}  // namespace
}  // namespace quartz
