// Allocation budget of the composite builder, enforced with a counting
// operator-new hook (which is why this suite lives in its own test
// binary: the hook is global to the process).
//
// Building a composite must not allocate per node: the builder writes
// every node and link once, depth first, into one graph reserved at its
// final size, and adjacency is derived from the links only when it is
// first read.  So the count scales with the leaf rings (a switch model,
// a label prefix and a ring list each), not with the switches.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include "topo/composite.hpp"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

std::uint64_t alloc_count() { return g_alloc_count.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t al = std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, al, size ? size : 1) == 0) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }

namespace quartz::topo {
namespace {

TEST(TopoAllocation, CompositeBuildDoesNotAllocatePerNode) {
  const CompositeSpec spec = *CompositeSpec::parse("ring-of-rings:16x16x16");
  const std::uint64_t before = alloc_count();
  const BuiltTopology built = build_composite(spec);
  const std::uint64_t allocs = alloc_count() - before;

  const std::size_t leaf_rings = built.quartz_rings.size();
  ASSERT_EQ(leaf_rings, 256u);
  ASSERT_EQ(built.graph.node_count(), 4096u);
  // 4,096 switches: one allocation per switch alone would be 16 per
  // leaf ring.
  EXPECT_LT(allocs, 8u * leaf_rings) << allocs << " allocations";
}

}  // namespace
}  // namespace quartz::topo
