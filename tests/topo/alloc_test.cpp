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

#include <cstdint>

#include "support/counting_new.hpp"
#include "topo/composite.hpp"

namespace quartz::topo {
namespace {

using test::alloc_count;

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
