#include "sim/partition.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "topo/composite.hpp"

namespace quartz::sim {
namespace {

/// Attachment switch of a host: the peer of its first (usually only)
/// link.  Hosts follow this switch so host links are never cut.
topo::NodeId attachment_switch(const topo::Graph& g, topo::NodeId host) {
  const auto adj = g.neighbors(host);
  QUARTZ_REQUIRE(!adj.empty(), "host has no links");
  for (const auto& a : adj) {
    if (g.is_switch(a.peer)) return a.peer;
  }
  return adj.front().peer;
}

}  // namespace

std::uint64_t PartitionPlan::layout_digest() const {
  std::uint64_t h = fnv1a_u64(kFnvOffsetBasis, static_cast<std::uint64_t>(shards));
  for (const std::int32_t s : owner) h = fnv1a_u64(h, static_cast<std::uint64_t>(s));
  return h;
}

PartitionPlan plan_partition(const topo::BuiltTopology& topo, int shards) {
  QUARTZ_REQUIRE(shards >= 1, "shards must be >= 1");
  const topo::Graph& g = topo.graph;
  const std::size_t nodes = g.node_count();

  PartitionPlan plan;
  plan.shards = shards;
  plan.owner.assign(nodes, 0);
  plan.nodes_per_shard.assign(static_cast<std::size_t>(shards), 0);

  if (shards == 1) {
    // Single shard: nothing is cut, the window is unbounded and the
    // sharded driver degenerates to one run_until per command.
    plan.strategy = "single";
    plan.lookahead = std::numeric_limits<TimePs>::max();
    plan.nodes_per_shard[0] = static_cast<std::int64_t>(nodes);
    return plan;
  }

  if (topo.composite != nullptr) {
    // Composite fabric: block top-level elements onto shards so only
    // level-0 trunks are cut.
    const topo::CompositeMeta& meta = *topo.composite;
    const int top = meta.arity.empty() ? 0 : meta.arity.front();
    QUARTZ_REQUIRE(top >= shards,
                   "cannot shard a composite fabric into more shards than "
                   "top-level elements");
    plan.strategy = "composite";
    for (const topo::NodeId sw : g.switches()) {
      const auto group = static_cast<std::int64_t>(meta.path_at(sw, 0));
      plan.owner[static_cast<std::size_t>(sw)] =
          static_cast<std::int32_t>(group * shards / top);
    }
  } else {
    // Flat fabric: contiguous switch-index segments.  Quartz rings
    // number switches around the ring, so segments are arcs and each
    // boundary cuts one chord neighborhood.
    const std::vector<topo::NodeId> switches = g.switches();
    const auto count = static_cast<std::int64_t>(switches.size());
    QUARTZ_REQUIRE(count >= shards, "cannot shard a fabric into more shards than switches");
    plan.strategy = "ring-segment";
    for (std::int64_t i = 0; i < count; ++i) {
      plan.owner[static_cast<std::size_t>(switches[static_cast<std::size_t>(i)])] =
          static_cast<std::int32_t>(i * shards / count);
    }
  }

  for (const topo::NodeId host : g.hosts()) {
    plan.owner[static_cast<std::size_t>(host)] =
        plan.owner[static_cast<std::size_t>(attachment_switch(g, host))];
  }

  plan.lookahead = std::numeric_limits<TimePs>::max();
  for (const topo::LinkId id : g.link_ids()) {
    const topo::Link& link = g.link(id);
    const std::int32_t oa = plan.owner[static_cast<std::size_t>(link.a)];
    const std::int32_t ob = plan.owner[static_cast<std::size_t>(link.b)];
    if (oa == ob) continue;
    plan.cross_links.push_back(id);
    plan.lookahead = std::min(plan.lookahead, g.propagation(id));
  }
  QUARTZ_REQUIRE(!plan.cross_links.empty(),
                 "partition produced an empty cut; fabric too small for this shard count");
  QUARTZ_REQUIRE(plan.lookahead > 0,
                 "a cross-shard link has zero propagation delay; no conservative "
                 "window exists for this partition");

  for (const std::int32_t s : plan.owner) {
    plan.nodes_per_shard[static_cast<std::size_t>(s)] += 1;
  }
  for (int s = 0; s < shards; ++s) {
    QUARTZ_REQUIRE(plan.nodes_per_shard[static_cast<std::size_t>(s)] > 0,
                   "partition left a shard empty; lower --shards");
  }
  return plan;
}

}  // namespace quartz::sim
