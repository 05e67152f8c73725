// Shortest-path routing state (§3.4).
//
// EcmpRouting precomputes the DAG of equal-cost shortest-path next hops
// from every node toward every destination.  In a full mesh there is a
// single shortest path between any switch pair, so ECMP always picks
// the direct one-hop lightpath — exactly the behaviour the paper
// advocates for Quartz.  Hosts relay only when the topology is
// server-centric (BCube); switch-centric fabrics never route through a
// host.
//
// Destinations are grouped: all hosts hanging off one edge switch share
// a single per-ToR table (the path toward any of them is the path
// toward their switch, plus a final host-port indirection at that
// switch), so table memory is O(switches x nodes) instead of
// O(hosts x nodes).  A host that is multi-homed — or any host when
// host relaying is enabled — keeps a singleton per-host table with the
// original BFS, so server-centric fabrics are unaffected.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/hash.hpp"
#include "topo/graph.hpp"

namespace quartz::routing {

/// Per-packet routing identity and mutable in-flight routing state.
struct FlowKey {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  /// Stable per-flow value; switches hash it to pick among equal-cost
  /// links so one flow follows one path.
  std::uint64_t flow_hash = 0;
  /// VLB detour intermediate currently being visited (§3.4).
  topo::NodeId via = topo::kInvalidNode;
  /// VLB applies at most one detour per packet.
  bool vlb_done = false;
};

class EcmpRouting {
 public:
  /// Builds next-hop tables toward every host in `graph`.
  explicit EcmpRouting(const topo::Graph& graph, bool allow_host_relay = false);

  /// Equal-cost next links from `node` toward host `dst`; empty when
  /// unreachable or node == dst.
  std::span<const topo::LinkId> next_links(topo::NodeId node, topo::NodeId dst) const;

  /// Hop distance from `node` to host `dst` (-1 when unreachable).
  int distance(topo::NodeId node, topo::NodeId dst) const;

  const topo::Graph& graph() const { return *graph_; }

  // --- destination groups (the compiled FIB keys its entries on these) ---

  /// Dense destination-group index of host `dst`.  Hosts sharing their
  /// single edge switch share one group; other hosts get singleton
  /// groups.  Throws when `dst` is not a host.
  std::int32_t group_of(topo::NodeId dst) const;
  std::size_t group_count() const { return tables_.size(); }
  /// Shared attachment switch of a collapsed group; kInvalidNode for a
  /// singleton (multi-homed / host-relay) group.
  topo::NodeId group_switch(std::int32_t group) const;
  /// The hosts this group routes to, in graph host order.
  std::span<const topo::NodeId> group_members(std::int32_t group) const;
  /// The single host port of a collapsed host (the link its attachment
  /// switch delivers on); kInvalidLink for hosts in singleton groups.
  topo::LinkId host_link(topo::NodeId dst) const;

 private:
  struct DestinationTable {
    /// BFS root: the attachment switch (collapsed) or the host itself.
    topo::NodeId target = topo::kInvalidNode;
    /// Shared edge switch, or kInvalidNode for a singleton group.
    topo::NodeId attachment = topo::kInvalidNode;
    std::vector<topo::NodeId> members;
    std::vector<int> distance;  ///< hop distance to `target`
    /// Flattened adjacency: next-hop links of node n are
    /// links[offset[n] .. offset[n+1]).
    std::vector<std::int32_t> offset;
    std::vector<topo::LinkId> links;
  };

  void build_table(DestinationTable& table, bool allow_host_relay);

  const topo::Graph* graph_;
  std::vector<std::int32_t> dst_group_;  ///< node id -> group index (-1)
  std::vector<topo::LinkId> host_link_;  ///< node id -> single uplink (collapsed hosts)
  std::vector<DestinationTable> tables_;
};

/// Deterministic 64-bit mix used for flow-hash based path selection.
constexpr std::uint64_t mix_hash(std::uint64_t x) { return splitmix64(x); }

/// Pick an index in [0, n) from a flow hash and a salt (e.g. node id),
/// so the same flow picks consistently at each switch.
std::size_t hash_select(std::uint64_t flow_hash, std::uint64_t salt, std::size_t n);

}  // namespace quartz::routing
