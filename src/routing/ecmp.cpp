#include "routing/ecmp.hpp"

#include <deque>

#include "common/check.hpp"

namespace quartz::routing {

EcmpRouting::EcmpRouting(const topo::Graph& graph, bool allow_host_relay) : graph_(&graph) {
  const auto n = graph.node_count();
  dst_group_.assign(n, -1);
  host_link_.assign(n, topo::kInvalidLink);

  // A host collapses into its switch's shared table when it has exactly
  // one uplink and can never relay; then every path toward it is a path
  // toward the switch plus the final host port.
  std::vector<std::int32_t> switch_group(n, -1);
  for (const topo::NodeId dst : graph.hosts()) {
    topo::NodeId attachment = topo::kInvalidNode;
    topo::LinkId uplink = topo::kInvalidLink;
    if (!allow_host_relay) {
      const auto neighbors = graph.neighbors(dst);
      if (neighbors.size() == 1 && graph.is_switch(neighbors[0].peer)) {
        attachment = neighbors[0].peer;
        uplink = neighbors[0].link;
      }
    }
    if (attachment == topo::kInvalidNode) {
      // Singleton group: the original per-host BFS (server-centric
      // fabrics, multi-homed hosts).
      DestinationTable table;
      table.target = dst;
      table.members.push_back(dst);
      dst_group_[static_cast<std::size_t>(dst)] = static_cast<std::int32_t>(tables_.size());
      tables_.push_back(std::move(table));
      continue;
    }
    host_link_[static_cast<std::size_t>(dst)] = uplink;
    std::int32_t& g = switch_group[static_cast<std::size_t>(attachment)];
    if (g < 0) {
      g = static_cast<std::int32_t>(tables_.size());
      DestinationTable table;
      table.target = attachment;
      table.attachment = attachment;
      tables_.push_back(std::move(table));
    }
    tables_[static_cast<std::size_t>(g)].members.push_back(dst);
    dst_group_[static_cast<std::size_t>(dst)] = g;
  }

  for (DestinationTable& table : tables_) build_table(table, allow_host_relay);
}

void EcmpRouting::build_table(DestinationTable& table, bool allow_host_relay) {
  const topo::Graph& graph = *graph_;
  const auto n = graph.node_count();
  table.distance.assign(n, -1);

  // BFS from the table's target.  A node may relay onward only if it is
  // a switch, the target itself, or (when allowed) a host.
  std::deque<topo::NodeId> queue{table.target};
  table.distance[static_cast<std::size_t>(table.target)] = 0;
  while (!queue.empty()) {
    const topo::NodeId u = queue.front();
    queue.pop_front();
    const bool u_relays = u == table.target || graph.is_switch(u) || allow_host_relay;
    if (!u_relays) continue;
    for (const auto& adj : graph.neighbors(u)) {
      auto& d = table.distance[static_cast<std::size_t>(adj.peer)];
      if (d < 0) {
        d = table.distance[static_cast<std::size_t>(u)] + 1;
        queue.push_back(adj.peer);
      }
    }
  }

  // Flatten equal-cost next hops: link (u, v) is a next hop of u when
  // dist(v) == dist(u) - 1 and v can relay (or is the target).
  table.offset.assign(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    table.offset[u] = static_cast<std::int32_t>(table.links.size());
    const int du = table.distance[u];
    if (du <= 0) continue;
    for (const auto& adj : graph.neighbors(static_cast<topo::NodeId>(u))) {
      const int dv = table.distance[static_cast<std::size_t>(adj.peer)];
      const bool v_relays =
          adj.peer == table.target || graph.is_switch(adj.peer) || allow_host_relay;
      if (dv == du - 1 && v_relays) table.links.push_back(adj.link);
    }
  }
  table.offset[n] = static_cast<std::int32_t>(table.links.size());
}

std::span<const topo::LinkId> EcmpRouting::next_links(topo::NodeId node, topo::NodeId dst) const {
  QUARTZ_REQUIRE(dst >= 0 && dst < static_cast<topo::NodeId>(dst_group_.size()),
                 "destination out of range");
  const std::int32_t g = dst_group_[static_cast<std::size_t>(dst)];
  QUARTZ_REQUIRE(g >= 0, "destination is not a host");
  if (node == dst) return {};
  const DestinationTable& table = tables_[static_cast<std::size_t>(g)];
  if (node == table.attachment) {
    // The shared table routes to the attachment switch; the final hop
    // is the destination's own port.
    return {&host_link_[static_cast<std::size_t>(dst)], 1};
  }
  const auto lo = static_cast<std::size_t>(table.offset[static_cast<std::size_t>(node)]);
  const auto hi = static_cast<std::size_t>(table.offset[static_cast<std::size_t>(node) + 1]);
  return {table.links.data() + lo, hi - lo};
}

int EcmpRouting::distance(topo::NodeId node, topo::NodeId dst) const {
  const std::int32_t g = dst_group_[static_cast<std::size_t>(dst)];
  QUARTZ_REQUIRE(g >= 0, "destination is not a host");
  const DestinationTable& table = tables_[static_cast<std::size_t>(g)];
  if (table.attachment == topo::kInvalidNode) {
    return table.distance[static_cast<std::size_t>(node)];
  }
  if (node == dst) return 0;
  const int to_switch = table.distance[static_cast<std::size_t>(node)];
  return to_switch < 0 ? -1 : to_switch + 1;
}

std::int32_t EcmpRouting::group_of(topo::NodeId dst) const {
  QUARTZ_REQUIRE(dst >= 0 && dst < static_cast<topo::NodeId>(dst_group_.size()),
                 "destination out of range");
  const std::int32_t g = dst_group_[static_cast<std::size_t>(dst)];
  QUARTZ_REQUIRE(g >= 0, "destination is not a host");
  return g;
}

topo::NodeId EcmpRouting::group_switch(std::int32_t group) const {
  QUARTZ_REQUIRE(group >= 0 && static_cast<std::size_t>(group) < tables_.size(),
                 "group out of range");
  return tables_[static_cast<std::size_t>(group)].attachment;
}

std::span<const topo::NodeId> EcmpRouting::group_members(std::int32_t group) const {
  QUARTZ_REQUIRE(group >= 0 && static_cast<std::size_t>(group) < tables_.size(),
                 "group out of range");
  return tables_[static_cast<std::size_t>(group)].members;
}

topo::LinkId EcmpRouting::host_link(topo::NodeId dst) const {
  QUARTZ_REQUIRE(dst >= 0 && dst < static_cast<topo::NodeId>(host_link_.size()),
                 "destination out of range");
  return host_link_[static_cast<std::size_t>(dst)];
}

std::size_t hash_select(std::uint64_t flow_hash, std::uint64_t salt, std::size_t n) {
  QUARTZ_REQUIRE(n > 0, "cannot select from an empty set");
  return static_cast<std::size_t>(mix_hash(flow_hash ^ mix_hash(salt)) % n);
}

}  // namespace quartz::routing
