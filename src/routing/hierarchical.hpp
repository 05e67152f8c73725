// Level-aware routing for composed fabrics (topo/composite.hpp).
//
// HierOracle extends PR 5's per-ToR destination groups to hierarchy
// *levels*: the dense FIB keys on (node, level-group), where the group
// universe is sum(arity) — one group per sibling element at each level
// plus one per leaf slot (CompositeMeta::group_of).  A core switch
// therefore stores one entry per child element, not one per ToR or
// host, keeping FIB memory sublinear in hosts: a 48x48x48 fabric (110k
// switches, millions of modeled hosts) needs only 144 entries per
// touched switch.
//
// The oracle keeps no per-node or per-link table of its own besides
// that lazy FIB.  A host carries its attachment switch's path, so it
// keys that switch's groups directly; host uplinks and leaf lightpaths
// are index formulas over the layout the builder records in
// CompositeMeta (uplink, leaf_mesh_link), and trunks come from its
// per-level trunk matrices.  Constructing the oracle scans nothing in
// the graph, so it never builds the graph's adjacency index.
//
// Routing rule (uniform rings-of-rings meta): at divergence level L the
// packet leaves via the recorded trunk between its element and the
// destination's sibling element; below the gateway it chains toward
// the gateway switch (each hop strictly increases the divergence
// level, so the walk terminates at the leaf full mesh).  Healing is
// the paper's §3.5 two-hop story lifted per level: a dead leaf mesh
// link detours through a third ring switch, a dead trunk detours
// through a third sibling element's gateways — both deterministic in
// the flow hash, budgeted by FlowKey::vlb_done, and picked without
// allocating.
#pragma once

#include <cstdint>
#include <vector>

#include "common/zero_array.hpp"
#include "routing/oracle.hpp"
#include "topo/composite.hpp"

namespace quartz::routing {

class HierOracle final : public RoutingOracle {
 public:
  /// Requires topo.composite with uniform metadata (build_composite's
  /// ring-of-rings output); throws otherwise.
  explicit HierOracle(const topo::BuiltTopology& topo);

  topo::LinkId next_link(topo::NodeId node, FlowKey& key) const override;

  /// One extracted path as (link, direction) steps; direction 0
  /// traverses a->b (mirrors flow::Route without the layering
  /// dependency — sim/fluid.cpp converts field-for-field).
  struct Path {
    std::vector<topo::LinkId> links;
    std::vector<int> directions;
  };
  /// Extract the full primary route of a (src, dst) pair in O(hops) —
  /// no BFS — for the fluid background solver.  Endpoints may be
  /// switches or hosts.
  Path route(topo::NodeId src, topo::NodeId dst) const;

  struct Stats {
    std::uint64_t hits = 0;        ///< dense-FIB entry reuses
    std::uint64_t misses = 0;      ///< entries computed
    std::uint64_t arenas = 0;      ///< switches with an allocated arena
    std::uint64_t entry_bytes = 0; ///< bytes held by allocated entries
  };
  Stats stats() const;

 private:
  void ensure_epoch() const;
  topo::LinkId lookup(topo::NodeId node, std::int32_t group) const;
  topo::LinkId compute(topo::NodeId node, std::int32_t group) const;

  const topo::Graph* graph_;
  const topo::CompositeMeta* meta_;
  int levels_ = 0;
  int leaf_size_ = 0;

  // Lazy dense FIB, wiped whole on any state_epoch() change.
  /// node -> arena offset + 1; 0 untouched, so a fresh array is the reset.
  mutable ZeroArray<std::int64_t> fib_base_;
  mutable std::vector<topo::LinkId> arena_;
  mutable std::uint64_t fib_epoch_ = 0;
  mutable Stats stats_;
};

}  // namespace quartz::routing
