// Topology builders for every fabric the paper analyses or simulates:
// the 2-tier and 3-tier multi-root trees, the folded-Clos "fat tree",
// BCube, Jellyfish, the Quartz full-mesh ring, and the §4 composite
// designs (Quartz in core / edge / edge+core / Jellyfish; Fig. 15).
//
// Builders return a BuiltTopology: the port-accounted graph plus role
// lists (hosts, ToR/aggregation/core switches, ring memberships) that
// the routing layer, the simulator and the property analyser consume.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "topo/graph.hpp"
#include "wavelength/lightpath.hpp"

namespace quartz::topo {

struct CompositeMeta;  // topo/composite.hpp

struct BuiltTopology {
  std::string name;
  Graph graph;
  std::vector<NodeId> hosts;
  std::vector<NodeId> tors;   ///< edge switches (includes edge-ring members)
  std::vector<NodeId> aggs;
  std::vector<NodeId> cores;  ///< core switches (includes core-ring members)
  /// Switch membership of each Quartz ring in the design, in ring order.
  std::vector<std::vector<NodeId>> quartz_rings;
  /// Locality groups of hosts (per pod / per edge ring); used by the
  /// localized-traffic experiments (Fig. 18).
  std::vector<std::vector<NodeId>> host_groups;

  /// Hierarchy metadata when this topology was produced by the
  /// composite builder (topo/composite.hpp); null for flat builders.
  std::shared_ptr<const CompositeMeta> composite;

  /// Rack of a host (delegates to the graph node).
  int rack_of(NodeId host) const { return graph.node(host).rack; }
};

/// Link-rate and propagation defaults shared by the builders.  The
/// paper's simulations use 10 Gb/s server links and 40 Gb/s
/// switch-to-switch links (§7).
struct LinkDefaults {
  BitsPerSecond host_rate = gigabits_per_second(10);
  BitsPerSecond fabric_rate = gigabits_per_second(40);
  TimePs host_propagation = nanoseconds(25);    ///< ~5 m in-rack copper/fiber
  TimePs fabric_propagation = nanoseconds(250); ///< ~50 m cross-rack fiber
};

// ---------------------------------------------------------------------------
// Trees

struct TwoTierParams {
  int tors = 16;
  int hosts_per_tor = 48;
  int aggs = 1;
  int uplinks_per_tor_per_agg = 1;
  SwitchModel tor_model = SwitchModel::ull();
  SwitchModel agg_model = SwitchModel::ull();
  LinkDefaults links;
};
BuiltTopology two_tier_tree(const TwoTierParams& params);

struct ThreeTierParams {
  int pods = 2;
  int tors_per_pod = 4;
  int hosts_per_tor = 8;
  int aggs_per_pod = 2;   ///< each ToR connects to every agg in its pod (§7)
  int cores = 2;          ///< each agg connects to every core (§7)
  SwitchModel tor_model = SwitchModel::ull();
  SwitchModel agg_model = SwitchModel::ull();
  SwitchModel core_model = SwitchModel::ccs();
  LinkDefaults links;
};
BuiltTopology three_tier_tree(const ThreeTierParams& params);

/// Folded-Clos leaf-spine with full bisection when
/// hosts_per_leaf == spines * links_per_leaf_spine (the 64-port
/// "Fat-Tree" row of Table 9 is leaves=32, spines=16, hosts=32, m=2).
struct FatTreeParams {
  int leaves = 32;
  int spines = 16;
  int hosts_per_leaf = 32;
  int links_per_leaf_spine = 2;
  SwitchModel leaf_model = SwitchModel::ull();
  SwitchModel spine_model = SwitchModel::ull();
  LinkDefaults links;
};
BuiltTopology fat_tree_clos(const FatTreeParams& params);

// ---------------------------------------------------------------------------
// Server-centric and random fabrics

/// BCube_1: n-port switches, n^2 hosts, 2n switches, every host on one
/// level-0 and one level-1 switch.  Hosts forward packets (server hop).
struct BCubeParams {
  int n = 32;
  SwitchModel switch_model = SwitchModel::ull();
  LinkDefaults links;
};
BuiltTopology bcube1(const BCubeParams& params);

/// DCell_1: n+1 cells of n servers, each cell on one n-port
/// mini-switch; every server's second NIC links it directly to a server
/// in another cell (for i < j, server j-1 of cell i pairs with server i
/// of cell j).  n(n+1) servers total; servers forward packets.
struct DCellParams {
  int n = 4;
  SwitchModel switch_model = SwitchModel::ull();
  LinkDefaults links;
};
BuiltTopology dcell1(const DCellParams& params);

struct JellyfishParams {
  int switches = 16;
  int hosts_per_switch = 4;
  int inter_switch_ports = 4;  ///< random-graph degree (§7: four 10 Gb/s links)
  BitsPerSecond inter_switch_rate = gigabits_per_second(10);
  SwitchModel switch_model = SwitchModel::ull();
  LinkDefaults links;
  std::uint64_t seed = 1;
};
BuiltTopology jellyfish(const JellyfishParams& params);

// ---------------------------------------------------------------------------
// Quartz

/// One Quartz ring: M switches logically meshed (every pair one WDM
/// channel, Fig. 4), n hosts per switch.  Mesh links carry wavelength
/// and physical-ring metadata from the greedy channel plan (§3.1.1).
struct QuartzRingParams {
  int switches = 4;
  int hosts_per_switch = 8;
  BitsPerSecond mesh_rate = gigabits_per_second(10);
  int channels_per_mux = 80;
  SwitchModel switch_model = SwitchModel::ull();
  LinkDefaults links;
};
BuiltTopology quartz_ring(const QuartzRingParams& params);

/// Adds the full-mesh WDM channel plan over `ring` to `graph`: one mesh
/// link per switch pair, stamped with the greedy channel plan's
/// wavelength and physical-ring metadata (§3.1.1).  Physical rings are
/// numbered from `phys_ring_base` so composed fabrics can keep each
/// element's ring range disjoint (topo/failures.cpp relies on that).
/// Returns the number of physical rings the plan consumed.
int add_quartz_mesh(Graph& graph, const std::vector<NodeId>& ring, BitsPerSecond rate,
                    TimePs propagation, int channels_per_mux, int phys_ring_base = 0);

/// Same, over a channel plan the caller already holds.  The plan
/// depends only on the ring size (§3.1), so a builder stamping many
/// equal-size rings computes it once.  `plan.ring_size` must equal
/// `ring.size()`.
int add_quartz_mesh(Graph& graph, const std::vector<NodeId>& ring,
                    const wavelength::Assignment& plan, BitsPerSecond rate, TimePs propagation,
                    int channels_per_mux, int phys_ring_base = 0);

/// Fig. 15(b): 3-tier tree whose core switches are replaced by one
/// Quartz ring; every aggregation switch gets one fabric-rate link to a
/// ring switch (round-robin).
struct QuartzCoreParams {
  ThreeTierParams tree;
  int ring_switches = 4;
  SwitchModel ring_model = SwitchModel::ull();
};
BuiltTopology quartz_in_core(const QuartzCoreParams& params);

/// Fig. 15(c): each pod's ToR + aggregation tiers are replaced by one
/// Quartz ring; hosts attach round-robin to ring switches, and each
/// ring switch uplinks to every core switch.
struct QuartzEdgeParams {
  int pods = 2;
  int ring_switches = 4;
  int hosts_per_ring_switch = 8;
  int cores = 2;
  SwitchModel ring_model = SwitchModel::ull();
  SwitchModel core_model = SwitchModel::ccs();
  BitsPerSecond mesh_rate = gigabits_per_second(10);
  LinkDefaults links;
};
BuiltTopology quartz_in_edge(const QuartzEdgeParams& params);

/// Fig. 15(d): edge rings as in quartz_in_edge, plus the core switches
/// replaced by a core Quartz ring (edge ring switches uplink
/// round-robin to core ring switches).
struct QuartzEdgeCoreParams {
  int pods = 2;
  int edge_ring_switches = 4;
  int hosts_per_ring_switch = 8;
  int core_ring_switches = 4;
  SwitchModel ring_model = SwitchModel::ull();
  BitsPerSecond mesh_rate = gigabits_per_second(10);
  LinkDefaults links;
};
BuiltTopology quartz_in_edge_and_core(const QuartzEdgeCoreParams& params);

/// §4.3: a random graph over Quartz rings instead of over switches.
struct QuartzJellyfishParams {
  int rings = 4;
  int switches_per_ring = 4;
  int hosts_per_switch = 4;
  int inter_ring_links = 4;  ///< total random links each ring dedicates
  BitsPerSecond inter_ring_rate = gigabits_per_second(10);
  BitsPerSecond mesh_rate = gigabits_per_second(10);
  SwitchModel switch_model = SwitchModel::ull();
  LinkDefaults links;
  std::uint64_t seed = 1;
};
BuiltTopology quartz_in_jellyfish(const QuartzJellyfishParams& params);

/// §3.2's scaled-up configuration: two ToR switches per rack, servers
/// dual-homed to both, and every rack pair joined by exactly one
/// lightpath — split so each switch carries (racks-1)/2 mesh ports.
/// With 64-port switches and 32 hosts per rack this reaches 65 racks =
/// 2080 server ports ("at the cost of an additional switch per rack,
/// and a second optical ring").  `racks` must be odd for the even
/// split.  The longest server-to-server path is still two switches.
struct QuartzDualTorParams {
  int racks = 9;
  int hosts_per_rack = 4;
  BitsPerSecond mesh_rate = gigabits_per_second(10);
  SwitchModel switch_model = SwitchModel::ull();
  LinkDefaults links;
};
BuiltTopology quartz_dual_tor(const QuartzDualTorParams& params);

/// Single non-blocking store-and-forward core switch with all hosts
/// attached (the Fig. 19(b) / Fig. 20 baseline).
struct SingleSwitchParams {
  int hosts = 16;
  BitsPerSecond host_rate = gigabits_per_second(40);
  SwitchModel switch_model = SwitchModel::ccs();
  TimePs propagation = nanoseconds(25);
};
BuiltTopology single_switch(const SingleSwitchParams& params);

}  // namespace quartz::topo
