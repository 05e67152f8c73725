// Hierarchical composition of design elements — the paper's §4/Fig. 15
// pitch taken to its limit.  Identical elements (Quartz rings or
// two-tier pods) fill the node slots of a parent ring template, level
// after level, producing rings-of-rings (the hierarchical WDM DCN
// architecture of arXiv:1901.06450) and rings of tree pods.
//
// The builder writes the whole fabric into one graph in a single
// depth-first pass, tags every node with its hierarchy path, records the
// trunk matrix between sibling elements at every level and where each
// leaf ring's links start (the substrate for routing::HierOracle's
// (node, level-group) FIB: host uplinks and leaf lightpaths are index
// formulas, not graph scans), and can account
// for "modeled" hosts that are never materialized as graph nodes —
// which is how a 100k-switch / million-host fabric fits in one box
// under the hybrid flow/packet evaluation mode (sim/fluid.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "topo/builders.hpp"

namespace quartz::topo {

/// One inter-element trunk at some hierarchy level, as seen from the
/// `from` element: the egress switch inside `from`, the ingress switch
/// inside `to`, and the (bidirectional) link joining them.
struct TrunkEntry {
  NodeId gateway = kInvalidNode;
  NodeId peer_gateway = kInvalidNode;
  LinkId link = kInvalidLink;
};

/// Level-tagged hierarchy metadata attached to a composed topology.
///
/// Every node carries a path (p0, p1, ..., p_{L-1}), outermost
/// coordinate first; hosts inherit the path of their attachment
/// switch.  An *element at level l* is the subtree identified by a
/// path prefix of length l+1; siblings at level l share the length-l
/// prefix (their *parent*) and are joined pairwise by trunks[l].
struct CompositeMeta {
  /// Slots per level, outermost first (e.g. {8, 8} = ring of 8
  /// elements, each an 8-switch ring).
  std::vector<int> arity;
  /// Flattened per-node path: path[node * levels() + l].
  std::vector<std::int32_t> path;
  /// True when every level is a uniform ring-of-equal-elements, which
  /// is what HierOracle's closed-form gateway rule requires.
  /// ring-of-trees fabrics get only their outermost slot tag
  /// (arity = {dims[0]}, levels() == 1) and no trunk tables.
  bool uniform = false;
  /// parent_count[l] = number of distinct length-l prefixes
  /// (= product of arity[0..l-1]; 1 at l = 0).
  std::vector<std::int64_t> parent_count;
  /// Exclusive prefix sums of arity (size levels()+1); the dense FIB
  /// group universe is level_offset.back() = sum(arity).
  std::vector<std::int32_t> level_offset;
  /// trunks[l] for l in [0, levels()-2]: flattened
  /// parent_count[l] x arity[l] x arity[l] matrix, indexed by
  /// (parent * arity[l] + from) * arity[l] + to.  Diagonal unset.
  std::vector<std::vector<TrunkEntry>> trunks;
  /// Leaf-ring membership: member switch of leaf element e at slot s
  /// is leaf_members[e * arity.back() + s]; leaf elements are indexed
  /// by the mixed radix of their length-(levels()-1) prefix.
  std::vector<NodeId> leaf_members;
  /// Uniform metadata only.  A leaf ring writes its nodes contiguously
  /// (each switch, then its hosts) and its links contiguously (the host
  /// links in host order, then the lightpaths in channel-plan order);
  /// leaf_first_link[e] is the first of leaf e's links.
  std::vector<LinkId> leaf_first_link;
  /// Channel-plan index of the lightpath joining leaf slots s and w,
  /// leaf_lightpath[s * arity.back() + w]; -1 on the diagonal.
  std::vector<std::int32_t> leaf_lightpath;
  /// Hosts the fabric models: materialized graph hosts plus
  /// virtual_hosts_per_switch accounted on every leaf switch.
  std::int64_t modeled_hosts = 0;
  int virtual_hosts_per_switch = 0;

  int levels() const { return static_cast<int>(arity.size()); }

  std::int32_t path_at(NodeId node, int level) const {
    return path[static_cast<std::size_t>(node) * static_cast<std::size_t>(levels()) +
                static_cast<std::size_t>(level)];
  }

  /// First level at which the two paths differ; levels() when equal.
  int divergence_level(NodeId a, NodeId b) const {
    const int n = levels();
    for (int l = 0; l < n; ++l) {
      if (path_at(a, l) != path_at(b, l)) return l;
    }
    return n;
  }

  /// Mixed-radix index of the node's length-`level` path prefix.
  std::int64_t parent_index(NodeId node, int level) const {
    std::int64_t index = 0;
    for (int l = 0; l < level; ++l) {
      index = index * arity[static_cast<std::size_t>(l)] + path_at(node, l);
    }
    return index;
  }

  std::int64_t leaf_index(NodeId node) const { return parent_index(node, levels() - 1); }

  const TrunkEntry& trunk(int level, std::int64_t parent, int from, int to) const {
    const auto a = static_cast<std::int64_t>(arity[static_cast<std::size_t>(level)]);
    return trunks[static_cast<std::size_t>(level)]
                 [static_cast<std::size_t>((parent * a + from) * a + to)];
  }

  // Leaf addressing by index formula (uniform metadata only).

  /// Hosts materialized in leaf e: its node span less its switches
  /// (trunks add no nodes, so leaf e+1 starts where leaf e ends).
  std::int64_t hosts_in_leaf(std::int64_t leaf) const {
    const auto m = static_cast<std::size_t>(arity.back());
    const auto first = static_cast<std::size_t>(leaf) * m;
    const std::int64_t end = first + m < leaf_members.size()
                                 ? leaf_members[first + m]
                                 : static_cast<std::int64_t>(path.size()) / levels();
    return end - leaf_members[first] - static_cast<std::int64_t>(m);
  }

  /// A host's access link: one per host before it in its leaf.
  LinkId uplink(NodeId host) const {
    const std::int64_t leaf = leaf_index(host);
    const NodeId first = leaf_members[static_cast<std::size_t>(leaf) *
                                      static_cast<std::size_t>(arity.back())];
    return leaf_first_link[static_cast<std::size_t>(leaf)] + (host - first) -
           path_at(host, levels() - 1) - 1;
  }

  /// The lightpath from leaf switch `sw` to the switch at slot `w` of
  /// its ring; `w` must differ from sw's own slot.
  LinkId leaf_mesh_link(NodeId sw, std::int32_t w) const {
    const std::int64_t leaf = leaf_index(sw);
    const auto slot = static_cast<std::size_t>(path_at(sw, levels() - 1));
    const std::int32_t pair =
        leaf_lightpath[slot * static_cast<std::size_t>(arity.back()) + static_cast<std::size_t>(w)];
    return static_cast<LinkId>(leaf_first_link[static_cast<std::size_t>(leaf)] +
                               hosts_in_leaf(leaf) + pair);
  }

  /// Dense-FIB key space: one group per sibling element per level.
  std::int32_t group_universe() const { return level_offset.back(); }

  /// Level group of `dst` as seen from `node` (both switches): keyed by
  /// the divergence level and dst's coordinate there, so every
  /// destination inside the same remote element shares one group (and
  /// one FIB entry).  -1 when the paths are identical (same switch, or
  /// co-located destinations needing only the host port).
  std::int32_t group_of(NodeId node, NodeId dst) const {
    const int l = divergence_level(node, dst);
    if (l == levels()) return -1;
    return level_offset[static_cast<std::size_t>(l)] + path_at(dst, l);
  }
};

// ---------------------------------------------------------------------------
// Spec grammar

/// Parsed `composite:<spec>` preset: `kind:D0xD1[xD2...][@h][+m]`,
/// e.g. "ring-of-rings:8x8", "ring-of-rings:48x48x48+10",
/// "ring-of-trees:4x8@2".  `@h` materializes h hosts per leaf switch;
/// `+m` additionally *accounts* m modeled-but-unmaterialized hosts per
/// leaf switch (scale runs keep hosts virtual except on foreground
/// slots).
struct CompositeSpec {
  std::string kind = "ring-of-rings";  ///< "ring-of-rings" | "ring-of-trees"
  std::vector<int> dims;               ///< outermost level first
  int hosts_per_switch = 0;
  int modeled_hosts_per_switch = 0;

  int levels() const { return static_cast<int>(dims.size()); }
  std::int64_t switch_count() const;

  static std::optional<CompositeSpec> parse(std::string_view text, std::string* error = nullptr);
  /// Canonical form; parse(to_string()) round-trips.
  std::string to_string() const;
};

// ---------------------------------------------------------------------------
// Builders

struct CompositeParams {
  CompositeSpec spec;
  /// Materialize `foreground_hosts_per_switch` hosts on the first
  /// `foreground_leaf_switches` leaf switches (in build order) even
  /// when spec.hosts_per_switch is 0 — the packet-level DES islands of
  /// a hybrid run.
  int foreground_leaf_switches = 0;
  int foreground_hosts_per_switch = 0;
  BitsPerSecond mesh_rate = gigabits_per_second(10);
  BitsPerSecond trunk_rate = gigabits_per_second(40);
  TimePs trunk_propagation = nanoseconds(500);
  int channels_per_mux = 80;
  SwitchModel switch_model = SwitchModel::ull();
  LinkDefaults links;
};

/// Build a homogeneous composed fabric from a spec.  ring-of-rings
/// yields uniform CompositeMeta (HierOracle-routable); ring-of-trees
/// stamps one two-tier pod per leaf and yields slot-tagged meta.  Each
/// element is written as its children in slot order, then a full trunk
/// mesh between them whose gateway ports rotate round-robin over each
/// child's ToRs.  WDM physical rings and racks are numbered per leaf
/// so failure analysis stays per-element-correct.
BuiltTopology build_composite(const CompositeParams& params);
BuiltTopology build_composite(const CompositeSpec& spec);

}  // namespace quartz::topo
