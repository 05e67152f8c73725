// Hierarchical composition (topo/composite.hpp): spec grammar, the
// hand-countable 4x4 ring-of-rings, level-tagged metadata, analytic
// properties, flow-level bisection and per-element fiber-cut fate.
#include "topo/composite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "flow/maxmin.hpp"
#include "routing/hierarchical.hpp"
#include "topo/failures.hpp"
#include "topo/properties.hpp"

namespace quartz::topo {
namespace {

TEST(CompositeSpec, ParseRoundTrips) {
  const char* specs[] = {
      "ring-of-rings:4x4",
      "ring-of-rings:8x8@2",
      "ring-of-rings:48x48x48+10",
      "ring-of-rings:4x4x4@1+10",
      "ring-of-trees:4x8@2",
  };
  for (const char* text : specs) {
    SCOPED_TRACE(text);
    std::string error;
    const auto spec = CompositeSpec::parse(text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->to_string(), text);
    const auto again = CompositeSpec::parse(spec->to_string());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->kind, spec->kind);
    EXPECT_EQ(again->dims, spec->dims);
    EXPECT_EQ(again->hosts_per_switch, spec->hosts_per_switch);
    EXPECT_EQ(again->modeled_hosts_per_switch, spec->modeled_hosts_per_switch);
  }
}

TEST(CompositeSpec, ParseFields) {
  const auto spec = CompositeSpec::parse("ring-of-rings:4x6x8@2+10");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->kind, "ring-of-rings");
  EXPECT_EQ(spec->dims, (std::vector<int>{4, 6, 8}));
  EXPECT_EQ(spec->hosts_per_switch, 2);
  EXPECT_EQ(spec->modeled_hosts_per_switch, 10);
  EXPECT_EQ(spec->levels(), 3);
  EXPECT_EQ(spec->switch_count(), 4 * 6 * 8);
}

TEST(CompositeSpec, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                        // empty
      "ring-of-rings",           // no colon
      "quartz:4x4",              // unknown kind
      "ring-of-rings:",          // no dims
      "ring-of-rings:1x4",       // dim below 2
      "ring-of-rings:4x5000",    // dim above 4096
      "ring-of-rings:4xfour",    // non-integer dim
      "ring-of-rings:4x4@0",     // zero hosts
      "ring-of-rings:4x4+0",     // zero modeled hosts
      "ring-of-rings:4x4@-1",    // negative hosts
      "ring-of-rings:4x100",     // leaf ring above the channel planner's cap
      "ring-of-rings:4096x4096x4096x4096",  // switch count overflows NodeId
  };
  for (const char* text : bad) {
    SCOPED_TRACE(text);
    std::string error;
    EXPECT_FALSE(CompositeSpec::parse(text, &error).has_value());
    EXPECT_FALSE(error.empty());
  }
}

TEST(CompositeSpec, RejectsUnbuildableSpecsWithClearErrors) {
  std::string error;
  EXPECT_FALSE(CompositeSpec::parse("ring-of-rings:4x65", &error).has_value());
  EXPECT_NE(error.find("at most 64 switches"), std::string::npos) << error;
  EXPECT_TRUE(CompositeSpec::parse("ring-of-rings:4x64").has_value());
  // Tree leaves are not WDM rings, so the planner's cap does not apply.
  EXPECT_TRUE(CompositeSpec::parse("ring-of-trees:4x100").has_value());

  // 2^42 switches, every leaf within the cap: only the count is wrong.
  EXPECT_FALSE(CompositeSpec::parse("ring-of-rings:4096x4096x4096x64", &error).has_value());
  EXPECT_NE(error.find("more than a node id can number"), std::string::npos) << error;
  EXPECT_FALSE(CompositeSpec::parse("ring-of-trees:4096x4096x4096", &error).has_value());
  EXPECT_NE(error.find("more than a node id can number"), std::string::npos) << error;
  // 2^30 switches still fits an int32 NodeId.
  EXPECT_TRUE(CompositeSpec::parse("ring-of-rings:4096x4096x64").has_value());

  // build_composite applies the same rules to hand-made specs.
  CompositeSpec spec;
  spec.dims = {4, 100};
  EXPECT_THROW(build_composite(spec), std::invalid_argument);
}

/// The hand-countable fabric: a ring of 4 elements, each a 4-switch
/// Quartz ring, two hosts per switch.
BuiltTopology four_by_four() {
  const auto spec = CompositeSpec::parse("ring-of-rings:4x4@2");
  return build_composite(*spec);
}

TEST(Composite, FourByFourHandCounts) {
  const auto t = four_by_four();
  // 16 switches; 4 leaf full meshes of C(4,2)=6 lightpaths, C(4,2)=6
  // trunks between the 4 elements, and 32 host access links.
  EXPECT_EQ(t.tors.size(), 16u);
  EXPECT_EQ(t.hosts.size(), 32u);
  std::size_t mesh = 0, trunk = 0, host = 0;
  for (const auto& link : t.graph.links()) {
    const bool host_link = t.graph.is_host(link.a) || t.graph.is_host(link.b);
    if (host_link) {
      ++host;
    } else if (link.wdm_channel >= 0) {
      ++mesh;
    } else {
      ++trunk;
    }
  }
  EXPECT_EQ(mesh, 4u * 6u);
  EXPECT_EQ(trunk, 6u);
  EXPECT_EQ(host, 32u);
  EXPECT_EQ(t.graph.links().size(), 24u + 6u + 32u);
}

TEST(Composite, MetaIsLevelTagged) {
  const auto t = four_by_four();
  ASSERT_NE(t.composite, nullptr);
  const CompositeMeta& meta = *t.composite;
  EXPECT_TRUE(meta.uniform);
  EXPECT_EQ(meta.arity, (std::vector<int>{4, 4}));
  EXPECT_EQ(meta.levels(), 2);
  EXPECT_EQ(meta.parent_count, (std::vector<std::int64_t>{1, 4}));
  EXPECT_EQ(meta.group_universe(), 8);
  EXPECT_EQ(meta.leaf_members.size(), 16u);
  EXPECT_EQ(meta.modeled_hosts, 32);

  // Every switch carries a (element, slot) path; hosts inherit their
  // attachment switch's path.
  for (int e = 0; e < 4; ++e) {
    for (int s = 0; s < 4; ++s) {
      const NodeId node = meta.leaf_members[static_cast<std::size_t>(e * 4 + s)];
      EXPECT_EQ(meta.path_at(node, 0), e);
      EXPECT_EQ(meta.path_at(node, 1), s);
    }
  }

  // Trunks: every off-diagonal element pair has a live link, shared by
  // both directions; diagonal entries stay unset.
  std::set<LinkId> trunk_links;
  for (int from = 0; from < 4; ++from) {
    for (int to = 0; to < 4; ++to) {
      const TrunkEntry& entry = meta.trunk(0, 0, from, to);
      if (from == to) {
        EXPECT_EQ(entry.link, kInvalidLink);
        continue;
      }
      ASSERT_NE(entry.link, kInvalidLink);
      EXPECT_EQ(entry.link, meta.trunk(0, 0, to, from).link);
      EXPECT_EQ(meta.path_at(entry.gateway, 0), from);
      EXPECT_EQ(meta.path_at(entry.peer_gateway, 0), to);
      trunk_links.insert(entry.link);
    }
  }
  EXPECT_EQ(trunk_links.size(), 6u);

  // group_of: co-located pairs need no FIB entry; same-element pairs
  // key on the leaf level; cross-element pairs on the outer level.
  const NodeId a = meta.leaf_members[0];   // element 0, slot 0
  const NodeId b = meta.leaf_members[1];   // element 0, slot 1
  const NodeId c = meta.leaf_members[9];   // element 2, slot 1
  EXPECT_EQ(meta.group_of(a, a), -1);
  EXPECT_EQ(meta.group_of(a, b), 4 + 1);  // level_offset[1] + slot
  EXPECT_EQ(meta.group_of(a, c), 0 + 2);  // level_offset[0] + element
  EXPECT_EQ(meta.divergence_level(a, b), 1);
  EXPECT_EQ(meta.divergence_level(a, c), 0);
}

TEST(Composite, ModeledHostsAccountVirtualSlots) {
  const auto spec = CompositeSpec::parse("ring-of-rings:4x4@2+10");
  const auto t = build_composite(*spec);
  // 32 materialized + 10 virtual on each of 16 leaf switches.
  EXPECT_EQ(t.hosts.size(), 32u);
  ASSERT_NE(t.composite, nullptr);
  EXPECT_EQ(t.composite->modeled_hosts, 32 + 16 * 10);
  EXPECT_EQ(t.composite->virtual_hosts_per_switch, 10);
}

TEST(Composite, PropertiesMatchHandComputedDiameter) {
  const auto props = analyze(four_by_four());
  EXPECT_EQ(props.switch_count, 16);
  EXPECT_EQ(props.host_count, 32);
  // Worst pair: non-gateway switch -> leaf mesh hop to its gateway ->
  // trunk -> leaf mesh hop from the peer gateway -> non-gateway switch,
  // i.e. 4 switches on the path (diameter 3 switch-to-switch hops).
  EXPECT_EQ(props.switch_hops, 4);
  EXPECT_EQ(props.server_hops, 0);
  EXPECT_GT(props.zero_load_latency, 0);
  // Each element reaches the rest of the fabric over its 3 trunk
  // gateways (edge-disjoint), so the farthest pair still has 3
  // switch-disjoint paths.
  EXPECT_EQ(props.path_diversity, 3);
}

TEST(Composite, BisectionIsTrunkLimited) {
  // Two elements joined by a single 40G trunk: four greedy 10G host
  // flows crossing the trunk waterfill to exactly the trunk rate.
  const auto spec = CompositeSpec::parse("ring-of-rings:2x4@1");
  const auto t = build_composite(*spec);
  routing::HierOracle oracle(t);

  std::vector<flow::Flow> flows;
  for (std::size_t i = 0; i < 4; ++i) {
    flow::Flow f;
    f.src = t.hosts[i];          // element 0
    f.dst = t.hosts[4 + i];      // element 1
    const auto path = oracle.route(f.src, f.dst);
    flow::Route route;
    route.links = path.links;
    route.directions = path.directions;
    f.routes.push_back(std::move(route));
    flows.push_back(std::move(f));
  }
  const auto result = flow::max_min_fair(t.graph, flows);
  EXPECT_NEAR(result.aggregate, 4e10, 1e4);
  for (const double rate : result.flow_rate) EXPECT_NEAR(rate, 1e10, 1e4);
}

TEST(Composite, FiberCutsStayPerElement) {
  // The builder keeps each leaf ring's physical-ring range disjoint, so
  // a cut on one element's fiber severs only that element's lightpaths.
  const auto t = four_by_four();
  ASSERT_NE(t.composite, nullptr);
  for (int ring = 0; ring < 4; ++ring) {
    SCOPED_TRACE(ring);
    const auto severed = severed_links(t, {FiberCut{ring, 0}});
    ASSERT_FALSE(severed.empty());
    for (const LinkId id : severed) {
      const auto& link = t.graph.link(id);
      EXPECT_EQ(t.composite->path_at(link.a, 0), ring);
      EXPECT_EQ(t.composite->path_at(link.b, 0), ring);
    }
  }
}

TEST(Composite, SurvivesSingleElementCutConnected) {
  const auto t = four_by_four();
  const auto outcome = try_survive_fiber_cuts(t, {FiberCut{0, 0}});
  EXPECT_FALSE(outcome.partitioned);
  EXPECT_GT(outcome.severed, 0u);
  EXPECT_EQ(outcome.components, 1);
}

/// FNV-1a over everything a composed fabric is made of: nodes, links,
/// adjacency order, the model table and the hierarchy metadata.  Any
/// change to what the builder produces, or to the order it produces it
/// in, moves the digest.
class GraphDigest {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) mix(b);
  }
  void add(const std::string& text) {
    add(text.size());
    for (const char c : text) mix(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return hash_; }

 private:
  void mix(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ull;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

std::uint64_t digest_of(const BuiltTopology& t) {
  GraphDigest d;
  const Graph& g = t.graph;
  d.add(g.node_count());
  for (const Node& n : g.nodes()) {
    d.add(static_cast<int>(n.kind));
    d.add(n.model);
    d.add(n.rack);
    d.add(n.label);
  }
  d.add(g.link_count());
  // Rate, propagation and the WDM tags are hashed in their pre-interning
  // types (double, int64, int, int), so the pinned digests still hold.
  for (const LinkId id : g.link_ids()) {
    const Link& l = g.link(id);
    d.add(l.a);
    d.add(l.b);
    d.add(g.rate(id));
    d.add(g.propagation(id));
    d.add(static_cast<int>(l.wdm_ring));
    d.add(static_cast<int>(l.wdm_channel));
  }
  for (const Node& n : g.nodes()) {
    const auto adj = g.neighbors(n.id);
    d.add(adj.size());
    for (const Adjacency& a : adj) {
      d.add(a.link);
      d.add(a.peer);
    }
  }
  d.add(g.models().size());
  if (t.composite != nullptr) {
    const CompositeMeta& meta = *t.composite;
    d.add(meta.path.size());
    for (const std::int32_t p : meta.path) d.add(p);
    for (const auto& table : meta.trunks) {
      d.add(table.size());
      for (const TrunkEntry& e : table) {
        d.add(e.gateway);
        d.add(e.peer_gateway);
        d.add(e.link);
      }
    }
    d.add(meta.leaf_members.size());
    for (const NodeId m : meta.leaf_members) d.add(m);
    d.add(meta.modeled_hosts);
  }
  return d.value();
}

/// FNV-1a over what digest_of leaves out: the name, the role lists,
/// ring and host-group membership, and the metadata scalars and tables
/// other than paths, trunks and leaf members.
std::uint64_t roles_digest_of(const BuiltTopology& t) {
  GraphDigest d;
  d.add(t.name);
  const auto add_ids = [&d](const std::vector<NodeId>& ids) {
    d.add(ids.size());
    for (const NodeId id : ids) d.add(id);
  };
  add_ids(t.hosts);
  add_ids(t.tors);
  add_ids(t.aggs);
  add_ids(t.cores);
  d.add(t.quartz_rings.size());
  for (const auto& ring : t.quartz_rings) add_ids(ring);
  d.add(t.host_groups.size());
  for (const auto& group : t.host_groups) add_ids(group);
  if (t.composite != nullptr) {
    const CompositeMeta& meta = *t.composite;
    d.add(meta.arity.size());
    for (const int a : meta.arity) d.add(a);
    d.add(meta.uniform);
    d.add(meta.parent_count.size());
    for (const std::int64_t p : meta.parent_count) d.add(p);
    d.add(meta.level_offset.size());
    for (const std::int32_t o : meta.level_offset) d.add(o);
    d.add(meta.trunks.size());
    d.add(meta.virtual_hosts_per_switch);
  }
  return d.value();
}

CompositeParams params_of(const char* spec) {
  CompositeParams params;
  params.spec = *CompositeSpec::parse(spec);
  return params;
}

TEST(Composite, GraphDigestsArePinned) {
  // Pinned literals: a change to how composites are built must leave
  // the graph and its role lists bit-identical, or move these on
  // purpose.
  CompositeParams island = params_of("ring-of-rings:4x4x4+10");
  island.foreground_leaf_switches = 6;
  island.foreground_hosts_per_switch = 2;
  struct Pin {
    CompositeParams params;
    std::uint64_t graph;
    std::uint64_t roles;
  };
  const Pin pins[] = {
      {params_of("ring-of-rings:8x8@2"), 0x20d071bae614b631ull, 0x9f5ff7db0c4b5bb0ull},
      {island, 0x8e0a978efdf5218full, 0x413685692a5f25e3ull},
      {params_of("ring-of-trees:4x8@2"), 0x212006bf8dfa9b4bull, 0x1c18bb3caad96b0bull},
      {params_of("ring-of-trees:2x3x4@1"), 0xb5ed3528d2703af2ull, 0x9e55c8ffd18f8cc6ull},
      {params_of("ring-of-trees:3x2x2x5+3"), 0xd2d68e4dc634ef0dull, 0x89d6eeedf5d04450ull},
      {params_of("ring-of-rings:3x4x5@1+2"), 0x82254c60704bf739ull, 0xa34d77cc632eeea7ull},
      {params_of("ring-of-rings:2x3x2x4@2"), 0x8be23a3d2ace25e3ull, 0xbd1486d0c2f1da79ull},
  };
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.params.spec.to_string());
    const BuiltTopology built = build_composite(pin.params);
    EXPECT_EQ(digest_of(built), pin.graph);
    EXPECT_EQ(roles_digest_of(built), pin.roles);
  }
}

TEST(Composite, LeafAddressesMatchTheGraph) {
  // The index formulas against a scan of the graph, on every pinned
  // ring-of-rings shape, bare and with foreground islands that give
  // some leaf switches more hosts than the rest.
  for (const char* text : {"ring-of-rings:8x8@2", "ring-of-rings:4x4x4+10",
                           "ring-of-rings:3x4x5@1+2", "ring-of-rings:2x3x2x4@2"}) {
    for (const bool islands : {false, true}) {
      CompositeParams params = params_of(text);
      if (islands) {
        params.foreground_leaf_switches = params.spec.dims.back() + 3;
        params.foreground_hosts_per_switch = params.spec.hosts_per_switch + 2;
      }
      SCOPED_TRACE(params.spec.to_string() + (islands ? " with islands" : ""));
      const BuiltTopology t = build_composite(params);
      const Graph& g = t.graph;
      const CompositeMeta& meta = *t.composite;
      const int last = meta.levels() - 1;

      std::size_t lightpaths = 0;
      for (const LinkId id : g.link_ids()) {
        const Link& link = g.link(id);
        if (!g.is_switch(link.a) || !g.is_switch(link.b) ||
            meta.divergence_level(link.a, link.b) != last) {
          continue;
        }
        ++lightpaths;
        EXPECT_EQ(meta.leaf_mesh_link(link.a, meta.path_at(link.b, last)), id);
        EXPECT_EQ(meta.leaf_mesh_link(link.b, meta.path_at(link.a, last)), id);
      }
      const auto m = static_cast<std::size_t>(meta.arity.back());
      EXPECT_EQ(lightpaths, meta.leaf_members.size() / m * (m * (m - 1) / 2));

      // A host carries its attachment switch's whole path.
      for (const NodeId host : t.hosts) {
        const auto adj = g.neighbors(host);
        ASSERT_EQ(adj.size(), 1u);
        EXPECT_EQ(meta.leaf_members[static_cast<std::size_t>(meta.leaf_index(host)) * m +
                                    static_cast<std::size_t>(meta.path_at(host, last))],
                  adj[0].peer);
        EXPECT_EQ(meta.divergence_level(host, adj[0].peer), meta.levels());
        EXPECT_EQ(meta.uplink(host), adj[0].link);
      }
    }
  }
}

}  // namespace
}  // namespace quartz::topo
