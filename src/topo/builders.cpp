#include "topo/builders.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "wavelength/assign.hpp"
#include "wavelength/multiring.hpp"

namespace quartz::topo {

/// Mesh a set of switches with WDM lightpath links per the greedy
/// channel plan; annotates each link with its channel and the physical
/// ring (channel striped round-robin over the rings the mux capacity
/// forces).  Physical rings are numbered from `phys_ring_base`.
int add_quartz_mesh(Graph& graph, const std::vector<NodeId>& ring, BitsPerSecond rate,
                    TimePs propagation, int channels_per_mux, int phys_ring_base) {
  if (ring.size() < 2) return 0;
  return add_quartz_mesh(graph, ring, wavelength::greedy_assign(static_cast<int>(ring.size())),
                         rate, propagation, channels_per_mux, phys_ring_base);
}

int add_quartz_mesh(Graph& graph, const std::vector<NodeId>& ring,
                    const wavelength::Assignment& plan, BitsPerSecond rate, TimePs propagation,
                    int channels_per_mux, int phys_ring_base) {
  QUARTZ_REQUIRE(plan.ring_size == static_cast<int>(ring.size()),
                 "channel plan is for a different ring size");
  const int rings = wavelength::rings_required(plan.channels_used, channels_per_mux);
  for (const auto& p : plan.paths) {
    const int phys = phys_ring_base + wavelength::ring_for_channel(p.channel, rings);
    graph.add_link(ring[static_cast<std::size_t>(p.src)], ring[static_cast<std::size_t>(p.dst)],
                   rate, propagation, phys, p.channel);
  }
  return rings;
}

namespace {

std::string num(int v) { return std::to_string(v); }

/// Attach `count` hosts to a switch, all in the switch's rack.
std::vector<NodeId> add_hosts(Graph& graph, BuiltTopology& topo, NodeId sw, int count,
                              const std::string& prefix, BitsPerSecond rate, TimePs propagation,
                              int rack) {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int h = 0; h < count; ++h) {
    const NodeId host = graph.add_host(prefix + "h" + num(h), rack);
    graph.add_link(host, sw, rate, propagation);
    topo.hosts.push_back(host);
    out.push_back(host);
  }
  return out;
}

/// Random d-regular pairing for Jellyfish.  Retries the stub pairing
/// until no self loops (and, unless `allow_parallel`, no parallel
/// edges) remain.  Parallel edges are legitimate when the "nodes" are
/// whole Quartz rings whose stubs land on different member switches.
std::vector<std::pair<int, int>> random_regular_pairing(int nodes, int degree, Rng& rng,
                                                        bool allow_parallel = false) {
  QUARTZ_REQUIRE(nodes >= 2, "need at least two nodes");
  QUARTZ_REQUIRE(degree >= 1, "degree must be positive");
  QUARTZ_REQUIRE(allow_parallel || degree < nodes, "degree must be in [1, nodes)");
  QUARTZ_REQUIRE(nodes * degree % 2 == 0, "nodes*degree must be even");

  // Dense graphs defeat rejection sampling (almost every stub pairing
  // creates a parallel edge), but their complements are sparse: draw a
  // random (nodes-1-degree)-regular graph and invert it.
  if (!allow_parallel && degree > (nodes - 1) / 2) {
    const int co_degree = nodes - 1 - degree;
    std::vector<std::vector<bool>> excluded(
        static_cast<std::size_t>(nodes), std::vector<bool>(static_cast<std::size_t>(nodes)));
    if (co_degree > 0) {
      for (const auto& [a, b] : random_regular_pairing(nodes, co_degree, rng)) {
        excluded[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = true;
        excluded[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = true;
      }
    }
    std::vector<std::pair<int, int>> edges;
    for (int a = 0; a < nodes; ++a) {
      for (int b = a + 1; b < nodes; ++b) {
        if (!excluded[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)]) {
          edges.emplace_back(a, b);
        }
      }
    }
    return edges;
  }

  for (int attempt = 0; attempt < 500; ++attempt) {
    std::vector<int> stubs;
    stubs.reserve(static_cast<std::size_t>(nodes) * static_cast<std::size_t>(degree));
    for (int v = 0; v < nodes; ++v) {
      for (int d = 0; d < degree; ++d) stubs.push_back(v);
    }
    rng.shuffle(stubs);

    std::vector<std::pair<int, int>> edges;
    std::vector<std::vector<bool>> used(static_cast<std::size_t>(nodes),
                                        std::vector<bool>(static_cast<std::size_t>(nodes), false));
    bool ok = true;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      const int a = stubs[i];
      const int b = stubs[i + 1];
      if (a == b ||
          (!allow_parallel && used[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)])) {
        ok = false;
        break;
      }
      used[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = true;
      used[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = true;
      edges.emplace_back(a, b);
    }
    if (ok) return edges;
  }
  QUARTZ_CHECK(false, "random regular pairing did not converge");
}

}  // namespace

BuiltTopology two_tier_tree(const TwoTierParams& params) {
  QUARTZ_REQUIRE(params.tors >= 1 && params.aggs >= 1, "tree needs switches");
  BuiltTopology topo;
  topo.name = "two-tier-tree";
  Graph& g = topo.graph;
  const int tor_model = g.add_model(params.tor_model);
  const int agg_model = g.add_model(params.agg_model);

  for (int a = 0; a < params.aggs; ++a) {
    topo.aggs.push_back(g.add_switch(agg_model, "agg" + num(a)));
  }
  for (int t = 0; t < params.tors; ++t) {
    const NodeId tor = g.add_switch(tor_model, "tor" + num(t), t);
    topo.tors.push_back(tor);
    topo.host_groups.push_back(add_hosts(g, topo, tor, params.hosts_per_tor, "t" + num(t),
                                         params.links.host_rate, params.links.host_propagation,
                                         t));
    for (NodeId agg : topo.aggs) {
      for (int u = 0; u < params.uplinks_per_tor_per_agg; ++u) {
        g.add_link(tor, agg, params.links.fabric_rate, params.links.fabric_propagation);
      }
    }
  }
  g.validate();
  return topo;
}

BuiltTopology three_tier_tree(const ThreeTierParams& params) {
  QUARTZ_REQUIRE(params.pods >= 1 && params.tors_per_pod >= 1, "tree needs pods");
  BuiltTopology topo;
  topo.name = "three-tier-tree";
  Graph& g = topo.graph;
  const int tor_model = g.add_model(params.tor_model);
  const int agg_model = g.add_model(params.agg_model);
  const int core_model = g.add_model(params.core_model);

  for (int c = 0; c < params.cores; ++c) {
    topo.cores.push_back(g.add_switch(core_model, "core" + num(c)));
  }
  int rack = 0;
  for (int p = 0; p < params.pods; ++p) {
    std::vector<NodeId> pod_aggs;
    for (int a = 0; a < params.aggs_per_pod; ++a) {
      const NodeId agg = g.add_switch(agg_model, "p" + num(p) + "agg" + num(a));
      pod_aggs.push_back(agg);
      topo.aggs.push_back(agg);
      for (NodeId core : topo.cores) {
        g.add_link(agg, core, params.links.fabric_rate, params.links.fabric_propagation);
      }
    }
    std::vector<NodeId> pod_hosts;
    for (int t = 0; t < params.tors_per_pod; ++t) {
      const NodeId tor = g.add_switch(tor_model, "p" + num(p) + "tor" + num(t), rack);
      topo.tors.push_back(tor);
      auto hosts = add_hosts(g, topo, tor, params.hosts_per_tor, "p" + num(p) + "t" + num(t),
                             params.links.host_rate, params.links.host_propagation, rack);
      pod_hosts.insert(pod_hosts.end(), hosts.begin(), hosts.end());
      ++rack;
      for (NodeId agg : pod_aggs) {
        g.add_link(tor, agg, params.links.fabric_rate, params.links.fabric_propagation);
      }
    }
    topo.host_groups.push_back(std::move(pod_hosts));
  }
  g.validate();
  return topo;
}

BuiltTopology fat_tree_clos(const FatTreeParams& params) {
  QUARTZ_REQUIRE(params.leaves >= 1 && params.spines >= 1, "clos needs switches");
  BuiltTopology topo;
  topo.name = "fat-tree-clos";
  Graph& g = topo.graph;
  const int leaf_model = g.add_model(params.leaf_model);
  const int spine_model = g.add_model(params.spine_model);

  for (int s = 0; s < params.spines; ++s) {
    topo.aggs.push_back(g.add_switch(spine_model, "spine" + num(s)));
  }
  for (int l = 0; l < params.leaves; ++l) {
    const NodeId leaf = g.add_switch(leaf_model, "leaf" + num(l), l);
    topo.tors.push_back(leaf);
    topo.host_groups.push_back(add_hosts(g, topo, leaf, params.hosts_per_leaf, "l" + num(l),
                                         params.links.host_rate, params.links.host_propagation,
                                         l));
    for (NodeId spine : topo.aggs) {
      for (int m = 0; m < params.links_per_leaf_spine; ++m) {
        g.add_link(leaf, spine, params.links.host_rate, params.links.fabric_propagation);
      }
    }
  }
  g.validate();
  return topo;
}

BuiltTopology bcube1(const BCubeParams& params) {
  QUARTZ_REQUIRE(params.n >= 2, "BCube needs n >= 2");
  BuiltTopology topo;
  topo.name = "bcube1";
  Graph& g = topo.graph;
  const int model = g.add_model(params.switch_model);

  const int n = params.n;
  // Level-0 switch i connects hosts (i, *); level-1 switch j connects
  // hosts (*, j).  Host (i, j) therefore has two NICs.
  std::vector<NodeId> level0, level1;
  for (int i = 0; i < n; ++i) level0.push_back(g.add_switch(model, "L0-" + num(i), i));
  for (int j = 0; j < n; ++j) level1.push_back(g.add_switch(model, "L1-" + num(j)));
  for (int i = 0; i < n; ++i) {
    std::vector<NodeId> group;
    for (int j = 0; j < n; ++j) {
      const NodeId host = g.add_host("h" + num(i) + "-" + num(j), i);
      topo.hosts.push_back(host);
      group.push_back(host);
      g.add_link(host, level0[static_cast<std::size_t>(i)], params.links.host_rate,
                 params.links.host_propagation);
      g.add_link(host, level1[static_cast<std::size_t>(j)], params.links.host_rate,
                 params.links.fabric_propagation);
    }
    topo.host_groups.push_back(std::move(group));
  }
  topo.tors = level0;
  topo.aggs = level1;
  g.validate();
  return topo;
}

BuiltTopology dcell1(const DCellParams& params) {
  QUARTZ_REQUIRE(params.n >= 2, "DCell needs n >= 2");
  BuiltTopology topo;
  topo.name = "dcell1";
  Graph& g = topo.graph;
  SwitchModel model = params.switch_model;
  model.port_count = std::max(model.port_count, params.n);
  const int model_index = g.add_model(model);

  const int n = params.n;
  const int cells = n + 1;
  std::vector<std::vector<NodeId>> cell_hosts(static_cast<std::size_t>(cells));
  for (int c = 0; c < cells; ++c) {
    const NodeId sw = g.add_switch(model_index, "cell" + num(c), c);
    topo.tors.push_back(sw);
    std::vector<NodeId> group;
    for (int s = 0; s < n; ++s) {
      const NodeId host = g.add_host("c" + num(c) + "h" + num(s), c);
      topo.hosts.push_back(host);
      group.push_back(host);
      g.add_link(host, sw, params.links.host_rate, params.links.host_propagation);
    }
    cell_hosts[static_cast<std::size_t>(c)] = group;
    topo.host_groups.push_back(std::move(group));
  }
  // Inter-cell host-to-host links: for i < j, server j-1 of cell i
  // pairs with server i of cell j.
  for (int i = 0; i < cells; ++i) {
    for (int j = i + 1; j < cells; ++j) {
      g.add_link(cell_hosts[static_cast<std::size_t>(i)][static_cast<std::size_t>(j - 1)],
                 cell_hosts[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)],
                 params.links.host_rate, params.links.fabric_propagation);
    }
  }
  g.validate();
  return topo;
}

BuiltTopology jellyfish(const JellyfishParams& params) {
  BuiltTopology topo;
  topo.name = "jellyfish";
  Graph& g = topo.graph;
  const int model = g.add_model(params.switch_model);
  Rng rng(params.seed);

  for (int s = 0; s < params.switches; ++s) {
    const NodeId sw = g.add_switch(model, "sw" + num(s), s);
    topo.tors.push_back(sw);
    topo.host_groups.push_back(add_hosts(g, topo, sw, params.hosts_per_switch, "s" + num(s),
                                         params.links.host_rate, params.links.host_propagation,
                                         s));
  }
  for (const auto& [a, b] : random_regular_pairing(params.switches, params.inter_switch_ports, rng)) {
    g.add_link(topo.tors[static_cast<std::size_t>(a)], topo.tors[static_cast<std::size_t>(b)],
               params.inter_switch_rate, params.links.fabric_propagation);
  }
  g.validate();
  return topo;
}

BuiltTopology quartz_ring(const QuartzRingParams& params) {
  QUARTZ_REQUIRE(params.switches >= 2, "quartz ring needs at least two switches");
  BuiltTopology topo;
  topo.name = "quartz-ring";
  Graph& g = topo.graph;
  const int model = g.add_model(params.switch_model);

  std::vector<NodeId> ring;
  for (int s = 0; s < params.switches; ++s) {
    const NodeId sw = g.add_switch(model, "q" + num(s), s);
    ring.push_back(sw);
    topo.tors.push_back(sw);
    topo.host_groups.push_back(add_hosts(g, topo, sw, params.hosts_per_switch, "q" + num(s),
                                         params.links.host_rate, params.links.host_propagation,
                                         s));
  }
  add_quartz_mesh(g, ring, params.mesh_rate, params.links.fabric_propagation,
                  params.channels_per_mux);
  topo.quartz_rings.push_back(std::move(ring));
  g.validate();
  return topo;
}

BuiltTopology quartz_in_core(const QuartzCoreParams& params) {
  QUARTZ_REQUIRE(params.ring_switches >= 2, "core ring needs at least two switches");
  // Build the tree without its cores, then splice in the ring.
  ThreeTierParams tree = params.tree;
  tree.cores = 0;

  BuiltTopology topo;
  topo.name = "quartz-in-core";
  Graph& g = topo.graph;
  const int tor_model = g.add_model(tree.tor_model);
  const int agg_model = g.add_model(tree.agg_model);
  const int ring_model = g.add_model(params.ring_model);

  std::vector<NodeId> ring;
  for (int s = 0; s < params.ring_switches; ++s) {
    const NodeId sw = g.add_switch(ring_model, "qcore" + num(s));
    ring.push_back(sw);
    topo.cores.push_back(sw);
  }
  add_quartz_mesh(g, ring, tree.links.fabric_rate, tree.links.fabric_propagation, 80);
  topo.quartz_rings.push_back(ring);

  int rack = 0;
  std::size_t next_ring_port = 0;
  for (int p = 0; p < tree.pods; ++p) {
    std::vector<NodeId> pod_aggs;
    for (int a = 0; a < tree.aggs_per_pod; ++a) {
      const NodeId agg = g.add_switch(agg_model, "p" + num(p) + "agg" + num(a));
      pod_aggs.push_back(agg);
      topo.aggs.push_back(agg);
      // Each agg had `cores` uplinks in the tree; keep the same uplink
      // count into the ring, round-robin over ring switches.
      const int uplinks = std::max(1, params.tree.cores);
      for (int u = 0; u < uplinks; ++u) {
        g.add_link(agg, ring[next_ring_port % ring.size()], tree.links.fabric_rate,
                   tree.links.fabric_propagation);
        ++next_ring_port;
      }
    }
    std::vector<NodeId> pod_hosts;
    for (int t = 0; t < tree.tors_per_pod; ++t) {
      const NodeId tor = g.add_switch(tor_model, "p" + num(p) + "tor" + num(t), rack);
      topo.tors.push_back(tor);
      auto hosts = add_hosts(g, topo, tor, tree.hosts_per_tor, "p" + num(p) + "t" + num(t),
                             tree.links.host_rate, tree.links.host_propagation, rack);
      pod_hosts.insert(pod_hosts.end(), hosts.begin(), hosts.end());
      ++rack;
      for (NodeId agg : pod_aggs) {
        g.add_link(tor, agg, tree.links.fabric_rate, tree.links.fabric_propagation);
      }
    }
    topo.host_groups.push_back(std::move(pod_hosts));
  }
  g.validate();
  return topo;
}

BuiltTopology quartz_in_edge(const QuartzEdgeParams& params) {
  QUARTZ_REQUIRE(params.ring_switches >= 2, "edge ring needs at least two switches");
  BuiltTopology topo;
  topo.name = "quartz-in-edge";
  Graph& g = topo.graph;
  const int ring_model = g.add_model(params.ring_model);
  const int core_model = g.add_model(params.core_model);

  for (int c = 0; c < params.cores; ++c) {
    topo.cores.push_back(g.add_switch(core_model, "core" + num(c)));
  }
  int rack = 0;
  for (int p = 0; p < params.pods; ++p) {
    std::vector<NodeId> ring;
    std::vector<NodeId> pod_hosts;
    for (int s = 0; s < params.ring_switches; ++s) {
      const NodeId sw = g.add_switch(ring_model, "p" + num(p) + "q" + num(s), rack);
      ring.push_back(sw);
      topo.tors.push_back(sw);
      auto hosts = add_hosts(g, topo, sw, params.hosts_per_ring_switch,
                             "p" + num(p) + "q" + num(s), params.links.host_rate,
                             params.links.host_propagation, rack);
      pod_hosts.insert(pod_hosts.end(), hosts.begin(), hosts.end());
      ++rack;
      for (NodeId core : topo.cores) {
        g.add_link(sw, core, params.links.fabric_rate, params.links.fabric_propagation);
      }
    }
    add_quartz_mesh(g, ring, params.mesh_rate, params.links.fabric_propagation, 80);
    topo.quartz_rings.push_back(std::move(ring));
    topo.host_groups.push_back(std::move(pod_hosts));
  }
  g.validate();
  return topo;
}

BuiltTopology quartz_in_edge_and_core(const QuartzEdgeCoreParams& params) {
  QUARTZ_REQUIRE(params.edge_ring_switches >= 2 && params.core_ring_switches >= 2,
                 "rings need at least two switches");
  BuiltTopology topo;
  topo.name = "quartz-in-edge-and-core";
  Graph& g = topo.graph;
  const int ring_model = g.add_model(params.ring_model);

  std::vector<NodeId> core_ring;
  for (int s = 0; s < params.core_ring_switches; ++s) {
    const NodeId sw = g.add_switch(ring_model, "qcore" + num(s));
    core_ring.push_back(sw);
    topo.cores.push_back(sw);
  }
  add_quartz_mesh(g, core_ring, params.links.fabric_rate, params.links.fabric_propagation, 80);
  topo.quartz_rings.push_back(core_ring);

  int rack = 0;
  std::size_t next_core_port = 0;
  for (int p = 0; p < params.pods; ++p) {
    std::vector<NodeId> ring;
    std::vector<NodeId> pod_hosts;
    for (int s = 0; s < params.edge_ring_switches; ++s) {
      const NodeId sw = g.add_switch(ring_model, "p" + num(p) + "q" + num(s), rack);
      ring.push_back(sw);
      topo.tors.push_back(sw);
      auto hosts = add_hosts(g, topo, sw, params.hosts_per_ring_switch,
                             "p" + num(p) + "q" + num(s), params.links.host_rate,
                             params.links.host_propagation, rack);
      pod_hosts.insert(pod_hosts.end(), hosts.begin(), hosts.end());
      ++rack;
      // One fabric uplink per edge ring switch, round-robin over the
      // core ring (Fig. 15(d)).
      g.add_link(sw, core_ring[next_core_port % core_ring.size()], params.links.fabric_rate,
                 params.links.fabric_propagation);
      ++next_core_port;
    }
    add_quartz_mesh(g, ring, params.mesh_rate, params.links.fabric_propagation, 80);
    topo.quartz_rings.push_back(std::move(ring));
    topo.host_groups.push_back(std::move(pod_hosts));
  }
  g.validate();
  return topo;
}

BuiltTopology quartz_in_jellyfish(const QuartzJellyfishParams& params) {
  QUARTZ_REQUIRE(params.rings >= 2, "needs at least two rings");
  BuiltTopology topo;
  topo.name = "quartz-in-jellyfish";
  Graph& g = topo.graph;
  const int model = g.add_model(params.switch_model);
  Rng rng(params.seed);

  int rack = 0;
  for (int r = 0; r < params.rings; ++r) {
    std::vector<NodeId> ring;
    std::vector<NodeId> ring_hosts;
    for (int s = 0; s < params.switches_per_ring; ++s) {
      const NodeId sw = g.add_switch(model, "r" + num(r) + "q" + num(s), rack);
      ring.push_back(sw);
      topo.tors.push_back(sw);
      auto hosts = add_hosts(g, topo, sw, params.hosts_per_switch, "r" + num(r) + "q" + num(s),
                             params.links.host_rate, params.links.host_propagation, rack);
      ring_hosts.insert(ring_hosts.end(), hosts.begin(), hosts.end());
      ++rack;
    }
    add_quartz_mesh(g, ring, params.mesh_rate, params.links.fabric_propagation, 80);
    topo.quartz_rings.push_back(std::move(ring));
    topo.host_groups.push_back(std::move(ring_hosts));
  }

  // Random graph over rings: each ring contributes `inter_ring_links`
  // stubs, paired like Jellyfish but between rings; endpoints spread
  // round-robin over each ring's switches.
  std::vector<std::size_t> next_port(static_cast<std::size_t>(params.rings), 0);
  for (const auto& [ra, rb] :
       random_regular_pairing(params.rings, params.inter_ring_links, rng, /*allow_parallel=*/true)) {
    const auto& ring_a = topo.quartz_rings[static_cast<std::size_t>(ra)];
    const auto& ring_b = topo.quartz_rings[static_cast<std::size_t>(rb)];
    const NodeId a = ring_a[next_port[static_cast<std::size_t>(ra)]++ % ring_a.size()];
    const NodeId b = ring_b[next_port[static_cast<std::size_t>(rb)]++ % ring_b.size()];
    g.add_link(a, b, params.inter_ring_rate, params.links.fabric_propagation);
  }
  g.validate();
  return topo;
}

BuiltTopology quartz_dual_tor(const QuartzDualTorParams& params) {
  QUARTZ_REQUIRE(params.racks >= 3, "dual-ToR mesh needs at least three racks");
  QUARTZ_REQUIRE(params.racks % 2 == 1, "racks must be odd for an even plane split");
  QUARTZ_REQUIRE(params.hosts_per_rack >= 1, "racks need hosts");

  BuiltTopology topo;
  topo.name = "quartz-dual-tor";
  Graph& g = topo.graph;
  const int model = g.add_model(params.switch_model);
  const int racks = params.racks;

  // Two switches per rack: plane A (tors) and plane B (aggs slot reused
  // as the second plane for role bookkeeping).
  std::vector<NodeId> plane_a, plane_b;
  for (int r = 0; r < racks; ++r) {
    const NodeId a = g.add_switch(model, "r" + num(r) + "A", r);
    const NodeId b = g.add_switch(model, "r" + num(r) + "B", r);
    plane_a.push_back(a);
    plane_b.push_back(b);
    topo.tors.push_back(a);
    topo.tors.push_back(b);
    std::vector<NodeId> rack_hosts;
    for (int h = 0; h < params.hosts_per_rack; ++h) {
      const NodeId host = g.add_host("r" + num(r) + "h" + num(h), r);
      topo.hosts.push_back(host);
      rack_hosts.push_back(host);
      // Dual-homed: one NIC per plane.
      g.add_link(host, a, params.links.host_rate, params.links.host_propagation);
      g.add_link(host, b, params.links.host_rate, params.links.host_propagation);
    }
    topo.host_groups.push_back(std::move(rack_hosts));
  }

  // Rack pair (r, r+d) for d = 1..(racks-1)/2 rides plane A at r and
  // plane B at r+d, giving every switch exactly (racks-1)/2 mesh ports
  // and every rack pair exactly one lightpath.
  const int half = (racks - 1) / 2;
  for (int r = 0; r < racks; ++r) {
    for (int d = 1; d <= half; ++d) {
      const int s = (r + d) % racks;
      g.add_link(plane_a[static_cast<std::size_t>(r)], plane_b[static_cast<std::size_t>(s)],
                 params.mesh_rate, params.links.fabric_propagation);
    }
  }
  // The two planes are each a rack-level mesh slice; record both for
  // mesh-aware oracles.
  topo.quartz_rings.push_back(plane_a);
  topo.quartz_rings.push_back(plane_b);
  g.validate();
  return topo;
}

BuiltTopology single_switch(const SingleSwitchParams& params) {
  QUARTZ_REQUIRE(params.hosts >= 1, "needs hosts");
  BuiltTopology topo;
  topo.name = "single-switch";
  Graph& g = topo.graph;
  const int model = g.add_model(params.switch_model);
  const NodeId sw = g.add_switch(model, "core0", 0);
  topo.cores.push_back(sw);
  topo.host_groups.push_back(add_hosts(g, topo, sw, params.hosts, "", params.host_rate,
                                       params.propagation, 0));
  g.validate();
  return topo;
}

}  // namespace quartz::topo
