#include "topo/graph.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "sim/experiments.hpp"
#include "topo/builders.hpp"
#include "topo/composite.hpp"
#include "topo/failures.hpp"
#include "wavelength/assign.hpp"

namespace quartz::topo {
namespace {

Graph two_hosts_one_switch() {
  Graph g;
  const int model = g.add_model(SwitchModel::ull());
  const NodeId sw = g.add_switch(model, "sw0", 0);
  const NodeId h0 = g.add_host("h0", 0);
  const NodeId h1 = g.add_host("h1", 0);
  g.add_link(h0, sw, gigabits_per_second(10), nanoseconds(25));
  g.add_link(h1, sw, gigabits_per_second(10), nanoseconds(25));
  return g;
}

TEST(Graph, BasicConstruction) {
  const Graph g = two_hosts_one_switch();
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.link_count(), 2u);
  EXPECT_EQ(g.hosts().size(), 2u);
  EXPECT_EQ(g.switches().size(), 1u);
  EXPECT_NO_THROW(g.validate());
}

TEST(Graph, NeighborsAndDegree) {
  const Graph g = two_hosts_one_switch();
  const NodeId sw = g.switches()[0];
  EXPECT_EQ(g.degree(sw), 2u);
  EXPECT_EQ(g.neighbors(sw).size(), 2u);
  for (const auto& adj : g.neighbors(sw)) {
    EXPECT_TRUE(g.is_host(adj.peer));
    EXPECT_EQ(g.link(adj.link).other(sw), adj.peer);
  }
  EXPECT_THROW(g.degree(99), std::invalid_argument);
  EXPECT_THROW(g.degree(-1), std::invalid_argument);
}

TEST(Graph, ModelOfSwitch) {
  const Graph g = two_hosts_one_switch();
  EXPECT_EQ(g.model_of(g.switches()[0]).latency, nanoseconds(380));
  EXPECT_THROW(g.model_of(g.hosts()[0]), std::invalid_argument);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g;
  const NodeId h = g.add_host("h", 0);
  EXPECT_THROW(g.add_link(h, h, gigabits_per_second(1), 0), std::invalid_argument);
}

TEST(Graph, RejectsUnknownEndpoints) {
  Graph g;
  g.add_host("h", 0);
  EXPECT_THROW(g.add_link(0, 5, gigabits_per_second(1), 0), std::invalid_argument);
}

TEST(Graph, RejectsBadRates) {
  Graph g;
  const NodeId a = g.add_host("a", 0);
  const NodeId b = g.add_host("b", 0);
  EXPECT_THROW(g.add_link(a, b, 0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_link(a, b, gigabits_per_second(1), -1), std::invalid_argument);
}

TEST(Graph, RejectsUnknownModel) {
  Graph g;
  EXPECT_THROW(g.add_switch(0, "sw"), std::invalid_argument);
}

TEST(Graph, ValidateCatchesPortOverflow) {
  Graph g;
  SwitchModel tiny = SwitchModel::ull();
  tiny.port_count = 1;
  const int model = g.add_model(tiny);
  const NodeId sw = g.add_switch(model, "sw");
  const NodeId h0 = g.add_host("h0", 0);
  const NodeId h1 = g.add_host("h1", 0);
  g.add_link(h0, sw, gigabits_per_second(1), 0);
  g.add_link(h1, sw, gigabits_per_second(1), 0);
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(Graph, ValidateCatchesUnconnectedHost) {
  Graph g;
  g.add_host("orphan", 0);
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(Graph, ValidateCatchesDisconnection) {
  Graph g;
  const int model = g.add_model(SwitchModel::ull());
  const NodeId s0 = g.add_switch(model, "s0");
  const NodeId s1 = g.add_switch(model, "s1");
  const NodeId h0 = g.add_host("h0", 0);
  const NodeId h1 = g.add_host("h1", 1);
  g.add_link(h0, s0, gigabits_per_second(1), 0);
  g.add_link(h1, s1, gigabits_per_second(1), 0);
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(Graph, ComponentCountFindsEveryIsland) {
  Graph g;
  EXPECT_EQ(g.component_count(), 0u);
  const int model = g.add_model(SwitchModel::ull());
  // Three islands with interleaved ids: {a0, a1}, the lone {b0}, and
  // the triangle {c0, c1, c2}, which does not hold node 0.
  const NodeId a0 = g.add_switch(model, "a0");
  const NodeId c0 = g.add_switch(model, "c0");
  const NodeId b0 = g.add_switch(model, "b0");
  const NodeId c1 = g.add_switch(model, "c1");
  const NodeId a1 = g.add_switch(model, "a1");
  const NodeId c2 = g.add_switch(model, "c2");
  g.add_link(c2, c1, gigabits_per_second(1), 0);
  g.add_link(a1, a0, gigabits_per_second(1), 0);
  g.add_link(c0, c2, gigabits_per_second(1), 0);
  g.add_link(c1, c0, gigabits_per_second(1), 0);  // closes a cycle: no merge
  EXPECT_EQ(g.component_count(), 3u);
  EXPECT_THROW(g.validate(), std::logic_error);

  g.add_link(b0, c1, gigabits_per_second(1), 0);
  EXPECT_EQ(g.component_count(), 2u);
  g.add_link(c2, a1, gigabits_per_second(1), 0);
  EXPECT_EQ(g.component_count(), 1u);
  EXPECT_NO_THROW(g.validate());
}

TEST(Graph, WdmMetadataStored) {
  Graph g;
  const int model = g.add_model(SwitchModel::ull());
  const NodeId s0 = g.add_switch(model, "s0");
  const NodeId s1 = g.add_switch(model, "s1");
  const LinkId l = g.add_link(s0, s1, gigabits_per_second(10), 0, /*wdm_ring=*/1,
                              /*wdm_channel=*/42);
  EXPECT_EQ(g.link(l).wdm_ring, 1);
  EXPECT_EQ(g.link(l).wdm_channel, 42);
}

/// A link as its readers see it: endpoints, rate, propagation, WDM tags.
using LinkFields = std::tuple<NodeId, NodeId, BitsPerSecond, TimePs, int, int>;

LinkFields fields(const Graph& g, LinkId id) {
  const Link& l = g.link(id);
  return {l.a, l.b, g.rate(id), g.propagation(id), l.wdm_ring, l.wdm_channel};
}

/// Two switch models, a host without a rack, WDM and plain links, and
/// a parallel link so adjacency order is not trivially sorted.
Graph splice_child() {
  Graph g;
  const int ull = g.add_model(SwitchModel::ull());
  const int ccs = g.add_model(SwitchModel::ccs());
  const NodeId s0 = g.add_switch(ccs, "s0", 0);
  const NodeId h = g.add_host("h");
  const NodeId s1 = g.add_switch(ull, "s1", 2);
  g.add_link(h, s0, gigabits_per_second(10), nanoseconds(25));
  g.add_link(s1, s0, gigabits_per_second(40), nanoseconds(250), /*wdm_ring=*/1,
             /*wdm_channel=*/5);
  g.add_link(s0, s1, gigabits_per_second(40), nanoseconds(300));
  g.add_link(s1, h, gigabits_per_second(10), nanoseconds(25));
  return g;
}

/// A parent that already holds nodes, links and one model, so every id
/// and label range has a non-zero base.
Graph splice_parent() {
  Graph g;
  const int ull = g.add_model(SwitchModel::ull());
  const NodeId a = g.add_switch(ull, "a", 0);
  const NodeId b = g.add_switch(ull, "b", 1);
  g.add_link(a, b, gigabits_per_second(40), 0, /*wdm_ring=*/0, /*wdm_channel=*/0);
  return g;
}

TEST(Graph, SpliceShiftsIdsAndRemapsLabels) {
  const Graph child = splice_child();
  Graph g = splice_parent();
  // Child model 0 (ULL) reuses the parent's; child model 1 is new.
  const std::vector<int> model_map = {0, g.add_model(SwitchModel::ccs())};
  g.splice(child, model_map, /*rack_offset=*/2, /*wdm_ring_offset=*/1);

  ASSERT_EQ(g.node_count(), 5u);
  ASSERT_EQ(g.link_count(), 5u);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    EXPECT_EQ(g.nodes()[i].id, static_cast<NodeId>(i));
  }
  const Node& s0 = g.node(2);
  EXPECT_EQ(s0.label, "s0");
  EXPECT_TRUE(g.is_switch(2));
  EXPECT_EQ(s0.model, 1);
  EXPECT_EQ(s0.rack, 2);
  EXPECT_EQ(g.model_of(2).latency, SwitchModel::ccs().latency);
  const Node& h = g.node(3);
  EXPECT_TRUE(g.is_host(3));
  EXPECT_EQ(h.model, -1);
  EXPECT_EQ(h.rack, -1);  // unassigned stays unassigned
  const Node& s1 = g.node(4);
  EXPECT_EQ(s1.model, 0);
  EXPECT_EQ(s1.rack, 4);

  // Link ids shift by the parent's one link; WDM rings by the offset.
  EXPECT_EQ(fields(g, 1), LinkFields(3, 2, gigabits_per_second(10), nanoseconds(25), -1, -1));
  EXPECT_EQ(fields(g, 2), LinkFields(4, 2, gigabits_per_second(40), nanoseconds(250), 2, 5));
  EXPECT_EQ(fields(g, 3), LinkFields(2, 4, gigabits_per_second(40), nanoseconds(300), -1, -1));
  EXPECT_EQ(fields(g, 4), LinkFields(4, 3, gigabits_per_second(10), nanoseconds(25), -1, -1));
  EXPECT_EQ(fields(g, 0), fields(splice_parent(), 0));
}

TEST(Graph, SpliceMatchesAddLinkReplay) {
  const Graph child = splice_child();
  Graph spliced = splice_parent();
  const std::vector<int> model_map = {0, spliced.add_model(SwitchModel::ccs())};
  spliced.splice(child, model_map, 2, 1);

  Graph replay = splice_parent();
  replay.add_model(SwitchModel::ccs());
  const auto base = static_cast<NodeId>(replay.node_count());
  for (const Node& n : child.nodes()) {
    const int rack = n.rack < 0 ? -1 : 2 + n.rack;
    if (n.kind == NodeKind::kHost) {
      replay.add_host(n.label, rack);
    } else {
      replay.add_switch(model_map[static_cast<std::size_t>(n.model)], n.label, rack);
    }
  }
  for (const LinkId id : child.link_ids()) {
    const Link& l = child.link(id);
    replay.add_link(base + l.a, base + l.b, child.rate(id), child.propagation(id),
                    l.wdm_ring < 0 ? -1 : 1 + l.wdm_ring, l.wdm_channel);
  }

  ASSERT_EQ(spliced.node_count(), replay.node_count());
  ASSERT_EQ(spliced.link_count(), replay.link_count());
  for (const LinkId id : replay.link_ids()) {
    EXPECT_EQ(fields(spliced, id), fields(replay, id));
  }
  for (const Node& n : replay.nodes()) {
    SCOPED_TRACE(n.label);
    const auto got = spliced.neighbors(n.id);
    const auto want = replay.neighbors(n.id);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(got[k].link, want[k].link);
      EXPECT_EQ(got[k].peer, want[k].peer);
    }
  }
}

TEST(Graph, SpliceRejectsBadModelMaps) {
  const Graph child = splice_child();
  Graph g = splice_parent();
  const std::vector<int> short_map = {0};
  EXPECT_THROW(g.splice(child, short_map, 0, 0), std::invalid_argument);
  const std::vector<int> unknown = {0, 7};
  EXPECT_THROW(g.splice(child, unknown, 0, 0), std::invalid_argument);
  EXPECT_THROW(g.splice(g, std::vector<int>{0}, 0, 0), std::invalid_argument);
  EXPECT_EQ(g.node_count(), 2u);  // nothing appended on rejection
}

TEST(Graph, SpliceKeepsEachLinksRateAndPropagation) {
  // The parent already holds two of the child's three classes, in
  // another order, so the child's class indices must be remapped.
  Graph g;
  const NodeId a = g.add_host("a");
  const NodeId b = g.add_host("b");
  g.add_link(a, b, gigabits_per_second(40), nanoseconds(300));
  g.add_link(a, b, gigabits_per_second(10), nanoseconds(25));
  const Graph child = splice_child();
  ASSERT_EQ(child.link_classes().size(), 3u);
  const std::vector<int> model_map = {g.add_model(SwitchModel::ull()),
                                      g.add_model(SwitchModel::ccs())};
  g.splice(child, model_map, 0, 0);

  EXPECT_EQ(g.link_classes().size(), 3u);  // only (40G, 250 ns) is new
  const auto base = static_cast<LinkId>(g.link_count() - child.link_count());
  for (const LinkId id : child.link_ids()) {
    EXPECT_EQ(g.rate(base + id), child.rate(id));
    EXPECT_EQ(g.propagation(base + id), child.propagation(id));
  }
}

TEST(Graph, RejectsWhatALinkRecordCannotHold) {
  Graph g;
  const NodeId a = g.add_host("a");
  const NodeId b = g.add_host("b");
  const BitsPerSecond rate = gigabits_per_second(10);
  EXPECT_THROW(g.add_link(a, b, rate, 0, 0, 32768), std::invalid_argument);
  EXPECT_THROW(g.add_link(a, b, rate, 0, 0, -32769), std::invalid_argument);
  EXPECT_EQ(g.link_count(), 0u);
  EXPECT_EQ(g.link_classes().size(), 0u);  // a rejected link interns nothing
  EXPECT_EQ(g.link(g.add_link(a, b, rate, 0, 0, 32767)).wdm_channel, 32767);
  EXPECT_EQ(g.link(g.add_link(a, b, rate, 0, 0, -32768)).wdm_channel, -32768);

  // Link::link_class is 16 bits wide, so the class count stops at 65,535.
  for (TimePs propagation = 1; propagation < 65'535; ++propagation) {
    g.add_link(a, b, rate, propagation);
  }
  ASSERT_EQ(g.link_classes().size(), 65'535u);
  const std::size_t links = g.link_count();
  EXPECT_THROW(g.add_link(a, b, rate, 65'535), std::invalid_argument);
  EXPECT_EQ(g.link_count(), links);
  g.add_link(a, b, rate, 7);  // a known pair still interns
  EXPECT_EQ(g.rate(g.link_ids().back()), rate);
  EXPECT_EQ(g.propagation(g.link_ids().back()), 7);

  // A child with one pair the parent lacks is rejected before anything
  // is appended; a child of known pairs splices.  (A child cannot carry
  // an out-of-range channel: its own add_link rejected it.)
  Graph child;
  const NodeId c = child.add_host("c");
  const NodeId d = child.add_host("d");
  child.add_link(c, d, rate, 3);
  EXPECT_NO_THROW(g.splice(child, {}, 0, 0));
  child.add_link(c, d, gigabits_per_second(40), 3);
  EXPECT_THROW(g.splice(child, {}, 0, 0), std::invalid_argument);
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.link_classes().size(), 65'535u);
}

/// Every link's (rate, propagation) pair has exactly one class.
void expect_one_class_per_pair(const Graph& g) {
  std::set<std::pair<BitsPerSecond, TimePs>> pairs;
  for (const LinkId id : g.link_ids()) pairs.emplace(g.rate(id), g.propagation(id));
  EXPECT_EQ(g.link_classes().size(), pairs.size());
}

TEST(Graph, LinkClassesAreInterned) {
  // A repeated pair reuses its class, also after the last hit moved on.
  Graph g;
  const NodeId a = g.add_host("a");
  const NodeId b = g.add_host("b");
  const LinkId host = g.add_link(a, b, gigabits_per_second(10), nanoseconds(25));
  const LinkId again = g.add_link(a, b, gigabits_per_second(10), nanoseconds(25));
  const LinkId slower = g.add_link(a, b, gigabits_per_second(10), nanoseconds(250));
  const LinkId faster = g.add_link(a, b, gigabits_per_second(40), nanoseconds(25));
  const LinkId back = g.add_link(a, b, gigabits_per_second(10), nanoseconds(25));
  ASSERT_EQ(g.link_classes().size(), 3u);
  EXPECT_EQ(g.link(again).link_class, g.link(host).link_class);
  EXPECT_EQ(g.link(back).link_class, g.link(host).link_class);
  EXPECT_NE(g.link(slower).link_class, g.link(host).link_class);
  EXPECT_NE(g.link(faster).link_class, g.link(slower).link_class);
  EXPECT_EQ(g.rate(faster), gigabits_per_second(40));
  EXPECT_EQ(g.propagation(slower), nanoseconds(250));

  for (const sim::Fabric fabric :
       {sim::Fabric::kThreeTierTree, sim::Fabric::kJellyfish, sim::Fabric::kQuartzInCore,
        sim::Fabric::kQuartzInEdge, sim::Fabric::kQuartzInEdgeAndCore,
        sim::Fabric::kQuartzInJellyfish}) {
    SCOPED_TRACE(sim::fabric_name(fabric));
    expect_one_class_per_pair(sim::build_fabric(fabric).topo.graph);
  }

  // The scale_hybrid shape, one level smaller: host links, leaf
  // lightpaths and trunks are the only classes.
  CompositeParams hybrid;
  hybrid.spec = *CompositeSpec::parse("ring-of-rings:16x16x16+10");
  hybrid.foreground_leaf_switches = 16 + 2;
  hybrid.foreground_hosts_per_switch = 1;
  const BuiltTopology t = build_composite(hybrid);
  EXPECT_EQ(t.graph.link_classes().size(), 3u);
  expect_one_class_per_pair(t.graph);
}

/// neighbors(v) lists exactly v's incident links in increasing link
/// id, each with the link's other end, and the degrees sum to twice
/// the link count.
void expect_adjacency_matches_links(const Graph& g) {
  std::vector<std::size_t> incident(g.node_count(), 0);
  for (const Link& l : g.links()) {
    ++incident[static_cast<std::size_t>(l.a)];
    ++incident[static_cast<std::size_t>(l.b)];
  }
  std::size_t degree_sum = 0;
  for (const Node& n : g.nodes()) {
    const auto adj = g.neighbors(n.id);
    ASSERT_EQ(adj.size(), incident[static_cast<std::size_t>(n.id)]) << n.label;
    ASSERT_EQ(g.degree(n.id), adj.size()) << n.label;
    for (std::size_t k = 0; k < adj.size(); ++k) {
      const Link& l = g.link(adj[k].link);
      ASSERT_TRUE(l.a == n.id || l.b == n.id) << n.label;
      ASSERT_EQ(adj[k].peer, l.other(n.id)) << n.label;
      if (k > 0) {
        ASSERT_LT(adj[k - 1].link, adj[k].link) << n.label;
      }
    }
    degree_sum += g.degree(n.id);
  }
  EXPECT_EQ(degree_sum, 2 * g.link_count());
}

TEST(Graph, AdjacencyListsIncidentLinksInIdOrder) {
  for (const sim::Fabric fabric :
       {sim::Fabric::kThreeTierTree, sim::Fabric::kJellyfish, sim::Fabric::kQuartzInCore,
        sim::Fabric::kQuartzInEdge, sim::Fabric::kQuartzInEdgeAndCore,
        sim::Fabric::kQuartzInJellyfish, sim::Fabric::kComposite}) {
    SCOPED_TRACE(sim::fabric_name(fabric));
    expect_adjacency_matches_links(sim::build_fabric(fabric).topo.graph);
  }

  CompositeParams island;
  island.spec = *CompositeSpec::parse("ring-of-rings:4x4x4+10");
  island.foreground_leaf_switches = 6;
  island.foreground_hosts_per_switch = 2;
  SCOPED_TRACE("composites");
  expect_adjacency_matches_links(build_composite(island).graph);
  // ring-of-trees stamps its pods with Graph::splice.
  expect_adjacency_matches_links(
      build_composite(*CompositeSpec::parse("ring-of-trees:3x2x4@2")).graph);

  QuartzRingParams ring;
  ring.switches = 8;
  ring.hosts_per_switch = 2;
  const SurvivalOutcome survived = try_survive_fiber_cuts(quartz_ring(ring), {{0, 1}, {0, 5}});
  ASSERT_GT(survived.severed, 0u);
  expect_adjacency_matches_links(survived.degraded.graph);
}

TEST(Graph, NeighborsSeeLinksAddedAfterARead) {
  Graph g = two_hosts_one_switch();
  const NodeId sw = g.switches()[0];
  ASSERT_EQ(g.neighbors(sw).size(), 2u);

  const NodeId h2 = g.add_host("h2", 0);
  EXPECT_TRUE(g.neighbors(h2).empty());
  const LinkId l = g.add_link(sw, h2, gigabits_per_second(10), nanoseconds(25));
  ASSERT_EQ(g.neighbors(sw).size(), 3u);
  EXPECT_EQ(g.neighbors(sw).back().link, l);
  EXPECT_EQ(g.neighbors(sw).back().peer, h2);
  EXPECT_EQ(g.degree(h2), 1u);

  const auto base = static_cast<NodeId>(g.node_count());
  const std::vector<int> model_map = {0, g.add_model(SwitchModel::ccs())};
  g.splice(splice_child(), model_map, 1, 0);
  EXPECT_EQ(g.degree(base), 3u);  // the child's s0
  g.add_link(sw, base, gigabits_per_second(40), 0);
  EXPECT_EQ(g.degree(base), 4u);
  EXPECT_EQ(g.neighbors(sw).back().peer, base);
  expect_adjacency_matches_links(g);
}

TEST(Graph, CopiesAndMovesKeepTheirOwnAdjacency) {
  Graph g = splice_child();
  ASSERT_EQ(g.degree(0), 3u);  // builds g's index

  Graph copy = g;
  copy.add_link(1, 2, gigabits_per_second(10), 0);
  EXPECT_EQ(copy.degree(1), 3u);
  EXPECT_EQ(g.degree(1), 2u);  // the original is untouched

  Graph moved = std::move(copy);
  EXPECT_EQ(moved.degree(1), 3u);
  expect_adjacency_matches_links(moved);

  Graph assigned = two_hosts_one_switch();
  ASSERT_EQ(assigned.degree(0), 2u);
  assigned = g;
  EXPECT_EQ(assigned.degree(0), 3u);
  expect_adjacency_matches_links(assigned);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.degree(1), 3u);
}

TEST(Graph, ConcurrentFirstReadersSeeOneIndex) {
  // build_composite validates its graph but never reads adjacency, so
  // the four threads, released together, race to build the index.
  const BuiltTopology t = build_composite(*CompositeSpec::parse("ring-of-rings:16x16x16"));
  const Graph& g = t.graph;
  constexpr int kThreads = 4;
  std::atomic<int> waiting{kThreads};
  std::vector<std::size_t> degree_sums(kThreads, 0);
  std::vector<std::uint64_t> link_sums(kThreads, 0);
  std::vector<std::thread> readers;
  for (int r = 0; r < kThreads; ++r) {
    readers.emplace_back([&g, &waiting, &degree_sums, &link_sums, r] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      const std::size_t n = g.node_count();
      for (std::size_t k = 0; k < n; ++k) {
        // Each reader starts at a different node.
        const auto v = static_cast<NodeId>((k + static_cast<std::size_t>(r) * n / kThreads) % n);
        degree_sums[static_cast<std::size_t>(r)] += g.degree(v);
        for (const Adjacency& adj : g.neighbors(v)) {
          link_sums[static_cast<std::size_t>(r)] += static_cast<std::uint64_t>(adj.link);
        }
      }
    });
  }
  for (auto& reader : readers) reader.join();
  // Every link id appears twice, once at each end.
  const std::uint64_t links = g.link_count();
  for (int r = 0; r < kThreads; ++r) {
    EXPECT_EQ(degree_sums[static_cast<std::size_t>(r)], 2 * links);
    EXPECT_EQ(link_sums[static_cast<std::size_t>(r)], links * (links - 1));
  }
  expect_adjacency_matches_links(g);
}

TEST(Graph, QuartzMeshFromPlanMatchesPlainOverload) {
  const auto ring_graph = [](Graph& g) {
    const int model = g.add_model(SwitchModel::ull());
    std::vector<NodeId> ring;
    for (int s = 0; s < 9; ++s) ring.push_back(g.add_switch(model, "q" + std::to_string(s)));
    return ring;
  };
  // Two channels per mux forces the plan across several physical rings.
  Graph plain;
  const auto plain_ring = ring_graph(plain);
  const int plain_rings = add_quartz_mesh(plain, plain_ring, gigabits_per_second(10),
                                          nanoseconds(250), /*channels_per_mux=*/2,
                                          /*phys_ring_base=*/3);
  Graph planned;
  const auto planned_ring = ring_graph(planned);
  const int planned_rings =
      add_quartz_mesh(planned, planned_ring, wavelength::greedy_assign(9),
                      gigabits_per_second(10), nanoseconds(250), 2, 3);

  EXPECT_GT(plain_rings, 1);
  EXPECT_EQ(planned_rings, plain_rings);
  ASSERT_EQ(planned.link_count(), plain.link_count());
  EXPECT_EQ(plain.link_count(), 9u * 8u / 2u);
  for (const LinkId id : plain.link_ids()) {
    EXPECT_EQ(fields(planned, id), fields(plain, id));
  }
}

TEST(Graph, QuartzMeshRejectsPlanForAnotherRingSize) {
  Graph g;
  const int model = g.add_model(SwitchModel::ull());
  std::vector<NodeId> ring;
  for (int s = 0; s < 6; ++s) ring.push_back(g.add_switch(model, "q" + std::to_string(s)));
  EXPECT_THROW(add_quartz_mesh(g, ring, wavelength::greedy_assign(5), gigabits_per_second(10),
                               0, 80),
               std::invalid_argument);
  EXPECT_EQ(g.link_count(), 0u);
}

TEST(SwitchModels, Table16Specs) {
  const SwitchModel ull = SwitchModel::ull();
  EXPECT_EQ(ull.latency, nanoseconds(380));
  EXPECT_TRUE(ull.cut_through);
  EXPECT_EQ(ull.port_count, 64);

  const SwitchModel ccs = SwitchModel::ccs();
  EXPECT_EQ(ccs.latency, microseconds(6));
  EXPECT_FALSE(ccs.cut_through);
  EXPECT_EQ(ccs.port_count, 768);
}

}  // namespace
}  // namespace quartz::topo
