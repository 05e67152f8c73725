#include "routing/oracle.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "routing/fib.hpp"
#include "topo/builders.hpp"
#include "topo/composite.hpp"

namespace quartz::routing {
namespace {

using topo::LinkId;
using topo::NodeId;

struct MeshFixture {
  topo::BuiltTopology topo;
  std::unique_ptr<EcmpRouting> routing;

  explicit MeshFixture(int switches = 6, int hosts = 2) {
    topo::QuartzRingParams p;
    p.switches = switches;
    p.hosts_per_switch = hosts;
    topo = topo::quartz_ring(p);
    routing = std::make_unique<EcmpRouting>(topo.graph);
  }
};

/// Walk a packet from src to dst using the oracle; returns the switch
/// sequence visited.
std::vector<NodeId> walk(const topo::Graph& graph, const RoutingOracle& oracle, NodeId src,
                         NodeId dst, std::uint64_t flow_hash) {
  FlowKey key;
  key.src = src;
  key.dst = dst;
  key.flow_hash = mix_hash(flow_hash);
  std::vector<NodeId> visited;
  NodeId at = src;
  for (int hop = 0; hop < 32 && at != dst; ++hop) {
    const LinkId link = oracle.next_link(at, key);
    at = graph.link(link).other(at);
    if (graph.is_switch(at)) visited.push_back(at);
  }
  EXPECT_EQ(at, dst) << "packet did not reach its destination";
  return visited;
}

TEST(EcmpOracle, MeshAlwaysDirect) {
  const MeshFixture f;
  const EcmpOracle oracle(*f.routing);
  for (std::uint64_t flow = 0; flow < 32; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[4][1], flow);
    EXPECT_EQ(path.size(), 2u);  // ingress ToR + egress ToR only
  }
}

TEST(VlbOracle, FractionZeroIsDirect) {
  const MeshFixture f;
  const VlbOracle oracle(*f.routing, f.topo.quartz_rings, 0.0);
  for (std::uint64_t flow = 0; flow < 32; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow);
    EXPECT_EQ(path.size(), 2u);
  }
}

TEST(VlbOracle, FractionOneAlwaysDetours) {
  const MeshFixture f;
  const VlbOracle oracle(*f.routing, f.topo.quartz_rings, 1.0);
  for (std::uint64_t flow = 0; flow < 32; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow);
    ASSERT_EQ(path.size(), 3u);  // ingress, intermediate, egress
    EXPECT_NE(path[1], f.topo.tors[0]);
    EXPECT_NE(path[1], f.topo.tors[3]);
  }
}

TEST(VlbOracle, FractionSplitsApproximately) {
  const MeshFixture f(8, 2);
  const double fraction = 0.5;
  const VlbOracle oracle(*f.routing, f.topo.quartz_rings, fraction);
  int detoured = 0;
  const int flows = 2000;
  for (std::uint64_t flow = 0; flow < static_cast<std::uint64_t>(flows); ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[5][1], flow);
    if (path.size() == 3u) ++detoured;
  }
  EXPECT_NEAR(static_cast<double>(detoured) / flows, fraction, 0.05);
}

TEST(VlbOracle, DetourSpreadsOverIntermediates) {
  const MeshFixture f(8, 2);
  const VlbOracle oracle(*f.routing, f.topo.quartz_rings, 1.0);
  std::map<NodeId, int> intermediate_counts;
  for (std::uint64_t flow = 0; flow < 3000; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[4][0], flow);
    ASSERT_EQ(path.size(), 3u);
    ++intermediate_counts[path[1]];
  }
  // 6 eligible intermediates; each should carry a meaningful share.
  EXPECT_EQ(intermediate_counts.size(), 6u);
  for (const auto& [node, count] : intermediate_counts) {
    EXPECT_GT(count, 3000 / 6 / 3) << "intermediate " << node << " underused";
  }
}

TEST(VlbOracle, SamePairSameFlowIsStable) {
  const MeshFixture f;
  const VlbOracle oracle(*f.routing, f.topo.quartz_rings, 0.5);
  const auto first =
      walk(f.topo.graph, oracle, f.topo.host_groups[1][0], f.topo.host_groups[5][0], 77);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(walk(f.topo.graph, oracle, f.topo.host_groups[1][0], f.topo.host_groups[5][0], 77),
              first);
  }
}

TEST(VlbOracle, IntraSwitchTrafficUnaffected) {
  const MeshFixture f;
  const VlbOracle oracle(*f.routing, f.topo.quartz_rings, 1.0);
  const auto path =
      walk(f.topo.graph, oracle, f.topo.host_groups[2][0], f.topo.host_groups[2][1], 5);
  EXPECT_EQ(path.size(), 1u);  // just the shared ToR
}

TEST(VlbOracle, RejectsBadFraction) {
  const MeshFixture f;
  EXPECT_THROW(VlbOracle(*f.routing, f.topo.quartz_rings, -0.1), std::invalid_argument);
  EXPECT_THROW(VlbOracle(*f.routing, f.topo.quartz_rings, 1.5), std::invalid_argument);
}

TEST(PinnedDetourOracle, PinnedPairTakesDetour) {
  const MeshFixture f(4, 2);
  PinnedDetourOracle oracle(*f.routing, f.topo.quartz_rings);
  const NodeId src = f.topo.host_groups[1][0];
  const NodeId dst = f.topo.host_groups[2][0];
  oracle.pin(src, dst, f.topo.tors[3]);

  const auto pinned_path = walk(f.topo.graph, oracle, src, dst, 9);
  ASSERT_EQ(pinned_path.size(), 3u);
  EXPECT_EQ(pinned_path[1], f.topo.tors[3]);

  // The reverse direction is not pinned.
  const auto reverse_path = walk(f.topo.graph, oracle, dst, src, 9);
  EXPECT_EQ(reverse_path.size(), 2u);

  // Other pairs are plain ECMP.
  const auto other =
      walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[2][1], 9);
  EXPECT_EQ(other.size(), 2u);
}

TEST(PinnedDetourOracle, PinRejectsNonRingIntermediate) {
  const MeshFixture f(4, 2);
  PinnedDetourOracle oracle(*f.routing, f.topo.quartz_rings);
  EXPECT_THROW(oracle.pin(f.topo.hosts[0], f.topo.hosts[1], f.topo.hosts[2]),
               std::invalid_argument);
}

TEST(AdaptiveVlbOracle, WithoutProbeIsPureEcmp) {
  const MeshFixture f(6, 2);
  AdaptiveVlbOracle oracle(*f.routing, f.topo.quartz_rings);
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow);
    EXPECT_EQ(path.size(), 2u);
  }
}

TEST(AdaptiveVlbOracle, DetoursWhenProbeReportsCongestion) {
  const MeshFixture f(6, 2);
  // A fake probe that reports one specific link as congested.
  class FakeProbe : public LoadProbe {
   public:
    explicit FakeProbe(topo::LinkId hot) : hot_(hot) {}
    TimePs queue_delay(topo::LinkId link, int) const override {
      return link == hot_ ? milliseconds(1) : 0;
    }

   private:
    topo::LinkId hot_;
  };
  // Find the direct lightpath between tors[0] and tors[3].
  topo::LinkId direct = topo::kInvalidLink;
  for (const topo::LinkId id : f.topo.graph.link_ids()) {
    const topo::Link& link = f.topo.graph.link(id);
    if ((link.a == f.topo.tors[0] && link.b == f.topo.tors[3]) ||
        (link.a == f.topo.tors[3] && link.b == f.topo.tors[0])) {
      direct = id;
    }
  }
  ASSERT_NE(direct, topo::kInvalidLink);
  const FakeProbe probe(direct);

  AdaptiveVlbOracle oracle(*f.routing, f.topo.quartz_rings, microseconds(1));
  oracle.attach_probe(&probe);
  const auto path =
      walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], 3);
  ASSERT_EQ(path.size(), 3u);  // detoured around the hot lightpath
  EXPECT_NE(path[1], f.topo.tors[0]);
  EXPECT_NE(path[1], f.topo.tors[3]);
}

TEST(AdaptiveVlbOracle, StaysDirectWhenEverythingIsHot) {
  const MeshFixture f(5, 2);
  class AllHotProbe : public LoadProbe {
   public:
    TimePs queue_delay(topo::LinkId, int) const override { return milliseconds(1); }
  };
  const AllHotProbe probe;
  AdaptiveVlbOracle oracle(*f.routing, f.topo.quartz_rings, microseconds(1));
  oracle.attach_probe(&probe);
  // No intermediate beats the direct path, so take it.
  const auto path =
      walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[2][0], 1);
  EXPECT_EQ(path.size(), 2u);
}

/// Direct mesh link between two switches.
LinkId direct_link(const topo::BuiltTopology& t, NodeId a, NodeId b) {
  for (const auto& adj : t.graph.neighbors(a)) {
    if (adj.peer == b) return adj.link;
  }
  return topo::kInvalidLink;
}

TEST(FailureView, TracksDeadLinksAndReadsUnknownAsAlive) {
  FailureView view(4);
  EXPECT_FALSE(view.is_dead(2));
  EXPECT_FALSE(view.is_dead(99));  // out of range degrades to alive
  view.set_dead(2, true);
  EXPECT_TRUE(view.is_dead(2));
  EXPECT_EQ(view.dead_count(), 1u);
  view.set_dead(2, false);
  EXPECT_FALSE(view.is_dead(2));
  EXPECT_EQ(view.dead_count(), 0u);
}

TEST(EcmpOracle, DetoursAroundDetectedDeadLightpath) {
  const MeshFixture f(6, 2);
  EcmpOracle oracle(*f.routing);
  FailureView view(f.topo.graph.link_count());
  oracle.attach_failure_view(&view);
  const NodeId src = f.topo.host_groups[0][0];
  const NodeId dst = f.topo.host_groups[3][0];
  const LinkId direct = direct_link(f.topo, f.topo.tors[0], f.topo.tors[3]);
  ASSERT_NE(direct, topo::kInvalidLink);

  EXPECT_EQ(walk(f.topo.graph, oracle, src, dst, 7).size(), 2u);
  view.set_dead(direct, true);
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    const auto path = walk(f.topo.graph, oracle, src, dst, flow);
    ASSERT_EQ(path.size(), 3u);  // deflected one switch around the cut
    EXPECT_NE(path[1], f.topo.tors[0]);
    EXPECT_NE(path[1], f.topo.tors[3]);
  }
  view.set_dead(direct, false);
  EXPECT_EQ(walk(f.topo.graph, oracle, src, dst, 7).size(), 2u);
}

TEST(VlbOracle, HealsDeadDirectPathOverTwoHopDetour) {
  const MeshFixture f(6, 2);
  VlbOracle oracle(*f.routing, f.topo.quartz_rings, 0.0);
  FailureView view(f.topo.graph.link_count());
  oracle.attach_failure_view(&view);
  const LinkId direct = direct_link(f.topo, f.topo.tors[1], f.topo.tors[4]);
  view.set_dead(direct, true);
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[1][0], f.topo.host_groups[4][0], flow);
    ASSERT_EQ(path.size(), 3u);
    // Both detour legs avoid the dead lightpath by construction.
    EXPECT_NE(direct_link(f.topo, path[0], path[1]), direct);
    EXPECT_NE(direct_link(f.topo, path[1], path[2]), direct);
  }
}

TEST(VlbOracle, DetourIntermediatesExcludeDeadLegs) {
  // With fraction 1 every flow detours; intermediates whose legs are
  // dead must never be chosen.
  const MeshFixture f(6, 2);
  VlbOracle oracle(*f.routing, f.topo.quartz_rings, 1.0);
  FailureView view(f.topo.graph.link_count());
  oracle.attach_failure_view(&view);
  const NodeId banned = f.topo.tors[2];
  view.set_dead(direct_link(f.topo, f.topo.tors[0], banned), true);
  for (std::uint64_t flow = 0; flow < 64; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow);
    ASSERT_EQ(path.size(), 3u);
    EXPECT_NE(path[1], banned) << "detoured through a dead first leg";
  }
}

TEST(AdaptiveVlbOracle, RoutesAroundDeadLightpathWithoutProbe) {
  const MeshFixture f(6, 2);
  AdaptiveVlbOracle oracle(*f.routing, f.topo.quartz_rings);
  FailureView view(f.topo.graph.link_count());
  oracle.attach_failure_view(&view);
  view.set_dead(direct_link(f.topo, f.topo.tors[0], f.topo.tors[3]), true);
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow);
    ASSERT_EQ(path.size(), 3u);
    EXPECT_NE(path[1], f.topo.tors[0]);
    EXPECT_NE(path[1], f.topo.tors[3]);
  }
}

/// Loss estimates handed to the oracles by tests (stands in for the
/// HealthMonitor).
struct FakeLossView final : LossView {
  std::map<LinkId, double> loss;
  double loss_rate(LinkId link) const override {
    const auto it = loss.find(link);
    return it == loss.end() ? 0.0 : it->second;
  }
};

TEST(EcmpOracle, AllZeroLossViewChangesNothing) {
  const MeshFixture f(6, 2);
  EcmpOracle plain(*f.routing);
  EcmpOracle attached(*f.routing);
  FakeLossView losses;  // empty: every link reads 0.0
  attached.attach_loss_view(&losses);
  for (std::uint64_t flow = 0; flow < 32; ++flow) {
    EXPECT_EQ(walk(f.topo.graph, plain, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow),
              walk(f.topo.graph, attached, f.topo.host_groups[0][0], f.topo.host_groups[3][0],
                   flow));
  }
}

TEST(EcmpOracle, DeflectsAroundLossyLightpath) {
  const MeshFixture f(6, 2);
  EcmpOracle oracle(*f.routing);
  FakeLossView losses;
  oracle.attach_loss_view(&losses);
  const NodeId src = f.topo.host_groups[0][0];
  const NodeId dst = f.topo.host_groups[3][0];
  const LinkId direct = direct_link(f.topo, f.topo.tors[0], f.topo.tors[3]);

  // A 30% gray failure on the direct lightpath: clean two-hop detours
  // beat it, so every flow deflects.
  losses.loss[direct] = 0.3;
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    const auto path = walk(f.topo.graph, oracle, src, dst, flow);
    ASSERT_EQ(path.size(), 3u);
    EXPECT_NE(path[1], f.topo.tors[0]);
    EXPECT_NE(path[1], f.topo.tors[3]);
  }
  // Healed: straight back to the direct lightpath.
  losses.loss.clear();
  EXPECT_EQ(walk(f.topo.graph, oracle, src, dst, 7).size(), 2u);
}

TEST(EcmpOracle, TracksTheSoftFailThreshold) {
  const MeshFixture f(6, 2);
  EcmpOracle oracle(*f.routing);
  FakeLossView losses;
  oracle.attach_loss_view(&losses);
  const NodeId src = f.topo.host_groups[0][0];
  const NodeId dst = f.topo.host_groups[3][0];
  losses.loss[direct_link(f.topo, f.topo.tors[0], f.topo.tors[3])] = 0.01;

  // 1% loss sits below the default 2% soft-fail threshold: stay direct.
  EXPECT_EQ(walk(f.topo.graph, oracle, src, dst, 7).size(), 2u);
  // Tighten the threshold and the same loss becomes a soft failure.
  oracle.set_soft_fail_threshold(0.001);
  EXPECT_EQ(walk(f.topo.graph, oracle, src, dst, 7).size(), 3u);
  EXPECT_THROW(oracle.set_soft_fail_threshold(-0.1), std::invalid_argument);
}

TEST(EcmpOracle, StaysDirectWhenEveryDetourIsWorse) {
  const MeshFixture f(6, 2);
  EcmpOracle oracle(*f.routing);
  FakeLossView losses;
  oracle.attach_loss_view(&losses);
  const NodeId src = f.topo.host_groups[0][0];
  const NodeId dst = f.topo.host_groups[3][0];
  // The direct lightpath is gray (30%), but every other lightpath of
  // the mesh is worse (25% per leg = ~44% per two-hop detour).
  for (const topo::LinkId id : f.topo.graph.link_ids()) losses.loss[id] = 0.25;
  losses.loss[direct_link(f.topo, f.topo.tors[0], f.topo.tors[3])] = 0.3;
  EXPECT_EQ(walk(f.topo.graph, oracle, src, dst, 7).size(), 2u);
}

TEST(AdaptiveVlbOracle, HealsLossyDirectPathOverTwoHopDetour) {
  const MeshFixture f(6, 2);
  AdaptiveVlbOracle oracle(*f.routing, f.topo.quartz_rings);
  FakeLossView losses;
  oracle.attach_loss_view(&losses);
  const LinkId direct = direct_link(f.topo, f.topo.tors[0], f.topo.tors[3]);
  losses.loss[direct] = 0.5;
  for (std::uint64_t flow = 0; flow < 16; ++flow) {
    const auto path =
        walk(f.topo.graph, oracle, f.topo.host_groups[0][0], f.topo.host_groups[3][0], flow);
    ASSERT_EQ(path.size(), 3u);
    EXPECT_NE(direct_link(f.topo, path[0], path[1]), direct);
    EXPECT_NE(direct_link(f.topo, path[1], path[2]), direct);
  }
}

TEST(SpanningTreeOracle, RoutesAlongTree) {
  topo::TwoTierParams p;
  p.tors = 4;
  p.hosts_per_tor = 2;
  const auto t = topo::two_tier_tree(p);
  const SpanningTreeOracle oracle(t.graph, t.aggs[0]);
  const auto path = walk(t.graph, oracle, t.host_groups[0][0], t.host_groups[3][1], 1);
  // ToR up, agg, ToR down.
  EXPECT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], t.aggs[0]);
}

TEST(SpanningTreeOracle, MeshUsesOnlyTreeLinks) {
  // §3.4: Ethernet's single spanning tree wastes the mesh - every
  // cross-switch path detours through the root.
  const MeshFixture f(5, 2);
  const SpanningTreeOracle oracle(f.topo.graph, f.topo.tors[0]);
  const auto path =
      walk(f.topo.graph, oracle, f.topo.host_groups[1][0], f.topo.host_groups[2][0], 3);
  // Root is tors[0]; path 1 -> 0 -> 2 (two mesh links via root).
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], f.topo.tors[0]);
}

TEST(SpanningTreeOracle, SameSwitchShortCircuit) {
  const MeshFixture f(4, 2);
  const SpanningTreeOracle oracle(f.topo.graph, f.topo.tors[0]);
  const auto path =
      walk(f.topo.graph, oracle, f.topo.host_groups[1][0], f.topo.host_groups[1][1], 3);
  EXPECT_EQ(path.size(), 1u);
}

// --- equivalence with the vector-based pickers -----------------------------
//
// The oracles pick among alive equal-cost links, deflection peers,
// healing detours and VLB intermediates by counting the candidates
// first and then walking to the hashed index.  The reference oracles
// below keep the original pickers, which appended every candidate to a
// vector (clearing it whenever a strictly better candidate appeared)
// and indexed that vector.  Both must make the same decision — link,
// via and vlb_done — at every hop.

LinkId ref_select_alive(std::span<const LinkId> links, const FailureView* view,
                        std::uint64_t flow_hash, std::uint64_t salt, bool* any_alive) {
  if (view != nullptr) {
    std::vector<LinkId> alive;
    for (const LinkId l : links) {
      if (!view->is_dead(l)) alive.push_back(l);
    }
    if (!alive.empty()) {
      if (any_alive != nullptr) *any_alive = true;
      return alive[hash_select(flow_hash, salt, alive.size())];
    }
    if (any_alive != nullptr) *any_alive = false;
  } else if (any_alive != nullptr) {
    *any_alive = true;
  }
  return links[hash_select(flow_hash, salt, links.size())];
}

class RefEcmpOracle final : public EcmpOracle {
 public:
  explicit RefEcmpOracle(const EcmpRouting& routing) : EcmpOracle(routing), routing_(&routing) {}

  /// Picks made among two or more tied candidates.
  mutable int tied_picks = 0;

  LinkId next_link(NodeId node, FlowKey& key) const override {
    if (key.via == node) key.via = topo::kInvalidNode;
    const auto links = routing_->next_links(node, key.dst);
    bool any_alive = true;
    const LinkId chosen = ref_select_alive(links, failure_view(), key.flow_hash,
                                           static_cast<std::uint64_t>(node), &any_alive);
    const double direct_loss = any_alive ? loss_of(chosen) : 1.0;
    if (direct_loss <= soft_fail_threshold()) return chosen;

    const topo::Graph& graph = routing_->graph();
    const int here = routing_->distance(node, key.dst);
    std::vector<std::pair<NodeId, LinkId>> candidates;
    int best = -1;
    double best_loss = direct_loss;
    for (const auto& adj : graph.neighbors(node)) {
      if (link_dead(adj.link) || !graph.is_switch(adj.peer)) continue;
      const int d = routing_->distance(adj.peer, key.dst);
      if (d < 0 || (here >= 0 && d > here)) continue;
      double exit_loss = 1.0;
      for (const LinkId l : routing_->next_links(adj.peer, key.dst)) {
        if (link_dead(l)) continue;
        exit_loss = std::min(exit_loss, loss_of(l));
      }
      if (exit_loss >= 1.0) continue;
      const double combined = 1.0 - (1.0 - loss_of(adj.link)) * (1.0 - exit_loss);
      if (combined >= direct_loss) continue;
      if (best >= 0 && d > best) continue;
      if (best < 0 || d < best || combined < best_loss - 1e-12) {
        best = d;
        best_loss = combined;
        candidates.clear();
      }
      if (combined <= best_loss + 1e-12) candidates.emplace_back(adj.peer, adj.link);
    }
    if (candidates.empty()) return chosen;
    if (candidates.size() > 1) ++tied_picks;
    const auto& pick = candidates[hash_select(key.flow_hash, 0x4445544Full, candidates.size())];
    key.via = pick.first;
    return pick.second;
  }

 private:
  double loss_of(LinkId link) const { return link_dead(link) ? 1.0 : link_loss(link); }

  const EcmpRouting* routing_;
};

/// The ECMP choice and the healing detour of the mesh-aware oracles,
/// as they were.
template <typename Base>
class RefMeshPickers : public Base {
 public:
  using Base::Base;

  mutable int tied_picks = 0;

 protected:
  LinkId ref_ecmp_choice(NodeId node, const FlowKey& key) const {
    return ref_select_alive(this->routing().next_links(node, key.dst), this->failure_view(),
                            key.flow_hash, static_cast<std::uint64_t>(node), nullptr);
  }

  LinkId ref_heal_choice(NodeId node, FlowKey& key, LinkId chosen) const {
    const bool direct_dead = this->link_dead(chosen);
    const double direct_loss = direct_dead ? 1.0 : this->link_loss(chosen);
    if (!direct_dead && direct_loss <= this->soft_fail_threshold()) return chosen;
    const int r = this->ring_of(node);
    if (r < 0) return chosen;
    const NodeId exit = this->routing().graph().link(chosen).other(node);
    if (this->ring_of(exit) != r) return chosen;
    std::vector<std::pair<NodeId, LinkId>> alive;
    double best_loss = direct_loss;
    for (const NodeId w : this->ring(r)) {
      if (w == node || w == exit) continue;
      const LinkId leg1 = this->mesh_link(node, w);
      const LinkId leg2 = this->mesh_link(w, exit);
      if (leg1 == topo::kInvalidLink || leg2 == topo::kInvalidLink) continue;
      if (this->link_dead(leg1) || this->link_dead(leg2)) continue;
      const double combined =
          1.0 - (1.0 - this->link_loss(leg1)) * (1.0 - this->link_loss(leg2));
      if (combined >= direct_loss) continue;
      if (alive.empty() || combined < best_loss - 1e-12) {
        best_loss = combined;
        alive.clear();
      }
      if (combined <= best_loss + 1e-12) alive.emplace_back(w, leg1);
    }
    if (alive.empty()) return chosen;
    if (alive.size() > 1) ++tied_picks;
    const auto& pick = alive[hash_select(key.flow_hash, 0x4845414Cull, alive.size())];
    key.via = pick.first;
    key.vlb_done = true;
    return pick.second;
  }
};

class RefVlbOracle final : public RefMeshPickers<VlbOracle> {
 public:
  using RefMeshPickers::RefMeshPickers;

  LinkId next_link(NodeId node, FlowKey& key) const override {
    if (const LinkId via_link = follow_via(node, key); via_link != topo::kInvalidLink) {
      return via_link;
    }
    const LinkId chosen = ref_ecmp_choice(node, key);
    if (!key.vlb_done) {
      const int r = ring_of(node);
      if (r >= 0) {
        const NodeId next_hop = routing().graph().link(chosen).other(node);
        if (ring_of(next_hop) == r) {
          key.vlb_done = true;
          const auto& members = ring(r);
          if (members.size() > 2 && flow_uniform(key.flow_hash) < fraction()) {
            std::vector<NodeId> candidates;
            for (const NodeId w : members) {
              if (w == node || w == next_hop) continue;
              const LinkId leg1 = mesh_link(node, w);
              QUARTZ_CHECK(leg1 != topo::kInvalidLink, "ring is not fully meshed");
              const LinkId leg2 = mesh_link(w, next_hop);
              if (link_dead(leg1) || (leg2 != topo::kInvalidLink && link_dead(leg2))) continue;
              candidates.push_back(w);
            }
            if (!candidates.empty()) {
              const NodeId via =
                  candidates[hash_select(key.flow_hash, 0x564C4232ull, candidates.size())];
              key.via = via;
              return mesh_link(node, via);
            }
          }
        }
      }
    }
    return ref_heal_choice(node, key, chosen);
  }
};

class RefPinnedDetourOracle final : public RefMeshPickers<PinnedDetourOracle> {
 public:
  using RefMeshPickers::RefMeshPickers;

  /// Pins here and in the reference's own table (the base's is private).
  void pin_pair(NodeId src, NodeId dst, NodeId via) {
    pin(src, dst, via);
    pins_[(static_cast<std::uint64_t>(src) << 32) | static_cast<std::uint32_t>(dst)] = via;
  }

  LinkId next_link(NodeId node, FlowKey& key) const override {
    if (const LinkId via_link = follow_via(node, key); via_link != topo::kInvalidLink) {
      return via_link;
    }
    if (!key.vlb_done) {
      const auto it =
          pins_.find((static_cast<std::uint64_t>(key.src) << 32) | static_cast<std::uint32_t>(key.dst));
      if (it != pins_.end()) {
        const NodeId via = it->second;
        if (node != via && ring_of(node) >= 0 && ring_of(node) == ring_of(via) &&
            mesh_link(node, via) != topo::kInvalidLink && !link_dead(mesh_link(node, via))) {
          key.vlb_done = true;
          key.via = via;
          return mesh_link(node, via);
        }
        if (node == via) key.vlb_done = true;
      }
    }
    return ref_heal_choice(node, key, ref_ecmp_choice(node, key));
  }

 private:
  std::unordered_map<std::uint64_t, NodeId> pins_;
};

/// AdaptiveVlbOracle without a probe: soft-failed choices heal, the
/// rest is plain ECMP.
class RefAdaptiveVlbOracle final : public RefMeshPickers<AdaptiveVlbOracle> {
 public:
  using RefMeshPickers::RefMeshPickers;

  LinkId next_link(NodeId node, FlowKey& key) const override {
    if (const LinkId via_link = follow_via(node, key); via_link != topo::kInvalidLink) {
      return via_link;
    }
    const LinkId chosen = ref_ecmp_choice(node, key);
    if (link_soft_failed(chosen)) return ref_heal_choice(node, key, chosen);
    return chosen;
  }
};

/// Per-link loss estimates in a flat array.
class TableLossView final : public LossView {
 public:
  explicit TableLossView(std::size_t links) : loss_(links, 0.0) {}
  void set(LinkId link, double p) {
    loss_[static_cast<std::size_t>(link)] = p;
    bump_epoch();
  }
  void clear() {
    std::fill(loss_.begin(), loss_.end(), 0.0);
    bump_epoch();
  }
  double loss_rate(LinkId link) const override { return loss_[static_cast<std::size_t>(link)]; }

 private:
  std::vector<double> loss_;
};

/// Loss levels drawn for gray links: repeats make exact ties, the
/// ±5e-13 and +2e-12 neighbours sit just inside and just outside the
/// pickers' 1e-12 tie window, and the 0.2 steps of 7e-13 chain two
/// near-ties so that a later candidate resets a run an earlier one
/// still ties with.
constexpr double kLossLevels[] = {0.01,        0.05,        0.1,  0.1 + 5e-13, 0.1 - 5e-13,
                                  0.1 + 2e-12, 0.2,         0.2 - 7e-13, 0.2 - 1.4e-12,
                                  0.3,         0.3,         0.3 + 5e-13, 0.6};

/// Redraw the dead and lossy link sets: switch-to-switch links die more
/// often than host ports, which die too (the last-hop deflection).
void draw_failures(const topo::Graph& graph, Rng& rng, FailureView& view, TableLossView& loss) {
  loss.clear();
  for (const topo::LinkId id : graph.link_ids()) {
    const topo::Link& link = graph.link(id);
    const bool mesh = graph.is_switch(link.a) && graph.is_switch(link.b);
    view.set_dead(id, rng.next_below(100) < (mesh ? 15u : 3u));
    if (rng.next_below(100) < (mesh ? 40u : 10u)) {
      loss.set(id, kLossLevels[rng.next_below(std::size(kLossLevels))]);
    }
  }
}

struct Decisions {
  int total = 0;
  int detours = 0;  ///< decisions that set a via
};

/// Walk one packet through the oracle, its reference and a FIB over the
/// oracle in lockstep, asserting equal decisions at every hop.
void walk_lockstep(const topo::Graph& graph, const RoutingOracle& oracle,
                   const RoutingOracle& reference, Fib& fib, NodeId src, NodeId dst,
                   std::uint64_t flow_hash, Decisions& decisions) {
  FlowKey key;
  key.src = src;
  key.dst = dst;
  key.flow_hash = flow_hash;
  FlowKey ref_key = key;
  FlowKey fib_key = key;
  NodeId at = src;
  for (int hop = 0; hop < 32 && at != dst; ++hop) {
    const NodeId via_before = key.via;
    const LinkId link = oracle.next_link(at, key);
    const LinkId ref_link = reference.next_link(at, ref_key);
    const LinkId fib_link = fib.next_link(at, fib_key);
    ASSERT_EQ(link, ref_link) << "node " << at << " dst " << dst << " hop " << hop;
    ASSERT_EQ(key.via, ref_key.via) << "node " << at << " dst " << dst << " hop " << hop;
    ASSERT_EQ(key.vlb_done, ref_key.vlb_done) << "node " << at << " hop " << hop;
    ASSERT_EQ(fib_link, link) << "FIB disagrees at node " << at << " hop " << hop;
    ASSERT_EQ(fib_key.via, key.via);
    ASSERT_EQ(fib_key.vlb_done, key.vlb_done);
    ++decisions.total;
    if (key.via != topo::kInvalidNode && key.via != via_before) ++decisions.detours;
    at = graph.link(link).other(at);
  }
}

/// Drive all four oracles against their references over `scenarios`
/// random failure draws of `flows` packets each.
void check_pickers_match(const topo::BuiltTopology& topo, std::uint64_t seed, int scenarios,
                         int flows) {
  const topo::Graph& graph = topo.graph;
  const EcmpRouting routing(graph);
  FailureView view(graph.link_count());
  TableLossView loss(graph.link_count());

  EcmpOracle ecmp(routing);
  RefEcmpOracle ref_ecmp(routing);
  VlbOracle vlb(routing, topo.quartz_rings, 0.5);
  RefVlbOracle ref_vlb(routing, topo.quartz_rings, 0.5);
  PinnedDetourOracle pinned(routing, topo.quartz_rings);
  RefPinnedDetourOracle ref_pinned(routing, topo.quartz_rings);
  AdaptiveVlbOracle adaptive(routing, topo.quartz_rings);
  RefAdaptiveVlbOracle ref_adaptive(routing, topo.quartz_rings);

  Rng rng(seed);
  const auto& hosts = topo.hosts;
  for (int p = 0; p < 16; ++p) {
    const NodeId src = hosts[rng.next_below(hosts.size())];
    const NodeId dst = hosts[rng.next_below(hosts.size())];
    const auto& ring = topo.quartz_rings[rng.next_below(topo.quartz_rings.size())];
    const NodeId via = ring[rng.next_below(ring.size())];
    pinned.pin(src, dst, via);
    ref_pinned.pin_pair(src, dst, via);
  }

  struct Pair {
    const char* name;
    RoutingOracle* oracle;
    RoutingOracle* reference;
    std::unique_ptr<Fib> fib;
    Decisions decisions;
  };
  std::vector<Pair> pairs;
  pairs.push_back({"ecmp", &ecmp, &ref_ecmp, nullptr, {}});
  pairs.push_back({"vlb", &vlb, &ref_vlb, nullptr, {}});
  pairs.push_back({"pinned", &pinned, &ref_pinned, nullptr, {}});
  pairs.push_back({"adaptive", &adaptive, &ref_adaptive, nullptr, {}});
  for (Pair& pair : pairs) {
    pair.oracle->attach_failure_view(&view);
    pair.oracle->attach_loss_view(&loss);
    pair.reference->attach_failure_view(&view);
    pair.reference->attach_loss_view(&loss);
    pair.fib = std::make_unique<Fib>(routing, *pair.oracle);
  }

  for (int scenario = 0; scenario < scenarios; ++scenario) {
    draw_failures(graph, rng, view, loss);
    for (int f = 0; f < flows; ++f) {
      const NodeId src = hosts[rng.next_below(hosts.size())];
      NodeId dst = src;
      while (dst == src) dst = hosts[rng.next_below(hosts.size())];
      const std::uint64_t flow_hash = rng.next_u64();
      for (Pair& pair : pairs) {
        SCOPED_TRACE(::testing::Message() << pair.name << " scenario " << scenario);
        walk_lockstep(graph, *pair.oracle, *pair.reference, *pair.fib, src, dst, flow_hash,
                      pair.decisions);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // The draws must actually reach the pickers, ties included.
  for (const Pair& pair : pairs) {
    EXPECT_GT(pair.decisions.detours, 0) << pair.name;
  }
  EXPECT_GT(ref_ecmp.tied_picks, 0);
  EXPECT_GT(ref_vlb.tied_picks, 0);
  EXPECT_GT(ref_pinned.tied_picks, 0);
  EXPECT_GT(ref_adaptive.tied_picks, 0);
}

/// Gray the first three candidates (in scan order) at 0.2, 0.2 - 7e-13
/// and 0.2 - 1.4e-12, and the rest at 0.6: the second ties with the
/// first, and the third opens a new run that the second would still
/// tie with.  The vector pickers cleared the first run, so the third is
/// the only pick.
void gray_near_tie_chain(TableLossView& loss, const std::vector<LinkId>& legs) {
  constexpr double kChain[] = {0.2, 0.2 - 7e-13, 0.2 - 1.4e-12};
  for (std::size_t i = 0; i < legs.size(); ++i) loss.set(legs[i], i < 3 ? kChain[i] : 0.6);
}

TEST(OraclePickers, NearTieChainPicksOnlyTheLastRun) {
  topo::QuartzRingParams params;
  params.switches = 7;
  params.hosts_per_switch = 1;
  const topo::BuiltTopology topo = topo::quartz_ring(params);
  const EcmpRouting routing(topo.graph);
  const NodeId node = topo.tors[0];
  const NodeId exit = topo.tors[1];
  const NodeId dst = topo.host_groups[1][0];
  const LinkId direct = direct_link(topo, node, exit);

  // Deflection scans the node's neighbours; healing scans the ring.
  std::vector<NodeId> by_neighbor;
  for (const auto& adj : topo.graph.neighbors(node)) {
    if (topo.graph.is_switch(adj.peer) && adj.peer != exit) by_neighbor.push_back(adj.peer);
  }
  std::vector<NodeId> by_ring;
  for (const NodeId w : topo.quartz_rings[0]) {
    if (w != node && w != exit) by_ring.push_back(w);
  }
  const auto legs = [&](const std::vector<NodeId>& peers) {
    std::vector<LinkId> out;
    for (const NodeId w : peers) out.push_back(direct_link(topo, node, w));
    return out;
  };

  for (const bool heal : {false, true}) {
    SCOPED_TRACE(heal ? "healing" : "deflection");
    TableLossView loss(topo.graph.link_count());
    loss.set(direct, 0.5);
    const std::vector<NodeId>& order = heal ? by_ring : by_neighbor;
    gray_near_tie_chain(loss, legs(order));
    EcmpOracle ecmp(routing);
    RefEcmpOracle ref_ecmp(routing);
    VlbOracle vlb(routing, topo.quartz_rings, 0.0);
    RefVlbOracle ref_vlb(routing, topo.quartz_rings, 0.0);
    RoutingOracle* oracle = heal ? static_cast<RoutingOracle*>(&vlb) : &ecmp;
    RoutingOracle* reference = heal ? static_cast<RoutingOracle*>(&ref_vlb) : &ref_ecmp;
    oracle->attach_loss_view(&loss);
    reference->attach_loss_view(&loss);
    for (std::uint64_t flow = 0; flow < 16; ++flow) {
      FlowKey key;
      key.src = topo.host_groups[0][0];
      key.dst = dst;
      key.flow_hash = mix_hash(flow);
      FlowKey ref_key = key;
      EXPECT_EQ(oracle->next_link(node, key), reference->next_link(node, ref_key));
      EXPECT_EQ(key.via, order[2]);
      EXPECT_EQ(ref_key.via, order[2]);
    }
  }
}

TEST(OraclePickers, MatchVectorPickersOnQuartzRing) {
  topo::QuartzRingParams params;
  params.switches = 8;
  params.hosts_per_switch = 2;
  check_pickers_match(topo::quartz_ring(params), 0x5155415254ull, 60, 200);
}

TEST(OraclePickers, MatchVectorPickersOnQuartzInJellyfish) {
  // Random inter-ring links give deflection peers at different
  // distances from the destination, which the rings alone do not.
  topo::QuartzJellyfishParams params;
  params.rings = 4;
  params.switches_per_ring = 4;
  params.hosts_per_switch = 2;
  check_pickers_match(topo::quartz_in_jellyfish(params), 0x4A454C4Cull, 60, 200);
}

TEST(OraclePickers, MatchVectorPickersOnRingOfRings) {
  const auto spec = topo::CompositeSpec::parse("ring-of-rings:8x8@2");
  ASSERT_TRUE(spec.has_value());
  check_pickers_match(topo::build_composite(*spec), 0x52494E47ull, 20, 300);
}

}  // namespace
}  // namespace quartz::routing
