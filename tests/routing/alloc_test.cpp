// Allocation-freedom contracts of the routing plane, enforced with a
// counting operator-new hook (which is why this suite lives in its own
// test binary: the hook is global to the process).
//
//  * warm RoutingOracle::next_link calls with a FailureView allocate
//    nothing, on all four forwarding oracles, both on a healthy ring
//    and with dead and lossy links — the deflection scan, healing
//    detours and VLB intermediate picks included — and on HierOracle
//    healing around a dead leaf lightpath or a dead trunk;
//  * constructing a HierOracle builds no graph adjacency index;
//  * a warm Fib allocates nothing, both in a healthy steady state and
//    under epoch churn once its arenas and compile buffers have reached
//    their high-water mark;
//  * a chaos storm, whose shards route every hop through the oracle
//    slow path, stays well under 0.1 run-phase allocations per
//    delivered packet at one and two shards.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <typeinfo>
#include <vector>

#include "chaos/sharded_storm.hpp"
#include "routing/ecmp.hpp"
#include "routing/failure_view.hpp"
#include "routing/fib.hpp"
#include "routing/hierarchical.hpp"
#include "routing/oracle.hpp"
#include "support/counting_new.hpp"
#include "topo/builders.hpp"
#include "topo/composite.hpp"

namespace quartz::routing {
namespace {

using test::alloc_count;
using topo::LinkId;
using topo::NodeId;

/// Per-link loss estimates in a flat array: reading one allocates
/// nothing, so every allocation counted is the oracle's.
class TableLossView final : public LossView {
 public:
  explicit TableLossView(std::size_t links) : loss_(links, 0.0) {}
  void set(LinkId link, double p) {
    loss_[static_cast<std::size_t>(link)] = p;
    bump_epoch();
  }
  double loss_rate(LinkId link) const override { return loss_[static_cast<std::size_t>(link)]; }

 private:
  std::vector<double> loss_;
};

struct Flow {
  NodeId src;
  NodeId dst;
  std::uint64_t hash;
};

/// 2,048 flows between distinct hosts drawn from a fixed hash stream.
std::vector<Flow> random_flows(const std::vector<NodeId>& hosts) {
  std::vector<Flow> flows;
  for (std::uint64_t i = 0; i < 2048; ++i) {
    const std::uint64_t h = mix_hash(i + 1);
    const std::size_t a = h % hosts.size();
    std::size_t b = (h >> 24) % hosts.size();
    if (b == a) b = (b + 1) % hosts.size();
    flows.push_back({hosts[a], hosts[b], h});
  }
  return flows;
}

/// An 8-switch Quartz ring (4 hosts each) with a fixed flow set.
struct RingFixture {
  topo::BuiltTopology topo;
  std::unique_ptr<EcmpRouting> routing;
  std::vector<LinkId> mesh;
  std::vector<Flow> flows;
  FailureView view;
  std::unique_ptr<TableLossView> loss;

  RingFixture() {
    topo::QuartzRingParams params;
    params.switches = 8;
    params.hosts_per_switch = 4;
    topo = topo::quartz_ring(params);
    routing = std::make_unique<EcmpRouting>(topo.graph);
    for (const topo::LinkId id : topo.graph.link_ids()) {
      const topo::Link& link = topo.graph.link(id);
      if (topo.graph.is_switch(link.a) && topo.graph.is_switch(link.b)) mesh.push_back(id);
    }
    flows = random_flows(topo.hosts);
    view.resize(topo.graph.link_count());
    loss = std::make_unique<TableLossView>(topo.graph.link_count());
  }

  /// Dead and lossy lightpaths (with tied losses) so that deflection,
  /// healing and the VLB intermediate pick all run.
  void degrade() {
    for (std::size_t i = 0; i < mesh.size(); i += 5) view.set_dead(mesh[i], true);
    for (std::size_t i = 2; i < mesh.size(); i += 7) loss->set(mesh[i], 0.3);
    for (std::size_t i = 3; i < mesh.size(); i += 11) loss->set(mesh[i], 0.05);
    view.set_dead(topo.graph.neighbors(topo.hosts[0])[0].link, true);  // a host port
  }
};

/// ring-of-rings:3x4@2 with a fixed flow set and an empty failure view.
struct CompositeFixture {
  topo::BuiltTopology topo =
      topo::build_composite(*topo::CompositeSpec::parse("ring-of-rings:3x4@2"));
  std::vector<Flow> flows = random_flows(topo.hosts);
  FailureView view{topo.graph.link_count()};
};

struct WalkTotals {
  std::uint64_t decisions = 0;
  std::uint64_t detours = 0;
};

template <typename Fixture, typename Decide>
WalkTotals walk_all(const Fixture& f, Decide&& decide) {
  WalkTotals totals;
  for (const Flow& flow : f.flows) {
    FlowKey key;
    key.src = flow.src;
    key.dst = flow.dst;
    key.flow_hash = flow.hash;
    NodeId node = flow.src;
    for (int hop = 0; hop < 16 && node != flow.dst; ++hop) {
      const NodeId via_before = key.via;
      const LinkId link = decide(node, key);
      ++totals.decisions;
      if (key.via != topo::kInvalidNode && key.via != via_before) ++totals.detours;
      node = f.topo.graph.link(link).other(node);
    }
  }
  return totals;
}

/// The four forwarding oracles over one fixture, each with the
/// fixture's failure and loss views attached.
struct Oracles {
  EcmpOracle ecmp;
  VlbOracle vlb;
  PinnedDetourOracle pinned;
  AdaptiveVlbOracle adaptive;

  explicit Oracles(const RingFixture& f)
      : ecmp(*f.routing),
        vlb(*f.routing, f.topo.quartz_rings, 0.5),
        pinned(*f.routing, f.topo.quartz_rings),
        adaptive(*f.routing, f.topo.quartz_rings) {
    pinned.pin(f.flows[0].src, f.flows[0].dst, f.topo.tors[5]);
    for (RoutingOracle* oracle : all()) {
      oracle->attach_failure_view(&f.view);
      oracle->attach_loss_view(f.loss.get());
    }
  }
  std::vector<RoutingOracle*> all() { return {&ecmp, &vlb, &pinned, &adaptive}; }
};

TEST(RoutingAllocation, WarmOracleSlowPathIsAllocationFree) {
  for (const bool degraded : {false, true}) {
    RingFixture f;
    if (degraded) f.degrade();
    Oracles oracles(f);
    for (RoutingOracle* oracle : oracles.all()) {
      const auto decide = [oracle](NodeId node, FlowKey& key) {
        return oracle->next_link(node, key);
      };
      walk_all(f, decide);  // warm up
      const std::uint64_t before = alloc_count();
      const WalkTotals totals = walk_all(f, decide);
      EXPECT_EQ(alloc_count() - before, 0u)
          << typeid(*oracle).name() << (degraded ? " (degraded)" : " (healthy)");
      EXPECT_GT(totals.decisions, 0u);
      if (degraded) {
        EXPECT_GT(totals.detours, 0u) << "the failures never reached the detour pickers";
      }
    }
  }

  // HierOracle's per-level healing: a dead leaf lightpath detours
  // through a third ring switch, a dead trunk through a third sibling
  // element.
  for (const bool trunk : {false, true}) {
    CompositeFixture f;
    const topo::CompositeMeta& meta = *f.topo.composite;
    f.view.set_dead(trunk ? meta.trunk(0, 0, 0, 1).link
                          : meta.leaf_mesh_link(meta.leaf_members[0], 2),
                    true);
    HierOracle oracle(f.topo);
    oracle.attach_failure_view(&f.view);
    const auto decide = [&oracle](NodeId node, FlowKey& key) {
      return oracle.next_link(node, key);
    };
    walk_all(f, decide);  // warm up: fills the lazy FIB
    const std::uint64_t before = alloc_count();
    const WalkTotals totals = walk_all(f, decide);
    EXPECT_EQ(alloc_count() - before, 0u) << (trunk ? "dead trunk" : "dead leaf lightpath");
    EXPECT_GT(totals.detours, 0u) << (trunk ? "dead trunk" : "dead leaf lightpath");
  }
}

TEST(RoutingAllocation, HierOracleReadsNoGraphIndex) {
  // Constructing the oracle allocates nothing through operator new: its
  // lazy FIB's node table is a ZeroArray (calloc or a mapping), and the
  // composite layout comes from CompositeMeta, so the graph's adjacency
  // index stays unbuilt until a reader asks for it.
  const CompositeFixture f;
  const std::uint64_t before = alloc_count();
  const HierOracle oracle(f.topo);
  EXPECT_EQ(alloc_count() - before, 0u);
  const std::uint64_t index_before = alloc_count();
  (void)f.topo.graph.neighbors(0);
  EXPECT_GT(alloc_count() - index_before, 0u) << "the adjacency index was already built";
}

TEST(RoutingAllocation, WarmFibUnderEpochChurnIsAllocationFree) {
  {
    // Healthy steady state first: once warm, every walk is served from
    // compiled entries without a recompile or an allocation.
    RingFixture healthy;
    Oracles oracles(healthy);
    for (RoutingOracle* oracle : oracles.all()) {
      Fib fib(*healthy.routing, *oracle);
      const auto decide = [&fib](NodeId node, FlowKey& key) { return fib.next_link(node, key); };
      walk_all(healthy, decide);  // compiles every entry the flows touch
      fib.reset_stats();
      const std::uint64_t before = alloc_count();
      const WalkTotals totals = walk_all(healthy, decide);
      EXPECT_EQ(alloc_count() - before, 0u) << typeid(*oracle).name() << " (healthy)";
      EXPECT_GT(totals.decisions, 0u);
      EXPECT_EQ(fib.stats().misses, 0u) << typeid(*oracle).name();
      EXPECT_EQ(fib.stats().invalidations, 0u) << typeid(*oracle).name();
    }
  }

  RingFixture f;
  f.degrade();
  Oracles oracles(f);
  for (RoutingOracle* oracle : oracles.all()) {
    Fib fib(*f.routing, *oracle);
    const auto decide = [&fib](NodeId node, FlowKey& key) { return fib.next_link(node, key); };
    // One churn cycle: a healthy lightpath dies and a clean one turns
    // gray for each walk, then both recover, so every walk runs on a
    // fresh epoch and recompiles the entries it touches.  The cycle
    // leaves the views as it found them.
    const auto churn_cycle = [&] {
      WalkTotals totals;
      constexpr std::size_t kFlips[][2] = {{1, 4}, {6, 8}, {11, 12}, {17, 18}};
      for (const auto& [dead, gray] : kFlips) {
        f.view.set_dead(f.mesh[dead], true);
        f.loss->set(f.mesh[gray], 0.25);
        totals.decisions += walk_all(f, decide).decisions;
        f.view.set_dead(f.mesh[dead], false);
        f.loss->set(f.mesh[gray], 0.0);
      }
      return totals;
    };
    churn_cycle();  // arenas and compile buffers reach their high-water mark
    fib.reset_stats();
    const std::uint64_t before = alloc_count();
    const WalkTotals totals = churn_cycle();
    EXPECT_EQ(alloc_count() - before, 0u) << typeid(*oracle).name();
    EXPECT_GT(totals.decisions, 0u);
    EXPECT_EQ(fib.stats().invalidations, 4u);
    EXPECT_GT(fib.stats().misses, 0u);
  }
}

/// A small storm on ring-of-rings:8x4@2: four cuts, gray links and
/// flaps under a probe-driven HealthMonitor.
double storm_allocs_per_packet(int shards) {
  chaos::ShardedStormParams params;
  params.seed = 4242;
  params.composite = "ring-of-rings:8x4@2";
  params.shards = shards;
  params.packets_per_host = 1'500;
  params.packet_gap = microseconds(1);
  params.cuts = 4;
  params.gray_links = 4;
  params.flapping_links = 2;
  params.storm_start = microseconds(100);
  params.storm_end = microseconds(1'400);
  params.run_until = microseconds(1'700);
  chaos::ShardedStormRun storm(params);
  storm.arm();
  const std::uint64_t before = alloc_count();
  storm.run_to(params.run_until);
  const std::uint64_t run_allocs = alloc_count() - before;
  const chaos::ShardedStormResult result = storm.finish();
  EXPECT_GT(result.deliveries, 0u);
  EXPECT_GT(result.deaths, 0u) << "the storm never took a lightpath down";
  return static_cast<double>(run_allocs) / static_cast<double>(result.deliveries);
}

TEST(RoutingAllocation, StormRunPhaseStaysUnderATenthOfAnAllocationPerPacket) {
  for (const int shards : {1, 2}) {
    const double per_packet = storm_allocs_per_packet(shards);
    std::printf("storm at %d shard(s): %.4f run-phase allocations per delivered packet\n", shards,
                per_packet);
    EXPECT_LT(per_packet, 0.1) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace quartz::routing
