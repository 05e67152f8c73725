// Compiled-FIB regression suite: for every oracle the FIB must make
// bit-identical decisions to the legacy next_link path — healthy,
// with dead links, and with gray (lossy) links — while serving
// steady-state lookups from compiled entries, invalidating them on
// epoch changes, and keeping the adaptive oracle's flowlet memory at
// fixed capacity.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "routing/ecmp.hpp"
#include "routing/failure_view.hpp"
#include "routing/fib.hpp"
#include "routing/flowlet_table.hpp"
#include "routing/oracle.hpp"
#include "topo/builders.hpp"

namespace quartz::routing {
namespace {

class StubLoss final : public LossView {
 public:
  void set(topo::LinkId link, double p) {
    loss_[link] = p;
    bump_epoch();
  }
  double loss_rate(topo::LinkId link) const override {
    const auto it = loss_.find(link);
    return it == loss_.end() ? 0.0 : it->second;
  }

 private:
  std::unordered_map<topo::LinkId, double> loss_;
};

class StubProbe final : public LoadProbe {
 public:
  TimePs queue_delay(topo::LinkId, int) const override { return delay_; }
  void set_delay(TimePs d) { delay_ = d; }

 private:
  TimePs delay_ = 0;
};

class StubClock final : public Clock {
 public:
  TimePs sim_now() const override { return now_; }
  void advance(TimePs dt) { now_ += dt; }

 private:
  TimePs now_ = 1;
};

topo::BuiltTopology ring_topo(int switches = 8, int hosts = 2) {
  topo::QuartzRingParams params;
  params.switches = switches;
  params.hosts_per_switch = hosts;
  return topo::quartz_ring(params);
}

/// The link sequence a packet takes under `decide`, walking the graph
/// until the destination (or a hop cap, e.g. when forwarded onto dead
/// links both paths must agree anyway).
template <typename Decide>
std::vector<topo::LinkId> walk(const topo::Graph& graph, Decide&& decide, topo::NodeId src,
                               topo::NodeId dst, std::uint64_t hash) {
  FlowKey key;
  key.src = src;
  key.dst = dst;
  key.flow_hash = hash;
  std::vector<topo::LinkId> path;
  topo::NodeId node = src;
  for (int hop = 0; hop < 32 && node != dst; ++hop) {
    const topo::LinkId link = decide(node, key);
    path.push_back(link);
    node = graph.link(link).other(node);
  }
  return path;
}

/// Every (src, dst, hash) walk must produce the same link sequence
/// through the FIB as through the oracle, and the FIB must have served
/// a healthy share of fast hits while doing it.
void expect_walks_match(const topo::BuiltTopology& topo, const RoutingOracle& oracle, Fib& fib,
                        bool expect_hits = true) {
  const topo::Graph& graph = topo.graph;
  for (std::uint64_t hash = 1; hash <= 5; ++hash) {
    for (const topo::NodeId src : topo.hosts) {
      for (const topo::NodeId dst : topo.hosts) {
        if (src == dst) continue;
        const auto legacy = walk(
            graph, [&](topo::NodeId n, FlowKey& k) { return oracle.next_link(n, k); }, src, dst,
            hash * 0x9E3779B97F4A7C15ull);
        const auto compiled = walk(
            graph, [&](topo::NodeId n, FlowKey& k) { return fib.next_link(n, k); }, src, dst,
            hash * 0x9E3779B97F4A7C15ull);
        ASSERT_EQ(legacy, compiled) << "src=" << src << " dst=" << dst << " hash=" << hash;
      }
    }
  }
  if (expect_hits) {
    EXPECT_GT(fib.stats().hits, 0u);
  }
}

TEST(Fib, MatchesEcmpOracleHealthy) {
  const topo::BuiltTopology topo = ring_topo();
  EcmpRouting routing(topo.graph);
  EcmpOracle oracle(routing);
  FailureView view(topo.graph.link_count());
  oracle.attach_failure_view(&view);
  Fib fib(routing, oracle);
  expect_walks_match(topo, oracle, fib);
  // A healthy mesh compiles completely: no decision should have gone
  // through the oracle.
  EXPECT_EQ(fib.stats().slow_path, 0u);
}

TEST(Fib, MatchesEcmpOracleWithDeadAndLossyLinks) {
  const topo::BuiltTopology topo = ring_topo();
  EcmpRouting routing(topo.graph);
  EcmpOracle oracle(routing);
  FailureView view(topo.graph.link_count());
  StubLoss loss;
  oracle.attach_failure_view(&view);
  oracle.attach_loss_view(&loss);
  Fib fib(routing, oracle);

  // Kill one mesh lightpath and gray another; decisions must still be
  // identical (the lossy candidate forces the slow deflection scan).
  std::vector<topo::LinkId> mesh;
  for (const topo::LinkId id : topo.graph.link_ids()) {
    const topo::Link& link = topo.graph.link(id);
    if (topo.graph.is_switch(link.a) && topo.graph.is_switch(link.b)) mesh.push_back(id);
  }
  ASSERT_GE(mesh.size(), 2u);
  view.set_dead(mesh[0], true);
  loss.set(mesh[mesh.size() / 2], 0.5);
  expect_walks_match(topo, oracle, fib);
  EXPECT_GT(fib.stats().slow_path, 0u);  // the lossy/dead groups stayed slow
}

TEST(Fib, MatchesVlbOracleHealthyAndUnderFailure) {
  const topo::BuiltTopology topo = ring_topo();
  EcmpRouting routing(topo.graph);
  VlbOracle oracle(routing, topo.quartz_rings, 0.7);
  FailureView view(topo.graph.link_count());
  oracle.attach_failure_view(&view);
  Fib fib(routing, oracle);
  expect_walks_match(topo, oracle, fib);
  // Detoured packets (carrying a via) deliberately take the slow path
  // at the intermediate switch; everything else should have compiled.
  EXPECT_GT(fib.stats().hits, fib.stats().slow_path);

  std::vector<topo::LinkId> mesh;
  for (const topo::LinkId id : topo.graph.link_ids()) {
    const topo::Link& link = topo.graph.link(id);
    if (topo.graph.is_switch(link.a) && topo.graph.is_switch(link.b)) mesh.push_back(id);
  }
  view.set_dead(mesh[1], true);
  expect_walks_match(topo, oracle, fib);
}

TEST(Fib, MatchesPinnedDetourOracle) {
  const topo::BuiltTopology topo = ring_topo(4, 3);
  EcmpRouting routing(topo.graph);
  PinnedDetourOracle oracle(routing, topo.quartz_rings);
  Fib fib(routing, oracle);
  // Pin one host pair through the far ring switch; its destination's
  // whole group must go slow while unpinned traffic stays compiled.
  oracle.pin(topo.hosts[0], topo.hosts[4], topo.quartz_rings[0][3]);
  expect_walks_match(topo, oracle, fib);
  EXPECT_GT(fib.stats().slow_path, 0u);
  EXPECT_GT(fib.stats().hits, 0u);
}

TEST(Fib, MatchesAdaptiveVlbOracle) {
  const topo::BuiltTopology topo = ring_topo();
  EcmpRouting topo_routing(topo.graph);
  StubProbe probe;
  probe.set_delay(microseconds(10));  // every direct path looks congested
  AdaptiveVlbOracle oracle(topo_routing, topo.quartz_rings, microseconds(1));
  oracle.attach_probe(&probe);
  Fib fib(topo_routing, oracle);
  expect_walks_match(topo, oracle, fib);
  // Mesh ingress decisions are queue-adaptive and must stay slow; host
  // ports still compile.
  EXPECT_GT(fib.stats().slow_path, 0u);
}

TEST(Fib, EpochInvalidationRecompilesLazily) {
  const topo::BuiltTopology topo = ring_topo();
  EcmpRouting routing(topo.graph);
  EcmpOracle oracle(routing);
  FailureView view(topo.graph.link_count());
  oracle.attach_failure_view(&view);
  Fib fib(routing, oracle);

  FlowKey key;
  key.src = topo.hosts[0];
  key.dst = topo.hosts[2];
  key.flow_hash = 42;
  const topo::NodeId tor = topo.graph.neighbors(key.src)[0].peer;

  const topo::LinkId first = fib.next_link(tor, key);
  EXPECT_EQ(fib.stats().misses, 1u);
  EXPECT_EQ(fib.next_link(tor, key), first);
  EXPECT_EQ(fib.stats().hits, 1u);

  // Killing the chosen lightpath bumps the view epoch: the entry goes
  // stale, recompiles, and now avoids the dead link — exactly what the
  // oracle would do.
  view.set_dead(first, true);
  const std::uint64_t invalidations_before = fib.stats().invalidations;
  FlowKey rerouted = key;
  const topo::LinkId healed = fib.next_link(tor, rerouted);
  EXPECT_NE(healed, first);
  EXPECT_EQ(fib.stats().invalidations, invalidations_before + 1);
  EXPECT_EQ(fib.stats().misses, 2u);
  FlowKey check = key;
  EXPECT_EQ(fib.next_link(tor, check), healed);

  // A set_dead that changes nothing must not invalidate anything.
  view.set_dead(first, true);
  FlowKey again = key;
  fib.next_link(tor, again);
  EXPECT_EQ(fib.stats().invalidations, invalidations_before + 1);
}

TEST(Fib, OracleReconfigurationInvalidates) {
  const topo::BuiltTopology topo = ring_topo();
  EcmpRouting routing(topo.graph);
  EcmpOracle oracle(routing);
  Fib fib(routing, oracle);
  FlowKey key;
  key.src = topo.hosts[0];
  key.dst = topo.hosts[2];
  key.flow_hash = 42;
  const topo::NodeId tor = topo.graph.neighbors(key.src)[0].peer;
  fib.next_link(tor, key);
  const std::uint64_t epoch = oracle.state_epoch();
  oracle.set_soft_fail_threshold(0.1);
  EXPECT_NE(oracle.state_epoch(), epoch);
  FlowKey again = key;
  fib.next_link(tor, again);
  EXPECT_EQ(fib.stats().invalidations, 2u);  // construction epoch + reconfig
}

TEST(FlowletTable, HoldsSizeConstantUnderManyFlows) {
  FlowletTable table;
  const std::size_t capacity = table.capacity();
  for (std::uint64_t flow = 0; flow < 50 * capacity; ++flow) {
    FlowletTable::Slot& slot = table.acquire(mix_hash(flow), TimePs{1000} + TimePs(flow), 100);
    slot.last_seen = TimePs{1000} + TimePs(flow);
  }
  EXPECT_EQ(table.capacity(), capacity);
  EXPECT_LE(table.occupied(), capacity);
  EXPECT_GT(table.occupied(), 0u);
}

TEST(FlowletTable, MatchReusesAndStaleSlotsRecycle) {
  FlowletTable table(16);
  FlowletTable::Slot& a = table.acquire(7, 100, 50);
  a.via = 3;
  a.last_seen = 100;
  // Within the timeout the same key returns the same live slot.
  FlowletTable::Slot& b = table.acquire(7, 120, 50);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.via, 3);
  // A colliding key arriving long after expiry may recycle the slot,
  // and a recycled slot reads as brand-new.
  FlowletTable::Slot& c = table.acquire(7 + 16, 1000, 50);
  EXPECT_EQ(c.last_seen, 0);
  EXPECT_EQ(c.via, topo::kInvalidNode);
}

TEST(FlowletTable, AdaptiveOracleFlowletMemoryIsBounded) {
  const topo::BuiltTopology topo = ring_topo();
  EcmpRouting routing(topo.graph);
  StubProbe probe;
  StubClock clock;
  AdaptiveVlbOracle oracle(routing, topo.quartz_rings, microseconds(1));
  oracle.attach_probe(&probe);
  oracle.attach_clock(&clock);
  oracle.set_flowlet_timeout(microseconds(100));

  // A long run with far more distinct flows than slots: ingress-switch
  // decisions keep writing flowlet state, but the table never grows.
  const topo::NodeId src = topo.hosts[0];
  const topo::NodeId dst = topo.hosts[topo.hosts.size() - 1];
  const topo::NodeId tor = topo.graph.neighbors(src)[0].peer;
  const std::size_t capacity = oracle.flowlet_table().capacity();
  for (std::uint64_t flow = 0; flow < 20 * capacity; ++flow) {
    FlowKey key;
    key.src = src;
    key.dst = dst;
    key.flow_hash = mix_hash(flow);
    clock.advance(nanoseconds(50));
    oracle.next_link(tor, key);
  }
  EXPECT_EQ(oracle.flowlet_table().capacity(), capacity);
  EXPECT_LE(oracle.flowlet_table().occupied(), capacity);
  EXPECT_GT(oracle.flowlet_table().occupied(), 0u);
}

}  // namespace
}  // namespace quartz::routing
