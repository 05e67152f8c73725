#include "sim/network.hpp"

#include <gtest/gtest.h>

#include "routing/oracle.hpp"
#include "sim/workloads.hpp"
#include "topo/builders.hpp"

namespace quartz::sim {
namespace {

using topo::NodeId;

struct Fixture {
  topo::BuiltTopology topo;
  std::unique_ptr<routing::EcmpRouting> routing;
  std::unique_ptr<routing::EcmpOracle> oracle;

  static Fixture single_switch(topo::SwitchModel model, BitsPerSecond rate) {
    topo::SingleSwitchParams p;
    p.hosts = 4;
    p.host_rate = rate;
    p.switch_model = model;
    p.propagation = 0;
    Fixture f;
    f.topo = topo::single_switch(p);
    f.routing = std::make_unique<routing::EcmpRouting>(f.topo.graph);
    f.oracle = std::make_unique<routing::EcmpOracle>(*f.routing);
    return f;
  }
};

/// Test probe: counts arrivals, deliveries and drops, and records the
/// node of every arrival (the packet's route).
struct ProbeSink final : TelemetrySink {
  std::vector<NodeId> route;
  int arrivals = 0;
  int deliveries = 0;
  std::uint64_t drops = 0;
  void on_arrival(const Packet&, NodeId node, TimePs, TimePs) override {
    route.push_back(node);
    ++arrivals;
  }
  void on_delivery(const Packet&, TimePs, TimePs) override { ++deliveries; }
  void on_drop(const Packet&, DropReason, TimePs) override { ++drops; }
};

TEST(Network, CutThroughLatencyArithmetic) {
  // One ULL switch at 10 Gb/s, zero propagation.  400B packet: the
  // host serializes 320 ns; the cut-through decision lands at first
  // bit + 380 ns, and the egress serialization overlaps the ingress
  // (classic cut-through pipelining), so the last bit leaves at
  // last-bit-in + 380 ns.  End to end = 320 + 380 = 700 ns.
  auto f = Fixture::single_switch(topo::SwitchModel::ull(), gigabits_per_second(10));
  Network net(f.topo, *f.oracle);
  TimePs measured = -1;
  const int task = net.new_task([&](const Packet&, TimePs latency) { measured = latency; });
  net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  net.run_until(milliseconds(1));
  EXPECT_EQ(measured, nanoseconds(320 + 380));
}

TEST(Network, StoreAndForwardWaitsForLastBit) {
  // Same topology with a CCS: decision at LAST bit + 6 us.
  // End to end = 320 (receive) + 6000 + 320 (egress) ns.
  auto f = Fixture::single_switch(topo::SwitchModel::ccs(), gigabits_per_second(10));
  Network net(f.topo, *f.oracle);
  TimePs measured = -1;
  const int task = net.new_task([&](const Packet&, TimePs latency) { measured = latency; });
  net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  net.run_until(milliseconds(1));
  EXPECT_EQ(measured, nanoseconds(320) + microseconds(6) + nanoseconds(320));
}

TEST(Network, PropagationAdds) {
  topo::SingleSwitchParams p;
  p.hosts = 2;
  p.host_rate = gigabits_per_second(10);
  p.switch_model = topo::SwitchModel::ull();
  p.propagation = nanoseconds(100);
  auto topo = topo::single_switch(p);
  routing::EcmpRouting routing(topo.graph);
  routing::EcmpOracle oracle(routing);
  Network net(topo, oracle);
  TimePs measured = -1;
  const int task = net.new_task([&](const Packet&, TimePs latency) { measured = latency; });
  net.send(topo.hosts[0], topo.hosts[1], bytes(400), task, 1);
  net.run_until(milliseconds(1));
  // Cut-through pipelining hides the egress serialization; both
  // propagation delays add.
  EXPECT_EQ(measured, nanoseconds(320 + 380 + 200));
}

TEST(Network, HostOverheadsIncluded) {
  auto f = Fixture::single_switch(topo::SwitchModel::ull(), gigabits_per_second(10));
  SimConfig config;
  config.host_send_overhead = microseconds(1);
  config.host_recv_overhead = microseconds(2);
  Network net(f.topo, *f.oracle, config);
  TimePs measured = -1;
  const int task = net.new_task([&](const Packet&, TimePs latency) { measured = latency; });
  net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  net.run_until(milliseconds(1));
  EXPECT_EQ(measured, nanoseconds(320 + 380) + microseconds(3));
}

TEST(Network, BackToBackPacketsQueueOnEgress) {
  auto f = Fixture::single_switch(topo::SwitchModel::ull(), gigabits_per_second(10));
  Network net(f.topo, *f.oracle);
  std::vector<TimePs> latencies;
  const int task =
      net.new_task([&](const Packet&, TimePs latency) { latencies.push_back(latency); });
  // Two packets sent at the same instant from different hosts to the
  // same destination: the second serializes behind the first on the
  // destination's access link.
  net.send(f.topo.hosts[0], f.topo.hosts[2], bytes(400), task, 1);
  net.send(f.topo.hosts[1], f.topo.hosts[2], bytes(400), task, 2);
  net.run_until(milliseconds(1));
  ASSERT_EQ(latencies.size(), 2u);
  std::sort(latencies.begin(), latencies.end());
  EXPECT_EQ(latencies[0], nanoseconds(700));
  EXPECT_EQ(latencies[1], nanoseconds(700 + 320));  // one extra serialization
}

TEST(Network, DropsWhenQueueDelayExceeded) {
  auto f = Fixture::single_switch(topo::SwitchModel::ull(), gigabits_per_second(10));
  SimConfig config;
  config.max_queue_delay = microseconds(1);  // ~3 packets of headroom
  Network net(f.topo, *f.oracle, config);
  const int task = net.new_task({});
  for (int i = 0; i < 50; ++i) {
    net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  }
  net.run_until(milliseconds(1));
  EXPECT_GT(net.packets_dropped(), 0u);
  EXPECT_EQ(net.packets_sent(), 50u);
  EXPECT_EQ(net.packets_delivered() + net.packets_dropped(), 50u);
}

TEST(Network, CountsDeliveries) {
  auto f = Fixture::single_switch(topo::SwitchModel::ull(), gigabits_per_second(10));
  Network net(f.topo, *f.oracle);
  const int task = net.new_task({});
  for (int i = 0; i < 10; ++i) {
    net.send(f.topo.hosts[static_cast<std::size_t>(i % 3)], f.topo.hosts[3], bytes(400), task,
             static_cast<std::uint64_t>(i));
  }
  net.run_until(milliseconds(1));
  EXPECT_EQ(net.packets_delivered(), 10u);
  EXPECT_EQ(net.packets_dropped(), 0u);
}

TEST(Network, RejectsNonHostEndpoints) {
  auto f = Fixture::single_switch(topo::SwitchModel::ull(), gigabits_per_second(10));
  Network net(f.topo, *f.oracle);
  const int task = net.new_task({});
  EXPECT_THROW(net.send(f.topo.cores[0], f.topo.hosts[0], bytes(400), task, 1),
               std::invalid_argument);
  EXPECT_THROW(net.send(f.topo.hosts[0], f.topo.hosts[0], bytes(400), task, 1),
               std::invalid_argument);
  EXPECT_THROW(net.send(f.topo.hosts[0], f.topo.hosts[1], 0, task, 1), std::invalid_argument);
}

TEST(Network, CutThroughCannotFinishBeforeReceiving) {
  // Host link 10G feeds a 40G mesh: egress tx (80 ns) would finish
  // before the 320 ns ingress completes; the model must stretch the
  // egress to respect causality.
  topo::QuartzRingParams p;
  p.switches = 2;
  p.hosts_per_switch = 1;
  p.mesh_rate = gigabits_per_second(40);
  p.links.host_rate = gigabits_per_second(10);
  p.links.host_propagation = 0;
  p.links.fabric_propagation = 0;
  auto topo = topo::quartz_ring(p);
  routing::EcmpRouting routing(topo.graph);
  routing::EcmpOracle oracle(routing);
  Network net(topo, oracle);
  TimePs measured = -1;
  const int task = net.new_task([&](const Packet&, TimePs latency) { measured = latency; });
  net.send(topo.hosts[0], topo.hosts[1], bytes(400), task, 1);
  net.run_until(milliseconds(1));
  // The first switch's 80 ns mesh egress is stretched to last-bit-in +
  // 380 ns = 700 ns (it cannot finish before receiving); the second
  // switch's 10G egress then finishes at 700 + 380 = 1080 ns.
  EXPECT_EQ(measured, nanoseconds(320 + 380 + 380));
}

TEST(Network, QueueingMatchesMD1Theory) {
  // The paper validated its simulator against queueing theory (§7).
  // Poisson arrivals into a single deterministic-service link form an
  // M/D/1 queue: W = rho * S / (2 (1 - rho)).
  auto f = Fixture::single_switch(topo::SwitchModel::ull(), gigabits_per_second(10));
  Network net(f.topo, *f.oracle);
  SampleSet latencies;
  const int task = net.new_task(
      [&](const Packet&, TimePs latency) { latencies.add(to_nanoseconds(latency)); });

  const double rho = 0.6;
  FlowParams flow;
  flow.packet_size = bytes(400);
  flow.rate = gigabits_per_second(10) * rho;
  flow.stop = milliseconds(400);
  Rng rng(99);
  PoissonFlow source(net, f.topo.hosts[0], f.topo.hosts[1], task, flow, rng);
  net.run_until(flow.stop + milliseconds(1));

  // Queueing happens on the sender's access link; service time S =
  // 320 ns.  Expected wait = 0.6*320/(2*0.4) = 240 ns on top of the
  // 700 ns pipelined base.
  const double base_ns = 700.0;
  const double expected_wait_ns = rho * 320.0 / (2.0 * (1.0 - rho));
  ASSERT_GT(latencies.count(), 100'000u);
  EXPECT_NEAR(latencies.mean() - base_ns, expected_wait_ns, expected_wait_ns * 0.08);
}

TEST(Network, ArrivalHookTracesTheRoute) {
  topo::QuartzRingParams p;
  p.switches = 5;
  p.hosts_per_switch = 2;
  auto topo = topo::quartz_ring(p);
  routing::EcmpRouting routing(topo.graph);
  routing::EcmpOracle oracle(routing);
  Network net(topo, oracle);

  ProbeSink probe;
  net.add_sink(&probe);
  const std::vector<NodeId>& trace = probe.route;
  const int task = net.new_task({});
  net.send(topo.host_groups[0][0], topo.host_groups[3][1], bytes(400), task, 1);
  net.run_until(milliseconds(1));

  // host -> ToR0 -> ToR3 -> host: three arrivals after the send.
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0], topo.tors[0]);
  EXPECT_EQ(trace[1], topo.tors[3]);
  EXPECT_EQ(trace[2], topo.host_groups[3][1]);
}

TEST(Network, TwoArrivalSubscribersBothFire) {
  // Regression: observer registration used to be last-writer-wins, so
  // a second subscriber silently replaced the first.
  auto f = Fixture::single_switch(topo::SwitchModel::ull(), gigabits_per_second(10));
  Network net(f.topo, *f.oracle);
  ProbeSink first;
  ProbeSink second;
  net.add_sink(&first);
  net.add_sink(&second);
  const int task = net.new_task({});
  net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  net.run_until(milliseconds(1));
  EXPECT_EQ(first.arrivals, 2);  // switch + destination host
  EXPECT_EQ(second.arrivals, 2);
}

TEST(Network, TwoDropSubscribersBothFire) {
  auto f = Fixture::single_switch(topo::SwitchModel::ull(), gigabits_per_second(10));
  SimConfig config;
  config.max_queue_delay = microseconds(1);
  Network net(f.topo, *f.oracle, config);
  ProbeSink first;
  ProbeSink second;
  net.add_sink(&first);
  net.add_sink(&second);
  const int task = net.new_task({});
  for (int i = 0; i < 50; ++i) {
    net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  }
  net.run_until(milliseconds(1));
  ASSERT_GT(net.packets_dropped(), 0u);
  EXPECT_EQ(first.drops, net.packets_dropped());
  EXPECT_EQ(second.drops, net.packets_dropped());
}

TEST(Network, SinkAndHookCoexist) {
  // An attached sink sees every arrival and delivery of a packet.
  auto f = Fixture::single_switch(topo::SwitchModel::ull(), gigabits_per_second(10));
  Network net(f.topo, *f.oracle);
  ProbeSink sink;
  net.add_sink(&sink);
  const int task = net.new_task({});
  net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  net.run_until(milliseconds(1));
  EXPECT_EQ(sink.arrivals, 2);
  EXPECT_EQ(sink.deliveries, 1);
}

TEST(Network, TracedHopsMatchRoutingDistance) {
  // Property: for random host pairs, the number of arrivals equals the
  // ECMP distance (route conformance of the simulator).
  topo::ThreeTierParams p;
  auto topo = topo::three_tier_tree(p);
  routing::EcmpRouting routing(topo.graph);
  routing::EcmpOracle oracle(routing);
  Network net(topo, oracle);

  ProbeSink probe;
  net.add_sink(&probe);
  int& arrivals = probe.arrivals;
  const int task = net.new_task({});
  Rng rng(57);
  for (int i = 0; i < 100; ++i) {
    const auto src = topo.hosts[rng.next_below(topo.hosts.size())];
    auto dst = topo.hosts[rng.next_below(topo.hosts.size())];
    while (dst == src) dst = topo.hosts[rng.next_below(topo.hosts.size())];
    arrivals = 0;
    net.send(src, dst, bytes(400), task, rng.next_u64());
    net.run_until(net.now() + milliseconds(1));
    EXPECT_EQ(arrivals, routing.distance(src, dst)) << "pair " << src << "->" << dst;
  }
}

class MD1Sweep : public ::testing::TestWithParam<double> {};

TEST_P(MD1Sweep, WaitMatchesTheoryAcrossUtilizations) {
  // The full M/D/1 waiting-time curve W = rho*S/(2(1-rho)), not just
  // one point — the "validated against queueing theory" claim (§7).
  const double rho = GetParam();
  auto f = Fixture::single_switch(topo::SwitchModel::ull(), gigabits_per_second(10));
  Network net(f.topo, *f.oracle);
  RunningStats latencies;
  const int task = net.new_task(
      [&](const Packet&, TimePs latency) { latencies.add(to_nanoseconds(latency)); });
  FlowParams flow;
  flow.rate = gigabits_per_second(10) * rho;
  flow.stop = milliseconds(rho > 0.75 ? 600 : 300);
  Rng rng(static_cast<std::uint64_t>(rho * 1000));
  PoissonFlow source(net, f.topo.hosts[0], f.topo.hosts[1], task, flow, rng);
  net.run_until(flow.stop + milliseconds(1));

  const double expected_wait_ns = rho * 320.0 / (2.0 * (1.0 - rho));
  ASSERT_GT(latencies.count(), 50'000u);
  EXPECT_NEAR(latencies.mean() - 700.0, expected_wait_ns,
              std::max(5.0, expected_wait_ns * 0.1))
      << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Utilizations, MD1Sweep, ::testing::Values(0.3, 0.5, 0.7, 0.8));

TEST(Network, ServerRelayChargesOsStack) {
  topo::BCubeParams p;
  p.n = 3;
  p.links.host_propagation = 0;
  p.links.fabric_propagation = 0;
  auto topo = topo::bcube1(p);
  routing::EcmpRouting routing(topo.graph, /*allow_host_relay=*/true);
  routing::EcmpOracle oracle(routing);
  SimConfig config;
  config.server_forward_latency = microseconds(15);
  Network net(topo, oracle, config);
  TimePs measured = -1;
  const int task = net.new_task([&](const Packet&, TimePs latency) { measured = latency; });
  // Host (0,0) -> (1,1) needs a server relay.
  net.send(topo.host_groups[0][0], topo.host_groups[1][1], bytes(400), task, 1);
  net.run_until(milliseconds(1));
  EXPECT_GT(measured, microseconds(15));
}

}  // namespace
}  // namespace quartz::sim
