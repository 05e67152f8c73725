// Cross-module integration: a Quartz design flows from the §3 planner
// through topology construction, routing, the packet simulator and the
// fault analyser without any seams showing.
#include <gtest/gtest.h>

#include "core/design.hpp"
#include "core/fault.hpp"
#include "flow/bisection.hpp"
#include "routing/oracle.hpp"
#include "sim/experiments.hpp"
#include "sim/workloads.hpp"
#include "support/closure_timer.hpp"
#include "topo/builders.hpp"
#include "topo/properties.hpp"
#include "wavelength/multiring.hpp"

namespace quartz {
namespace {

TEST(Integration, DesignToTopologyToSimulation) {
  // Plan a 6-switch ring, build it, and push RPC traffic through it.
  core::DesignParams design_params;
  design_params.switches = 6;
  design_params.server_ports_per_switch = 8;
  const core::QuartzDesign design = core::plan_design(design_params);
  ASSERT_TRUE(design.feasible) << design.infeasible_reason;

  topo::QuartzRingParams ring;
  ring.switches = design.params.switches;
  ring.hosts_per_switch = design.params.server_ports_per_switch;
  const topo::BuiltTopology t = topo::quartz_ring(ring);
  EXPECT_EQ(static_cast<int>(t.hosts.size()), design.total_server_ports);

  // The builder's channel metadata must agree with the design's plan.
  for (const auto& link : t.graph.links()) {
    if (link.wdm_channel < 0) continue;
    EXPECT_LT(link.wdm_channel, design.channels.channels_used);
    EXPECT_LT(link.wdm_ring, design.physical_rings);
  }

  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  sim::Network net(t, oracle);
  Rng rng(31);
  sim::RpcParams rpc_params;
  rpc_params.calls = 200;
  sim::RpcWorkload rpc(net, t.hosts.front(), t.hosts.back(), rpc_params, rng);
  net.run_until(seconds(1));
  ASSERT_TRUE(rpc.done());
  // Two ULL hops each way plus serialization: single-digit microseconds.
  EXPECT_LT(rpc.rtt_us().mean(), 10.0);
}

TEST(Integration, DesignChannelsDriveFaultAnalysis) {
  core::DesignParams design_params;
  design_params.switches = 17;
  design_params.server_ports_per_switch = 16;
  design_params.switch_model.port_count = 64;
  const core::QuartzDesign design = core::plan_design(design_params);
  ASSERT_TRUE(design.feasible);

  core::FaultParams fault;
  fault.switches = design.params.switches;
  fault.physical_rings = design.physical_rings;
  fault.failed_links = 1;
  fault.trials = 500;
  const core::FaultResult result = core::analyze_faults(fault);
  EXPECT_GT(result.mean_bandwidth_loss, 0.0);
  EXPECT_LT(result.mean_bandwidth_loss, 0.5);
}

TEST(Integration, AnalysisAndSimulationAgreeOnMeshLatency) {
  // Zero-load analytic latency must match what the simulator measures
  // for a single packet on an idle mesh.
  topo::QuartzRingParams ring;
  ring.switches = 4;
  ring.hosts_per_switch = 2;
  ring.links.host_propagation = 0;
  ring.links.fabric_propagation = 0;
  const topo::BuiltTopology t = topo::quartz_ring(ring);

  const topo::TopologyProperties props = topo::analyze(t);
  EXPECT_EQ(props.zero_load_latency, nanoseconds(760));  // 2 x 380 ns

  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  sim::Network net(t, oracle);
  TimePs measured = -1;
  const int task = net.new_task([&](const sim::Packet&, TimePs l) { measured = l; });
  net.send(t.host_groups[0][0], t.host_groups[2][0], bytes(400), task, 1);
  net.run_until(milliseconds(1));
  // The simulator adds only the first link's serialization on top of
  // the analyzer's switch latencies: cut-through pipelining overlaps
  // the downstream serializations.
  EXPECT_EQ(measured, props.zero_load_latency + nanoseconds(320));
}

TEST(Integration, FlowAndPacketSimulatorsAgreeOnSaturation) {
  // The flow solver says a single 40G lightpath carries at most 40G;
  // the packet simulator must show unbounded latency past that point
  // and healthy latency below it (Fig. 20 consistency).
  sim::PathologicalParams params;
  params.duration = milliseconds(2);
  params.aggregate_gbps = 35;
  const auto below = sim::run_pathological(sim::CoreKind::kQuartzEcmp, params);
  EXPECT_LT(below.mean_latency_us, 5.0);
  params.aggregate_gbps = 48;
  const auto above = sim::run_pathological(sim::CoreKind::kQuartzEcmp, params);
  EXPECT_GT(above.mean_latency_us, below.mean_latency_us * 5);
}

TEST(Integration, MultiRingMetadataConsistent) {
  // A 33-switch mesh needs 2 physical rings; the builder's per-link
  // ring indices must match the striping helper.
  topo::QuartzRingParams ring;
  ring.switches = 33;
  ring.hosts_per_switch = 1;
  const topo::BuiltTopology t = topo::quartz_ring(ring);
  for (const auto& link : t.graph.links()) {
    if (link.wdm_channel < 0) continue;
    EXPECT_EQ(link.wdm_ring, wavelength::ring_for_channel(link.wdm_channel, 2));
  }
}

TEST(Integration, EndToEndScatterOnEveryFabric) {
  // Smoke: every §7 fabric runs a scatter workload to completion with
  // zero drops at light load.
  sim::TaskExperimentParams params;
  params.tasks = 1;
  params.fanout = 6;
  params.per_flow_rate = megabits_per_second(50);
  params.duration = milliseconds(2);
  for (sim::Fabric fabric :
       {sim::Fabric::kThreeTierTree, sim::Fabric::kJellyfish, sim::Fabric::kQuartzInCore,
        sim::Fabric::kQuartzInEdge, sim::Fabric::kQuartzInEdgeAndCore,
        sim::Fabric::kQuartzInJellyfish}) {
    const auto result = sim::run_task_experiment(fabric, {}, params);
    EXPECT_GT(result.packets_measured, 0u) << sim::fabric_name(fabric);
    EXPECT_EQ(result.packets_dropped, 0u) << sim::fabric_name(fabric);
  }
}

TEST(Integration, DualTorTwoSwitchPaths) {
  // §3.2's scaled configuration: the longest server-to-server path is
  // still two switches, end to end, through the simulator.
  topo::QuartzDualTorParams params;
  params.racks = 9;
  params.hosts_per_rack = 2;
  const topo::BuiltTopology t = topo::quartz_dual_tor(params);
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  sim::Network net(t, oracle);
  test::ClosureTimer timers(net);

  // Every cross-rack host pair is 3 links (host, mesh, host) away.
  for (std::size_t a = 0; a < t.host_groups.size(); ++a) {
    for (std::size_t b = 0; b < t.host_groups.size(); ++b) {
      if (a == b) continue;
      EXPECT_EQ(routing.distance(t.host_groups[a][0], t.host_groups[b][0]), 3);
    }
  }

  SampleSet samples;
  const int task = net.new_task(
      [&samples](const sim::Packet& p, TimePs l) {
        // Cross-rack pairs cross exactly two switches; rack-local
        // pairs just one.
        EXPECT_LE(p.hops, 2);
        EXPECT_GE(p.hops, 1);
        samples.add(to_microseconds(l));
      });
  Rng rng(41);
  for (int i = 0; i < 200; ++i) {
    // Spread sends out so queueing does not blur the hop-count check.
    timers.at(microseconds(5) * i, [&net, &rng, &t, task] {
      const auto src = t.hosts[rng.next_below(t.hosts.size())];
      auto dst = t.hosts[rng.next_below(t.hosts.size())];
      while (dst == src) dst = t.hosts[rng.next_below(t.hosts.size())];
      net.send(src, dst, bytes(400), task, rng.next_u64());
    });
  }
  net.run_until(milliseconds(10));
  EXPECT_EQ(samples.count(), 200u);
  EXPECT_LT(samples.max(), 3.0);  // two ULL hops + serialization
}

TEST(Integration, DCellRoutesThroughServerRelays) {
  topo::DCellParams params;
  params.n = 4;
  const topo::BuiltTopology t = topo::dcell1(params);
  routing::EcmpRouting routing(t.graph, /*allow_host_relay=*/true);
  routing::EcmpOracle oracle(routing);
  sim::Network net(t, oracle);

  TimePs cross_cell = -1;
  const int task = net.new_task([&](const sim::Packet&, TimePs l) { cross_cell = l; });
  // Hosts in different cells with no direct inter-cell link between
  // them must relay through a server (15 us OS stack).
  net.send(t.host_groups[0][0], t.host_groups[2][0], bytes(400), task, 1);
  net.run_until(milliseconds(2));
  ASSERT_GE(cross_cell, 0);
  EXPECT_GT(cross_cell, microseconds(10));
}

TEST(Integration, UtilizationMatchesOfferedLoadInFig20) {
  // Physics cross-check: at 30 Gb/s offered into the 40 Gb/s direct
  // lightpath, that link's utilization must read ~75%.
  topo::QuartzRingParams ring;
  ring.switches = 4;
  ring.hosts_per_switch = 8;
  ring.mesh_rate = gigabits_per_second(40);
  ring.links.host_rate = gigabits_per_second(40);
  const topo::BuiltTopology t = topo::quartz_ring(ring);
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  sim::Network net(t, oracle);
  const int task = net.new_task({});
  Rng rng(43);
  std::vector<std::unique_ptr<sim::PoissonFlow>> flows;
  sim::FlowParams flow;
  flow.rate = gigabits_per_second(30.0 / 8);
  flow.stop = milliseconds(20);
  for (int i = 0; i < 8; ++i) {
    flows.push_back(std::make_unique<sim::PoissonFlow>(
        net, t.host_groups[0][static_cast<std::size_t>(i)],
        t.host_groups[1][static_cast<std::size_t>(i)], task, flow, rng.fork()));
  }
  net.run_until(flow.stop);
  // Find the S1->S2 mesh link.
  for (const topo::LinkId id : t.graph.link_ids()) {
    const topo::Link& link = t.graph.link(id);
    const bool s1s2 = (link.a == t.tors[0] && link.b == t.tors[1]) ||
                      (link.a == t.tors[1] && link.b == t.tors[0]);
    if (!s1s2) continue;
    const int dir = link.a == t.tors[0] ? 0 : 1;
    EXPECT_NEAR(net.utilization(id, dir), 0.75, 0.05);
  }
}

}  // namespace
}  // namespace quartz
