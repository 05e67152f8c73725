// Hybrid fluid background (sim/fluid.hpp): the M/D/1 queueing bias
// reaches foreground packets, the epoch digest is a stable determinism
// witness, epoch state survives save/restore, and the CBR foreground
// source paces deterministically.
#include "sim/fluid.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/stats.hpp"
#include "routing/ecmp.hpp"
#include "routing/oracle.hpp"
#include "sim/network.hpp"
#include "snapshot/io.hpp"
#include "topo/builders.hpp"

namespace quartz::sim {
namespace {

topo::BuiltTopology small_ring() {
  topo::QuartzRingParams p;
  p.switches = 4;
  p.hosts_per_switch = 2;
  p.mesh_rate = gigabits_per_second(10);
  p.links.host_rate = gigabits_per_second(10);
  return topo::quartz_ring(p);
}

/// Mean foreground latency of one CBR flow over `duration`, with an
/// optional fluid background sharing its mesh lightpath.
double foreground_mean_us(const topo::BuiltTopology& t, bool hybrid,
                          double background_bps = 8e9) {
  const routing::EcmpRouting routing(t.graph);
  const routing::EcmpOracle oracle(routing);
  Network net(t, oracle, {});
  RunningStats latency_us;
  const int task =
      net.new_task([&](const Packet&, TimePs lat) { latency_us.add(to_microseconds(lat)); });

  const TimePs duration = milliseconds(2);
  CbrSource source(net, {{t.host_groups[0][0], t.host_groups[1][0], 1e9, 1500 * 8}}, task, 0,
                   duration);
  source.arm();

  std::unique_ptr<FluidBackground> fluid;
  if (hybrid) {
    fluid = std::make_unique<FluidBackground>(
        net, oracle,
        std::vector<FluidDemand>{{t.host_groups[0][1], t.host_groups[1][1], background_bps}},
        FluidParams{});
    fluid->arm();
  }
  net.run_until(duration + milliseconds(1));
  EXPECT_GT(latency_us.count(), 100u);
  EXPECT_EQ(net.packets_dropped(), 0u);
  return latency_us.mean();
}

TEST(FluidBackground, BiasReachesForegroundPackets) {
  const auto t = small_ring();
  const double plain = foreground_mean_us(t, false);
  const double hybrid = foreground_mean_us(t, true);
  // rho = 0.8 on the shared 10G lightpath: W = rho/(2(1-rho)) * S
  // = 2 * 1.2us = 2.4us of modeled background queueing.
  EXPECT_GT(hybrid, plain + 2.0);
  EXPECT_LT(hybrid, plain + 3.0);
}

TEST(FluidBackground, BiasScalesWithBackgroundLoad) {
  const auto t = small_ring();
  const double light = foreground_mean_us(t, true, 2e9);
  const double heavy = foreground_mean_us(t, true, 8e9);
  EXPECT_GT(heavy, light);
}

/// One full hybrid run; returns (epochs, digest).
std::pair<std::uint64_t, std::uint64_t> hybrid_run(double rate_bps) {
  const auto t = small_ring();
  const routing::EcmpRouting routing(t.graph);
  const routing::EcmpOracle oracle(routing);
  Network net(t, oracle, {});
  FluidBackground fluid(net, oracle,
                        {{t.host_groups[0][1], t.host_groups[1][1], rate_bps},
                         {t.host_groups[2][0], t.host_groups[3][0], rate_bps / 2}},
                        FluidParams{});
  fluid.arm();
  net.run_until(milliseconds(2));
  return {fluid.epochs(), fluid.digest()};
}

TEST(FluidBackground, DigestIsRunToRunStable) {
  const auto a = hybrid_run(8e9);
  const auto b = hybrid_run(8e9);
  EXPECT_GT(a.first, 0u);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  // ... and actually witnesses the solve: a different load digests
  // differently.
  const auto c = hybrid_run(4e9);
  EXPECT_NE(a.second, c.second);
}

TEST(FluidBackground, SaveRestoreRoundTripsEpochState) {
  const auto t = small_ring();
  const routing::EcmpRouting routing(t.graph);
  const routing::EcmpOracle oracle(routing);
  const std::vector<FluidDemand> demands{{t.host_groups[0][1], t.host_groups[1][1], 8e9}};

  Network net(t, oracle, {});
  FluidBackground fluid(net, oracle, demands, FluidParams{});
  fluid.arm();
  net.run_until(milliseconds(1));
  ASSERT_GT(fluid.epochs(), 0u);

  snapshot::Writer w;
  w.begin_chunk(snapshot::chunk_id("FLUI"));
  fluid.save(w);
  w.end_chunk();
  std::string error;
  auto reader = snapshot::Reader::from_bytes(snapshot::file_bytes(w, 0), &error);
  ASSERT_TRUE(reader.has_value()) << error;

  Network net2(t, oracle, {});
  FluidBackground restored(net2, oracle, demands, FluidParams{});
  reader->open_chunk(snapshot::chunk_id("FLUI"));
  restored.restore(*reader);
  reader->close_chunk();

  EXPECT_EQ(restored.epochs(), fluid.epochs());
  EXPECT_EQ(restored.digest(), fluid.digest());
  EXPECT_EQ(restored.aggregate_bps(), fluid.aggregate_bps());
  EXPECT_TRUE(std::ranges::equal(restored.bias(), fluid.bias()));
}

TEST(FluidBackground, RestoreRefusesDifferentDemandCount) {
  const auto t = small_ring();
  const routing::EcmpRouting routing(t.graph);
  const routing::EcmpOracle oracle(routing);

  Network net(t, oracle, {});
  FluidBackground fluid(net, oracle, {{t.host_groups[0][1], t.host_groups[1][1], 8e9}},
                        FluidParams{});
  fluid.arm();
  net.run_until(milliseconds(1));
  snapshot::Writer w;
  w.begin_chunk(snapshot::chunk_id("FLUI"));
  fluid.save(w);
  w.end_chunk();
  std::string error;
  auto reader = snapshot::Reader::from_bytes(snapshot::file_bytes(w, 0), &error);
  ASSERT_TRUE(reader.has_value()) << error;

  Network net2(t, oracle, {});
  FluidBackground other(net2, oracle,
                        {{t.host_groups[0][1], t.host_groups[1][1], 8e9},
                         {t.host_groups[2][0], t.host_groups[3][0], 4e9}},
                        FluidParams{});
  reader->open_chunk(snapshot::chunk_id("FLUI"));
  EXPECT_THROW(other.restore(*reader), std::invalid_argument);
}

TEST(FluidBackground, RejectsMalformedDemands) {
  const auto t = small_ring();
  const routing::EcmpRouting routing(t.graph);
  const routing::EcmpOracle oracle(routing);
  Network net(t, oracle, {});

  using Demands = std::vector<FluidDemand>;
  EXPECT_THROW(FluidBackground(net, oracle, Demands{{t.hosts[0], t.hosts[0], 1e9}},
                               FluidParams{}),
               std::invalid_argument);
  EXPECT_THROW(FluidBackground(net, oracle, Demands{{t.hosts[0], t.tors[1], 1e9}},
                               FluidParams{}),
               std::invalid_argument);
  EXPECT_THROW(FluidBackground(net, oracle, Demands{{t.hosts[0], t.hosts[1], 0.0}},
                               FluidParams{}),
               std::invalid_argument);
  FluidParams bad_epoch;
  bad_epoch.epoch = 0;
  EXPECT_THROW(FluidBackground(net, oracle, Demands{{t.hosts[0], t.hosts[1], 1e9}}, bad_epoch),
               std::invalid_argument);
}

TEST(FluidBackground, DetachesItsBiasOnDestruction) {
  const auto t = small_ring();
  const routing::EcmpRouting routing(t.graph);
  const routing::EcmpOracle oracle(routing);
  Network net(t, oracle, {});
  {
    FluidBackground fluid(net, oracle, {{t.hosts[0], t.hosts[4], 8e9}}, FluidParams{});
    EXPECT_NE(net.queue_bias(), nullptr);
  }
  EXPECT_EQ(net.queue_bias(), nullptr);
}

TEST(CbrSource, PacesDeterministically) {
  const auto t = small_ring();
  const routing::EcmpRouting routing(t.graph);
  const routing::EcmpOracle oracle(routing);

  auto run = [&] {
    Network net(t, oracle, {});
    std::uint64_t delivered = 0;
    const int task = net.new_task([&](const Packet&, TimePs) { ++delivered; });
    // 1 Gbps of 1500B frames = one packet every 12 us.
    CbrSource source(net, {{t.host_groups[0][0], t.host_groups[1][0], 1e9, 1500 * 8}}, task, 0,
                     microseconds(1200));
    source.arm();
    net.run_until(milliseconds(2));
    return std::pair<std::uint64_t, std::uint64_t>{source.packets_sent(), delivered};
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, 101u);  // phases start at t=0: ticks 0..1200us inclusive
  EXPECT_EQ(a.first, a.second);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace quartz::sim
