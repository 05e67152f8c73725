// Satellite regression for the engine refactor: the typed pooled event
// queue must keep simulations bit-reproducible — the same seed replays
// the exact same delivery and drop stream, and the Fig. 18 experiment
// returns bit-identical statistics run to run.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "routing/ecmp.hpp"
#include "routing/fib.hpp"
#include "routing/health_monitor.hpp"
#include "routing/oracle.hpp"
#include "sim/experiments.hpp"
#include "sim/fault_injection.hpp"
#include "sim/network.hpp"
#include "sim/probes.hpp"
#include "sim/workloads.hpp"
#include "support/closure_timer.hpp"
#include "support/digest_sink.hpp"
#include "topo/builders.hpp"

namespace quartz::sim {
namespace {

std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

using test::DigestSink;

struct DigestResult {
  std::uint64_t delivery_digest;
  std::uint64_t drop_digest;
  std::uint64_t deliveries;
  std::uint64_t drops;
  routing::Fib::Stats fib;
};

/// A Fig. 18-shaped run on a live mesh: localized all-to-all Poisson
/// traffic on an 8-switch ring with a fiber cut and repair mid-run, so
/// the digest covers deliveries, link-down drops, and fault detection.
/// With `use_fib` the run routes through a compiled routing::Fib whose
/// epoch invalidation the cut and repair both exercise.
DigestResult run_digest(std::uint64_t seed, bool use_fib = false) {
  topo::QuartzRingParams ring;
  ring.switches = 8;
  ring.hosts_per_switch = 2;
  const topo::BuiltTopology topo = topo::quartz_ring(ring);
  routing::EcmpRouting routing(topo.graph);
  routing::EcmpOracle oracle(routing);
  SimConfig config;
  config.failure_detection_delay = milliseconds(1);
  Network net(topo, oracle, config);
  oracle.attach_failure_view(&net.failure_view());
  routing::Fib fib(routing, oracle);
  if (use_fib) net.set_fib(&fib);

  DigestSink digest;
  net.add_sink(&digest);

  const int task = net.new_task([](const Packet&, TimePs) {});
  Rng rng(seed);
  std::vector<std::unique_ptr<PoissonFlow>> flows;
  FlowParams flow;
  flow.rate = megabits_per_second(50);
  flow.stop = milliseconds(20);
  for (const topo::NodeId src : topo.hosts) {
    for (const topo::NodeId dst : topo.hosts) {
      if (src == dst) continue;
      flows.push_back(std::make_unique<PoissonFlow>(net, src, dst, task, flow, rng.fork()));
    }
  }

  FaultScheduler faults(net);
  faults.schedule_fiber_cut(milliseconds(5), {0, 0}, milliseconds(12));
  net.run_until(milliseconds(22));

  return {digest.delivery_digest, digest.drop_digest, digest.deliveries, digest.drops,
          fib.stats()};
}

/// A chaos storm with churn: VLB over the mesh, a probe-driven
/// HealthMonitor as the loss view (every probe can move an EWMA and
/// bump the routing epoch), a gray link, and staggered cuts/repairs.
/// The digest must not depend on whether the compiled FIB fronts the
/// oracle.
DigestResult run_storm_digest(std::uint64_t seed, bool use_fib) {
  topo::QuartzRingParams ring;
  ring.switches = 8;
  ring.hosts_per_switch = 2;
  const topo::BuiltTopology topo = topo::quartz_ring(ring);
  routing::EcmpRouting routing(topo.graph);
  routing::VlbOracle oracle(routing, topo.quartz_rings, 0.4);
  SimConfig config;
  config.failure_detection_delay = milliseconds(1);
  Network net(topo, oracle, config);
  test::ClosureTimer timers(net);
  oracle.attach_failure_view(&net.failure_view());

  routing::HealthMonitor monitor(topo.graph.link_count());
  oracle.attach_loss_view(&monitor);
  ProbePlane::Options probe_options;
  probe_options.interval = microseconds(50);
  ProbePlane probes(net, monitor, probe_options);
  probes.start();

  routing::Fib fib(routing, oracle);
  if (use_fib) net.set_fib(&fib);

  DigestSink digest;
  net.add_sink(&digest);

  const int task = net.new_task([](const Packet&, TimePs) {});
  Rng rng(seed);
  std::vector<std::unique_ptr<PoissonFlow>> flows;
  FlowParams flow;
  flow.rate = megabits_per_second(50);
  flow.stop = milliseconds(18);
  for (const topo::NodeId src : topo.hosts) {
    for (const topo::NodeId dst : topo.hosts) {
      if (src == dst) continue;
      flows.push_back(std::make_unique<PoissonFlow>(net, src, dst, task, flow, rng.fork()));
    }
  }

  // Gray failure on one mesh lightpath plus two staggered cuts.
  topo::LinkId gray = 0;
  for (const topo::LinkId id : topo.graph.link_ids()) {
    const topo::Link& link = topo.graph.link(id);
    if (topo.graph.is_switch(link.a) && topo.graph.is_switch(link.b)) gray = id;
  }
  timers.at(milliseconds(2), [&net, gray] { net.set_link_loss(gray, 0.3); });
  timers.at(milliseconds(14), [&net, gray] { net.set_link_loss(gray, 0.0); });
  FaultScheduler faults(net);
  faults.schedule_fiber_cut(milliseconds(4), {0, 0}, milliseconds(9));
  faults.schedule_fiber_cut(milliseconds(7), {0, 2}, milliseconds(15));
  net.run_until(milliseconds(20));

  return {digest.delivery_digest, digest.drop_digest, digest.deliveries, digest.drops,
          fib.stats()};
}

TEST(Determinism, DeliveryAndDropDigestsReplayExactly) {
  const DigestResult first = run_digest(7);
  const DigestResult second = run_digest(7);
  EXPECT_GT(first.deliveries, 0u);
  EXPECT_GT(first.drops, 0u);  // the cut must actually bite
  EXPECT_EQ(first.delivery_digest, second.delivery_digest);
  EXPECT_EQ(first.drop_digest, second.drop_digest);
  EXPECT_EQ(first.deliveries, second.deliveries);
  EXPECT_EQ(first.drops, second.drops);
}

TEST(Determinism, DifferentSeedsDiverge) {
  const DigestResult first = run_digest(7);
  const DigestResult other = run_digest(8);
  EXPECT_NE(first.delivery_digest, other.delivery_digest);
}

TEST(Determinism, FibDigestsMatchLegacyUnderFaults) {
  const DigestResult legacy = run_digest(7, /*use_fib=*/false);
  const DigestResult fib = run_digest(7, /*use_fib=*/true);
  EXPECT_GT(fib.deliveries, 0u);
  EXPECT_GT(fib.drops, 0u);
  EXPECT_EQ(legacy.delivery_digest, fib.delivery_digest);
  EXPECT_EQ(legacy.drop_digest, fib.drop_digest);
  EXPECT_EQ(legacy.deliveries, fib.deliveries);
  EXPECT_EQ(legacy.drops, fib.drops);
  // The FIB must actually have been on the path and been invalidated by
  // the cut's detection and the repair (epoch churn), not just idle.
  EXPECT_GT(fib.fib.hits, 0u);
  EXPECT_GT(fib.fib.invalidations, 1u);
  EXPECT_EQ(legacy.fib.hits + legacy.fib.misses + legacy.fib.slow_path, 0u);
}

TEST(Determinism, FibDigestsMatchLegacyOnChaosStorm) {
  const DigestResult legacy = run_storm_digest(21, /*use_fib=*/false);
  const DigestResult fib = run_storm_digest(21, /*use_fib=*/true);
  EXPECT_GT(fib.deliveries, 0u);
  EXPECT_GT(fib.drops, 0u);
  EXPECT_EQ(legacy.delivery_digest, fib.delivery_digest);
  EXPECT_EQ(legacy.drop_digest, fib.drop_digest);
  EXPECT_EQ(legacy.deliveries, fib.deliveries);
  EXPECT_EQ(legacy.drops, fib.drops);
  // Probe-driven EWMA movement churns the epoch constantly; the FIB
  // must keep recompiling (misses) yet still serve fast hits between
  // probes.
  EXPECT_GT(fib.fib.invalidations, 10u);
  EXPECT_GT(fib.fib.misses, 0u);
  EXPECT_GT(fib.fib.hits, 0u);
}

TEST(Determinism, ProbeStormDigestsArePinned) {
  // Committed literals for the serial probe-plane storm above.
  const DigestResult r = run_storm_digest(21, /*use_fib=*/true);
  EXPECT_EQ(r.delivery_digest, 0x29918a06a96b8d59ull);
  EXPECT_EQ(r.drop_digest, 0x3781a158f0c81055ull);
  EXPECT_EQ(r.deliveries, 63195u);
  EXPECT_EQ(r.drops, 4717u);
}

TEST(Determinism, Fig18StatisticsIdenticalFibOnVsOff) {
  TaskExperimentParams params;
  params.localized = true;
  params.tasks = 3;
  params.duration = milliseconds(4);
  params.seed = 7;
  FabricConfig fib_on;
  fib_on.use_fib = true;
  FabricConfig fib_off;
  fib_off.use_fib = false;
  const TaskExperimentResult a = run_task_experiment(Fabric::kQuartzInEdgeAndCore, fib_on, params);
  const TaskExperimentResult b =
      run_task_experiment(Fabric::kQuartzInEdgeAndCore, fib_off, params);
  EXPECT_GT(a.packets_measured, 0u);
  EXPECT_EQ(hex_bits(a.mean_latency_us), hex_bits(b.mean_latency_us));
  EXPECT_EQ(hex_bits(a.p99_latency_us), hex_bits(b.p99_latency_us));
  EXPECT_EQ(hex_bits(a.ci95_us), hex_bits(b.ci95_us));
  EXPECT_EQ(hex_bits(a.mean_queueing_us), hex_bits(b.mean_queueing_us));
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
}

TEST(Determinism, Fig18ExperimentBitReproducible) {
  TaskExperimentParams params;
  params.localized = true;  // Fig. 18: one local task plus cross-traffic
  params.tasks = 3;
  params.duration = milliseconds(4);
  params.seed = 7;
  const TaskExperimentResult a = run_task_experiment(Fabric::kQuartzInEdgeAndCore, {}, params);
  const TaskExperimentResult b = run_task_experiment(Fabric::kQuartzInEdgeAndCore, {}, params);
  EXPECT_GT(a.packets_measured, 0u);
  EXPECT_EQ(hex_bits(a.mean_latency_us), hex_bits(b.mean_latency_us));
  EXPECT_EQ(hex_bits(a.p99_latency_us), hex_bits(b.p99_latency_us));
  EXPECT_EQ(hex_bits(a.ci95_us), hex_bits(b.ci95_us));
  EXPECT_EQ(hex_bits(a.mean_queueing_us), hex_bits(b.mean_queueing_us));
  EXPECT_EQ(a.packets_measured, b.packets_measured);
  EXPECT_EQ(a.packets_dropped, b.packets_dropped);
}

}  // namespace
}  // namespace quartz::sim
