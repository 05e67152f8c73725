#include "sim/probes.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

#include "routing/health_monitor.hpp"
#include "routing/oracle.hpp"
#include "sim/fault_injection.hpp"
#include "sim/network.hpp"
#include "support/closure_timer.hpp"
#include "topo/builders.hpp"
#include "topo/failures.hpp"

namespace quartz::sim {
namespace {

topo::BuiltTopology eight_ring() {
  topo::QuartzRingParams p;
  p.switches = 8;
  p.hosts_per_switch = 2;
  return topo::quartz_ring(p);
}

topo::NodeId host_of(const topo::BuiltTopology& topo, topo::NodeId sw) {
  for (const auto& adj : topo.graph.neighbors(sw)) {
    if (topo.graph.is_host(adj.peer)) return adj.peer;
  }
  return topo::kInvalidNode;
}

routing::HealthMonitorConfig tight_config() {
  routing::HealthMonitorConfig c;
  c.dead_after_misses = 3;
  c.alive_after_acks = 3;
  c.hold_down = microseconds(200);
  c.hold_down_cap = milliseconds(20);
  c.flap_memory = milliseconds(10);
  return c;
}

TEST(ProbePlane, HealthyFabricStaysHealthyAndProbesAreFree) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  Network net(t, oracle);
  routing::HealthMonitor monitor(t.graph.link_count(), tight_config());
  ProbePlane::Options options;
  options.interval = microseconds(10);
  options.stop = milliseconds(1);
  ProbePlane probes(net, monitor, options);
  probes.start();
  net.run_until(milliseconds(2));

  EXPECT_GT(probes.probes_sent(), 0u);
  EXPECT_EQ(monitor.probes(), probes.probes_sent());  // every probe landed
  EXPECT_EQ(monitor.missed_probes(), 0u);
  EXPECT_EQ(monitor.dead_count(), 0u);
  EXPECT_EQ(monitor.lossy_count(), 0u);
  // Probes ride management capacity: they never perturb packet counters.
  EXPECT_EQ(net.packets_sent(), 0u);
  EXPECT_EQ(net.packets_dropped(), 0u);
}

TEST(ProbePlane, HardFailureIsDetectedByMissedProbesAndRecoveryByAcks) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  Network net(t, oracle);
  test::ClosureTimer timers(net);
  routing::HealthMonitor monitor(t.graph.link_count(), tight_config());
  ProbePlane::Options options;
  options.interval = microseconds(10);
  ProbePlane probes(net, monitor, options);
  const topo::LinkId victim = topo::severed_links(t, {{0, 0}}).front();
  probes.start({victim});

  timers.at(milliseconds(1), [&] { net.fail_link(victim); });
  net.run_until(milliseconds(1) + microseconds(100));
  // Three missed probes (30 us) plus one propagation: long detected.
  EXPECT_EQ(monitor.health(victim), routing::LinkHealth::kDead);
  EXPECT_TRUE(monitor.view().is_dead(victim));

  net.repair_link(victim);
  net.run_until(milliseconds(3));
  // Ack streak satisfied and hold-down (200 us) long expired.
  EXPECT_EQ(monitor.health(victim), routing::LinkHealth::kHealthy);
  EXPECT_EQ(monitor.deaths(), 1u);
  EXPECT_EQ(monitor.revivals(), 1u);
}

TEST(ProbePlane, GrayLinkTurnsLossyWhileFixedDelayViewStaysBlind) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  SimConfig config;
  config.failure_detection_delay = microseconds(100);
  Network net(t, oracle, config);
  auto mc = tight_config();
  mc.dead_after_misses = 10;  // 30% loss must read as lossy, not dead
  routing::HealthMonitor monitor(t.graph.link_count(), mc);
  ProbePlane::Options options;
  options.interval = microseconds(10);
  ProbePlane probes(net, monitor, options);
  const topo::LinkId victim = topo::severed_links(t, {{0, 0}}).front();
  int lossy_transitions = 0;
  monitor.set_transition_hook(
      [&](topo::LinkId, routing::LinkHealth, routing::LinkHealth to, TimePs) {
        if (to == routing::LinkHealth::kLossy) ++lossy_transitions;
      });
  probes.start({victim});

  net.set_link_loss(victim, 0.3);
  EXPECT_EQ(net.link_health(victim), routing::LinkHealth::kLossy);  // ground truth
  net.run_until(milliseconds(5));

  EXPECT_GT(monitor.missed_probes(), 0u);
  EXPECT_GE(lossy_transitions, 1);
  EXPECT_NE(monitor.health(victim), routing::LinkHealth::kDead);
  EXPECT_GT(monitor.loss_ewma(victim), 0.0);
  // The omniscient-but-binary fixed-delay detector never sees it.
  EXPECT_FALSE(net.failure_view().is_dead(victim));

  net.set_link_loss(victim, 0.0);
  EXPECT_EQ(net.link_health(victim), routing::LinkHealth::kHealthy);
  net.run_until(milliseconds(10));
  EXPECT_EQ(monitor.health(victim), routing::LinkHealth::kHealthy);
}

TEST(ProbePlane, RejectsBadOptionsAndUnknownLinks) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  Network net(t, oracle);
  routing::HealthMonitor monitor(t.graph.link_count());
  ProbePlane::Options bad;
  bad.interval = 0;
  EXPECT_THROW(ProbePlane(net, monitor, bad), std::invalid_argument);
  bad = {};
  bad.start = -1;
  EXPECT_THROW(ProbePlane(net, monitor, bad), std::invalid_argument);
  ProbePlane probes(net, monitor);
  EXPECT_THROW(probes.start({topo::LinkId(999'999)}), std::invalid_argument);
}

// --- the flap-damping payoff -------------------------------------------------

struct FlapOutcome {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t deaths = 0;
  std::uint64_t damped = 0;
};

/// One flow crossing a lightpath that flaps faster (300 us down, 200 us
/// up) than the fixed detector converges (500 us): the seq-number guard
/// cancels every stale "mark dead" event, so the fixed-delay baseline
/// never detects anything and blackholes every down window.  The probe
/// monitor declares death within ~3 probes and the doubling hold-down
/// pins the link dead across cycles, so traffic rides detours instead.
FlapOutcome run_flap_scenario(bool monitored) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  SimConfig config;
  if (!monitored) config.failure_detection_delay = microseconds(500);
  Network net(t, oracle, config);
  test::ClosureTimer timers(net);

  routing::HealthMonitor monitor(t.graph.link_count(), tight_config());
  ProbePlane::Options options;
  options.interval = microseconds(10);
  options.stop = milliseconds(120);
  ProbePlane probes(net, monitor, options);
  if (monitored) {
    oracle.attach_failure_view(&monitor.view());
    oracle.attach_loss_view(&monitor);
    probes.start();
  } else {
    oracle.attach_failure_view(&net.failure_view());
  }

  const topo::LinkId victim = topo::severed_links(t, {{0, 0}}).front();
  const topo::Link& link = t.graph.link(victim);
  const topo::NodeId src = host_of(t, link.a);
  const topo::NodeId dst = host_of(t, link.b);
  const int task = net.new_task({});
  for (int i = 0; i < 2'000; ++i) {
    timers.at(microseconds(50) * i, [&net, src, dst, task] {
      net.send(src, dst, bytes(400), task, 99);  // one flow, stable hash
    });
  }

  FaultScheduler faults(net);
  faults.schedule_flapping(milliseconds(5), victim, microseconds(300), microseconds(200), 100);
  net.run_until(milliseconds(200));

  FlapOutcome out;
  out.delivered = net.packets_delivered();
  out.dropped = net.packets_dropped();
  out.deaths = monitor.deaths();
  out.damped = monitor.damped_recoveries();
  return out;
}

TEST(FlapDamping, DampedMonitorOutDeliversUndampedFixedDelayBaseline) {
  const FlapOutcome fixed = run_flap_scenario(false);
  const FlapOutcome damped = run_flap_scenario(true);

  // Conservation holds in both runs.
  EXPECT_EQ(fixed.delivered + fixed.dropped, 2'000u);
  EXPECT_EQ(damped.delivered + damped.dropped, 2'000u);

  // The fixed-delay baseline blackholes roughly every down window:
  // 100 cycles x 300 us down at one packet per 50 us.
  EXPECT_GT(fixed.dropped, 300u);

  // The acceptance criterion: damping strictly wins on deliveries.
  EXPECT_GT(damped.delivered, fixed.delivered);
  EXPECT_LT(damped.dropped, fixed.dropped / 10);

  // And it wins *by damping*: recoveries were suppressed, so the link
  // died far fewer times than it flapped.
  EXPECT_GT(damped.damped, 0u);
  EXPECT_LT(damped.deaths, 50u);
  EXPECT_GT(damped.deaths, 0u);
}

}  // namespace
}  // namespace quartz::sim
