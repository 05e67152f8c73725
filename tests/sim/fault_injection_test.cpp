#include "sim/fault_injection.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/fault.hpp"
#include "routing/oracle.hpp"
#include "sim/network.hpp"
#include "sim/workloads.hpp"
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

/// First host hanging off a switch.
topo::NodeId host_of(const topo::BuiltTopology& topo, topo::NodeId sw) {
  for (const auto& adj : topo.graph.neighbors(sw)) {
    if (topo.graph.is_host(adj.peer)) return adj.peer;
  }
  return topo::kInvalidNode;
}

/// Direct mesh link between two switches.
topo::LinkId direct_link(const topo::BuiltTopology& topo, topo::NodeId a, topo::NodeId b) {
  for (const auto& adj : topo.graph.neighbors(a)) {
    if (adj.peer == b) return adj.link;
  }
  return topo::kInvalidLink;
}

TEST(FaultInjection, TransmitOntoDeadLinkIsDroppedAndCounted) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);  // failure-oblivious: no view attached
  Network net(t, oracle);

  const topo::LinkId direct = direct_link(t, t.tors[0], t.tors[1]);
  ASSERT_NE(direct, topo::kInvalidLink);
  net.fail_link(direct);
  EXPECT_FALSE(net.link_up(direct));
  EXPECT_EQ(net.link_failures(), 1u);
  net.fail_link(direct);  // double fail is idempotent
  EXPECT_EQ(net.link_failures(), 1u);

  struct DropSink final : TelemetrySink {
    int drops = 0;
    DropReason reason = DropReason::kQueueOverflow;
    void on_drop(const Packet&, DropReason why, TimePs) override {
      ++drops;
      reason = why;
    }
  } sink;
  net.add_sink(&sink);
  const int task = net.new_task({});
  net.send(host_of(t, t.tors[0]), host_of(t, t.tors[1]), bytes(400), task, 1);
  net.run_until(milliseconds(1));

  EXPECT_EQ(net.packets_delivered(), 0u);
  EXPECT_EQ(net.packets_dropped(), 1u);
  EXPECT_EQ(net.packets_dropped(DropReason::kLinkDown), 1u);
  EXPECT_EQ(net.packets_dropped(DropReason::kQueueOverflow), 0u);
  EXPECT_EQ(net.task_drops(task), 1u);
  EXPECT_EQ(sink.drops, 1);
  EXPECT_EQ(sink.reason, DropReason::kLinkDown);

  // After repair the same pair delivers again.
  net.repair_link(direct);
  EXPECT_TRUE(net.link_up(direct));
  EXPECT_EQ(net.link_repairs(), 1u);
  net.send(host_of(t, t.tors[0]), host_of(t, t.tors[1]), bytes(400), task, 1);
  net.run_until(milliseconds(2));
  EXPECT_EQ(net.packets_delivered(), 1u);
  EXPECT_EQ(net.packets_dropped(), 1u);
}

TEST(FaultInjection, InFlightPacketDropsWhenItsLinkFails) {
  // A long fiber span (100 us propagation): the packet is on the wire
  // when the cut lands, so it must be lost even though the transmit
  // started while the link was still up.
  topo::QuartzRingParams p;
  p.switches = 8;
  p.hosts_per_switch = 2;
  p.links.fabric_propagation = microseconds(100);
  const auto t = topo::quartz_ring(p);
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  Network net(t, oracle);
  test::ClosureTimer timers(net);
  const int task = net.new_task({});
  const topo::LinkId direct = direct_link(t, t.tors[0], t.tors[1]);
  net.send(host_of(t, t.tors[0]), host_of(t, t.tors[1]), bytes(400), task, 1);
  timers.at(microseconds(10), [&net, direct] { net.fail_link(direct); });
  net.run_until(milliseconds(1));
  EXPECT_EQ(net.packets_delivered(), 0u);
  EXPECT_EQ(net.packets_dropped(DropReason::kLinkDown), 1u);
}

TEST(FaultInjection, FailureViewUpdatesAfterDetectionDelay) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  SimConfig config;
  config.failure_detection_delay = microseconds(100);
  Network net(t, oracle, config);
  const topo::LinkId direct = direct_link(t, t.tors[0], t.tors[1]);

  net.fail_link(direct);
  EXPECT_FALSE(net.link_up(direct));                  // physically down now
  EXPECT_FALSE(net.failure_view().is_dead(direct));   // but not yet detected
  net.run_until(microseconds(50));
  EXPECT_FALSE(net.failure_view().is_dead(direct));
  net.run_until(microseconds(150));
  EXPECT_TRUE(net.failure_view().is_dead(direct));

  // Repair detection is symmetric.
  net.repair_link(direct);
  EXPECT_TRUE(net.link_up(direct));
  EXPECT_TRUE(net.failure_view().is_dead(direct));
  net.run_until(microseconds(300));
  EXPECT_FALSE(net.failure_view().is_dead(direct));
  EXPECT_EQ(net.failure_view().dead_count(), 0u);
}

TEST(FaultInjection, RapidFlapNeverAppliesStaleDetection) {
  // Fail then repair inside one detection window: the stale "mark dead"
  // event must not fire after the link already came back.
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  SimConfig config;
  config.failure_detection_delay = microseconds(100);
  Network net(t, oracle, config);
  test::ClosureTimer timers(net);
  const topo::LinkId direct = direct_link(t, t.tors[0], t.tors[1]);
  timers.at(0, [&] { net.fail_link(direct); });
  timers.at(microseconds(50), [&] { net.repair_link(direct); });
  bool ever_dead = false;
  for (TimePs when = 0; when <= microseconds(400); when += microseconds(10)) {
    timers.at(when, [&] { ever_dead = ever_dead || net.failure_view().is_dead(direct); });
  }
  net.run_until(microseconds(500));
  EXPECT_FALSE(ever_dead);
  EXPECT_EQ(net.failure_view().dead_count(), 0u);
}

TEST(FaultInjection, ScriptedCutShowsLossOnlyInsideDetectionWindow) {
  // The acceptance scenario: cut ring 0 segment 0 at t=1s, detection
  // delay 50ms, repair at t=3s.  An affected pair loses packets only
  // during the blackhole, rides a one-switch-longer detour until the
  // repair is detected, then returns to its direct lightpath.
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  SimConfig config;
  config.failure_detection_delay = milliseconds(50);
  Network net(t, oracle, config);
  test::ClosureTimer timers(net);
  oracle.attach_failure_view(&net.failure_view());

  const auto severed = topo::severed_links(t, {{0, 0}});
  ASSERT_FALSE(severed.empty());
  const topo::Link& victim = t.graph.link(severed.front());
  const topo::NodeId src = host_of(t, victim.a);
  const topo::NodeId dst = host_of(t, victim.b);

  std::vector<std::pair<TimePs, int>> delivered;  // (delivery time, switch hops)
  std::vector<TimePs> dropped;
  const int task = net.new_task(
      [&](const Packet& p, TimePs) { delivered.emplace_back(net.now(), p.hops); });
  struct DropTimes final : TelemetrySink {
    std::vector<TimePs>* dropped;
    explicit DropTimes(std::vector<TimePs>* out) : dropped(out) {}
    void on_drop(const Packet&, DropReason reason, TimePs when) override {
      EXPECT_EQ(reason, DropReason::kLinkDown);
      dropped->push_back(when);
    }
  } sink(&dropped);
  net.add_sink(&sink);

  for (int i = 0; i < 4'000; ++i) {
    timers.at(milliseconds(1) * i, [&net, src, dst, task] {
      net.send(src, dst, bytes(400), task, 99);  // one flow, stable hash
    });
  }
  FaultScheduler faults(net);
  faults.schedule_fiber_cut(seconds(1), {0, 0}, seconds(3));
  net.run_until(seconds(5));

  EXPECT_EQ(delivered.size() + dropped.size(), 4'000u);
  ASSERT_FALSE(dropped.empty());
  for (const TimePs when : dropped) {
    EXPECT_GE(when, seconds(1));
    EXPECT_LE(when, seconds(1) + milliseconds(51));
  }

  int baseline_hops = -1;
  for (const auto& [when, hops] : delivered) {
    if (when < seconds(1)) {
      if (baseline_hops < 0) baseline_hops = hops;
      EXPECT_EQ(hops, baseline_hops);            // healthy: direct lightpath
    } else if (when > seconds(1) + milliseconds(60) && when < seconds(3)) {
      EXPECT_EQ(hops, baseline_hops + 1);        // self-healed two-hop detour
    } else if (when > seconds(3) + milliseconds(60)) {
      EXPECT_EQ(hops, baseline_hops);            // repair detected: direct again
    }
  }
  EXPECT_EQ(baseline_hops, 2);  // ingress + egress switch
}

TEST(FaultInjection, RpcRetriesDeliverEverythingAcrossACutRepairCycle) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  SimConfig config;
  config.failure_detection_delay = milliseconds(5);
  Network net(t, oracle, config);
  oracle.attach_failure_view(&net.failure_view());

  const auto severed = topo::severed_links(t, {{0, 0}});
  const topo::Link& victim = t.graph.link(severed.front());
  RpcParams rpc;
  rpc.calls = 200;
  rpc.service_time = microseconds(100);
  rpc.timeout = microseconds(300);
  rpc.max_retries = 20;
  rpc.backoff_base = microseconds(50);
  rpc.backoff_cap = milliseconds(2);
  RpcWorkload load(net, host_of(t, victim.a), host_of(t, victim.b), rpc, Rng(5));

  FaultScheduler faults(net);
  faults.schedule_cut(milliseconds(10), severed, milliseconds(100));
  net.run_until(seconds(1));

  // 100% eventual delivery: the blackhole only delays calls.
  EXPECT_TRUE(load.done());
  EXPECT_EQ(load.completed_calls(), rpc.calls);
  EXPECT_EQ(load.abandoned_calls(), 0);
  EXPECT_GT(load.total_retries(), 0u);
  ASSERT_FALSE(load.recovery_us().empty());
  // Recovery spans the detection window, so it is far above healthy RTT.
  EXPECT_GT(load.recovery_us().max(), to_microseconds(config.failure_detection_delay));
  EXPECT_GT(faults.cuts(), 0u);
  EXPECT_EQ(faults.cuts(), faults.repairs());
}

TEST(FaultInjection, PoissonChurnConservesPacketsAndConverges) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  SimConfig config;
  config.failure_detection_delay = microseconds(500);
  Network net(t, oracle, config);
  test::ClosureTimer timers(net);
  oracle.attach_failure_view(&net.failure_view());

  const int task = net.new_task({});
  Rng rng(17);
  for (int i = 0; i < 20'000; ++i) {
    timers.at(microseconds(10) * i, [&net, &t, &rng, task] {
      const auto src = t.hosts[rng.next_below(t.hosts.size())];
      auto dst = t.hosts[rng.next_below(t.hosts.size())];
      while (dst == src) dst = t.hosts[rng.next_below(t.hosts.size())];
      net.send(src, dst, bytes(400), task, rng.next_u64());
    });
  }

  FaultScheduler faults(net);
  PoissonFaultParams churn;
  churn.failures_per_link_per_hour = 3.6e5;  // mean TTF 10 ms per link
  churn.mean_repair_hours = 1e-6;            // mean TTR 3.6 ms
  churn.stop = milliseconds(200);
  faults.run_poisson(churn, {}, Rng(23));
  net.run_until(seconds(2));

  EXPECT_GT(faults.cuts(), 0u);
  EXPECT_GT(faults.repairs(), 0u);
  EXPECT_EQ(net.link_failures(), faults.cuts());
  EXPECT_EQ(net.packets_sent(), 20'000u);
  EXPECT_EQ(net.packets_delivered() + net.packets_dropped(), net.packets_sent());
  EXPECT_GT(net.packets_delivered(), 0u);
}

TEST(PoissonFaultParams, FromAvailabilityMatchesSteadyStateModel) {
  core::AvailabilityParams availability;  // 0.5 cuts/km/year over 0.1 km spans
  const auto p = PoissonFaultParams::from_availability(availability, 0, seconds(2));
  EXPECT_NEAR(p.failures_per_link_per_hour,
              availability.cuts_per_km_per_year * availability.span_km / 8766.0, 1e-12);
  EXPECT_DOUBLE_EQ(p.mean_repair_hours, availability.mttr_hours);
  EXPECT_EQ(p.start, 0);
  EXPECT_EQ(p.stop, seconds(2));
}

TEST(FaultScheduler, OverlappingCutWindowsDoNotResurrectTheLink) {
  // Regression: two scripted cut windows overlap on one link.  The
  // first window's repair used to bring the link back up while the
  // second window still held it down; the down-state is now
  // reference-counted, so only the LAST overlapping repair revives it.
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  Network net(t, oracle);
  test::ClosureTimer timers(net);
  FaultScheduler faults(net);
  const topo::LinkId direct = direct_link(t, t.tors[0], t.tors[1]);

  faults.schedule_cut(milliseconds(10), {direct}, milliseconds(100));
  faults.schedule_cut(milliseconds(50), {direct}, milliseconds(150));

  std::vector<std::pair<TimePs, bool>> observed;
  for (const TimePs when :
       {milliseconds(20), milliseconds(60), milliseconds(120), milliseconds(160)}) {
    timers.at(when, [&net, &observed, direct] { observed.emplace_back(net.now(), net.link_up(direct)); });
  }
  net.run_until(milliseconds(200));

  ASSERT_EQ(observed.size(), 4u);
  EXPECT_FALSE(observed[0].second);  // first window active
  EXPECT_FALSE(observed[1].second);  // both windows active
  EXPECT_FALSE(observed[2].second);  // first repaired, second still holds it down
  EXPECT_TRUE(observed[3].second);   // last repair revives it
  // The scheduler counted both windows, the network flipped state once.
  EXPECT_EQ(faults.cuts(), 2u);
  EXPECT_EQ(faults.repairs(), 2u);
  EXPECT_EQ(net.link_failures(), 1u);
  EXPECT_EQ(net.link_repairs(), 1u);
}

TEST(FaultScheduler, NeverRepairedCutKeepsTrafficOnDetours) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  SimConfig config;
  config.failure_detection_delay = milliseconds(1);
  Network net(t, oracle, config);
  test::ClosureTimer timers(net);
  oracle.attach_failure_view(&net.failure_view());

  const auto severed = topo::severed_links(t, {{0, 0}});
  const topo::Link& victim = t.graph.link(severed.front());
  const topo::NodeId src = host_of(t, victim.a);
  const topo::NodeId dst = host_of(t, victim.b);

  std::vector<std::pair<TimePs, int>> delivered;
  const int task = net.new_task(
      [&](const Packet& p, TimePs) { delivered.emplace_back(net.now(), p.hops); });
  for (int i = 0; i < 200; ++i) {
    timers.at(milliseconds(1) * i, [&net, src, dst, task] {
      net.send(src, dst, bytes(400), task, 99);
    });
  }
  FaultScheduler faults(net);
  faults.schedule_cut(milliseconds(10), severed);  // repair_at omitted: never
  net.run_until(milliseconds(300));

  // The dead set stays elevated forever and routing never returns to
  // the direct lightpath.
  EXPECT_TRUE(net.failure_view().is_dead(severed.front()));
  EXPECT_EQ(net.failure_view().dead_count(), severed.size());
  EXPECT_EQ(faults.cuts(), severed.size());
  EXPECT_EQ(faults.repairs(), 0u);
  ASSERT_FALSE(delivered.empty());
  int baseline_hops = -1;
  for (const auto& [when, hops] : delivered) {
    if (when < milliseconds(10)) {
      if (baseline_hops < 0) baseline_hops = hops;
      EXPECT_EQ(hops, baseline_hops);
    } else if (when > milliseconds(12)) {
      EXPECT_EQ(hops, baseline_hops + 1);  // detour, until the end of time
    }
  }
  EXPECT_EQ(baseline_hops, 2);
}

TEST(FaultScheduler, TransceiverAgingCorruptsPacketsOnlyWhileActive) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  Network net(t, oracle);  // no failure view: traffic stays on the gray link
  test::ClosureTimer timers(net);
  FaultScheduler faults(net);
  const topo::LinkId direct = direct_link(t, t.tors[0], t.tors[1]);
  const topo::NodeId src = host_of(t, t.tors[0]);
  const topo::NodeId dst = host_of(t, t.tors[1]);

  const int task = net.new_task({});
  for (int i = 0; i < 3'000; ++i) {
    timers.at(microseconds(10) * i, [&net, src, dst, task] {
      net.send(src, dst, bytes(400), task, 99);
    });
  }
  faults.schedule_transceiver_aging(milliseconds(5), direct, 0.5, milliseconds(20));
  std::uint64_t corrupted_at_restore = 0;
  timers.at(milliseconds(20), [&] {
    corrupted_at_restore = net.packets_dropped(DropReason::kCorrupted);
    EXPECT_DOUBLE_EQ(net.link_loss_rate(direct), 0.0);  // restored
  });
  net.run_until(milliseconds(40));

  // Roughly half the ~1500 packets inside the gray window were eaten…
  const std::uint64_t corrupted = net.packets_dropped(DropReason::kCorrupted);
  EXPECT_GT(corrupted, 500u);
  EXPECT_LT(corrupted, 1'000u);
  // …and none outside it.
  EXPECT_EQ(corrupted, corrupted_at_restore);
  // The link never went down: gray failures are invisible to the
  // binary liveness machinery but exact in the per-reason accounting.
  EXPECT_TRUE(net.link_up(direct));
  EXPECT_EQ(net.link_failures(), 0u);
  EXPECT_EQ(net.packets_dropped(DropReason::kLinkDown), 0u);
  EXPECT_EQ(net.packets_delivered() + corrupted, 3'000u);
  EXPECT_EQ(net.task_drops(task), corrupted);
  EXPECT_EQ(faults.degradations(), 1u);
  EXPECT_EQ(faults.restorations(), 1u);
}

TEST(FaultScheduler, StackedDegradationsCombineAndUnwindIndependently) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  Network net(t, oracle);
  test::ClosureTimer timers(net);
  FaultScheduler faults(net);
  const topo::LinkId direct = direct_link(t, t.tors[0], t.tors[1]);

  // Amplifier (0.5) and transceiver (0.2) overlap on the same link:
  // combined drop probability is 1 - (1-0.5)(1-0.2) = 0.6.
  faults.schedule_transceiver_aging(milliseconds(1), direct, 0.5, milliseconds(30));
  faults.schedule_transceiver_aging(milliseconds(10), direct, 0.2, milliseconds(20));
  std::vector<double> loss;
  for (const TimePs when : {milliseconds(5), milliseconds(15), milliseconds(25), milliseconds(35)}) {
    timers.at(when, [&net, &loss, direct] { loss.push_back(net.link_loss_rate(direct)); });
  }
  net.run_until(milliseconds(40));

  ASSERT_EQ(loss.size(), 4u);
  EXPECT_DOUBLE_EQ(loss[0], 0.5);
  EXPECT_DOUBLE_EQ(loss[1], 0.6);
  EXPECT_DOUBLE_EQ(loss[2], 0.5);  // inner window lifted, outer remains
  EXPECT_DOUBLE_EQ(loss[3], 0.0);
  EXPECT_EQ(faults.degradations(), 2u);
  EXPECT_EQ(faults.restorations(), 2u);
  EXPECT_EQ(net.link_health(direct), routing::LinkHealth::kHealthy);
}

TEST(FaultScheduler, RejectsBadComponentFaultInputs) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  Network net(t, oracle);
  FaultScheduler faults(net);
  const topo::LinkId direct = direct_link(t, t.tors[0], t.tors[1]);

  EXPECT_THROW(faults.schedule_cut(-1, {direct}), std::invalid_argument);
  EXPECT_THROW(faults.schedule_cut(0, {topo::LinkId(999'999)}), std::invalid_argument);
  EXPECT_THROW(faults.schedule_transceiver_aging(0, direct, 0.0), std::invalid_argument);
  EXPECT_THROW(faults.schedule_transceiver_aging(0, direct, 1.5), std::invalid_argument);
  EXPECT_THROW(faults.schedule_transceiver_aging(seconds(1), direct, 0.5, seconds(1)),
               std::invalid_argument);
  EXPECT_THROW(faults.schedule_flapping(0, direct, 0, microseconds(1), 3), std::invalid_argument);
  EXPECT_THROW(faults.schedule_flapping(0, direct, microseconds(1), microseconds(1), 0),
               std::invalid_argument);
  EXPECT_THROW(net.set_link_loss(direct, -0.1), std::invalid_argument);
  EXPECT_THROW(net.set_link_loss(direct, 1.1), std::invalid_argument);
}

TEST(PoissonFaultParams, FromAvailabilityRejectsDegenerateInputs) {
  core::AvailabilityParams availability;
  availability.cuts_per_km_per_year = 0.0;
  EXPECT_THROW(PoissonFaultParams::from_availability(availability, 0, seconds(1)),
               std::invalid_argument);
  availability = {};
  availability.span_km = -1.0;
  EXPECT_THROW(PoissonFaultParams::from_availability(availability, 0, seconds(1)),
               std::invalid_argument);
  availability = {};
  availability.mttr_hours = 0.0;
  EXPECT_THROW(PoissonFaultParams::from_availability(availability, 0, seconds(1)),
               std::invalid_argument);
  availability = {};
  EXPECT_THROW(PoissonFaultParams::from_availability(availability, seconds(1), seconds(1)),
               std::invalid_argument);
}

TEST(FaultScheduler, RejectsBadTimelines) {
  const auto t = eight_ring();
  routing::EcmpRouting routing(t.graph);
  routing::EcmpOracle oracle(routing);
  Network net(t, oracle);
  FaultScheduler faults(net);
  EXPECT_THROW(faults.schedule_cut(seconds(1), {}), std::invalid_argument);
  EXPECT_THROW(faults.schedule_cut(seconds(1), {0}, seconds(1)), std::invalid_argument);
  PoissonFaultParams churn;
  churn.failures_per_link_per_hour = 0.0;
  EXPECT_THROW(faults.run_poisson(churn, {}, Rng(1)), std::invalid_argument);
}

}  // namespace
}  // namespace quartz::sim
