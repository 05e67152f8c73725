// quartz_paper --figure=fault_transient: transient behaviour of a live
// Quartz mesh across a fiber cut (§3.5 made dynamic): cut -> detection
// blackhole -> self-healed two-hop detours -> repair -> direct
// lightpaths again.  Reports time-bucketed delivery latency percentiles
// and drop counts around the scripted timeline, plus the recovery
// profile of a timeout-and-retry RPC workload riding across the cut.
// The bucketing and the fault-event log both come from telemetry sinks
// attached to the network.
#include "report.hpp"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "optical/budget.hpp"
#include "routing/ecmp.hpp"
#include "routing/health_monitor.hpp"
#include "routing/oracle.hpp"
#include "sim/fault_injection.hpp"
#include "sim/fluid.hpp"
#include "sim/network.hpp"
#include "sim/probes.hpp"
#include "sim/sweep.hpp"
#include "sim/workloads.hpp"
#include "telemetry/sampler.hpp"
#include "topo/builders.hpp"
#include "topo/failures.hpp"

namespace {

using namespace quartz;

constexpr TimePs kBucket = milliseconds(100);
constexpr TimePs kCutAt = seconds(1);
constexpr TimePs kRepairAt = seconds(3);
constexpr TimePs kDetect = milliseconds(50);
constexpr TimePs kEnd = seconds(4);

topo::BuiltTopology make_fabric() {
  topo::QuartzRingParams params;
  params.switches = 8;
  params.hosts_per_switch = 2;
  return topo::quartz_ring(params);
}

/// First host hanging off a switch.
topo::NodeId host_of(const topo::BuiltTopology& topo, topo::NodeId sw) {
  for (const auto& adj : topo.graph.neighbors(sw)) {
    if (topo.graph.is_host(adj.peer)) return adj.peer;
  }
  return topo::kInvalidNode;
}

const char* phase_of(TimePs start) {
  return start < kCutAt                ? "healthy"
         : start < kCutAt + kDetect    ? "blackhole"
         : start < kRepairAt           ? "detoured"
         : start < kRepairAt + kDetect ? "repairing"
                                       : "healthy";
}

void report_fiber_cut() {
  const topo::BuiltTopology topo = make_fabric();
  routing::EcmpRouting routing(topo.graph);
  routing::EcmpOracle oracle(routing);
  sim::SimConfig config;
  config.failure_detection_delay = kDetect;
  sim::Network net(topo, oracle, config);
  oracle.attach_failure_view(&net.failure_view());

  // The sampler rebuilds the 100 ms latency/drop buckets from sink
  // events; the timeline records every cut/repair and its delayed
  // detection by the routing plane.
  telemetry::PeriodicSampler::Options sampling;
  sampling.bucket = kBucket;
  telemetry::PeriodicSampler sampler(sampling);
  telemetry::FaultTimeline timeline;
  net.add_sink(&sampler);
  net.add_sink(&timeline);

  const int task = net.new_task([](const sim::Packet&, TimePs) {});

  // All-to-all Poisson background traffic for the whole timeline.
  Rng rng(42);
  std::vector<std::unique_ptr<sim::PoissonFlow>> flows;
  sim::FlowParams flow;
  flow.packet_size = bytes(400);
  flow.rate = megabits_per_second(2);
  flow.start = 0;
  flow.stop = kEnd;
  for (const topo::NodeId src : topo.hosts) {
    for (const topo::NodeId dst : topo.hosts) {
      if (src == dst) continue;
      flows.push_back(std::make_unique<sim::PoissonFlow>(net, src, dst, task, flow, rng.fork()));
    }
  }

  // The scripted §3.5 scenario: sever ring 0 segment 0 at 1 s, splice
  // it back at 3 s.  The routing plane notices each transition 50 ms
  // later.
  sim::FaultScheduler faults(net);
  faults.schedule_fiber_cut(kCutAt, {0, 0}, kRepairAt);

  // A Thrift-like RPC workload pinned across one severed lightpath,
  // surviving the cut with timeout + capped exponential backoff.
  const auto severed = topo::severed_links(topo, {{0, 0}});
  const topo::Link& victim = topo.graph.link(severed.front());
  sim::RpcParams rpc;
  rpc.calls = 8'000;
  rpc.service_time = microseconds(500);
  rpc.timeout = milliseconds(1);  // comfortably above the ~503 us healthy RTT
  rpc.max_retries = 12;
  rpc.backoff_base = microseconds(100);
  rpc.backoff_cap = milliseconds(20);
  sim::RpcWorkload rpc_load(net, host_of(topo, victim.a), host_of(topo, victim.b), rpc,
                            rng.fork());

  net.run_until(kEnd + milliseconds(200));

  std::printf("timeline: cut at %.1f s, detection %.0f ms, repair at %.1f s; %zu lightpaths cut\n",
              to_seconds(kCutAt), to_microseconds(kDetect) / 1000.0, to_seconds(kRepairAt),
              severed.size());
  const std::vector<telemetry::BucketSummary> buckets = sampler.summaries();
  Table table({"t (ms)", "delivered", "p50 (us)", "p99 (us)", "link-down drops",
               "overflow drops", "hottest link util", "phase"});
  for (const auto& b : buckets) {
    char p50[16], p99[16], util[16];
    std::snprintf(p50, sizeof(p50), "%.2f", b.p50_us);
    std::snprintf(p99, sizeof(p99), "%.2f", b.p99_us);
    std::snprintf(util, sizeof(util), "%.4f",
                  b.hottest.empty() ? 0.0 : b.hottest.front().utilization);
    table.add_row({std::to_string(static_cast<long long>(b.start / milliseconds(1))),
                   std::to_string(b.delivered), p50, p99, std::to_string(b.link_down_drops),
                   std::to_string(b.queue_drops), util, phase_of(b.start)});
  }
  std::printf("%s\n", table.to_text().c_str());
  bench::Report::instance().add_timeline("latency_timeline", buckets);
  bench::print_note(
      "loss is confined to the detection windows; between detection and "
      "repair the affected pairs ride two-hop detours (elevated p99), and "
      "direct-lightpath latency returns after the repair is detected");

  std::printf("fault events (%llu cuts, %llu repairs, %llu detections, "
              "mean detection lag %.0f us):\n",
              static_cast<unsigned long long>(timeline.cuts()),
              static_cast<unsigned long long>(timeline.repairs()),
              static_cast<unsigned long long>(timeline.detections()),
              timeline.mean_detection_lag_us());
  for (const auto& event : timeline.events()) {
    std::printf("  t=%8.1f ms  link %u  %s\n", to_microseconds(event.when) / 1000.0,
                event.link, telemetry::FaultTimeline::kind_name(event.kind));
  }
  for (auto& row : timeline.to_rows()) {
    bench::Report::instance().add_row("fault_events", std::move(row));
  }
  bench::Report::instance().add_row(
      "fault_summary",
      {{"cuts", timeline.cuts()},
       {"repairs", timeline.repairs()},
       {"detections", timeline.detections()},
       {"mean_detection_lag_us", timeline.mean_detection_lag_us()}});

  std::printf("RPC across the severed lightpath (timeout %.0f us, %d retries max):\n",
              to_microseconds(rpc.timeout), rpc.max_retries);
  std::printf("  completed %d / %d calls, abandoned %d, retransmissions %llu\n",
              rpc_load.completed_calls(), rpc.calls, rpc_load.abandoned_calls(),
              static_cast<unsigned long long>(rpc_load.total_retries()));
  std::printf("  goodput %.0f calls/s over %.1f s\n",
              rpc_load.completed_calls() / to_seconds(kEnd), to_seconds(kEnd));
  std::printf("  rtt p50 %.1f us, p99 %.1f us\n", rpc_load.rtt_us().percentile(50),
              rpc_load.rtt_us().percentile(99));
  if (!rpc_load.recovery_us().empty()) {
    std::printf("  recovery (calls needing retries): %zu calls, p50 %.0f us, p99 %.0f us\n",
                rpc_load.recovery_us().count(), rpc_load.recovery_us().percentile(50),
                rpc_load.recovery_us().percentile(99));
  }
  bench::Report::instance().add_row(
      "rpc_recovery",
      {{"completed", static_cast<std::int64_t>(rpc_load.completed_calls())},
       {"abandoned", static_cast<std::int64_t>(rpc_load.abandoned_calls())},
       {"retries", rpc_load.total_retries()},
       {"rtt_p50_us", rpc_load.rtt_us().percentile(50)},
       {"rtt_p99_us", rpc_load.rtt_us().percentile(99)}});
}

// --- gray failures and flap damping (§3.5 made *partial*) -------------------
//
// The scripted cut above is the easy case: the link is plainly dead and
// the fixed-delay detector eventually says so.  The two scenarios below
// are the failures that detector cannot express — a lightpath that
// corrupts a fraction of its packets, and one that flaps faster than
// the detection delay converges — and show the probe-based
// HealthMonitor recovering deliveries in both.

routing::HealthMonitorConfig monitor_config() {
  routing::HealthMonitorConfig c;
  c.dead_after_misses = 3;
  c.alive_after_acks = 3;
  c.hold_down = microseconds(200);
  c.hold_down_cap = milliseconds(20);
  c.flap_memory = milliseconds(10);
  return c;
}

struct DuelOutcome {
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t deaths = 0;
  std::uint64_t damped = 0;
  std::uint64_t lossy_seen = 0;
};

/// One 2000-packet flow pinned across ring 0 segment 0, with either the
/// probe-based HealthMonitor driving the oracle (monitored) or the
/// omniscient-but-binary fixed-delay failure view (the baseline).  The
/// caller injects the fault; this runs the duel and counts the bodies.
DuelOutcome run_duel(bool monitored, std::uint32_t dead_after_misses,
                     const std::function<void(sim::FaultScheduler&, topo::LinkId)>& inject) {
  const topo::BuiltTopology topo = make_fabric();
  routing::EcmpRouting routing(topo.graph);
  routing::EcmpOracle oracle(routing);
  sim::SimConfig config;
  if (!monitored) config.failure_detection_delay = microseconds(500);
  sim::Network net(topo, oracle, config);

  routing::HealthMonitorConfig mc = monitor_config();
  mc.dead_after_misses = dead_after_misses;
  routing::HealthMonitor monitor(topo.graph.link_count(), mc);
  // The ProbePlane owns the monitor's hooks (it forwards transitions to
  // the network's telemetry fan-out), so count lossy detections the way
  // any consumer would: through a timeline sink.
  telemetry::FaultTimeline timeline;
  net.add_sink(&timeline);
  sim::ProbePlane::Options po;
  po.interval = microseconds(10);
  po.stop = milliseconds(120);
  sim::ProbePlane probes(net, monitor, po);
  if (monitored) {
    oracle.attach_failure_view(&monitor.view());
    oracle.attach_loss_view(&monitor);
    probes.start();
  } else {
    oracle.attach_failure_view(&net.failure_view());
  }

  const topo::LinkId victim = topo::severed_links(topo, {{0, 0}}).front();
  const topo::Link& link = topo.graph.link(victim);
  const topo::NodeId src = host_of(topo, link.a);
  const topo::NodeId dst = host_of(topo, link.b);
  // One flow (stable hash): a 400-byte packet every 50 us, 2000 in all.
  sim::CbrSource flow(net, {{src, dst, 64e6, bytes(400)}}, net.new_task({}), 0,
                      microseconds(50) * 1'999, 99);
  flow.arm();

  sim::FaultScheduler faults(net);
  inject(faults, victim);
  net.run_until(milliseconds(200));

  DuelOutcome out;
  out.delivered = net.packets_delivered();
  out.dropped = net.packets_dropped();
  out.corrupted = net.packets_dropped(sim::DropReason::kCorrupted);
  out.deaths = monitor.deaths();
  out.damped = monitor.damped_recoveries();
  out.lossy_seen = timeline.lossy_detections();
  return out;
}

/// Run the fixed-delay baseline and the monitored variant of one duel
/// as a two-point sweep (each builds its own Network, so the pair can
/// ride separate --jobs workers).  Returns {fixed, monitored}.
std::vector<DuelOutcome> run_duel_pair(
    std::uint32_t dead_after_misses,
    const std::function<void(sim::FaultScheduler&, topo::LinkId)>& inject) {
  const std::vector<bool> monitored{false, true};
  sim::SweepRunner runner({bench::Report::instance().jobs(), 42});
  return runner.run(monitored, [&](bool use_monitor) {
    return run_duel(use_monitor, dead_after_misses, inject);
  });
}

void add_duel_rows(const char* section, const char* scenario, const char* detector,
                   const DuelOutcome& o) {
  bench::Report::instance().add_row(
      section, {{"scenario", std::string(scenario)},
                {"detector", std::string(detector)},
                {"delivered", static_cast<std::int64_t>(o.delivered)},
                {"dropped", static_cast<std::int64_t>(o.dropped)},
                {"corrupted_drops", static_cast<std::int64_t>(o.corrupted)},
                {"monitor_deaths", static_cast<std::int64_t>(o.deaths)},
                {"damped_recoveries", static_cast<std::int64_t>(o.damped)},
                {"lossy_detections", static_cast<std::int64_t>(o.lossy_seen)}});
}

/// A transceiver ages 2.5 dB below sensitivity: the drop probability
/// comes straight out of the §3.3 optical budget (margin -> Q -> BER ->
/// per-packet loss), not from a tuning knob.
void report_gray_failure() {
  optical::RingBudgetParams op;
  op.ring_size = 8;
  op.transceiver = optical::TransceiverSpec::dwdm_10g();
  op.mux = optical::MuxDemuxSpec::dwdm_80ch();
  op.amplifier = optical::AmplifierSpec::edfa_80ch();
  const optical::AmplifierPlan plan = optical::plan_ring_amplifiers(op);
  QUARTZ_CHECK(plan.feasible, "the 8-switch ring budget must close");
  const double margin = optical::worst_case_margin_db(op, plan);
  const double erosion = margin + 2.5;  // worst lightpath ends 2.5 dB under spec
  const double drop_p = optical::degraded_drop_probability(op, plan, erosion);
  std::printf(
      "\ngray failure: transceiver ages %.2f dB (all %.2f dB of margin + 2.5 dB past\n"
      "sensitivity) -> Q %.2f -> drop probability %.3f, derived from the optical budget\n",
      erosion, margin, optical::q_factor_from_margin_db(-2.5), drop_p);

  const auto inject = [drop_p](sim::FaultScheduler& faults, topo::LinkId victim) {
    faults.schedule_transceiver_aging(milliseconds(5), victim, drop_p, milliseconds(120));
  };
  // 10-miss death so partial loss reads as lossy rather than dead.
  const std::vector<DuelOutcome> duel = run_duel_pair(10, inject);
  const DuelOutcome& fixed = duel[0];
  const DuelOutcome& mon = duel[1];

  Table table({"detector", "delivered", "dropped", "corrupted drops", "lossy detections"});
  table.add_row({"fixed-delay (loss-blind)", std::to_string(fixed.delivered),
                 std::to_string(fixed.dropped), std::to_string(fixed.corrupted),
                 std::to_string(fixed.lossy_seen)});
  table.add_row({"probe monitor", std::to_string(mon.delivered), std::to_string(mon.dropped),
                 std::to_string(mon.corrupted), std::to_string(mon.lossy_seen)});
  std::printf("%s\n", table.to_text().c_str());
  add_duel_rows("gray_failure", "transceiver_aging", "fixed_delay", fixed);
  add_duel_rows("gray_failure", "transceiver_aging", "probe_monitor", mon);

  QUARTZ_CHECK(fixed.delivered + fixed.dropped == 2'000 && mon.delivered + mon.dropped == 2'000,
               "gray duel must conserve packets");
  QUARTZ_CHECK(mon.delivered > fixed.delivered,
               "the probe monitor must out-deliver the loss-blind fixed-delay baseline");
  std::printf("check: probe monitor delivered %llu > loss-blind baseline %llu\n",
              static_cast<unsigned long long>(mon.delivered),
              static_cast<unsigned long long>(fixed.delivered));
  bench::print_note(
      "the fixed-delay detector is binary, so a corrupting-but-alive lightpath "
      "never trips it and the flow eats the full loss rate; the probe monitor "
      "reads the loss EWMA, marks the link lossy, and deflects onto clean "
      "two-hop detours");
}

/// A lightpath flaps faster (300 us down / 200 us up) than the 500 us
/// fixed detector converges: the seq guard cancels every stale mark-dead
/// so the baseline blackholes every down window, while the monitor's
/// doubling hold-down pins the link dead and traffic rides detours.
void report_flap_damping() {
  std::printf("\nflapping lightpath: 100 cycles of 300 us down / 200 us up, "
              "vs a 500 us fixed detector\n");
  const auto inject = [](sim::FaultScheduler& faults, topo::LinkId victim) {
    faults.schedule_flapping(milliseconds(5), victim, microseconds(300), microseconds(200), 100);
  };
  const std::vector<DuelOutcome> duel = run_duel_pair(3, inject);
  const DuelOutcome& fixed = duel[0];
  const DuelOutcome& damped = duel[1];

  Table table({"detector", "delivered", "dropped", "monitor deaths", "damped recoveries"});
  table.add_row({"fixed-delay (undamped)", std::to_string(fixed.delivered),
                 std::to_string(fixed.dropped), "-", "-"});
  table.add_row({"probe monitor + damping", std::to_string(damped.delivered),
                 std::to_string(damped.dropped), std::to_string(damped.deaths),
                 std::to_string(damped.damped)});
  std::printf("%s\n", table.to_text().c_str());
  add_duel_rows("flap_damping", "flapping_link", "fixed_delay", fixed);
  add_duel_rows("flap_damping", "flapping_link", "probe_monitor_damped", damped);

  QUARTZ_CHECK(fixed.delivered + fixed.dropped == 2'000 && damped.delivered + damped.dropped == 2'000,
               "flap duel must conserve packets");
  QUARTZ_CHECK(damped.delivered > fixed.delivered,
               "the damped monitor must strictly out-deliver the undamped "
               "fixed-delay baseline on a flapping link");
  QUARTZ_CHECK(damped.damped > 0, "the win must come from damping, not luck");
  std::printf("check: damped monitor delivered %llu > undamped baseline %llu "
              "(%llu recoveries suppressed by hold-down)\n",
              static_cast<unsigned long long>(damped.delivered),
              static_cast<unsigned long long>(fixed.delivered),
              static_cast<unsigned long long>(damped.damped));
  bench::print_note(
      "flap damping converts a link that oscillates faster than any detector "
      "into a stable soft-down: each rapid re-death doubles the hold-down, the "
      "link stays out of the ECMP set, and deliveries ride two-hop detours "
      "instead of blackholing every down window");
}

}  // namespace

void quartz::bench::run_fault_transient() {
  report_fiber_cut();
  report_gray_failure();
  report_flap_damping();
}
