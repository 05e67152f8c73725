#include "support/slo_storm.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "sim/fault_injection.hpp"
#include "sim/sweep.hpp"

namespace quartz::chaos {
namespace {

/// A time uniform in [lo, hi) on the storm clock.
TimePs uniform_time(Rng& rng, TimePs lo, TimePs hi) {
  return lo + static_cast<TimePs>(rng.next_below(static_cast<std::uint64_t>(hi - lo)));
}

std::vector<topo::LinkId> wdm_links(const topo::BuiltTopology& topo) {
  std::vector<topo::LinkId> out;
  for (const topo::LinkId id : topo.graph.link_ids()) {
    const topo::Link& link = topo.graph.link(id);
    if (link.wdm_channel >= 0) out.push_back(id);
  }
  return out;
}

/// Reads the SLO breach counter when its timer fires.
class BreachMark final : public sim::TimerHandler {
 public:
  explicit BreachMark(const serve::ServeLoop& loop) : loop_(loop) {}
  std::uint64_t breaches() const { return breaches_; }

 private:
  void on_timer(const sim::TimerEvent&) override { breaches_ = loop_.slo().windows_breached(); }

  const serve::ServeLoop& loop_;
  std::uint64_t breaches_ = 0;
};

}  // namespace

std::string SloStormReport::summary() const {
  std::ostringstream os;
  os << "slo-storm seed=" << seed << " arrivals=" << serve.arrivals
     << " admitted=" << serve.admitted << " in_deadline=" << serve.in_deadline
     << " failed=" << serve.failed << " shed=" << serve.shed_class + serve.shed_limit
     << " retries=" << serve.retries << " amp=" << serve.retry_amplification
     << " regrooms=" << serve.reconfigurations << " pins=" << serve.pins_applied << "+"
     << serve.pins_rejected << "r breaches_after_recovery=" << breaches_after_recovery
     << (passed() ? " PASS" : " FAIL");
  for (const std::string& v : violations) os << "\n  violated: " << v;
  return os.str();
}

SloStormReport run_slo_storm(const SloStormParams& params) {
  QUARTZ_REQUIRE(0 <= params.storm_start && params.storm_start < params.storm_end,
                 "storm window must be ordered");
  QUARTZ_REQUIRE(params.storm_end + params.recovery_slack < params.duration,
                 "recovery point must land inside the serving interval");
  QUARTZ_REQUIRE(params.shift_at >= params.storm_start && params.shift_at < params.storm_end,
                 "the demand shift must fire mid-storm");
  QUARTZ_REQUIRE(params.cuts >= 0 && params.gray_links >= 0, "fault counts cannot be negative");

  serve::ServeConfig config;
  config.ring.switches = params.switches;
  config.ring.hosts_per_switch = params.hosts_per_switch;
  config.ring.mesh_rate = gigabits_per_second(1);
  config.ring.links.host_rate = gigabits_per_second(1);
  config.duration = params.duration;
  config.drain = params.drain;
  config.arrivals_per_sec = params.arrivals_per_sec;
  config.reply_size = bytes(100);
  config.timeout = params.timeout;
  config.max_retries = params.max_retries;
  config.classes = {{"gold", 0.2, params.deadline},
                    {"silver", 0.3, params.deadline},
                    {"bronze", 0.5, params.deadline}};
  config.slo.window = microseconds(500);
  config.slo.budget_p99_us = to_microseconds(params.deadline) * 0.6;
  config.slo.budget_p999_us = to_microseconds(params.deadline) * 0.9;
  config.shifts = {{params.shift_at, 0, 1, params.hot_fraction}};
  config.reconfigure_on_shift = true;
  config.reconfigure_delay = microseconds(200);
  // Cuts blackhole until detection converges — the §3.5 transient is
  // what manufactures timeouts out of hard failures.
  config.sim.failure_detection_delay = microseconds(300);
  config.seed = params.seed;

  serve::ServeLoop loop(config);
  sim::Network& net = loop.network();
  const std::vector<topo::LinkId> mesh = wdm_links(loop.topology());
  QUARTZ_CHECK(!mesh.empty(), "slo-storm fabric has no mesh lightpaths");

  // Storm script: hard cuts (visible to the failure view) and gray
  // blackholes (invisible — only timeouts notice), all healed strictly
  // before storm_end.  Overlapping cuts on one victim hold it down
  // until the last of them is repaired.
  sim::FaultScheduler faults(net);
  Rng storm_rng(params.seed ^ 0x534C4F53ull);  // "SLOS"
  for (int c = 0; c < params.cuts; ++c) {
    const topo::LinkId victim = mesh[storm_rng.next_below(mesh.size())];
    const TimePs fail_at = uniform_time(storm_rng, params.storm_start, params.storm_end - 1);
    const TimePs repair_at = uniform_time(storm_rng, fail_at + 1, params.storm_end);
    faults.schedule_cut(fail_at, {victim}, repair_at);
  }
  // Gray blackholes span the whole storm window (the victim is still
  // seed-random): the failure view never learns, so only timeouts — and
  // the retry budget behind them — absorb the loss.
  for (int g = 0; g < params.gray_links; ++g) {
    const topo::LinkId victim = mesh[storm_rng.next_below(mesh.size())];
    faults.schedule_transceiver_aging(params.storm_start, victim, 1.0, params.storm_end);
  }

  // Snapshot the breach counter once the storm is healed and the
  // recovery slack has passed: every breach after this violates the
  // SLO-recovery invariant.
  BreachMark recovery(loop);
  net.schedule_timer(params.storm_end + params.recovery_slack, {&recovery});

  SloStormReport report;
  report.seed = params.seed;
  report.serve = loop.run();
  report.packets_sent = net.packets_sent();
  report.packets_delivered = net.packets_delivered();
  report.packets_dropped = net.packets_dropped();
  report.breaches_after_recovery = loop.slo().windows_breached() - recovery.breaches();

  // Invariant 1: request- and packet-level conservation.
  report.invariants.conservation =
      report.serve.conservation_ok &&
      report.packets_delivered + report.packets_dropped == report.packets_sent;
  if (!report.invariants.conservation) {
    std::ostringstream os;
    os << "conservation: admitted=" << report.serve.admitted
       << " completed=" << report.serve.completed << " failed=" << report.serve.failed
       << " outstanding=" << report.serve.outstanding_at_end << "; packets sent="
       << report.packets_sent << " delivered=" << report.packets_delivered
       << " dropped=" << report.packets_dropped;
    report.violations.push_back(os.str());
  }

  // Invariant 2: no breached window after the recovery point, and the
  // service kept delivering.
  report.invariants.slo_recovered =
      report.breaches_after_recovery == 0 && report.serve.in_deadline > 0;
  if (!report.invariants.slo_recovered) {
    report.violations.push_back(
        "slo recovery: " + std::to_string(report.breaches_after_recovery) +
        " breached window(s) after the recovery point (in_deadline=" +
        std::to_string(report.serve.in_deadline) + ")");
  }

  // Invariant 3: the retry budget bounded amplification through the
  // storm.
  report.invariants.amplification_bounded =
      report.serve.retry_amplification <= params.max_retry_amplification;
  if (!report.invariants.amplification_bounded) {
    std::ostringstream os;
    os << "retry amplification: " << report.serve.retry_amplification << " > "
       << params.max_retry_amplification;
    report.violations.push_back(os.str());
  }

  // Invariant 4: the mid-storm shift re-groomed the live oracle — the
  // commit verified every staged pin make-before-break (applied or
  // rejected, never half-applied).
  report.invariants.reconfigured =
      report.serve.reconfigurations >= 1 &&
      report.serve.pins_applied + report.serve.pins_rejected > 0 &&
      !loop.oracle().regrooming();
  if (!report.invariants.reconfigured) {
    report.violations.push_back(
        "reconfiguration: regrooms=" + std::to_string(report.serve.reconfigurations) +
        " pins=" + std::to_string(report.serve.pins_applied) + "+" +
        std::to_string(report.serve.pins_rejected) + "r");
  }

  return report;
}

std::vector<SloStormReport> run_slo_sweep(const SloStormParams& base, int storms, int jobs) {
  QUARTZ_REQUIRE(storms > 0, "a sweep needs at least one storm");
  std::vector<SloStormParams> points;
  points.reserve(static_cast<std::size_t>(storms));
  for (int i = 0; i < storms; ++i) {
    SloStormParams params = base;
    params.seed = base.seed + static_cast<std::uint64_t>(i);
    points.push_back(params);
  }
  sim::SweepRunner runner(sim::SweepOptions{jobs, base.seed});
  return runner.run(points, [](const SloStormParams& params) { return run_slo_storm(params); });
}

}  // namespace quartz::chaos
