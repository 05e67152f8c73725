// quartz_paper --figure=serve: overload duel for the serve stack:
// closed-loop admission, retry budgets and live re-grooming vs an
// undefended open-loop baseline.
//
// Open-loop arrivals do not slow down when the fabric does.  A scripted
// demand shift concentrates 95% of the stream on one 1 Gb/s lightpath
// (~312.5k req/s of 400-byte requests), so the service's goodput knee
// sits near 329k arrivals/s.  Past it, the undefended loop queues to
// death — every request waits out the 10 ms queue cap, blows its 2 ms
// deadline, and timeout retries amplify the overload.  The defended
// loop probes its concurrency limit to the measured knee, sheds the
// excess at the door, and keeps the tail inside the deadline budget.
//
// Three duels, all on identical replayed arrival traces:
//   load_sweep      controlled vs uncontrolled across 0.25x..2x knee
//   regroom_duel    mid-run hot-spot: react with a make-before-break
//                   regroom (detour pins spread the hot pair) vs hold
//                   the groomed-for-uniform mesh
//   retry_budget    gray blackhole: budgeted vs unbudgeted retries
//
// The QUARTZ_CHECK guards (active in every build) make the artifact
// self-validating: the controller must hold >= 90% of its knee goodput
// at 2x knee while the baseline collapses, the regroom must win, and
// the budget must bound amplification.
#include "report.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/table.hpp"
#include "serve/serve_loop.hpp"
#include "sim/sweep.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace quartz;

constexpr double kHotFraction = 0.95;
/// One 1 Gb/s lightpath forwards 400-byte requests at 312.5k req/s;
/// with 95% of arrivals on a single switch pair the whole service knees
/// near 329k arrivals/s.
constexpr double kKneeArrivals = 312'500.0 / kHotFraction;

serve::ServeConfig base_config(double arrivals_per_sec) {
  serve::ServeConfig config;
  config.ring.switches = 4;
  config.ring.hosts_per_switch = 2;
  config.ring.mesh_rate = gigabits_per_second(1);
  config.ring.links.host_rate = gigabits_per_second(1);
  config.duration = milliseconds(10);
  config.drain = milliseconds(8);
  config.arrivals_per_sec = arrivals_per_sec;
  config.reply_size = bytes(100);  // keep the request direction the bottleneck
  config.timeout = microseconds(1500);
  config.max_retries = 2;
  config.classes = {{"gold", 0.2, milliseconds(2)},
                    {"silver", 0.3, milliseconds(2)},
                    {"bronze", 0.5, milliseconds(2)}};
  config.slo.window = microseconds(500);
  config.slo.budget_p99_us = 1200.0;
  config.slo.budget_p999_us = 1800.0;
  config.shifts = {{0, 0, 1, kHotFraction}};
  config.reconfigure_on_shift = false;
  config.seed = 7;
  return config;
}

struct DuelPoint {
  double offered = 0.0;
  serve::ServeReport controlled;
  serve::ServeReport uncontrolled;
};

/// Run the defended loop at `offered` arrivals/s, then replay its exact
/// arrival trace against the undefended one: same requests, same
/// instants, only the defenses differ.
DuelPoint run_duel_point(double offered) {
  DuelPoint point;
  point.offered = offered;

  serve::ServeLoop controlled(base_config(offered));
  point.controlled = controlled.run();

  serve::ServeConfig raw = base_config(offered);
  raw.use_admission = false;
  raw.use_retry_budget = false;
  const std::vector<serve::TraceEvent> trace = controlled.trace();
  raw.replay = &trace;
  serve::ServeLoop uncontrolled(raw);
  point.uncontrolled = uncontrolled.run();

  QUARTZ_CHECK(point.controlled.conservation_ok && point.uncontrolled.conservation_ok,
               "every serve run must conserve requests");
  QUARTZ_CHECK(point.controlled.arrivals == point.uncontrolled.arrivals,
               "the replayed duel must see identical arrivals");
  return point;
}

void add_sweep_row(const char* mode, double offered, const serve::ServeReport& r) {
  bench::Report::instance().add_row(
      "load_sweep",
      {{"offered_per_sec", offered},
       {"mode", std::string(mode)},
       {"arrivals", static_cast<std::int64_t>(r.arrivals)},
       {"shed", static_cast<std::int64_t>(r.shed_class + r.shed_limit)},
       {"in_deadline", static_cast<std::int64_t>(r.in_deadline)},
       {"goodput_per_sec", r.goodput_per_sec},
       {"p50_us", r.p50_us},
       {"p99_us", r.p99_us},
       {"p999_us", r.p999_us},
       {"retries", static_cast<std::int64_t>(r.retries)},
       {"retry_amplification", r.retry_amplification},
       {"final_limit", static_cast<std::int64_t>(r.final_limit)},
       {"knee_goodput", r.knee_goodput}});
}

void report_load_sweep() {
  const std::vector<double> loads = {0.25 * kKneeArrivals, 0.5 * kKneeArrivals,
                                     1.0 * kKneeArrivals, 1.5 * kKneeArrivals,
                                     2.0 * kKneeArrivals};
  sim::SweepRunner runner({bench::Report::instance().jobs(), 7});
  const std::vector<DuelPoint> points =
      runner.run(loads, [](double offered) { return run_duel_point(offered); });

  std::printf("admission duel: 95%% of arrivals on one 1 Gb/s lightpath "
              "(analytic knee ~%.0f req/s)\n",
              kKneeArrivals);
  Table table({"offered (req/s)", "x knee", "goodput ctl", "goodput raw", "p99 ctl (us)",
               "p99 raw (us)", "p99.9 ctl (us)", "shed ctl", "limit"});
  for (const DuelPoint& p : points) {
    char knee[16], gc[24], gr[24], p99c[16], p99r[16], p999c[16];
    std::snprintf(knee, sizeof(knee), "%.2f", p.offered / kKneeArrivals);
    std::snprintf(gc, sizeof(gc), "%.0f", p.controlled.goodput_per_sec);
    std::snprintf(gr, sizeof(gr), "%.0f", p.uncontrolled.goodput_per_sec);
    std::snprintf(p99c, sizeof(p99c), "%.0f", p.controlled.p99_us);
    std::snprintf(p99r, sizeof(p99r), "%.0f", p.uncontrolled.p99_us);
    std::snprintf(p999c, sizeof(p999c), "%.0f", p.controlled.p999_us);
    table.add_row({std::to_string(static_cast<long long>(p.offered)), knee, gc, gr, p99c, p99r,
                   p999c,
                   std::to_string(p.controlled.shed_class + p.controlled.shed_limit),
                   std::to_string(p.controlled.final_limit)});
    add_sweep_row("controlled", p.offered, p.controlled);
    add_sweep_row("uncontrolled", p.offered, p.uncontrolled);
  }
  std::printf("%s\n", table.to_text().c_str());

  const DuelPoint& knee = points[2];
  const DuelPoint& twice = points.back();
  // The controller rides the knee: past it, goodput must stay within
  // 10% of the knee's while the tail holds the p99.9 budget.  The
  // undefended baseline queues to death on the same arrivals.
  QUARTZ_CHECK(twice.controlled.goodput_per_sec >= 0.9 * knee.controlled.goodput_per_sec,
               "controlled goodput at 2x knee must hold >= 90% of knee goodput");
  QUARTZ_CHECK(twice.controlled.p999_us <= 1800.0,
               "controlled p99.9 at 2x knee must stay inside the SLO budget");
  QUARTZ_CHECK(twice.controlled.goodput_per_sec > 1.5 * twice.uncontrolled.goodput_per_sec,
               "the controller must strictly out-deliver the uncontrolled "
               "baseline past the knee");
  QUARTZ_CHECK(twice.uncontrolled.goodput_per_sec < 0.5 * knee.uncontrolled.goodput_per_sec,
               "the uncontrolled baseline must collapse past the knee");
  std::printf("check: at 2.0x knee the controller held %.0f req/s goodput "
              "(%.0f%% of knee, p99.9 %.0f us) vs %.0f req/s uncontrolled\n",
              twice.controlled.goodput_per_sec,
              100.0 * twice.controlled.goodput_per_sec / knee.controlled.goodput_per_sec,
              twice.controlled.p999_us, twice.uncontrolled.goodput_per_sec);
  bench::Report::instance().add_row(
      "duel_summary",
      {{"knee_arrivals_per_sec", kKneeArrivals},
       {"controlled_goodput_at_knee", knee.controlled.goodput_per_sec},
       {"controlled_goodput_at_2x", twice.controlled.goodput_per_sec},
       {"uncontrolled_goodput_at_knee", knee.uncontrolled.goodput_per_sec},
       {"uncontrolled_goodput_at_2x", twice.uncontrolled.goodput_per_sec},
       {"controlled_p999_at_2x_us", twice.controlled.p999_us},
       {"controlled_retention", twice.controlled.goodput_per_sec /
                                    knee.controlled.goodput_per_sec}});
  bench::print_note(
      "the admission controller probes its concurrency limit to the measured "
      "goodput knee and sheds the excess at the door, so offered load past the "
      "knee costs almost nothing; the open-loop baseline queues every excess "
      "request until the deadline is unmeetable");
}

/// Mid-run hot spot: after 2 ms, 90% of arrivals target one switch
/// pair.  Reacting with a make-before-break regroom (detour pins spread
/// the four hot host pairs across the two intermediate switches) keeps
/// the demand under per-lightpath capacity; holding the uniform
/// grooming overloads the direct lightpath and sheds instead.
void report_regroom_duel() {
  const auto run_once = [](bool regroom) {
    serve::ServeConfig config = base_config(450'000.0);
    config.shifts = {{milliseconds(2), 0, 1, 0.9}};
    config.reconfigure_on_shift = regroom;
    config.reconfigure_delay = microseconds(200);
    serve::ServeLoop loop(config);
    return loop.run();
  };
  sim::SweepRunner runner({bench::Report::instance().jobs(), 7});
  const std::vector<bool> modes{false, true};
  const std::vector<serve::ServeReport> duel =
      runner.run(modes, [&](bool regroom) { return run_once(regroom); });
  const serve::ServeReport& held = duel[0];
  const serve::ServeReport& regroomed = duel[1];

  std::printf("live reconfiguration duel: 90%% hot-pair shift at 2 ms, 450k req/s offered\n");
  Table table({"grooming", "in deadline", "goodput (req/s)", "shed", "p99 (us)", "pins"});
  char gh[24], gr[24], ph[16], pr[16];
  std::snprintf(gh, sizeof(gh), "%.0f", held.goodput_per_sec);
  std::snprintf(gr, sizeof(gr), "%.0f", regroomed.goodput_per_sec);
  std::snprintf(ph, sizeof(ph), "%.0f", held.p99_us);
  std::snprintf(pr, sizeof(pr), "%.0f", regroomed.p99_us);
  table.add_row({"held (groomed for uniform)", std::to_string(held.in_deadline), gh,
                 std::to_string(held.shed_class + held.shed_limit), ph, "0"});
  table.add_row({"regroomed on shift", std::to_string(regroomed.in_deadline), gr,
                 std::to_string(regroomed.shed_class + regroomed.shed_limit), pr,
                 std::to_string(regroomed.pins_applied)});
  std::printf("%s\n", table.to_text().c_str());

  QUARTZ_CHECK(held.conservation_ok && regroomed.conservation_ok,
               "the regroom duel must conserve requests");
  QUARTZ_CHECK(regroomed.reconfigurations == 1 && regroomed.pins_applied > 0,
               "the regroomed run must actually have re-groomed");
  QUARTZ_CHECK(regroomed.in_deadline > held.in_deadline,
               "spreading the hot pair over detour pins must beat holding the "
               "uniform grooming");
  std::printf("check: regroom delivered %llu in-deadline vs %llu held "
              "(%llu pins committed make-before-break)\n",
              static_cast<unsigned long long>(regroomed.in_deadline),
              static_cast<unsigned long long>(held.in_deadline),
              static_cast<unsigned long long>(regroomed.pins_applied));
  for (int i = 0; i < 2; ++i) {
    const serve::ServeReport& r = duel[i];
    bench::Report::instance().add_row(
        "regroom_duel",
        {{"mode", std::string(i == 0 ? "held" : "regroomed")},
         {"in_deadline", static_cast<std::int64_t>(r.in_deadline)},
         {"goodput_per_sec", r.goodput_per_sec},
         {"shed", static_cast<std::int64_t>(r.shed_class + r.shed_limit)},
         {"p99_us", r.p99_us},
         {"pins_applied", static_cast<std::int64_t>(r.pins_applied)},
         {"reconfigurations", static_cast<std::int64_t>(r.reconfigurations)}});
  }
  bench::print_note(
      "the regroom rides the oracle's epoch bump: staged pins verify both "
      "detour legs before commit, the FIB invalidates lazily, and in-flight "
      "packets never see a half-applied plan");
}

/// Gray blackhole: one mesh lightpath silently eats every packet (the
/// failure view never learns), so only timeouts notice.  The retry
/// budget caps how much load those timeouts may add back.
void report_retry_budget_duel() {
  const auto run_once = [](bool budgeted) {
    serve::ServeConfig config = base_config(150'000.0);
    config.shifts.clear();  // uniform traffic: every pair crosses the victim sometimes
    config.use_retry_budget = budgeted;
    config.retry_budget.ratio = 0.05;
    config.retry_budget.burst = 5.0;
    config.max_retries = 3;
    serve::ServeLoop loop(config);
    const auto& ring = loop.topology().quartz_rings.front();
    for (const auto& link : loop.topology().graph.links()) {
      if (link.wdm_channel < 0) continue;
      if ((link.a == ring[0] && link.b == ring[1]) || (link.a == ring[1] && link.b == ring[0])) {
        loop.network().set_link_loss(link.id, 1.0);
        break;
      }
    }
    return loop.run();
  };
  sim::SweepRunner runner({bench::Report::instance().jobs(), 7});
  const std::vector<bool> modes{false, true};
  const std::vector<serve::ServeReport> duel =
      runner.run(modes, [&](bool budgeted) { return run_once(budgeted); });
  const serve::ServeReport& unbudgeted = duel[0];
  const serve::ServeReport& budgeted = duel[1];

  std::printf("retry budget duel: one mesh lightpath silently blackholed for the whole run\n");
  Table table({"retries", "amplification", "budget denied", "hopeless dropped", "failed",
               "in deadline"});
  char au[16], ab[16];
  std::snprintf(au, sizeof(au), "%.3f", unbudgeted.retry_amplification);
  std::snprintf(ab, sizeof(ab), "%.3f", budgeted.retry_amplification);
  table.add_row({std::to_string(unbudgeted.retries), au, "-",
                 std::to_string(unbudgeted.hopeless_dropped),
                 std::to_string(unbudgeted.failed), std::to_string(unbudgeted.in_deadline)});
  table.add_row({std::to_string(budgeted.retries), ab,
                 std::to_string(budgeted.budget_denied),
                 std::to_string(budgeted.hopeless_dropped), std::to_string(budgeted.failed),
                 std::to_string(budgeted.in_deadline)});
  std::printf("%s\n", table.to_text().c_str());

  QUARTZ_CHECK(unbudgeted.conservation_ok && budgeted.conservation_ok,
               "the budget duel must conserve requests");
  QUARTZ_CHECK(budgeted.retry_amplification < unbudgeted.retry_amplification,
               "the retry budget must reduce send amplification under a blackhole");
  QUARTZ_CHECK(budgeted.retry_amplification <= 1.3,
               "budgeted amplification must stay near 1 (ratio 0.05)");
  QUARTZ_CHECK(budgeted.budget_denied > 0, "the win must come from the budget, not luck");
  std::printf("check: amplification %.3f budgeted vs %.3f unbudgeted "
              "(%llu retries denied, %llu hopeless)\n",
              budgeted.retry_amplification, unbudgeted.retry_amplification,
              static_cast<unsigned long long>(budgeted.budget_denied),
              static_cast<unsigned long long>(budgeted.hopeless_dropped));
  for (int i = 0; i < 2; ++i) {
    const serve::ServeReport& r = duel[i];
    bench::Report::instance().add_row(
        "retry_budget_duel",
        {{"mode", std::string(i == 0 ? "unbudgeted" : "budgeted")},
         {"retries", static_cast<std::int64_t>(r.retries)},
         {"retry_amplification", r.retry_amplification},
         {"budget_denied", static_cast<std::int64_t>(r.budget_denied)},
         {"hopeless_dropped", static_cast<std::int64_t>(r.hopeless_dropped)},
         {"failed", static_cast<std::int64_t>(r.failed)},
         {"in_deadline", static_cast<std::int64_t>(r.in_deadline)}});
  }
  bench::print_note(
      "deadline propagation drops retries that cannot finish in time and the "
      "token bucket caps the rest, so a blackholed lightpath cannot amplify "
      "itself into a second overload");
}

}  // namespace

void quartz::bench::run_serve() {
  report_load_sweep();
  report_regroom_duel();
  report_retry_budget_duel();

  // Attach the defended knee run's full metric registry to the
  // artifact (serve counters + SLO gauges + latency histogram).
  static telemetry::MetricRegistry registry;
  serve::ServeLoop loop(base_config(kKneeArrivals));
  (void)loop.run();
  loop.publish_metrics(registry, "serve");
  Report::instance().set_metrics(&registry);
}
