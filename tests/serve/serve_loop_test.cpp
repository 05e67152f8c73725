#include "serve/serve_loop.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "support/closure_timer.hpp"

namespace quartz::serve {
namespace {

/// First mesh lightpath between two ring switches (by ring position).
topo::LinkId mesh_link_between(const topo::BuiltTopology& topo, topo::NodeId a, topo::NodeId b) {
  for (const topo::LinkId id : topo.graph.link_ids()) {
    const topo::Link& link = topo.graph.link(id);
    if (link.wdm_channel < 0) continue;
    if ((link.a == a && link.b == b) || (link.a == b && link.b == a)) return id;
  }
  return topo::kInvalidLink;
}

/// A small 4-switch ring with 1 Gb/s links so tests can overload it
/// with a few thousand requests.
ServeConfig small_config() {
  ServeConfig config;
  config.ring.switches = 4;
  config.ring.hosts_per_switch = 2;
  config.ring.mesh_rate = gigabits_per_second(1);
  config.ring.links.host_rate = gigabits_per_second(1);
  config.duration = milliseconds(5);
  config.drain = milliseconds(8);
  config.arrivals_per_sec = 50'000.0;
  config.reply_size = bytes(100);
  config.timeout = microseconds(1500);
  config.max_retries = 2;
  config.slo.window = microseconds(250);
  config.slo.budget_p99_us = 1200.0;
  config.slo.budget_p999_us = 1800.0;
  config.classes = {{"gold", 0.2, milliseconds(2)},
                    {"silver", 0.3, milliseconds(2)},
                    {"bronze", 0.5, milliseconds(2)}};
  config.seed = 42;
  return config;
}

TEST(ServeLoopTest, ValidatesConfig) {
  ServeConfig config = small_config();
  config.timeout = 0;
  EXPECT_THROW(ServeLoop{config}, std::invalid_argument);

  config = small_config();
  config.drain = config.timeout;  // cannot cover the retry tail
  EXPECT_THROW(ServeLoop{config}, std::invalid_argument);

  config = small_config();
  config.shifts = {{milliseconds(1), 0, 0, 0.5}};  // same switch twice
  EXPECT_THROW(ServeLoop{config}, std::invalid_argument);
}

TEST(ServeLoopTest, LightLoadCompletesEverythingInDeadline) {
  ServeLoop loop(small_config());
  const ServeReport report = loop.run();
  EXPECT_GT(report.arrivals, 100u);
  EXPECT_EQ(report.admitted, report.arrivals - report.shed_class - report.shed_limit);
  EXPECT_TRUE(report.conservation_ok);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.late, 0u);
  EXPECT_EQ(report.in_deadline, report.completed);
  EXPECT_GT(report.goodput_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(report.retry_amplification, 1.0);
  EXPECT_EQ(report.windows_breached, 0u);
}

TEST(ServeLoopTest, RunsOnceOnly) {
  ServeLoop loop(small_config());
  (void)loop.run();
  EXPECT_THROW(loop.run(), std::logic_error);
}

TEST(ServeLoopTest, TraceReplayReproducesTheArrivals) {
  ServeLoop original(small_config());
  const ServeReport first = original.run();
  ASSERT_FALSE(original.trace().empty());

  ServeConfig replay_config = small_config();
  const std::vector<TraceEvent> trace = original.trace();
  replay_config.replay = &trace;
  ServeLoop replayed(replay_config);
  const ServeReport second = replayed.run();

  EXPECT_EQ(second.arrivals, first.arrivals);
  EXPECT_EQ(second.admitted, first.admitted);
  EXPECT_EQ(second.completed, first.completed);
  ASSERT_EQ(replayed.trace().size(), original.trace().size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(replayed.trace()[i].at, trace[i].at);
    EXPECT_EQ(replayed.trace()[i].cls, trace[i].cls);
    EXPECT_EQ(replayed.trace()[i].src, trace[i].src);
    EXPECT_EQ(replayed.trace()[i].dst, trace[i].dst);
  }
}

TEST(ServeLoopTest, SameSeedIsDeterministic) {
  ServeLoop a(small_config());
  ServeLoop b(small_config());
  const ServeReport ra = a.run();
  const ServeReport rb = b.run();
  EXPECT_EQ(ra.arrivals, rb.arrivals);
  EXPECT_EQ(ra.completed, rb.completed);
  EXPECT_EQ(ra.retries, rb.retries);
  EXPECT_DOUBLE_EQ(ra.p99_us, rb.p99_us);
}

TEST(ServeLoopTest, BlackholeBoundsRetryAmplificationViaBudget) {
  ServeConfig config = small_config();
  config.use_retry_budget = true;
  config.retry_budget.ratio = 0.05;
  config.retry_budget.burst = 5.0;
  ServeLoop loop(config);
  // Silently blackhole one mesh lightpath: the failure view never
  // learns (gray failure), so every request crossing it is lost and
  // only timeouts notice.
  const auto& ring = loop.topology().quartz_rings.front();
  const topo::LinkId victim = mesh_link_between(loop.topology(), ring[0], ring[1]);
  ASSERT_NE(victim, topo::kInvalidLink);
  loop.network().set_link_loss(victim, 1.0);

  const ServeReport report = loop.run();
  EXPECT_TRUE(report.conservation_ok);
  EXPECT_GT(report.failed, 0u);                   // blackholed calls resolve as failures
  EXPECT_GT(report.budget_denied + report.hopeless_dropped, 0u);
  // The budget holds send amplification far below the unbudgeted
  // ceiling of 1 + max_retries.
  EXPECT_LE(report.retry_amplification, 1.3);
  // Healthy pairs keep completing throughout.
  EXPECT_GT(report.in_deadline, 0u);
}

TEST(ServeLoopTest, DemandShiftTriggersRegroomWhichSpreadsPins) {
  ServeConfig config = small_config();
  config.shifts = {{milliseconds(1), 0, 1, 0.9}};
  config.reconfigure_on_shift = true;
  config.reconfigure_delay = microseconds(100);
  ServeLoop loop(config);
  const std::uint64_t epoch_before = loop.oracle().state_epoch();
  const ServeReport report = loop.run();
  EXPECT_EQ(report.reconfigurations, 1u);
  // 2 hosts x 2 hosts pinned across the two intermediate switches.
  EXPECT_EQ(report.pins_applied, 4u);
  EXPECT_EQ(report.pins_rejected, 0u);
  EXPECT_EQ(loop.oracle().pin_count(), 4u);
  EXPECT_GT(loop.oracle().state_epoch(), epoch_before);
  EXPECT_TRUE(report.conservation_ok);
  EXPECT_FALSE(loop.oracle().regrooming());
}

TEST(ServeLoopTest, RegroomRejectsPinsOverDeadDetourLegs) {
  ServeConfig config = small_config();
  config.shifts = {{milliseconds(1), 0, 1, 0.9}};
  config.reconfigure_delay = microseconds(100);
  ServeLoop loop(config);
  // Kill both detour meshes legs via switch 2 before the regroom: pins
  // routed via ring[2] must be rejected make-before-break; pins via
  // ring[3] still apply.
  const auto& ring = loop.topology().quartz_rings.front();
  const topo::LinkId leg = mesh_link_between(loop.topology(), ring[0], ring[2]);
  ASSERT_NE(leg, topo::kInvalidLink);
  test::ClosureTimer timers(loop.network());
  timers.at(microseconds(500), [&loop, leg] { loop.network().fail_link(leg); });

  const ServeReport report = loop.run();
  EXPECT_EQ(report.reconfigurations, 1u);
  EXPECT_EQ(report.pins_applied, 2u);   // via ring[3]
  EXPECT_EQ(report.pins_rejected, 2u);  // via ring[2] (dead first leg)
  EXPECT_EQ(loop.oracle().pin_count(), 2u);
}

TEST(ServeLoopTest, AdmissionOutDeliversUncontrolledPastTheKnee) {
  // Concentrate 95% of an overloaded arrival stream onto one 1 Gb/s
  // lightpath (capacity ~312k req/s; offered ~570k req/s).
  const auto overload = [](bool controlled) {
    ServeConfig config = small_config();
    config.duration = milliseconds(10);
    config.drain = milliseconds(8);
    config.arrivals_per_sec = 600'000.0;
    config.shifts = {{0, 0, 1, 0.95}};
    config.reconfigure_on_shift = false;  // isolate the admission effect
    config.use_admission = controlled;
    config.use_retry_budget = controlled;
    config.seed = 7;
    ServeLoop loop(config);
    return loop.run();
  };
  const ServeReport controlled = overload(true);
  const ServeReport uncontrolled = overload(false);

  EXPECT_TRUE(controlled.conservation_ok);
  EXPECT_TRUE(uncontrolled.conservation_ok);
  // Past the knee the uncontrolled loop queues to death: the controller
  // must deliver well more in-deadline work from identical offered load.
  EXPECT_GT(controlled.in_deadline, uncontrolled.in_deadline * 3 / 2);
  EXPECT_GT(controlled.shed_limit + controlled.shed_class, 0u);
  EXPECT_GT(controlled.knee_goodput, 0.0);
  // And it does so while holding the tail inside the deadline.
  EXPECT_LT(controlled.p99_us, 2000.0);
}

TEST(ServeLoopTest, PublishesServeCounters) {
  ServeLoop loop(small_config());
  (void)loop.run();
  telemetry::MetricRegistry registry;
  loop.publish_metrics(registry, "serve");
  EXPECT_GT(registry.counter("serve.arrivals").value(), 0u);
  EXPECT_GT(registry.counter("serve.admitted").value(), 0u);
  EXPECT_EQ(registry.counter("serve.retry_budget_denied").value(), 0u);
  EXPECT_GT(registry.gauge("serve.admission_limit").value(), 0.0);
  EXPECT_GT(registry.counter("serve.slo.windows_closed").value(), 0u);
  EXPECT_GT(registry.latency("serve.slo.latency_us").count(), 0u);
}

}  // namespace
}  // namespace quartz::serve
