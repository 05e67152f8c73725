#include "telemetry/sampler.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "routing/ecmp.hpp"
#include "routing/oracle.hpp"
#include "sim/network.hpp"
#include "support/closure_timer.hpp"
#include "topo/builders.hpp"

namespace quartz::telemetry {
namespace {

struct Fixture {
  topo::BuiltTopology topo;
  std::unique_ptr<routing::EcmpRouting> routing;
  std::unique_ptr<routing::EcmpOracle> oracle;

  static Fixture single_switch() {
    topo::SingleSwitchParams p;
    p.hosts = 4;
    p.host_rate = gigabits_per_second(10);
    p.switch_model = topo::SwitchModel::ull();
    p.propagation = 0;
    Fixture f;
    f.topo = topo::single_switch(p);
    f.routing = std::make_unique<routing::EcmpRouting>(f.topo.graph);
    f.oracle = std::make_unique<routing::EcmpOracle>(*f.routing);
    return f;
  }
};

TEST(PeriodicSampler, BucketsDeliveriesByTime) {
  auto f = Fixture::single_switch();
  sim::Network net(f.topo, *f.oracle);
  test::ClosureTimer timers(net);
  PeriodicSampler::Options options;
  options.bucket = microseconds(100);
  PeriodicSampler sampler(options);
  net.add_sink(&sampler);
  const int task = net.new_task({});
  // Two packets delivered inside bucket 0, one in bucket 2.
  net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  net.send(f.topo.hosts[2], f.topo.hosts[3], bytes(400), task, 2);
  timers.at(microseconds(250), [&] {
    net.send(f.topo.hosts[0], f.topo.hosts[2], bytes(400), task, 3);
  });
  net.run_until(milliseconds(1));

  const auto buckets = sampler.summaries();
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].start, 0);
  EXPECT_EQ(buckets[0].delivered, 2u);
  EXPECT_EQ(buckets[1].delivered, 0u);
  EXPECT_EQ(buckets[2].start, microseconds(200));
  EXPECT_EQ(buckets[2].delivered, 1u);
  // 700 ns end to end on the quiet fabric.
  EXPECT_DOUBLE_EQ(buckets[0].p50_us, 0.7);
  EXPECT_DOUBLE_EQ(buckets[0].mean_us, 0.7);
}

TEST(PeriodicSampler, TracksHottestLinksAndUtilization) {
  auto f = Fixture::single_switch();
  sim::Network net(f.topo, *f.oracle);
  PeriodicSampler::Options options;
  options.bucket = microseconds(100);
  options.top_k = 2;
  PeriodicSampler sampler(options);
  net.add_sink(&sampler);
  const int task = net.new_task({});
  for (int i = 0; i < 10; ++i) {
    net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  }
  net.run_until(milliseconds(1));

  const auto buckets = sampler.summaries();
  ASSERT_FALSE(buckets.empty());
  const auto& hottest = buckets[0].hottest;
  ASSERT_LE(hottest.size(), 2u);
  ASSERT_FALSE(hottest.empty());
  // 10 x 400 B on the host 0 uplink: 10 x 320 ns busy in a 100 us
  // bucket = 3.2% utilization on the hottest direction.
  EXPECT_NEAR(hottest.front().utilization, 0.032, 1e-9);
  EXPECT_EQ(hottest.front().packets, 10u);
  EXPECT_GE(hottest.front().bits, 10u * 400u * 8u);
}

TEST(PeriodicSampler, TopKTieBreakIsByteStable) {
  // Four directions with identical bits: the top-K order must not
  // depend on observation order or hash-map iteration order.  Ties
  // rank by link id, then direction — the documented total order that
  // keeps merged sweep outputs byte-stable at any --jobs value.
  PeriodicSampler::Options options;
  options.bucket = milliseconds(1);
  options.top_k = 3;
  PeriodicSampler sampler(options);
  sim::Packet p;
  p.size = bytes(400);
  const std::pair<topo::LinkId, int> lines[] = {{9, 0}, {2, 1}, {5, 1}, {2, 0}};
  for (const auto& [link, direction] : lines) {
    sampler.on_transmit(p, 0, link, direction, 1000, 1000, 321'000);
  }
  const auto buckets = sampler.summaries();
  ASSERT_EQ(buckets.size(), 1u);
  const auto& hottest = buckets[0].hottest;
  ASSERT_EQ(hottest.size(), 3u);
  EXPECT_EQ(hottest[0].link, 2);
  EXPECT_EQ(hottest[0].direction, 0);
  EXPECT_EQ(hottest[1].link, 2);
  EXPECT_EQ(hottest[1].direction, 1);
  EXPECT_EQ(hottest[2].link, 5);
  EXPECT_EQ(hottest[2].direction, 1);
}

TEST(PeriodicSampler, CountsDropsByReason) {
  auto f = Fixture::single_switch();
  sim::SimConfig config;
  config.max_queue_delay = microseconds(1);
  sim::Network net(f.topo, *f.oracle, config);
  PeriodicSampler sampler;
  net.add_sink(&sampler);
  const int task = net.new_task({});
  for (int i = 0; i < 50; ++i) {
    net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  }
  net.run_until(milliseconds(1));

  const auto buckets = sampler.summaries();
  ASSERT_FALSE(buckets.empty());
  std::uint64_t queue_drops = 0;
  for (const auto& b : buckets) queue_drops += b.queue_drops;
  EXPECT_EQ(queue_drops, net.packets_dropped(sim::DropReason::kQueueOverflow));
  EXPECT_GT(queue_drops, 0u);
}

TEST(PeriodicSampler, CsvHasOneRowPerBucket) {
  auto f = Fixture::single_switch();
  sim::Network net(f.topo, *f.oracle);
  PeriodicSampler::Options options;
  options.bucket = microseconds(50);
  PeriodicSampler sampler(options);
  net.add_sink(&sampler);
  const int task = net.new_task({});
  net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  net.run_until(milliseconds(1));

  std::ostringstream os;
  sampler.write_csv(os);
  std::size_t lines = 0;
  for (const char c : os.str()) lines += c == '\n';
  EXPECT_EQ(lines, 1u + sampler.bucket_count());  // header + rows
}

TEST(FaultTimeline, RecordsCutsRepairsAndDetectionLag) {
  FaultTimeline timeline;
  timeline.on_link_state(7, /*up=*/false, milliseconds(10));
  timeline.on_link_detected(7, /*dead=*/true, milliseconds(10) + microseconds(500));
  timeline.on_link_state(7, /*up=*/true, milliseconds(30));
  timeline.on_link_detected(7, /*dead=*/false, milliseconds(30) + microseconds(500));

  EXPECT_EQ(timeline.cuts(), 1u);
  EXPECT_EQ(timeline.repairs(), 1u);
  EXPECT_EQ(timeline.detections(), 2u);
  EXPECT_DOUBLE_EQ(timeline.mean_detection_lag_us(), 500.0);
  ASSERT_EQ(timeline.events().size(), 4u);
  EXPECT_EQ(timeline.events()[0].kind, FaultTimeline::Kind::kCut);
  EXPECT_EQ(timeline.events()[1].kind, FaultTimeline::Kind::kDetectedDead);
  EXPECT_EQ(timeline.events()[3].kind, FaultTimeline::Kind::kDetectedLive);
  EXPECT_STREQ(FaultTimeline::kind_name(FaultTimeline::Kind::kCut), "cut");
}

TEST(FaultTimeline, ObservesLiveNetworkFailures) {
  auto f = Fixture::single_switch();
  sim::SimConfig config;
  config.failure_detection_delay = microseconds(100);
  sim::Network net(f.topo, *f.oracle, config);
  test::ClosureTimer timers(net);
  FaultTimeline timeline;
  net.add_sink(&timeline);
  timers.at(microseconds(10), [&] { net.fail_link(0); });
  timers.at(microseconds(400), [&] { net.repair_link(0); });
  net.run_until(milliseconds(1));

  EXPECT_EQ(timeline.cuts(), 1u);
  EXPECT_EQ(timeline.repairs(), 1u);
  EXPECT_EQ(timeline.detections(), 2u);
  EXPECT_DOUBLE_EQ(timeline.mean_detection_lag_us(), 100.0);

  std::ostringstream os;
  timeline.write_jsonl(os);
  std::size_t lines = 0;
  for (const char c : os.str()) lines += c == '\n';
  EXPECT_EQ(lines, 4u);
  EXPECT_EQ(timeline.to_rows().size(), 4u);
}

TEST(PeriodicSampler, CountsCorruptedDropsSeparately) {
  auto f = Fixture::single_switch();
  sim::Network net(f.topo, *f.oracle);
  PeriodicSampler sampler;
  net.add_sink(&sampler);
  net.set_link_loss(0, 0.5);  // host 0's uplink goes gray
  const int task = net.new_task({});
  for (int i = 0; i < 200; ++i) {
    net.send(f.topo.hosts[0], f.topo.hosts[1], bytes(400), task, 1);
  }
  net.run_until(milliseconds(1));

  const auto buckets = sampler.summaries();
  ASSERT_FALSE(buckets.empty());
  std::uint64_t corrupted = 0;
  for (const auto& b : buckets) corrupted += b.corrupted_drops;
  EXPECT_EQ(corrupted, net.packets_dropped(sim::DropReason::kCorrupted));
  EXPECT_GT(corrupted, 0u);

  std::ostringstream os;
  sampler.write_csv(os);
  EXPECT_NE(os.str().find("corrupted_drops"), std::string::npos);
}

TEST(FaultTimeline, RecordsTheGrayFailureDetectionStory) {
  using routing::LinkHealth;
  FaultTimeline timeline;
  // Degradation strikes; probes measure it; the monitor flags lossy
  // 800 us later; repair and the all-clear follow.
  timeline.on_link_degraded(3, 0.4, milliseconds(10));
  timeline.on_probe(3, false, milliseconds(10) + microseconds(300));
  timeline.on_probe(3, true, milliseconds(10) + microseconds(600));
  timeline.on_health_transition(3, LinkHealth::kHealthy, LinkHealth::kLossy,
                                milliseconds(10) + microseconds(800));
  timeline.on_link_degraded(3, 0.0, milliseconds(20));
  timeline.on_health_transition(3, LinkHealth::kLossy, LinkHealth::kHealthy, milliseconds(21));

  EXPECT_EQ(timeline.degrades(), 1u);
  EXPECT_EQ(timeline.restores(), 1u);
  EXPECT_EQ(timeline.lossy_detections(), 1u);
  EXPECT_EQ(timeline.probes(), 2u);
  EXPECT_EQ(timeline.probe_losses(), 1u);
  EXPECT_DOUBLE_EQ(timeline.mean_detection_lag_us(), 800.0);

  ASSERT_EQ(timeline.events().size(), 4u);  // probes are counters, not events
  EXPECT_EQ(timeline.events()[0].kind, FaultTimeline::Kind::kDegraded);
  EXPECT_DOUBLE_EQ(timeline.events()[0].value, 0.4);
  EXPECT_EQ(timeline.events()[1].kind, FaultTimeline::Kind::kLossyDetected);
  EXPECT_EQ(timeline.events()[2].kind, FaultTimeline::Kind::kRestored);
  EXPECT_EQ(timeline.events()[3].kind, FaultTimeline::Kind::kLossyCleared);
  EXPECT_STREQ(FaultTimeline::kind_name(FaultTimeline::Kind::kLossyDetected), "lossy_detected");
}

TEST(FaultTimeline, DeadHealthTransitionsReuseDetectionAccounting) {
  using routing::LinkHealth;
  FaultTimeline timeline;
  timeline.on_link_state(2, /*up=*/false, milliseconds(5));
  timeline.on_health_transition(2, LinkHealth::kHealthy, LinkHealth::kDead,
                                milliseconds(5) + microseconds(30));
  timeline.on_flap_damped(2, milliseconds(9), milliseconds(6));
  timeline.on_link_state(2, /*up=*/true, milliseconds(7));
  timeline.on_health_transition(2, LinkHealth::kDead, LinkHealth::kHealthy, milliseconds(9));

  EXPECT_EQ(timeline.cuts(), 1u);
  EXPECT_EQ(timeline.repairs(), 1u);
  EXPECT_EQ(timeline.detections(), 2u);  // probe deaths land in the same lag books
  EXPECT_EQ(timeline.damped(), 1u);
  ASSERT_EQ(timeline.events().size(), 5u);
  EXPECT_EQ(timeline.events()[1].kind, FaultTimeline::Kind::kDetectedDead);
  EXPECT_EQ(timeline.events()[2].kind, FaultTimeline::Kind::kDamped);
  EXPECT_DOUBLE_EQ(timeline.events()[2].value, to_microseconds(milliseconds(9)));
  EXPECT_EQ(timeline.events()[4].kind, FaultTimeline::Kind::kDetectedLive);

  // Damp rows carry the suppressed-until value in the export.
  const auto rows = timeline.to_rows();
  ASSERT_EQ(rows.size(), 5u);
  bool damp_row_has_value = false;
  for (const auto& [key, value] : rows[2]) damp_row_has_value |= key == "value";
  EXPECT_TRUE(damp_row_has_value);
}

TEST(FaultTimeline, ObservesGrayEventsThroughTheNetworkFanOut) {
  auto f = Fixture::single_switch();
  sim::Network net(f.topo, *f.oracle);
  FaultTimeline timeline;
  net.add_sink(&timeline);
  net.set_link_loss(0, 0.25);
  net.emit_probe(0, false, microseconds(10));
  net.emit_health_transition(0, routing::LinkHealth::kHealthy, routing::LinkHealth::kLossy,
                             microseconds(20));
  net.emit_flap_damped(0, microseconds(500), microseconds(30));
  net.set_link_loss(0, 0.0);

  EXPECT_EQ(timeline.degrades(), 1u);
  EXPECT_EQ(timeline.restores(), 1u);
  EXPECT_EQ(timeline.lossy_detections(), 1u);
  EXPECT_EQ(timeline.probes(), 1u);
  EXPECT_EQ(timeline.probe_losses(), 1u);
  EXPECT_EQ(timeline.damped(), 1u);
}

}  // namespace
}  // namespace quartz::telemetry
