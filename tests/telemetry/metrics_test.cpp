#include "telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace quartz::telemetry {
namespace {

TEST(MetricRegistry, FindOrCreateReturnsSameInstance) {
  MetricRegistry reg;
  Counter& c = reg.counter("sim.packets");
  c.inc(3);
  reg.counter("sim.packets").inc(2);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(reg.size(), 1u);

  reg.gauge("sim.load").set(0.75);
  EXPECT_DOUBLE_EQ(reg.gauge("sim.load").value(), 0.75);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistry, ReferencesStayValidAcrossInsertions) {
  // std::map storage: growing the registry must not invalidate handles
  // captured earlier (sinks hold on to them for a whole run).
  MetricRegistry reg;
  Counter& first = reg.counter("a");
  for (int i = 0; i < 100; ++i) reg.counter("metric." + std::to_string(i));
  first.inc();
  EXPECT_EQ(reg.counter("a").value(), 1u);
}

TEST(MetricRegistry, DisabledRegistryIsInertAndCheap) {
  MetricRegistry reg(/*enabled=*/false);
  EXPECT_FALSE(reg.enabled());
  reg.counter("x").inc(10);
  reg.gauge("y").set(1.0);
  reg.latency("z").add_us(5.0);
  EXPECT_EQ(reg.size(), 0u);  // nothing registered

  std::ostringstream os;
  reg.write_csv(os);
  // Header only: no metric rows escaped the disabled registry.
  EXPECT_EQ(os.str().find('\n'), os.str().rfind('\n'));
}

TEST(MetricRegistry, LatencyRecorderPercentiles) {
  MetricRegistry reg;
  LatencyRecorder& lat = reg.latency("task.latency_us");
  for (int i = 1; i <= 100; ++i) lat.add_us(static_cast<double>(i));
  lat.add(microseconds(250));  // TimePs overload
  EXPECT_EQ(lat.count(), 101u);
  EXPECT_DOUBLE_EQ(lat.max_us(), 250.0);
  EXPECT_GT(lat.percentile_us(99), lat.percentile_us(50));
}

TEST(MetricRegistry, CsvHasOneRowPerMetric) {
  MetricRegistry reg;
  reg.counter("c").inc(7);
  reg.gauge("g").set(2.5);
  reg.latency("l").add_us(1.0);
  std::ostringstream os;
  reg.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("name,kind,"), std::string::npos);
  EXPECT_NE(csv.find("c,counter,"), std::string::npos);
  EXPECT_NE(csv.find("g,gauge,"), std::string::npos);
  EXPECT_NE(csv.find("l,latency,"), std::string::npos);
}

TEST(MetricRegistry, JsonDumpMentionsEveryMetric) {
  MetricRegistry reg;
  reg.counter("packets").inc(2);
  reg.gauge("duration_ms").set(10.0);
  reg.latency("rtt").add_us(3.0);
  std::ostringstream os;
  JsonWriter w(os, false);
  reg.write_json(w);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"packets\":2"), std::string::npos);
  EXPECT_NE(json.find("duration_ms"), std::string::npos);
  EXPECT_NE(json.find("rtt"), std::string::npos);
}

TEST(MetricRegistry, MergeAddsCountersTakesGaugesAndMergesLatencies) {
  MetricRegistry total;
  total.counter("packets").inc(2);
  total.latency("rtt").add_us(1.0);
  MetricRegistry run;
  run.counter("packets").inc(3);
  run.counter("drops").inc(1);
  run.gauge("duration_ms").set(10.0);
  run.latency("rtt").add_us(5.0);
  total.merge(run);
  EXPECT_EQ(total.counter("packets").value(), 5u);
  EXPECT_EQ(total.counter("drops").value(), 1u);
  EXPECT_DOUBLE_EQ(total.gauge("duration_ms").value(), 10.0);
  EXPECT_EQ(total.latency("rtt").count(), 2u);
  EXPECT_DOUBLE_EQ(total.latency("rtt").max_us(), 5.0);
}

}  // namespace
}  // namespace quartz::telemetry
