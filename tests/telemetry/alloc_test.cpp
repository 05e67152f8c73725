// Allocation-freedom contracts of the telemetry hot paths, enforced
// with a counting operator-new hook (which is why this suite lives in
// its own test binary: the hook is global to the process).
//
//  * a disabled MetricRegistry's scratch LatencyRecorder: zero heap
//    traffic per add — instrumented code in the off state is free;
//  * an enabled LatencyRecorder: StreamingHistogram is a fixed array,
//    so the steady state allocates nothing no matter how many samples;
//  * a synchronous BinaryStream: page roll reuses the single page
//    buffer, so capture allocates nothing after construction;
//  * a warm SloTracker: closing a window keeps the window buffer and
//    the percentile scratch copy, so the only heap traffic left is the
//    cumulative run log growing.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "support/counting_new.hpp"
#include "telemetry/binary_stream.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/stream_sink.hpp"

namespace quartz::telemetry {
namespace {

using test::alloc_count;

TEST(TelemetryAllocation, DisabledRegistryLatencyAddIsAllocationFree) {
  MetricRegistry registry(/*enabled=*/false);
  LatencyRecorder& latency = registry.latency("sim.packet_latency_us");
  latency.add_us(1.0);  // warm up
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 1'000'000; ++i) latency.add_us(static_cast<double>(i % 997));
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u);
}

TEST(TelemetryAllocation, EnabledRecorderSteadyStateIsAllocationFree) {
  MetricRegistry registry(/*enabled=*/true);
  LatencyRecorder& latency = registry.latency("task.latency_us");
  latency.add_us(3.5);  // any setup cost lands here, before the probe
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 1'000'000; ++i) latency.add_us(0.1 * static_cast<double>(i % 4096));
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u);
  EXPECT_EQ(latency.count(), 1'000'001u);
}

TEST(TelemetryAllocation, SyncBinaryStreamEmitAndPageRollAreAllocationFree) {
  NullPageSink sink;
  BinaryStream stream(sink);
  BinaryStreamSink events(stream);
  events.on_probe(1, true, 0);  // warm up
  const std::uint64_t before = alloc_count();
  // 16-byte records, 4093 per page: 100k emits cross ~24 page rolls.
  for (std::uint64_t i = 1; i <= 100'000; ++i) {
    events.on_probe(static_cast<topo::LinkId>(i % 31), (i & 1) != 0,
                    static_cast<TimePs>(i * 64));
  }
  const std::uint64_t after = alloc_count();
  EXPECT_EQ(after - before, 0u);
  EXPECT_GE(stream.pages_sealed(), 24u);
  stream.finish();
  EXPECT_EQ(stream.records(), 100'001u);
  EXPECT_EQ(stream.emergency_pages(), 0u);
}

TEST(TelemetryAllocation, WarmSloTrackerWindowCyclesAreAllocationFree) {
  constexpr int kPerWindow = 161;  // one serve_overload window's worth
  constexpr int kCycles = 100;
  SloTracker::Config config;
  config.budget_p99_us = 50.0;
  SloTracker slo(config);
  auto record_window = [&slo](int cycle) {
    for (int i = 0; i < kPerWindow; ++i) {
      slo.record(static_cast<double>((i * 37 + cycle) % 97), i % 5 != 0);
    }
  };
  record_window(0);
  slo.roll(milliseconds(1));  // warm: window buffer and scratch sized

  // The cumulative log keeps every sample by design; replay its growth
  // on a plain vector to learn how many allocations that alone costs.
  std::vector<double> mirror;
  for (int i = 0; i < kPerWindow; ++i) mirror.push_back(0.0);  // same schedule
  std::uint64_t before = alloc_count();
  for (int i = 0; i < kCycles * kPerWindow; ++i) mirror.push_back(0.0);
  const std::uint64_t cumulative_growth = alloc_count() - before;

  std::uint64_t roll_allocs = 0;
  before = alloc_count();
  for (int cycle = 1; cycle <= kCycles; ++cycle) {
    record_window(cycle);
    const std::uint64_t roll_before = alloc_count();
    const SloWindow& w = slo.roll(milliseconds(1 + cycle));
    roll_allocs += alloc_count() - roll_before;
    ASSERT_EQ(w.completed, static_cast<std::uint64_t>(kPerWindow));
  }
  const std::uint64_t total = alloc_count() - before;
  EXPECT_EQ(roll_allocs, 0u);
  EXPECT_EQ(total, cumulative_growth);
  EXPECT_EQ(slo.windows_closed(), static_cast<std::uint64_t>(kCycles + 1));
  EXPECT_GT(slo.windows_breached(), 0u);  // the percentiles really ran
}

}  // namespace
}  // namespace quartz::telemetry
