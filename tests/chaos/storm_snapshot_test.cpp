// Checkpoint/restore bit-exactness under the full chaos storm: a run
// snapshotted mid-storm and resumed in a fresh ShardedStormRun must
// reproduce the uninterrupted run's digests, counters and invariants —
// at every parallel sweep width.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "chaos/sharded_storm.hpp"
#include "common/units.hpp"
#include "snapshot/io.hpp"

namespace quartz::chaos {
namespace {

/// Small but complete storm: every fault class fires.
ShardedStormParams quick_params(std::uint64_t seed) {
  return every_fault_storm(seed, microseconds(400));
}

void expect_identical(const ShardedStormResult& a, const ShardedStormResult& b) {
  EXPECT_EQ(a.delivery_digest, b.delivery_digest);
  EXPECT_EQ(a.drop_digest, b.drop_digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.deaths, b.deaths);
  EXPECT_EQ(a.max_hops, b.max_hops);
  EXPECT_EQ(a.baseline_mean_us, b.baseline_mean_us);
  EXPECT_EQ(a.tail_mean_us, b.tail_mean_us);
  EXPECT_EQ(a.fluid_epochs, b.fluid_epochs);
  EXPECT_EQ(a.fluid_digest, b.fluid_digest);
  EXPECT_EQ(a.passed(), b.passed());
}

/// Save `run` into an in-memory snapshot and reopen it for reading.
snapshot::Reader round_trip(ShardedStormRun& run) {
  snapshot::Writer w;
  run.save(w);
  std::string error;
  auto reader = snapshot::Reader::from_bytes(snapshot::file_bytes(w, 0), &error);
  EXPECT_TRUE(reader.has_value()) << error;
  return std::move(reader.value());
}

TEST(StormSnapshot, MidStormRestoreIsBitExact) {
  const ShardedStormResult plain = run_storm(quick_params(101));
  EXPECT_TRUE(plain.passed()) << plain.summary();
  expect_identical(plain, run_storm(quick_params(101), /*restore_rehearsal=*/true));
}

TEST(StormSnapshot, FixedDelayModeRestoresToo) {
  ShardedStormParams params = quick_params(202);
  params.mode = DetectionMode::kFixedDelay;
  expect_identical(run_storm(params), run_storm(params, /*restore_rehearsal=*/true));
}

TEST(StormSnapshot, SweepWithRehearsalIsJobsInvariant) {
  // Every storm in the sweep snapshots and restores mid-run; the result
  // vector must be identical at jobs 1, 2 and 8 — checkpoint/restore
  // composes with the parallel runner.
  const ShardedStormParams base = quick_params(301);
  const std::vector<ShardedStormResult> jobs1 = run_sweep(base, 3, 1, true);
  const std::vector<ShardedStormResult> jobs2 = run_sweep(base, 3, 2, true);
  const std::vector<ShardedStormResult> jobs8 = run_sweep(base, 3, 8, true);
  ASSERT_EQ(jobs1.size(), 3u);
  ASSERT_EQ(jobs2.size(), 3u);
  ASSERT_EQ(jobs8.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(jobs1[i].passed()) << jobs1[i].summary();
    expect_identical(jobs1[i], jobs2[i]);
    expect_identical(jobs1[i], jobs8[i]);
  }
}

TEST(StormSnapshot, HybridStormRestoresBitExact) {
  // Hybrid slice: the fluid background's epoch chain and bias state
  // ride the mid-storm snapshot, so a restored run must reproduce the
  // fluid digest along with the packet digests.
  ShardedStormParams params = quick_params(606);
  params.hybrid_background = true;
  const ShardedStormResult plain = run_storm(params);
  EXPECT_TRUE(plain.passed()) << plain.summary();
  EXPECT_GT(plain.fluid_epochs, 0u);
  expect_identical(plain, run_storm(params, /*restore_rehearsal=*/true));
}

TEST(StormSnapshot, RestoreRefusesHybridMismatch) {
  // A snapshot from a hybrid storm must not restore into a plain run:
  // the handler map (and the FLUI chunk) would not line up.
  ShardedStormParams hybrid = quick_params(707);
  hybrid.hybrid_background = true;
  ShardedStormRun run(hybrid);
  run.arm();
  run.run_to(microseconds(300));
  snapshot::Reader reader = round_trip(run);
  ShardedStormRun plain(quick_params(707));
  EXPECT_THROW(plain.restore(reader), std::invalid_argument);
}

TEST(StormSnapshot, RestoreRefusesDifferentParams) {
  ShardedStormRun run(quick_params(404));
  run.arm();
  run.run_to(microseconds(300));
  snapshot::Reader reader = round_trip(run);
  ShardedStormRun other(quick_params(405));  // different seed
  EXPECT_THROW(other.restore(reader), std::invalid_argument);
}

TEST(StormSnapshot, RestoreRefusesArmedRun) {
  ShardedStormRun run(quick_params(505));
  run.arm();
  run.run_to(microseconds(300));
  snapshot::Reader reader = round_trip(run);
  ShardedStormRun armed(quick_params(505));
  armed.arm();
  EXPECT_THROW(armed.restore(reader), std::invalid_argument);
}

}  // namespace
}  // namespace quartz::chaos
