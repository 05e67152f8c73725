// The acceptance tests for the parallel engine: a full chaos storm
// (cuts + gray transceivers + flap damping) over a composed fabric
// must produce BYTE-IDENTICAL delivery and drop digests at every shard
// count, pinned to committed literals, and a mid-storm checkpoint
// taken at a window barrier must restore bit-exactly — but only at the
// shard count it was saved with.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "chaos/sharded_storm.hpp"
#include "common/units.hpp"
#include "snapshot/io.hpp"

namespace quartz::chaos {
namespace {

ShardedStormParams composite_params(std::uint64_t seed, int shards) {
  ShardedStormParams params;
  params.seed = seed;
  params.shards = shards;
  return params;
}

TEST(ShardedStorm, CompositeDigestsMatchAtEveryShardCount) {
  const ShardedStormResult serial = run_storm(composite_params(7, 1));
  EXPECT_GT(serial.deliveries, 0u);
  EXPECT_GT(serial.drops, 0u);  // the storm must actually bite
  EXPECT_EQ(serial.mail_posted, 0u);

  const ShardedStormResult two = run_storm(composite_params(7, 2));
  EXPECT_EQ(two.strategy, "composite");
  EXPECT_GT(two.mail_posted, 0u);
  EXPECT_EQ(two.delivery_digest, serial.delivery_digest);
  EXPECT_EQ(two.drop_digest, serial.drop_digest);
  EXPECT_EQ(two.deliveries, serial.deliveries);
  EXPECT_EQ(two.drops, serial.drops);

  const ShardedStormResult eight = run_storm(composite_params(7, 8));
  EXPECT_EQ(eight.delivery_digest, serial.delivery_digest);
  EXPECT_EQ(eight.drop_digest, serial.drop_digest);
  EXPECT_EQ(eight.deliveries, serial.deliveries);
  EXPECT_EQ(eight.drops, serial.drops);
}

ShardedStormParams flat_params(std::uint64_t seed, int shards) {
  ShardedStormParams params;
  params.seed = seed;
  params.composite.clear();  // flat ring → ring-segment splitter
  params.shards = shards;
  return params;
}

void expect_pinned(const ShardedStormResult& r, std::uint64_t delivery_digest,
                   std::uint64_t drop_digest, std::uint64_t deliveries, std::uint64_t drops) {
  SCOPED_TRACE(r.shards);
  EXPECT_EQ(r.delivery_digest, delivery_digest);
  EXPECT_EQ(r.drop_digest, drop_digest);
  EXPECT_EQ(r.deliveries, deliveries);
  EXPECT_EQ(r.drops, drops);
}

TEST(ShardedStorm, DigestsArePinnedAtEveryShardCount) {
  // Committed literals: any change to the workload, the storm script,
  // the control plane or the merge order shows up here as a diff.
  // The latency summary is pinned bit for bit too: the mean sums in
  // merge order, and the p99 selection must return what a full sort of
  // the latencies would put at that index.
  for (const int shards : {1, 2, 8}) {
    const ShardedStormResult composite = run_storm(composite_params(7, shards));
    expect_pinned(composite, 0x53166d8b3999d63full, 0x24dfa148252b3401ull, 3783, 57);
    EXPECT_EQ(composite.p99_latency_us, 3.77);
    EXPECT_EQ(composite.mean_latency_us, 2.5421390179751517);
    const ShardedStormResult flat = run_storm(flat_params(11, shards));
    expect_pinned(flat, 0x75013eb4f0c2f03bull, 0xa84dd13175ee7ea1ull, 1916, 4);
    EXPECT_EQ(flat.p99_latency_us, 2.0099999999999998);
    EXPECT_EQ(flat.mean_latency_us, 1.3994122009394572);
  }
}

TEST(ShardedStorm, ProbeDetectionDigestsArePinned) {
  // A storm detected by the probe plane alone, with fast probes, gray
  // links, flapping, an amplifier failure and Poisson churn: the probe
  // counters pin the probe plane's schedule, the digests what routing
  // made of it.
  for (const int shards : {1, 2}) {
    ShardedStormParams params = composite_params(5, shards);
    params.mode = DetectionMode::kHealthMonitor;
    params.probe_interval = microseconds(3);
    params.gray_links = 3;
    params.flapping_links = 2;
    params.amplifier_failures = 1;
    params.poisson_churn = true;
    const ShardedStormResult r = run_storm(params);
    expect_pinned(r, 0x25a16f99be361b51ull, 0x9cbbc9a2eab375ebull, 3599, 241);
    EXPECT_EQ(r.probes, 7588u);
    EXPECT_EQ(r.missed_probes, 134u);
    EXPECT_EQ(r.deaths, 5u);
    EXPECT_EQ(r.revivals, 5u);
    EXPECT_EQ(r.damped_recoveries, 2u);
  }
}

TEST(ShardedStorm, FlatRingSegmentsMatchSerial) {
  ShardedStormParams params = flat_params(11, 1);
  const ShardedStormResult serial = run_storm(params);
  EXPECT_GT(serial.deliveries, 0u);

  params.shards = 4;
  const ShardedStormResult four = run_storm(params);
  EXPECT_EQ(four.strategy, "ring-segment");
  EXPECT_GT(four.mail_posted, 0u);
  EXPECT_EQ(four.delivery_digest, serial.delivery_digest);
  EXPECT_EQ(four.drop_digest, serial.drop_digest);
}

TEST(ShardedStorm, MidStormSaveRestoreIsBitExact) {
  const ShardedStormParams params = composite_params(21, 2);

  // Uninterrupted reference.
  ShardedStormRun plain(params);
  plain.arm();
  const ShardedStormResult reference = plain.finish();

  // Run to the middle of the storm (an arbitrary, non-barrier-aligned
  // time: the engine quiesces at its own window barrier), snapshot,
  // and resume in a fresh run.
  ShardedStormRun first(params);
  first.arm();
  first.run_to(params.storm_start + (params.storm_end - params.storm_start) / 2);
  snapshot::Writer w;
  first.save(w);
  const std::vector<std::byte> bytes = snapshot::file_bytes(w, 1);

  std::string error;
  auto reader = snapshot::Reader::from_bytes(bytes, &error);
  ASSERT_TRUE(reader.has_value()) << error;
  ShardedStormRun resumed(params);
  resumed.restore(*reader);
  const ShardedStormResult after = resumed.finish();

  EXPECT_EQ(after.delivery_digest, reference.delivery_digest);
  EXPECT_EQ(after.drop_digest, reference.drop_digest);
  EXPECT_EQ(after.deliveries, reference.deliveries);
  EXPECT_EQ(after.drops, reference.drops);
}

TEST(ShardedStorm, RestoreRefusesDifferentShardCount) {
  ShardedStormRun saved(composite_params(33, 2));
  saved.arm();
  saved.run_to(microseconds(50));
  snapshot::Writer w;
  saved.save(w);
  const std::vector<std::byte> bytes = snapshot::file_bytes(w, 1);

  std::string error;
  auto reader = snapshot::Reader::from_bytes(bytes, &error);
  ASSERT_TRUE(reader.has_value()) << error;
  ShardedStormRun other(composite_params(33, 4));
  try {
    other.restore(*reader);
    FAIL() << "restore at a different shard count must be refused";
  } catch (const std::invalid_argument& refusal) {
    EXPECT_NE(std::string(refusal.what()).find("shard"), std::string::npos)
        << refusal.what();
  }
}

TEST(ShardedStorm, BenchShapedStormWithoutTailReportsInsteadOfThrowing) {
  // The benchmark's storm (bench/suite, smoke size here) stops sending
  // long before storm_end, so there is no post-storm tail.  The driver
  // must accept it, and finish() reports latency recovery as violated
  // instead of throwing.
  ShardedStormParams params;
  params.seed = 4242;
  params.composite = "ring-of-rings:8x8@2";
  params.shards = 2;
  params.packets_per_host = 200;
  params.packet_gap = microseconds(1);
  params.cuts = 4;
  params.gray_links = 4;
  params.flapping_links = 2;
  params.storm_start = microseconds(100);
  params.storm_end = microseconds(400);
  params.run_until = microseconds(500);
  ShardedStormResult r;
  ASSERT_NO_THROW(r = run_storm(params));
  EXPECT_GT(r.deliveries, 0u);
  EXPECT_TRUE(r.invariants.conservation) << r.summary();
  EXPECT_TRUE(r.invariants.hop_bound) << r.summary();
  EXPECT_FALSE(r.invariants.latency_recovered);
  EXPECT_FALSE(r.passed());
  EXPECT_NE(r.summary().find("no post-storm tail"), std::string::npos) << r.summary();
}

TEST(ShardedStorm, SeedChangesDigest) {
  const ShardedStormResult a = run_storm(composite_params(1, 2));
  const ShardedStormResult b = run_storm(composite_params(2, 2));
  EXPECT_NE(a.delivery_digest, b.delivery_digest);
}

}  // namespace
}  // namespace quartz
