// Tier-1 smoke storms: every fault class on a flat ring, in both
// detection modes, judged by the four storm invariants.
#include <gtest/gtest.h>

#include <stdexcept>

#include "chaos/sharded_storm.hpp"

namespace quartz::chaos {
namespace {

/// A short storm that still contains every fault class.
ShardedStormParams smoke_params(DetectionMode mode, std::uint64_t seed) {
  ShardedStormParams p = every_fault_storm(seed, microseconds(400));
  p.mode = mode;
  return p;
}

TEST(ChaosStorm, HealthMonitorModeSurvivesASmokeStorm) {
  const ShardedStormParams p = smoke_params(DetectionMode::kHealthMonitor, 7);
  const ShardedStormResult r = run_storm(p);
  EXPECT_TRUE(r.passed()) << r.summary();
  EXPECT_TRUE(r.violations.empty());
  EXPECT_EQ(r.sent, 16u * static_cast<std::uint64_t>(p.packets_per_host));
  EXPECT_EQ(r.deliveries + r.drops, r.sent);
  // The storm actually stormed: cuts happened and were all repaired,
  // gray failures corrupted packets, probes drove the detector.
  EXPECT_GT(r.cuts, 0u);
  EXPECT_EQ(r.cuts, r.repairs);
  EXPECT_GT(r.degradations, 0u);
  EXPECT_EQ(r.degradations, r.restorations);
  EXPECT_GT(r.probes, 0u);
  EXPECT_GT(r.missed_probes, 0u);
  EXPECT_GT(r.deaths, 0u);
  EXPECT_EQ(r.deaths, r.revivals);  // converged: nothing left dead
  EXPECT_LE(r.max_hops, r.hop_bound);
}

TEST(ChaosStorm, FixedDelayModeSurvivesASmokeStorm) {
  const ShardedStormResult r = run_storm(smoke_params(DetectionMode::kFixedDelay, 7));
  EXPECT_TRUE(r.passed()) << r.summary();
  EXPECT_EQ(r.deliveries + r.drops, r.sent);
  EXPECT_GT(r.cuts, 0u);
  EXPECT_EQ(r.cuts, r.repairs);
  // No probe plane in this mode.
  EXPECT_EQ(r.probes, 0u);
}

TEST(ChaosStorm, StormsAreDeterministicPerSeed) {
  const ShardedStormParams p = smoke_params(DetectionMode::kHealthMonitor, 21);
  const ShardedStormResult a = run_storm(p);
  const ShardedStormResult b = run_storm(p);
  EXPECT_EQ(a.delivery_digest, b.delivery_digest);
  EXPECT_EQ(a.drop_digest, b.drop_digest);
  EXPECT_EQ(a.cuts, b.cuts);
  EXPECT_EQ(a.deaths, b.deaths);
  EXPECT_EQ(a.summary(), b.summary());
}

TEST(ChaosStorm, EveryFaultClassIsShardCountInvariant) {
  // Amplifier failures, Poisson churn and the fixed-delay view ride the
  // replicated control plane like every other fault: two shards must
  // reproduce the serial storm exactly.
  for (const DetectionMode mode : {DetectionMode::kHealthMonitor, DetectionMode::kFixedDelay}) {
    ShardedStormParams p = smoke_params(mode, 5);
    const ShardedStormResult serial = run_storm(p);
    p.shards = 2;
    const ShardedStormResult two = run_storm(p);
    EXPECT_GT(two.mail_posted, 0u);
    EXPECT_EQ(two.delivery_digest, serial.delivery_digest);
    EXPECT_EQ(two.drop_digest, serial.drop_digest);
    EXPECT_EQ(two.cuts, serial.cuts);
    EXPECT_EQ(two.deaths, serial.deaths);
    EXPECT_EQ(two.max_hops, serial.max_hops);
    EXPECT_EQ(two.tail_mean_us, serial.tail_mean_us);
    EXPECT_EQ(two.violations, serial.violations);
  }
}

TEST(ChaosStorm, RejectsIncoherentPhaseOrdering) {
  ShardedStormParams p = smoke_params(DetectionMode::kHealthMonitor, 1);
  p.storm_end = p.storm_start;  // empty storm window, yet faults scripted
  EXPECT_THROW(run_storm(p), std::invalid_argument);

  p = smoke_params(DetectionMode::kHealthMonitor, 1);
  p.run_until = p.storm_end;  // no drain after the storm
  EXPECT_THROW(run_storm(p), std::invalid_argument);

  p = smoke_params(DetectionMode::kHealthMonitor, 1);
  p.packets_per_host = 0;  // nothing to judge
  EXPECT_THROW(run_storm(p), std::invalid_argument);

  p = smoke_params(DetectionMode::kHealthMonitor, 1);
  p.flat_switches = 2;  // no mesh to detour over
  EXPECT_THROW(run_storm(p), std::invalid_argument);
}

}  // namespace
}  // namespace quartz::chaos
