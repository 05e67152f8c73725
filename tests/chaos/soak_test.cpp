// The chaos-soak sweep: full-length randomized fault storms, every
// fault class at once, four invariants checked at quiescence.  This is
// deliberately heavier than tier-1 — it is registered under the ctest
// `soak` configuration/label and runs in the nightly CI job:
//
//   ctest -C soak -L soak --output-on-failure
//
// Environment knobs (for CI and for reproducing nightly failures):
//   QUARTZ_CHAOS_SEED    base seed of the sweep (default 1)
//   QUARTZ_CHAOS_STORMS  storms per detection mode (default 10)
//   QUARTZ_CHAOS_JOBS    sweep worker threads (default 1; 0 = all
//                        hardware threads — reports are byte-identical
//                        for every value, jobs only changes wall-clock)
//
// Every storm is a pure function of its seed: rerun with the seed a
// failing nightly printed and it reproduces bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>

#include "chaos/sharded_storm.hpp"
#include "support/slo_storm.hpp"

namespace quartz::chaos {
namespace {

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<std::uint64_t>(std::strtoull(value, nullptr, 10));
}

/// A full-length storm: every fault class for 20 ms, drained to 80 ms.
ShardedStormParams soak_params(DetectionMode mode) {
  ShardedStormParams params =
      every_fault_storm(env_u64("QUARTZ_CHAOS_SEED", 1), milliseconds(20));
  params.mode = mode;
  return params;
}

void expect_sweep_passes(const ShardedStormParams& base, int storms) {
  const int jobs = static_cast<int>(env_u64("QUARTZ_CHAOS_JOBS", 1));
  const std::vector<ShardedStormResult> reports = run_sweep(base, storms, jobs);
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(storms));
  for (const ShardedStormResult& r : reports) {
    std::cout << r.summary() << '\n';
    EXPECT_TRUE(r.passed()) << r.summary();
    EXPECT_EQ(r.cuts, r.repairs) << r.summary();
    EXPECT_EQ(r.degradations, r.restorations) << r.summary();
  }
}

TEST(ChaosSoak, HealthMonitorSweepHoldsAllInvariants) {
  expect_sweep_passes(soak_params(DetectionMode::kHealthMonitor),
                      static_cast<int>(env_u64("QUARTZ_CHAOS_STORMS", 10)));
}

TEST(ChaosSoak, FixedDelaySweepHoldsAllInvariants) {
  expect_sweep_passes(soak_params(DetectionMode::kFixedDelay),
                      static_cast<int>(env_u64("QUARTZ_CHAOS_STORMS", 10)));
}

TEST(ChaosSoak, SloStormSweepReconfiguresMidChaosAndHoldsInvariants) {
  // The defended serve stack — admission, retry budgets, and a regroom
  // fired mid-storm — against full-length cut + blackhole storms.
  SloStormParams base;  // full-length default SLO storm
  base.seed = env_u64("QUARTZ_CHAOS_SEED", 1);
  const int storms = static_cast<int>(env_u64("QUARTZ_CHAOS_STORMS", 10));
  const int jobs = static_cast<int>(env_u64("QUARTZ_CHAOS_JOBS", 1));
  const std::vector<SloStormReport> reports = run_slo_sweep(base, storms, jobs);
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(storms));
  for (const SloStormReport& r : reports) {
    std::cout << r.summary() << '\n';
    EXPECT_TRUE(r.passed()) << r.summary();
    EXPECT_EQ(r.serve.reconfigurations, 1u) << r.summary();
    EXPECT_LE(r.serve.retry_amplification, 2.0) << r.summary();
  }
}

}  // namespace
}  // namespace quartz::chaos
