#include "support/slo_storm.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace quartz::chaos {
namespace {

SloStormParams smoke_params(std::uint64_t seed) {
  SloStormParams p;
  p.seed = seed;
  p.duration = milliseconds(20);
  p.drain = milliseconds(8);
  p.arrivals_per_sec = 150'000.0;
  p.storm_start = milliseconds(5);
  p.storm_end = milliseconds(11);
  p.recovery_slack = milliseconds(4);
  p.shift_at = milliseconds(7);
  return p;
}

TEST(SloStorm, DefendedServeSurvivesAStormThatReconfiguresMidFlight) {
  const SloStormReport r = run_slo_storm(smoke_params(3));
  EXPECT_TRUE(r.passed()) << r.summary();
  EXPECT_TRUE(r.violations.empty());
  // The storm stressed the stack for real: faults manufactured retries
  // and the mid-storm shift re-groomed the oracle.
  EXPECT_GT(r.serve.retries, 0u) << r.summary();
  EXPECT_EQ(r.serve.reconfigurations, 1u);
  EXPECT_GT(r.serve.pins_applied + r.serve.pins_rejected, 0u);
  EXPECT_LE(r.serve.retry_amplification, 2.0);
  EXPECT_GT(r.serve.in_deadline, 0u);
}

TEST(SloStorm, ReportsAreDeterministicPerSeed) {
  const SloStormReport a = run_slo_storm(smoke_params(11));
  const SloStormReport b = run_slo_storm(smoke_params(11));
  EXPECT_EQ(a.serve.arrivals, b.serve.arrivals);
  EXPECT_EQ(a.serve.completed, b.serve.completed);
  EXPECT_EQ(a.serve.retries, b.serve.retries);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.breaches_after_recovery, b.breaches_after_recovery);
}

TEST(SloStorm, SweepIsIdenticalForEveryJobsValue) {
  SloStormParams base = smoke_params(5);
  const auto serial = run_slo_sweep(base, 3, 1);
  const auto parallel = run_slo_sweep(base, 3, 3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    EXPECT_EQ(serial[i].serve.completed, parallel[i].serve.completed);
    EXPECT_EQ(serial[i].serve.retries, parallel[i].serve.retries);
    EXPECT_EQ(serial[i].packets_sent, parallel[i].packets_sent);
  }
}

TEST(SloStorm, ValidatesPhaseOrdering) {
  SloStormParams p = smoke_params(1);
  p.shift_at = p.storm_end;  // shift must land mid-storm
  EXPECT_THROW(run_slo_storm(p), std::invalid_argument);
  p = smoke_params(1);
  p.recovery_slack = p.duration;  // recovery point past the serving end
  EXPECT_THROW(run_slo_storm(p), std::invalid_argument);
}

}  // namespace
}  // namespace quartz::chaos
