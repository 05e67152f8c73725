#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/experiments.hpp"
#include "telemetry/metrics.hpp"

namespace quartz::sim {
namespace {

/// Bit-exact serialization of a double: byte-identity across jobs means
/// the very bits match, not just values within an epsilon.
std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

TEST(DeriveSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(derive_seed(7, 0), derive_seed(7, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t point = 0; point < 1000; ++point) {
    seeds.insert(derive_seed(7, point));
  }
  EXPECT_EQ(seeds.size(), 1000u);  // no collisions across points
  EXPECT_NE(derive_seed(7, 0), derive_seed(8, 0));  // root matters
}

TEST(ResolveJobs, PositivePassesThroughNonPositiveMeansHardware) {
  EXPECT_EQ(resolve_jobs(1), 1);
  EXPECT_EQ(resolve_jobs(5), 5);
  EXPECT_GE(resolve_jobs(0), 1);
  EXPECT_GE(resolve_jobs(-3), 1);
}

TEST(SweepRunner, ResultsComeBackInPointOrder) {
  SweepRunner runner({4, 1});
  std::vector<int> points;
  for (int i = 0; i < 100; ++i) points.push_back(i);
  const std::vector<int> doubled = runner.run(points, [](int p) { return 2 * p; });
  ASSERT_EQ(doubled.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(doubled[static_cast<std::size_t>(i)], 2 * i);
}

TEST(SweepRunner, ContextCarriesIndexAndDerivedSeed) {
  SweepRunner runner({2, 99});
  const std::vector<int> points{10, 11, 12};
  const auto seeds = runner.run(points, [](int, SweepContext ctx) {
    return std::pair<std::size_t, std::uint64_t>{ctx.index, ctx.seed};
  });
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(seeds[i].first, i);
    EXPECT_EQ(seeds[i].second, derive_seed(99, i));
    EXPECT_EQ(seeds[i].second, runner.seed_for(i));
  }
}

TEST(SweepRunner, ByteIdenticalAcrossJobCounts) {
  const std::vector<int> points{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  auto compute = [&points](int jobs) {
    SweepRunner runner({jobs, 42});
    std::string digest;
    for (const double v : runner.run(points, [](int p, SweepContext ctx) {
           // A value that depends on both the point and its seed.
           return static_cast<double>(ctx.seed % 1000003) / (p + 1.5);
         })) {
      digest += hex_bits(v);
    }
    return digest;
  };
  const std::string serial = compute(1);
  EXPECT_EQ(serial, compute(2));
  EXPECT_EQ(serial, compute(8));
}

TEST(SweepRunner, FirstExceptionPropagatesAfterJoin) {
  SweepRunner runner({4, 1});
  std::vector<int> points;
  for (int i = 0; i < 64; ++i) points.push_back(i);
  std::atomic<int> completed{0};
  EXPECT_THROW(runner.run(points,
                          [&completed](int p) {
                            if (p == 13) throw std::runtime_error("point 13 failed");
                            ++completed;
                            return p;
                          }),
               std::runtime_error);
  // The pool joined cleanly: every non-throwing point either ran or was
  // claimed; nothing deadlocks or leaks a thread (ASan/TSan-visible).
  EXPECT_LE(completed.load(), 63);
}

TEST(SweepRunner, InlineWhenSinglePointOrSingleJob) {
  SweepRunner runner({1, 5});
  EXPECT_EQ(runner.jobs(), 1);
  const std::vector<int> one{41};
  const auto out = runner.run(one, [](int p) { return p + 1; });
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 42);
}

TEST(MergedStats, MatchesSingleAccumulator) {
  RunningStats all;
  std::vector<RunningStats> parts(3);
  for (int i = 0; i < 300; ++i) {
    const double v = 0.25 * i - 17.0;
    all.add(v);
    parts[static_cast<std::size_t>(i % 3)].add(v);
  }
  const RunningStats merged = merged_stats(parts);
  EXPECT_EQ(merged.count(), all.count());
  EXPECT_NEAR(merged.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(merged.stddev(), all.stddev(), 1e-9);
  EXPECT_EQ(merged.min(), all.min());
  EXPECT_EQ(merged.max(), all.max());
}

// --- replica sweeps over the real simulator ---------------------------------

TaskExperimentParams small_experiment() {
  TaskExperimentParams params;
  params.tasks = 2;
  params.fanout = 4;
  params.duration = milliseconds(2);
  return params;
}

TEST(RunTaskReplicas, ByteIdenticalAcrossJobCounts) {
  auto digest = [](int jobs) {
    SweepOptions sweep;
    sweep.jobs = jobs;
    sweep.root_seed = 7;
    const ReplicaSweepResult r = run_task_replicas(
        Fabric::kQuartzInEdgeAndCore, {}, small_experiment(), 8, sweep);
    std::string out;
    for (const TaskExperimentResult& replica : r.replicas) {
      out += hex_bits(replica.mean_latency_us);
      out += hex_bits(replica.p99_latency_us);
      out += std::to_string(replica.packets_measured) + ",";
      out += std::to_string(replica.packets_dropped) + ";";
    }
    out += hex_bits(r.mean_latency_us.mean());
    out += hex_bits(r.p99_latency_us.mean());
    out += hex_bits(r.mean_latency_us.stddev());
    return out;
  };
  const std::string serial = digest(1);
  EXPECT_EQ(serial, digest(2));
  EXPECT_EQ(serial, digest(8));
}

TEST(RunTaskReplicas, ReplicasAreIndependentButDeterministic) {
  SweepOptions sweep;
  sweep.root_seed = 7;
  const ReplicaSweepResult r =
      run_task_replicas(Fabric::kThreeTierTree, {}, small_experiment(), 3, sweep);
  ASSERT_EQ(r.replicas.size(), 3u);
  EXPECT_EQ(r.mean_latency_us.count(), 3u);
  EXPECT_GT(r.packets_measured, 0u);
  // Distinct traffic seeds: replicas should not be bit-identical twins.
  EXPECT_NE(hex_bits(r.replicas[0].mean_latency_us), hex_bits(r.replicas[1].mean_latency_us));
  // Same root seed reproduces the same replicas.
  const ReplicaSweepResult again =
      run_task_replicas(Fabric::kThreeTierTree, {}, small_experiment(), 3, sweep);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(hex_bits(r.replicas[i].mean_latency_us),
              hex_bits(again.replicas[i].mean_latency_us));
  }
}

TEST(RunTaskReplicas, SharedMetricsRegistryIsByteIdenticalAcrossJobs) {
  // Each replica publishes into its own registry, folded into the
  // caller's in replica order, so a parallel sweep may take a registry
  // and exports exactly what the serial one does.
  auto export_csv = [](int jobs) {
    telemetry::MetricRegistry metrics(true);
    TaskExperimentParams params = small_experiment();
    params.telemetry.metrics = &metrics;
    SweepOptions sweep;
    sweep.jobs = jobs;
    run_task_replicas(Fabric::kThreeTierTree, {}, params, 3, sweep);
    std::ostringstream csv;
    metrics.write_csv(csv);
    return csv.str();
  };
  const std::string serial = export_csv(1);
  EXPECT_NE(serial.find("sim.packets_sent"), std::string::npos);
  EXPECT_NE(serial.find("task.latency_us"), std::string::npos);
  EXPECT_EQ(serial, export_csv(4));
}

}  // namespace
}  // namespace quartz::sim
