// Figure 18(a-c): average latency of one *localized* task (confined to
// nearby racks) while additional global tasks generate cross-traffic.
#include "report.hpp"

#include "common/table.hpp"
#include "sim/experiments.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace quartz;
using namespace quartz::sim;

const std::vector<Fabric> kFabrics = {Fabric::kThreeTierTree, Fabric::kJellyfish,
                                      Fabric::kQuartzInJellyfish,
                                      Fabric::kQuartzInEdgeAndCore};

/// --jobs shards each (tasks x fabric) grid; one engine per worker,
/// byte-identical tables for every jobs value.
SweepRunner sweep_runner() { return SweepRunner({bench::Report::instance().jobs(), 7}); }

void run_pattern(Pattern pattern, int max_tasks, const std::string& section) {
  std::vector<std::string> header{"tasks"};
  for (Fabric f : kFabrics) header.push_back(fabric_name(f));
  Table table(header);

  struct Point {
    int tasks;
    Fabric fabric;
  };
  std::vector<Point> points;
  for (int tasks = 1; tasks <= max_tasks; ++tasks) {
    for (Fabric fabric : kFabrics) points.push_back({tasks, fabric});
  }
  const std::vector<double> means = sweep_runner().run(points, [pattern](const Point& p) {
    TaskExperimentParams params;
    params.pattern = pattern;
    params.tasks = p.tasks;
    params.localized = true;
    params.duration = milliseconds(10);
    return run_task_experiment(p.fabric, {}, params).mean_latency_us;
  });

  std::size_t at = 0;
  for (int tasks = 1; tasks <= max_tasks; ++tasks) {
    std::vector<std::string> row{std::to_string(tasks)};
    for (std::size_t f = 0; f < kFabrics.size(); ++f) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.2f", means[at++]);
      row.push_back(buf);
    }
    table.add_row(row);
  }
  std::printf("\n(%s) mean latency of the localized task (us)\n",
              pattern_name(pattern).c_str());
  bench::Report::instance().add_table(section, table);
}

// Telemetry sinks are passive observers: attaching a full tracer plus a
// time-series sampler must leave the simulated results untouched.  Run
// one configuration both ways and report the deltas (the artifact lets
// CI assert they stay under 2%; determinism makes them exactly zero).
void run_passivity_check() {
  const std::vector<bool> variants{false, true};
  const std::vector<TaskExperimentResult> results =
      sweep_runner().run(variants, [](bool with_telemetry) {
        TaskExperimentParams params;
        params.pattern = Pattern::kScatter;
        params.tasks = 3;
        params.localized = true;
        params.duration = milliseconds(10);
        if (with_telemetry) {
          params.telemetry.trace = true;
          params.telemetry.sample_bucket = milliseconds(1);
        }
        return run_task_experiment(Fabric::kQuartzInJellyfish, {}, params);
      });
  const TaskExperimentResult& plain = results[0];
  const TaskExperimentResult& traced = results[1];

  const auto rel = [](double a, double b) { return b == 0 ? 0.0 : (a - b) / b; };
  std::printf("\ntelemetry passivity check (quartz in jellyfish, 3 tasks):\n");
  std::printf("  mean %.4f -> %.4f us, p99 %.4f -> %.4f us\n", plain.mean_latency_us,
              traced.mean_latency_us, plain.p99_latency_us, traced.p99_latency_us);
  bench::Report::instance().add_row(
      "telemetry_passivity",
      {{"mean_us_plain", plain.mean_latency_us},
       {"mean_us_traced", traced.mean_latency_us},
       {"p99_us_plain", plain.p99_latency_us},
       {"p99_us_traced", traced.p99_latency_us},
       {"mean_rel_delta", rel(traced.mean_latency_us, plain.mean_latency_us)},
       {"p99_rel_delta", rel(traced.p99_latency_us, plain.p99_latency_us)},
       {"traced_packets", traced.decomposition.packets}});
}

void report() {
  bench::Report::instance().open("fig18", "Average latency, localized traffic patterns");
  run_pattern(Pattern::kScatter, 6, "scatter_local_mean_latency_us");
  run_pattern(Pattern::kGather, 6, "gather_local_mean_latency_us");
  run_pattern(Pattern::kScatterGather, 5, "scatter_gather_local_mean_latency_us");
  run_passivity_check();
  bench::print_note(
      "paper: jellyfish is highest (it cannot exploit locality); the tree "
      "improves (local traffic skips the core) but still rises with "
      "cross-traffic; quartz in edge+core and quartz-in-jellyfish keep "
      "the local task inside one ring and stay flat");
}

}  // namespace

QUARTZ_BENCH_MAIN(report)
