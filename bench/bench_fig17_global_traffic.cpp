// Figure 17(a-c): average latency per packet vs number of concurrent
// scatter / gather / scatter-gather tasks, senders and receivers drawn
// uniformly across the network.
//
// Beyond the paper's mean-latency series, the traced run decomposes
// where each fabric's latency comes from (Table 2's budget measured in
// vivo): queueing + serialization + switching + propagation + host,
// which sum exactly to the measured end-to-end mean.
#include "report.hpp"

#include <cmath>

#include "common/table.hpp"
#include "sim/experiments.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace quartz;
using namespace quartz::sim;

const std::vector<Fabric> kFabrics = {
    Fabric::kThreeTierTree, Fabric::kJellyfish, Fabric::kQuartzInCore, Fabric::kQuartzInEdge,
    Fabric::kQuartzInEdgeAndCore};

/// Every sweep in this binary shards its (tasks x fabric) grid across
/// --jobs worker threads; each point runs on its own engine, so the
/// table is byte-identical for every jobs value.
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
  std::printf("\n(%s) mean latency per packet (us)\n", pattern_name(pattern).c_str());
  bench::Report::instance().add_table(section, table);
}

void run_decomposition() {
  std::printf("\nlatency decomposition, 4 scatter tasks (mean us per packet)\n");
  Table table({"fabric", "host", "queueing", "serialization", "switching", "propagation",
               "sum", "measured mean"});
  const std::vector<TaskExperimentResult> results =
      sweep_runner().run(kFabrics, [](Fabric fabric) {
        TaskExperimentParams params;
        params.pattern = Pattern::kScatter;
        params.tasks = 4;
        params.duration = milliseconds(10);
        params.telemetry.trace = true;
        return run_task_experiment(fabric, {}, params);
      });
  for (std::size_t i = 0; i < kFabrics.size(); ++i) {
    const Fabric fabric = kFabrics[i];
    const TaskExperimentResult& r = results[i];
    const auto& d = r.decomposition;
    char cells[7][24];
    std::snprintf(cells[0], sizeof(cells[0]), "%.3f", d.host_us);
    std::snprintf(cells[1], sizeof(cells[1]), "%.3f", d.queueing_us);
    std::snprintf(cells[2], sizeof(cells[2]), "%.3f", d.serialization_us);
    std::snprintf(cells[3], sizeof(cells[3]), "%.3f", d.switching_us);
    std::snprintf(cells[4], sizeof(cells[4]), "%.3f", d.propagation_us);
    std::snprintf(cells[5], sizeof(cells[5]), "%.3f", d.component_sum_us());
    std::snprintf(cells[6], sizeof(cells[6]), "%.3f", r.mean_latency_us);
    table.add_row({fabric_name(fabric), cells[0], cells[1], cells[2], cells[3], cells[4],
                   cells[5], cells[6]});

    bench::Report::instance().add_decomposition("latency_decomposition", fabric_name(fabric), d);
    for (const auto& [task, per_task] : r.task_decompositions) {
      bench::Report::instance().add_decomposition(
          "latency_decomposition_per_task",
          fabric_name(fabric) + " task " + std::to_string(task), per_task);
    }
    const double err = std::abs(d.component_sum_us() - r.mean_latency_us);
    if (r.mean_latency_us > 0 && err > 0.01 * r.mean_latency_us) {
      std::printf("WARNING: %s decomposition off by %.3f us (>1%%)\n",
                  fabric_name(fabric).c_str(), err);
    }
  }
  bench::Report::instance().add_table("latency_decomposition_table", table);
}

void report() {
  bench::Report::instance().open("fig17", "Average latency, global traffic patterns");
  run_pattern(Pattern::kScatter, 8, "scatter_mean_latency_us");
  run_pattern(Pattern::kGather, 8, "gather_mean_latency_us");
  run_pattern(Pattern::kScatterGather, 4, "scatter_gather_mean_latency_us");
  run_decomposition();
  bench::print_note(
      "paper: the three-tier tree is highest and rises with task count "
      "(its CCS core dominates); quartz in core removes >3 us; quartz in "
      "edge and core roughly halves the tree's latency; jellyfish is low "
      "at this small scale");
  bench::print_note(
      "decomposition: components are critical-path attributions, so "
      "host+queueing+serialization+switching+propagation equals the "
      "measured mean exactly; the tree pays switching (CCS hops), quartz "
      "pays propagation (ring fiber) — the paper's Table 2 trade");
}

}  // namespace

QUARTZ_BENCH_MAIN(report)
