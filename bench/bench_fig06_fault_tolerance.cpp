// Figure 6: bandwidth loss and partition probability of a 33-switch
// Quartz network under random fiber failures, for 1-4 physical rings.
#include "report.hpp"

#include "core/fault.hpp"
#include "common/table.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace quartz;
using namespace quartz::core;

void report() {
  bench::Report::instance().open("fig06", "Fault tolerance of multi-ring Quartz (33 switches)");

  struct Point {
    int rings;
    int fails;
  };
  std::vector<Point> points;
  for (int rings = 1; rings <= 4; ++rings) {
    for (int fails = 1; fails <= 4; ++fails) points.push_back({rings, fails});
  }
  sim::SweepRunner runner({bench::Report::instance().jobs(), 33});
  const std::vector<FaultResult> results = runner.run(points, [](const Point& p) {
    FaultParams params;
    params.switches = 33;
    params.physical_rings = p.rings;
    params.failed_links = p.fails;
    params.trials = 20'000;
    return analyze_faults(params);
  });

  Table loss({"rings", "1 failure", "2 failures", "3 failures", "4 failures"});
  Table part({"rings", "1 failure", "2 failures", "3 failures", "4 failures"});
  std::size_t at = 0;
  for (int rings = 1; rings <= 4; ++rings) {
    std::vector<std::string> loss_row{std::to_string(rings)};
    std::vector<std::string> part_row{std::to_string(rings)};
    for (int fails = 1; fails <= 4; ++fails) {
      const FaultResult& r = results[at++];
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * r.mean_bandwidth_loss);
      loss_row.push_back(buf);
      std::snprintf(buf, sizeof(buf), "%.4f", r.partition_probability);
      part_row.push_back(buf);
    }
    loss.add_row(loss_row);
    part.add_row(part_row);
  }
  std::printf("top: mean bandwidth loss\n");
  bench::Report::instance().add_table("mean_bandwidth_loss", loss);
  std::printf("\nbottom: probability of network partition\n");
  bench::Report::instance().add_table("partition_probability", part);
  bench::print_note(
      "paper: one ring loses ~20%% per failure and partitions (>90%%) at "
      ">=2 failures; two rings partition with probability 0.0024 even at "
      "four failures");
}

}  // namespace

QUARTZ_BENCH_MAIN(report)
