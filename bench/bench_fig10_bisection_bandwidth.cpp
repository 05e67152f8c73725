// Figure 10: normalized throughput of three traffic patterns on Quartz
// vs ideal and capacity-reduced fabrics (max-min fair flow allocation).
#include "report.hpp"

#include "common/table.hpp"
#include "flow/bisection.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace quartz;
using namespace quartz::flow;

void report() {
  bench::Report::instance().open("fig10", "Normalized throughput for three traffic patterns");

  const std::vector<FabricUnderTest> fabrics = {
      FabricUnderTest::kFullBisection, FabricUnderTest::kQuartz,
      FabricUnderTest::kQuartzDirectOnly, FabricUnderTest::kHalfBisection,
      FabricUnderTest::kQuarterBisection};
  const std::vector<ThroughputPattern> patterns = {ThroughputPattern::kPermutation,
                                                   ThroughputPattern::kIncast,
                                                   ThroughputPattern::kRackShuffle};

  struct Point {
    ThroughputPattern pattern;
    FabricUnderTest fabric;
  };
  std::vector<Point> points;
  for (auto pattern : patterns) {
    for (auto fabric : fabrics) points.push_back({pattern, fabric});
  }
  sim::SweepRunner runner({bench::Report::instance().jobs(), 16});
  const std::vector<double> throughputs = runner.run(points, [](const Point& p) {
    BisectionParams params;  // 16 racks x 16 hosts, n = k
    return run_bisection(p.fabric, p.pattern, params).normalized_throughput;
  });

  Table table({"pattern", "full bisection", "quartz", "quartz direct-only", "1/2 bisection",
               "1/4 bisection"});
  std::size_t at = 0;
  for (auto pattern : patterns) {
    std::vector<std::string> row{throughput_pattern_name(pattern)};
    for (std::size_t f = 0; f < fabrics.size(); ++f) {
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%.2f", throughputs[at++]);
      row.push_back(buf);
    }
    table.add_row(row);
  }
  bench::Report::instance().add_table("normalized_throughput", table);
  bench::print_note(
      "paper: quartz ~0.9 for permutation and incast, ~0.75 for rack "
      "shuffle — below full bisection but above 1/2 bisection everywhere; "
      "the direct-only column is our ablation showing why VLB matters");
}

}  // namespace

QUARTZ_BENCH_MAIN(report)
