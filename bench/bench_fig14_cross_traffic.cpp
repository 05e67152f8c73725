// Figure 14: impact of bursty cross-traffic on RPC latency — the §6
// prototype experiment (4 switches, 1 Gb/s, Thrift-style RPC plus
// Nuttcp-style bursts) reproduced in the packet simulator.
#include "report.hpp"

#include "common/table.hpp"
#include "sim/experiments.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace quartz;
using namespace quartz::sim;

void report() {
  bench::Report::instance().open("fig14", "Impact of cross-traffic on different topologies");

  const std::vector<double> sweep_mbps{0.0, 25.0, 50.0, 75.0, 100.0, 125.0, 150.0, 175.0, 200.0};
  struct Point {
    PrototypeFabric fabric;
    double mbps;
  };
  std::vector<Point> points;
  for (double mbps : sweep_mbps) {
    points.push_back({PrototypeFabric::kTwoTierTree, mbps});
    points.push_back({PrototypeFabric::kQuartz, mbps});
  }
  SweepRunner runner({bench::Report::instance().jobs(), 11});
  const std::vector<CrossTrafficResult> results = runner.run(points, [](const Point& p) {
    CrossTrafficParams params;
    params.rpc_calls = 2'000;
    params.cross_mbps = p.mbps;
    return run_cross_traffic(p.fabric, params);
  });
  // The 0 Mb/s row doubles as each fabric's normalization baseline.
  const double tree_baseline = results[0].mean_rtt_us;
  const double quartz_baseline = results[1].mean_rtt_us;

  Table table({"cross-traffic (Mb/s per source)", "tree RTT (us)", "tree normalized",
               "quartz RTT (us)", "quartz normalized", "tree 95% CI (us)"});
  for (std::size_t i = 0; i < sweep_mbps.size(); ++i) {
    const CrossTrafficResult& tree = results[2 * i];
    const CrossTrafficResult& quartz = results[2 * i + 1];
    char t[16], tn[16], q[16], qn[16], ci[16];
    std::snprintf(t, sizeof(t), "%.1f", tree.mean_rtt_us);
    std::snprintf(tn, sizeof(tn), "%.2f", tree.mean_rtt_us / tree_baseline);
    std::snprintf(q, sizeof(q), "%.1f", quartz.mean_rtt_us);
    std::snprintf(qn, sizeof(qn), "%.2f", quartz.mean_rtt_us / quartz_baseline);
    std::snprintf(ci, sizeof(ci), "%.2f", tree.ci95_us);
    table.add_row({std::to_string(static_cast<int>(sweep_mbps[i])), t, tn, q, qn, ci});
  }
  bench::Report::instance().add_table("rpc_rtt_vs_cross_traffic", table);
  bench::print_note(
      "paper: at 200 Mb/s cross-traffic the tree's RPC latency rises by "
      "more than 70% while Quartz is unaffected (dedicated lightpaths; "
      "the prototype pins the S2-source's bursts off the RPC channel via "
      "SPAIN-style path selection)");
}

}  // namespace

QUARTZ_BENCH_MAIN(report)
