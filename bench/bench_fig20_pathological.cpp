// Figure 20: the pathological switch-to-switch hotspot — multiple flows
// from hosts on S1 to hosts on S2, sweeping aggregate offered load.
#include "report.hpp"

#include "common/table.hpp"
#include "sim/experiments.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace quartz;
using namespace quartz::sim;

void report() {
  bench::Report::instance().open("fig20", "Average latency, pathological traffic pattern");

  const std::vector<double> loads{10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0};
  const std::vector<CoreKind> kinds{CoreKind::kNonBlockingSwitch, CoreKind::kQuartzEcmp,
                                    CoreKind::kQuartzVlb, CoreKind::kQuartzAdaptive};
  struct Point {
    double gbps;
    CoreKind kind;
  };
  std::vector<Point> points;
  for (double gbps : loads) {
    for (CoreKind kind : kinds) points.push_back({gbps, kind});
  }
  SweepRunner runner({bench::Report::instance().jobs(), 13});
  const std::vector<PathologicalResult> results = runner.run(points, [](const Point& p) {
    PathologicalParams params;
    params.aggregate_gbps = p.gbps;
    params.duration = milliseconds(5);
    return run_pathological(p.kind, params);
  });

  Table table({"offered load (Gb/s)", "non-blocking switch (us)", "quartz ECMP (us)",
               "quartz VLB k=0.8 (us)", "quartz adaptive VLB (us)", "ECMP drops"});
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const double gbps = loads[i];
    const PathologicalResult& nb = results[4 * i];
    const PathologicalResult& ecmp = results[4 * i + 1];
    const PathologicalResult& vlb = results[4 * i + 2];
    const PathologicalResult& adaptive = results[4 * i + 3];
    char n[16], e[24], v[16], a[16];
    std::snprintf(n, sizeof(n), "%.2f", nb.mean_latency_us);
    if (ecmp.saturated) {
      std::snprintf(e, sizeof(e), "%.0f (unbounded)", ecmp.mean_latency_us);
    } else {
      std::snprintf(e, sizeof(e), "%.2f", ecmp.mean_latency_us);
    }
    std::snprintf(v, sizeof(v), "%.2f", vlb.mean_latency_us);
    std::snprintf(a, sizeof(a), "%.2f", adaptive.mean_latency_us);
    table.add_row({std::to_string(static_cast<int>(gbps)), n, e, v, a,
                   std::to_string(ecmp.packets_dropped)});
  }
  bench::Report::instance().add_table("latency_vs_offered_load", table);
  bench::print_note(
      "paper: the store-and-forward core is flat but slow (~6 us+); "
      "quartz ECMP is lowest until the direct 40 Gb/s lightpath "
      "saturates, then unbounded (the paper's 125 us arrow); quartz VLB "
      "spreads over two-hop paths and stays flat through 50 Gb/s.  The "
      "adaptive column is our extension of §3.4's 'k can be adaptive': "
      "ECMP-cheap when idle, VLB-flat when hot");
}

}  // namespace

QUARTZ_BENCH_MAIN(report)
