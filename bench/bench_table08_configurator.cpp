// Table 8: approximate cost and latency comparison across datacenter
// sizes and utilization levels — the §4.4 configurator.
#include "report.hpp"

#include "common/table.hpp"
#include "core/configurator.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace quartz;
using namespace quartz::core;

void report() {
  bench::Report::instance().open("table08", "Approximate cost and latency comparison");

  Table table({"datacenter", "utilization", "topology", "latency (us)", "cost/server",
               "latency reduction", "cost premium"});
  for (const auto& row : run_configurator()) {
    char bl[16], ql[16], bc[16], qc[16], red[16], prem[16];
    std::snprintf(bl, sizeof(bl), "%.2f", row.baseline_latency_us);
    std::snprintf(ql, sizeof(ql), "%.2f", row.quartz_latency_us);
    std::snprintf(bc, sizeof(bc), "$%.0f", row.baseline_cost_per_server);
    std::snprintf(qc, sizeof(qc), "$%.0f", row.quartz_cost_per_server);
    std::snprintf(red, sizeof(red), "%.0f%%", row.latency_reduction_percent);
    std::snprintf(prem, sizeof(prem), "%+.0f%%", row.cost_increase_percent);
    table.add_row({dc_size_name(row.size), utilization_name(row.utilization),
                   design_choice_name(row.baseline), bl, bc, "-", "-"});
    table.add_row({"", "", design_choice_name(row.quartz), ql, qc, red, prem});
  }
  bench::Report::instance().add_table("cost_and_latency", table);

  // Full latency-estimate grid behind Table 8: every design choice at
  // both utilization levels, sharded across --jobs workers.
  const std::vector<DesignChoice> choices = {
      DesignChoice::kTwoTierTree,     DesignChoice::kThreeTierTree,
      DesignChoice::kSingleQuartzRing, DesignChoice::kQuartzInEdge,
      DesignChoice::kQuartzInCore,     DesignChoice::kQuartzInEdgeAndCore};
  const std::vector<Utilization> utils = {Utilization::kLow, Utilization::kHigh};
  struct Cell {
    DesignChoice choice;
    Utilization util;
  };
  std::vector<Cell> cells;
  for (auto choice : choices) {
    for (auto util : utils) cells.push_back({choice, util});
  }
  sim::SweepRunner runner({bench::Report::instance().jobs(), 8});
  const std::vector<double> latencies = runner.run(
      cells, [](const Cell& c) { return estimate_latency_us(c.choice, c.util); });
  Table grid({"topology", "low utilization (us)", "high utilization (us)"});
  for (std::size_t i = 0; i < choices.size(); ++i) {
    char lo[16], hi[16];
    std::snprintf(lo, sizeof(lo), "%.2f", latencies[2 * i]);
    std::snprintf(hi, sizeof(hi), "%.2f", latencies[2 * i + 1]);
    grid.add_row({design_choice_name(choices[i]), lo, hi});
  }
  bench::Report::instance().add_table("latency_estimate_grid", grid);
  bench::print_note(
      "paper reductions: small 33%/50%, medium 20%/40%, large 70%/74%; "
      "paper premiums: +7%, +13%, 0%/+17%.  Costs here are priced against "
      "this repo's catalog (the paper's quote links are dead); ratios and "
      "conclusions are the reproduction target");
}

}  // namespace

QUARTZ_BENCH_MAIN(report)
