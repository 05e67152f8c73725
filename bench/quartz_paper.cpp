// quartz_paper: regenerates one of the paper's evaluation tables or
// figures per run and checks the claims EXPERIMENTS.md makes about it.
//
//   quartz_paper --figure=<id> [--report-dir=<dir>] [--no-report] [--jobs=<n>]
//
// Each figure is one {id, title, run} entry in kFigures.  run() prints
// the reproduction (the rows/series the paper reports), records them
// in BENCH_<id>.json, then QUARTZ_CHECKs every "Match" claim against
// the values it just printed, so a change that breaks a figure fails
// its `paper.<id>` ctest.  A missing or unknown --figure exits 1 and
// lists the valid ids.
#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.hpp"
#include "core/configurator.hpp"
#include "core/fault.hpp"
#include "flow/bisection.hpp"
#include "optical/budget.hpp"
#include "sim/experiments.hpp"
#include "sim/latency_model.hpp"
#include "sim/sweep.hpp"
#include "topo/properties.hpp"
#include "topo/switch_models.hpp"
#include "wavelength/assign.hpp"

namespace {

using namespace quartz;
using namespace quartz::core;
using namespace quartz::flow;
using namespace quartz::sim;
using namespace quartz::topo;
using namespace quartz::wavelength;

/// One printf-formatted table cell.
template <typename... Args>
std::string cell(const char* format, Args... args) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), format, args...);
  return buf;
}

// Figure 5: wavelengths required vs ring size — greedy heuristic vs the
// certified optimum (the paper's ILP), plus the max-ring-size headline.
constexpr int kExactLimit = 13;  // certification attempted up to here

void fig05() {
  Table table({"ring size", "lower bound", "greedy (longest-first)", "naive first-fit",
               "optimal (B&B)", "certified"});
  struct Point {
    int lb = 0;
    int greedy = 0;
    int naive = 0;
    std::string exact = "-";
    std::string certified = "-";
  };
  std::vector<int> sizes;
  for (int m = 2; m <= 41; ++m) sizes.push_back(m);
  // Each ring size is one sweep point; the naive baseline's shuffle
  // stream is seeded per point (not shared across the loop), which is
  // what lets the sweep parallelize without changing per-point results.
  sim::SweepRunner runner({bench::Report::instance().jobs(), 7});
  const std::vector<Point> rows = runner.run(sizes, [](int m, sim::SweepContext ctx) {
    Point p;
    p.lb = channel_lower_bound(m);
    p.greedy = greedy_assign(m).channels_used;
    // Average the order-agnostic baseline over a few shuffles.
    Rng naive_rng(ctx.seed);
    int naive_total = 0;
    for (int trial = 0; trial < 5; ++trial) {
      naive_total += greedy_assign_unordered(m, naive_rng).channels_used;
    }
    p.naive = (naive_total + 2) / 5;
    if (m <= kExactLimit) {
      // Odd rings certify at the load lower bound almost instantly;
      // even rings need deep infeasibility proofs (the NP-complete
      // part), so cap their budget and fall back to greedy.
      const ExactResult r = exact_assign(m, 5'000'000);
      p.exact = std::to_string(r.assignment.channels_used);
      p.certified = r.proved_optimal ? "yes" : "no";
    }
    return p;
  });
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Point& p = rows[i];
    table.add(sizes[i], p.lb, p.greedy, p.naive, p.exact, p.certified);
  }
  bench::Report::instance().add_table("channels_vs_ring_size", table);

  std::printf("\nheadlines:\n");
  std::printf("  max ring size @ 160 channels/fiber : %d   (paper: 35)\n", max_ring_size(160));
  std::printf("  max ring size @ 80 channels/mux    : %d\n", max_ring_size(80));
  std::printf("  channels for the 33-switch ring    : %d   (paper: 137)\n",
              greedy_assign(33).channels_used);
  bench::Report::instance().add_row(
      "headlines", {{"max_ring_size_160", max_ring_size(160)},
                    {"max_ring_size_80", max_ring_size(80)},
                    {"channels_33_ring", greedy_assign(33).channels_used}});
  bench::print_note(
      "the exact branch-and-bound stands in for the paper's ILP; it is run "
      "only where certification is cheap, matching \"for a small ring, we "
      "can still find the optimal solution by ILP\".  The naive column "
      "drops §3.1.1's longest-first ordering and pays for the resulting "
      "channel fragmentation");

  QUARTZ_CHECK(max_ring_size(160) == 35, "the paper's 35-switch ring at 160 channels");
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const Point& p = rows[i];
    // Greedy "performs nearly as well": within 2 channels of every
    // certified optimum, and within 12.5% of the load bound wherever
    // no optimum is certified.
    if (p.certified == "yes") {
      QUARTZ_CHECK(p.greedy <= std::stoi(p.exact) + 2, "greedy within 2 of the optimum");
    }
    if (sizes[i] > kExactLimit) {
      QUARTZ_CHECK(8 * p.greedy <= 9 * p.lb, "greedy within 12.5% of the lower bound");
    }
  }
}

// Figure 6: bandwidth loss and partition probability of a 33-switch
// Quartz network under random fiber failures, for 1-4 physical rings.
void fig06() {
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
      loss_row.push_back(cell("%.1f%%", 100.0 * r.mean_bandwidth_loss));
      part_row.push_back(cell("%.4f", r.partition_probability));
    }
    loss.add_row(loss_row);
    part.add_row(part_row);
  }
  std::printf("top: mean bandwidth loss\n");
  bench::Report::instance().add_table("mean_bandwidth_loss", loss);
  std::printf("\nbottom: probability of network partition\n");
  bench::Report::instance().add_table("partition_probability", part);
  bench::print_note(
      "paper: one ring loses ~20% per failure and partitions (>90%) at "
      ">=2 failures; two rings partition with probability 0.0024 even at "
      "four failures");

  // results[4 * (rings - 1) + (fails - 1)]
  for (int fails = 2; fails <= 4; ++fails) {
    QUARTZ_CHECK(results[fails - 1].partition_probability > 0.9,
                 "one ring partitions at >= 2 cuts");
  }
  QUARTZ_CHECK(results[4 + 3].partition_probability <= 0.0024,
               "two rings survive four cuts");
}

// Figure 10: normalized throughput of three traffic patterns on Quartz
// vs ideal and capacity-reduced fabrics (max-min fair flow allocation).
void fig10() {
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
      row.push_back(cell("%.2f", throughputs[at++]));
    }
    table.add_row(row);
  }
  bench::Report::instance().add_table("normalized_throughput", table);
  bench::print_note(
      "paper: quartz ~0.9 for permutation and incast, ~0.75 for rack "
      "shuffle — below full bisection but above 1/2 bisection everywhere; "
      "the direct-only column is our ablation showing why VLB matters");

  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const double* row = &throughputs[p * fabrics.size()];
    QUARTZ_CHECK(row[3] < row[1] && row[1] < row[0],
                 "quartz strictly between 1/2 and full bisection");
  }
}

// Figure 14: impact of bursty cross-traffic on RPC latency — the §6
// prototype experiment (4 switches, 1 Gb/s, Thrift-style RPC plus
// Nuttcp-style bursts) reproduced in the packet simulator.
void fig14() {
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
    table.add_row({std::to_string(static_cast<int>(sweep_mbps[i])),
                   cell("%.1f", tree.mean_rtt_us),
                   cell("%.2f", tree.mean_rtt_us / tree_baseline),
                   cell("%.1f", quartz.mean_rtt_us),
                   cell("%.2f", quartz.mean_rtt_us / quartz_baseline),
                   cell("%.2f", tree.ci95_us)});
  }
  bench::Report::instance().add_table("rpc_rtt_vs_cross_traffic", table);
  bench::print_note(
      "paper: at 200 Mb/s cross-traffic the tree's RPC latency rises by "
      "more than 70% while Quartz is unaffected (dedicated lightpaths; "
      "the prototype pins the S2-source's bursts off the RPC channel via "
      "SPAIN-style path selection)");

  QUARTZ_CHECK(results[2 * (sweep_mbps.size() - 1)].mean_rtt_us / tree_baseline > 1.5,
               "the tree's RPC latency rises by > 50% at 200 Mb/s");
  for (std::size_t i = 0; i < sweep_mbps.size(); ++i) {
    QUARTZ_CHECK(std::abs(results[2 * i + 1].mean_rtt_us / quartz_baseline - 1.0) <= 0.01,
                 "quartz unaffected by cross-traffic");
  }
  QUARTZ_CHECK(quartz_baseline < tree_baseline, "quartz's baseline below the tree's");
}

/// Figs. 17 and 18 shard every sweep across --jobs worker threads; each
/// point runs on its own engine, so the tables are byte-identical for
/// every jobs value.
SweepRunner sweep_runner() { return SweepRunner({bench::Report::instance().jobs(), 7}); }

/// Run `pattern` for 1..max_tasks tasks on every fabric, print and
/// record the table under `section`, and return the means as
/// means[tasks - 1][fabric].  A localized run confines the measured
/// task to nearby racks while the other tasks are global (Fig. 18).
std::vector<std::vector<double>> latency_sweep(const std::vector<Fabric>& fabrics,
                                               Pattern pattern, int max_tasks, bool localized,
                                               const std::string& section) {
  std::vector<std::string> header{"tasks"};
  for (Fabric f : fabrics) header.push_back(fabric_name(f));
  Table table(header);

  struct Point {
    int tasks;
    Fabric fabric;
  };
  std::vector<Point> points;
  for (int tasks = 1; tasks <= max_tasks; ++tasks) {
    for (Fabric fabric : fabrics) points.push_back({tasks, fabric});
  }
  const std::vector<double> means =
      sweep_runner().run(points, [pattern, localized](const Point& p) {
        TaskExperimentParams params;
        params.pattern = pattern;
        params.tasks = p.tasks;
        params.localized = localized;
        params.duration = milliseconds(10);
        return run_task_experiment(p.fabric, {}, params).mean_latency_us;
      });

  std::vector<std::vector<double>> rows;
  std::size_t at = 0;
  for (int tasks = 1; tasks <= max_tasks; ++tasks) {
    std::vector<std::string> row{std::to_string(tasks)};
    rows.emplace_back(means.begin() + at, means.begin() + at + fabrics.size());
    for (std::size_t f = 0; f < fabrics.size(); ++f) row.push_back(cell("%.2f", means[at++]));
    table.add_row(row);
  }
  std::printf(localized ? "\n(%s) mean latency of the localized task (us)\n"
                        : "\n(%s) mean latency per packet (us)\n",
              pattern_name(pattern).c_str());
  bench::Report::instance().add_table(section, table);
  return rows;
}

// Figure 17(a-c): average latency per packet vs number of concurrent
// scatter / gather / scatter-gather tasks, senders and receivers drawn
// uniformly across the network.
//
// Beyond the paper's mean-latency series, the traced run decomposes
// where each fabric's latency comes from (Table 2's budget measured in
// vivo): queueing + serialization + switching + propagation + host,
// which sum exactly to the measured end-to-end mean.
const std::vector<Fabric> kGlobalFabrics = {
    Fabric::kThreeTierTree, Fabric::kJellyfish, Fabric::kQuartzInCore, Fabric::kQuartzInEdge,
    Fabric::kQuartzInEdgeAndCore};

void run_decomposition() {
  std::printf("\nlatency decomposition, 4 scatter tasks (mean us per packet)\n");
  Table table({"fabric", "host", "queueing", "serialization", "switching", "propagation",
               "sum", "measured mean"});
  const std::vector<TaskExperimentResult> results =
      sweep_runner().run(kGlobalFabrics, [](Fabric fabric) {
        TaskExperimentParams params;
        params.pattern = Pattern::kScatter;
        params.tasks = 4;
        params.duration = milliseconds(10);
        params.telemetry.trace = true;
        return run_task_experiment(fabric, {}, params);
      });
  for (std::size_t i = 0; i < kGlobalFabrics.size(); ++i) {
    const Fabric fabric = kGlobalFabrics[i];
    const TaskExperimentResult& r = results[i];
    const auto& d = r.decomposition;
    table.add_row({fabric_name(fabric), cell("%.3f", d.host_us), cell("%.3f", d.queueing_us),
                   cell("%.3f", d.serialization_us), cell("%.3f", d.switching_us),
                   cell("%.3f", d.propagation_us), cell("%.3f", d.component_sum_us()),
                   cell("%.3f", r.mean_latency_us)});

    bench::Report::instance().add_decomposition("latency_decomposition", fabric_name(fabric), d);
    for (const auto& [task, per_task] : r.task_decompositions) {
      bench::Report::instance().add_decomposition(
          "latency_decomposition_per_task",
          fabric_name(fabric) + " task " + std::to_string(task), per_task);
    }
    QUARTZ_CHECK(std::abs(d.component_sum_us() - r.mean_latency_us) <= 0.01 * r.mean_latency_us,
                 fabric_name(fabric) + " decomposition sums to the measured mean within 1%");
  }
  bench::Report::instance().add_table("latency_decomposition_table", table);
}

void fig17() {
  const std::vector<std::vector<std::vector<double>>> sweeps = {
      latency_sweep(kGlobalFabrics, Pattern::kScatter, 8, false, "scatter_mean_latency_us"),
      latency_sweep(kGlobalFabrics, Pattern::kGather, 8, false, "gather_mean_latency_us"),
      latency_sweep(kGlobalFabrics, Pattern::kScatterGather, 4, false,
                    "scatter_gather_mean_latency_us")};
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

  for (const auto& sweep : sweeps) {
    for (const std::vector<double>& row : sweep) {
      for (std::size_t f = 1; f < row.size(); ++f) {
        QUARTZ_CHECK(row[0] > row[f], "the three-tier tree is highest");
      }
    }
    const std::vector<double>& four_tasks = sweep[3];
    QUARTZ_CHECK(four_tasks[4] < 0.6 * four_tasks[0],
                 "quartz in edge and core well under the tree at 4 tasks");
  }
}

// Figure 18(a-c): average latency of one *localized* task (confined to
// nearby racks) while additional global tasks generate cross-traffic.
const std::vector<Fabric> kLocalFabrics = {Fabric::kThreeTierTree, Fabric::kJellyfish,
                                           Fabric::kQuartzInJellyfish,
                                           Fabric::kQuartzInEdgeAndCore};

// Telemetry sinks are passive observers: attaching a full tracer plus a
// time-series sampler must leave the simulated results untouched.  Run
// one configuration both ways, report the deltas and check they stay
// under 2% (determinism makes them exactly zero).
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
  QUARTZ_CHECK(std::abs(rel(traced.mean_latency_us, plain.mean_latency_us)) < 0.02,
               "telemetry moves the mean by < 2%");
  QUARTZ_CHECK(std::abs(rel(traced.p99_latency_us, plain.p99_latency_us)) < 0.02,
               "telemetry moves the p99 by < 2%");
}

void fig18() {
  const std::vector<std::vector<std::vector<double>>> sweeps = {
      latency_sweep(kLocalFabrics, Pattern::kScatter, 6, true, "scatter_local_mean_latency_us"),
      latency_sweep(kLocalFabrics, Pattern::kGather, 6, true, "gather_local_mean_latency_us"),
      latency_sweep(kLocalFabrics, Pattern::kScatterGather, 5, true,
                    "scatter_gather_local_mean_latency_us")};
  run_passivity_check();
  bench::print_note(
      "paper: jellyfish is highest (it cannot exploit locality); the tree "
      "improves (local traffic skips the core) but still rises with "
      "cross-traffic; quartz in edge+core and quartz-in-jellyfish keep "
      "the local task inside one ring and stay flat");

  for (const auto& sweep : sweeps) {
    for (const std::vector<double>& row : sweep) {
      QUARTZ_CHECK(row[1] > row[0] && row[0] > row[2] && row[2] > row[3],
                   "jellyfish > tree > quartz in jellyfish > quartz in edge and core");
    }
  }
}

// Figure 20: the pathological switch-to-switch hotspot — multiple flows
// from hosts on S1 to hosts on S2, sweeping aggregate offered load.
void fig20() {
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
    table.add_row({std::to_string(static_cast<int>(gbps)), cell("%.2f", nb.mean_latency_us),
                   cell(ecmp.saturated ? "%.0f (unbounded)" : "%.2f", ecmp.mean_latency_us),
                   cell("%.2f", vlb.mean_latency_us), cell("%.2f", adaptive.mean_latency_us),
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

  double vlb_min = results[2].mean_latency_us;
  double vlb_max = vlb_min;
  for (std::size_t i = 0; i < loads.size(); ++i) {
    const double nb = results[4 * i].mean_latency_us;
    const double ecmp = results[4 * i + 1].mean_latency_us;
    if (loads[i] < 40.0) QUARTZ_CHECK(ecmp < nb, "ECMP below the core below 40 Gb/s");
    if (loads[i] > 40.0) QUARTZ_CHECK(ecmp > nb, "ECMP above the core past 40 Gb/s");
    vlb_min = std::min(vlb_min, results[4 * i + 2].mean_latency_us);
    vlb_max = std::max(vlb_max, results[4 * i + 2].mean_latency_us);
  }
  QUARTZ_CHECK(vlb_max < 1.1 * vlb_min, "VLB flat (< 10%) from 10 to 50 Gb/s");
}

// Tables 2 and 16, plus the §3.3 insertion-loss worked example: the
// latency and optical component inventory the design space rests on.
void table02_16() {
  bench::print_banner("Table 2", "Network latencies of different components");
  Table t2({"component", "standard", "state of the art"});
  for (const auto& c : sim::table2_components()) {
    const std::string standard =
        c.standard_low == c.standard_high
            ? format_time(c.standard_low)
            : format_time(c.standard_low) + " - " + format_time(c.standard_high);
    const std::string sota =
        c.state_of_art_low == c.state_of_art_high
            ? format_time(c.state_of_art_low)
            : format_time(c.state_of_art_low) + " - " + format_time(c.state_of_art_high);
    t2.add_row({c.component, standard, sota});
  }
  bench::Report::instance().add_table("table2_component_latencies", t2);

  bench::print_banner("Table 16", "Switches used in the simulations");
  Table t16({"switch", "latency", "forwarding", "ports"});
  for (const auto& model : {topo::SwitchModel::ccs(), topo::SwitchModel::ull()}) {
    t16.add_row({model.name, format_time(model.latency),
                 model.cut_through ? "cut-through" : "store-and-forward",
                 std::to_string(model.port_count)});
  }
  bench::Report::instance().add_table("table16_switches", t16);

  bench::print_banner("Section 3.3", "Insertion loss and amplifier placement (24-node ring)");
  const auto transceiver = optical::TransceiverSpec::dwdm_10g();
  const auto mux = optical::MuxDemuxSpec::dwdm_80ch();
  std::printf("power budget      : %.0f dB  (launch %.0f dBm, sensitivity %.0f dBm)\n",
              transceiver.power_budget().value, transceiver.max_output.value,
              transceiver.sensitivity.value);
  std::printf("muxes per budget  : %.2f  (paper: 3.17)\n",
              optical::max_muxes_without_amplification(transceiver, mux));

  optical::RingBudgetParams ring;
  ring.ring_size = 24;
  const auto plan = optical::plan_ring_amplifiers(ring);
  std::printf("exact greedy plan : %zu amplifiers, %zu attenuated drops, feasible=%s\n",
              plan.amplifier_count(), plan.attenuator_nodes.size(),
              plan.feasible ? "yes" : "no");
  std::printf("paper rule of thumb: %zu amplifiers (one per two switches)\n",
              optical::paper_rule_amplifier_count(24));
  std::printf("amplifier cost     : $%.0f (exact plan)\n", plan.amplifier_cost_usd);
  bench::Report::instance().add_row(
      "insertion_loss",
      {{"power_budget_db", transceiver.power_budget().value},
       {"muxes_per_budget", optical::max_muxes_without_amplification(transceiver, mux)},
       {"exact_amplifiers", static_cast<std::uint64_t>(plan.amplifier_count())},
       {"rule_of_thumb_amplifiers",
        static_cast<std::uint64_t>(optical::paper_rule_amplifier_count(24))},
       {"amplifier_cost_usd", plan.amplifier_cost_usd},
       {"feasible", plan.feasible}});
  bench::print_note(
      "the exact power walk places amplifiers more densely than the "
      "paper's rule of thumb because an express channel crosses two AWGs "
      "per hop; both plans are reported and the cost model uses the "
      "paper's rule for Table 8 fidelity");

  // Sweep the amplifier plan across every buildable ring size (sharded
  // by --jobs; one point per size, byte-identical for any jobs value).
  std::vector<std::size_t> sizes;
  for (std::size_t m = 4; m <= 35; ++m) sizes.push_back(m);
  sim::SweepRunner runner({bench::Report::instance().jobs(), 24});
  const auto plans = runner.run(sizes, [](std::size_t m) {
    optical::RingBudgetParams params;
    params.ring_size = m;
    return optical::plan_ring_amplifiers(params);
  });
  bench::print_banner("Section 3.3 sweep", "Amplifier plan vs ring size (4-35 switches)");
  Table sweep({"ring size", "amplifiers (exact)", "amplifiers (rule)", "attenuated drops",
               "feasible", "cost ($)"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto& p = plans[i];
    sweep.add_row({std::to_string(sizes[i]), std::to_string(p.amplifier_count()),
                   std::to_string(optical::paper_rule_amplifier_count(sizes[i])),
                   std::to_string(p.attenuator_nodes.size()), p.feasible ? "yes" : "no",
                   cell("%.0f", p.amplifier_cost_usd)});
  }
  bench::Report::instance().add_table("amplifier_plan_sweep", sweep);

  const std::vector<std::vector<std::string>> paper_table2 = {
      {"OS network stack", "15 us", "1 us - 4 us"}, {"NIC", "2.5 us - 32 us", "500 ns"},
      {"Switch", "6 us", "500 ns"}, {"Congestion", "50 us", "50 us"}};
  QUARTZ_CHECK(t2.data() == paper_table2, "Table 2's latencies are the paper's");
  QUARTZ_CHECK(std::abs(optical::max_muxes_without_amplification(transceiver, mux) - 3.17) < 0.005,
               "§3.3's 3.17 mux traversals per power budget");
}

// Table 8: approximate cost and latency comparison across datacenter
// sizes and utilization levels — the §4.4 configurator.
void table08() {
  Table table({"datacenter", "utilization", "topology", "latency (us)", "cost/server",
               "latency reduction", "cost premium"});
  const std::vector<ConfiguratorRow> scenarios = run_configurator();
  for (const auto& row : scenarios) {
    table.add_row({dc_size_name(row.size), utilization_name(row.utilization),
                   design_choice_name(row.baseline), cell("%.2f", row.baseline_latency_us),
                   cell("$%.0f", row.baseline_cost_per_server), "-", "-"});
    table.add_row({"", "", design_choice_name(row.quartz), cell("%.2f", row.quartz_latency_us),
                   cell("$%.0f", row.quartz_cost_per_server),
                   cell("%.0f%%", row.latency_reduction_percent),
                   cell("%+.0f%%", row.cost_increase_percent)});
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
    grid.add_row({design_choice_name(choices[i]), cell("%.2f", latencies[2 * i]),
                  cell("%.2f", latencies[2 * i + 1])});
  }
  bench::Report::instance().add_table("latency_estimate_grid", grid);
  bench::print_note(
      "paper reductions: small 33%/50%, medium 20%/40%, large 70%/74%; "
      "paper premiums: +7%, +13%, 0%/+17%.  Costs here are priced against "
      "this repo's catalog (the paper's quote links are dead); ratios and "
      "conclusions are the reproduction target");

  for (const auto& row : scenarios) {
    QUARTZ_CHECK(row.latency_reduction_percent > 0, "quartz lowers latency in every scenario");
    if (row.size == DcSize::kSmall) {
      const long paper = row.utilization == Utilization::kLow ? 33 : 50;
      QUARTZ_CHECK(std::lround(row.latency_reduction_percent) == paper,
                   "small-DC latency reduction is the paper's 33%/50%");
    }
  }
}

// Table 9: analytic comparison of five ~1k-port candidate design
// elements — zero-load latency, switch count, wiring complexity and
// path diversity.
void table09() {
  struct Row {
    std::string name;
    BuiltTopology topo;
  };
  std::vector<Row> rows;

  {
    TwoTierParams p;  // 16 ToRs x 48 hosts + 1 agg (switches at 64 ports)
    p.tors = 16;
    p.hosts_per_tor = 48;
    p.agg_model.port_count = 64;
    rows.push_back({"2-tier tree", two_tier_tree(p)});
  }
  {
    FatTreeParams p;  // 32 leaves x 16 spines x 2 links: 1024 hosts
    rows.push_back({"fat-tree (folded clos)", fat_tree_clos(p)});
  }
  {
    BCubeParams p;
    p.n = 32;  // 1024 dual-homed hosts, 64 switches
    rows.push_back({"bcube(1)", bcube1(p)});
  }
  {
    DCellParams p;
    p.n = 32;  // 1056 dual-homed hosts, 33 mini-switches
    rows.push_back({"dcell(1)", dcell1(p)});
  }
  {
    JellyfishParams p;
    p.switches = 24;
    p.hosts_per_switch = 44;
    p.inter_switch_ports = 20;  // 24 x 44 = 1056 hosts, degree 20
    rows.push_back({"jellyfish", jellyfish(p)});
  }
  {
    QuartzRingParams p;
    p.switches = 33;
    p.hosts_per_switch = 32;  // 1056 hosts, the paper's flagship mesh
    rows.push_back({"mesh (quartz)", quartz_ring(p)});
  }

  // analyze() runs an exact max-flow per topology — the expensive part —
  // so each structure is one sweep point.
  sim::SweepRunner runner({bench::Report::instance().jobs(), 9});
  const std::vector<TopologyProperties> props_by_row =
      runner.run(rows, [](const Row& row) { return analyze(row.topo); });

  Table table({"structure", "zero-load latency", "switch hops", "server hops", "switches",
               "hosts", "wiring complexity", "path diversity"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TopologyProperties& props = props_by_row[i];
    table.add_row({rows[i].name, format_time(props.zero_load_latency),
                   std::to_string(props.switch_hops), std::to_string(props.server_hops),
                   std::to_string(props.switch_count), std::to_string(props.host_count),
                   std::to_string(props.wiring_complexity),
                   std::to_string(props.path_diversity)});
  }
  bench::Report::instance().add_table("structures", table);
  bench::print_note(
      "paper (with 0.5us switches): 2-tier 1.5us/17 sw/16 links/div 1; "
      "fat-tree 1.5us/48/1024/32; bcube 16us/2 hops + server hop/div 2; "
      "jellyfish 1.5us/24/240/<=32; mesh 1.0us/33/528/32.  We use the "
      "ULL's 380ns and measure diversity by exact max-flow");

  // {switches, wiring complexity, path diversity} per row, as measured
  // (EXPERIMENTS.md lists the paper's beside them).
  const int expected[6][3] = {{17, 16, 1},   {48, 1024, 32}, {64, 1024, 2},
                              {33, 528, 2},  {24, 240, 20},  {33, 528, 32}};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TopologyProperties& props = props_by_row[i];
    QUARTZ_CHECK(props.switch_count == expected[i][0] &&
                     props.wiring_complexity == expected[i][1] &&
                     props.path_diversity == expected[i][2],
                 rows[i].name + " switch, link and diversity counts");
  }
  QUARTZ_CHECK(props_by_row[2].server_hops == 1, "bcube relays through one server");
}

struct Figure {
  const char* id;
  const char* title;
  void (*run)();
};

const Figure kFigures[] = {
    {"table02_16", "Component latencies and simulated switches", table02_16},
    {"fig05", "Optimal wavelength assignment", fig05},
    {"fig06", "Fault tolerance of multi-ring Quartz (33 switches)", fig06},
    {"fig10", "Normalized throughput for three traffic patterns", fig10},
    {"fig14", "Impact of cross-traffic on different topologies", fig14},
    {"fig17", "Average latency, global traffic patterns", fig17},
    {"fig18", "Average latency, localized traffic patterns", fig18},
    {"fig20", "Average latency, pathological traffic pattern", fig20},
    {"table08", "Approximate cost and latency comparison", table08},
    {"table09", "Network structures with ~1k servers", table09},
};

}  // namespace

int main(int argc, char** argv) {
  quartz::bench::Report& report = quartz::bench::Report::instance();
  if (!report.parse_args(argc, argv, {"figure"})) return 1;
  const std::string id = quartz::Flags::parse(argc, argv).get("figure");
  for (const Figure& figure : kFigures) {
    if (id != figure.id) continue;
    report.open(figure.id, figure.title);
    figure.run();
    return report.write() ? 0 : 1;
  }
  std::fprintf(stderr, "quartz_paper: %s; valid ids:",
               id.empty() ? "--figure=<id> is required" : ("unknown figure " + id).c_str());
  for (const Figure& figure : kFigures) std::fprintf(stderr, " %s", figure.id);
  std::fprintf(stderr, "\n");
  return 1;
}
