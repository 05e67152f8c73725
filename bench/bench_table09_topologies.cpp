// Table 9: analytic comparison of five ~1k-port candidate design
// elements — zero-load latency, switch count, wiring complexity and
// path diversity.
#include "report.hpp"

#include "common/table.hpp"
#include "sim/sweep.hpp"
#include "topo/properties.hpp"

namespace {

using namespace quartz;
using namespace quartz::topo;

void report() {
  bench::Report::instance().open("table09", "Network structures with ~1k servers");

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
}

}  // namespace

QUARTZ_BENCH_MAIN(report)
