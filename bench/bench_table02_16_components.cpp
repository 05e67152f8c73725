// Tables 2 and 16, plus the §3.3 insertion-loss worked example: the
// latency and optical component inventory the design space rests on.
#include "report.hpp"

#include "common/table.hpp"
#include "optical/budget.hpp"
#include "sim/latency_model.hpp"
#include "sim/sweep.hpp"
#include "topo/switch_models.hpp"

namespace {

using namespace quartz;

void report() {
  bench::Report::instance().open("table02_16", "Component latencies and simulated switches");
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
    char cost[16];
    std::snprintf(cost, sizeof(cost), "%.0f", p.amplifier_cost_usd);
    sweep.add_row({std::to_string(sizes[i]), std::to_string(p.amplifier_count()),
                   std::to_string(optical::paper_rule_amplifier_count(sizes[i])),
                   std::to_string(p.attenuator_nodes.size()), p.feasible ? "yes" : "no", cost});
  }
  bench::Report::instance().add_table("amplifier_plan_sweep", sweep);
}

}  // namespace

QUARTZ_BENCH_MAIN(report)
