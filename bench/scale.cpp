// quartz_paper --figure=scale: warehouse-scale composed fabrics under
// the hybrid flow/packet evaluation mode.
//
// Two claims are measured and gated:
//  1. Scale: a rings-of-rings fabric grows to >= 100k switches and
//     >= 1M modeled hosts on one box, with HierOracle's (node,
//     level-group) FIB keeping routing state sublinear in hosts and
//     the event rate above a floor (QUARTZ_CHECKed, with an RSS
//     ceiling at the 100k-switch point).
//  2. Fidelity: on a small fabric where the full packet-level
//     simulation is affordable, foreground latency percentiles under
//     the hybrid mode (background as fluid demands + queue bias) match
//     the full-packet reference within 10%, on fewer DES events
//     (QUARTZ_CHECKed).
#include "report.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "routing/hierarchical.hpp"
#include "sim/fluid.hpp"
#include "sim/network.hpp"
#include "topo/composite.hpp"

namespace {

using namespace quartz;

/// Resident set size in MiB (VmRSS from /proc/self/status; 0 when the
/// file is unavailable, e.g. non-Linux).
double rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string word;
  while (status >> word) {
    if (word == "VmRSS:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

struct ScalePoint {
  std::string spec;
  std::int64_t switches = 0;
  std::int64_t links = 0;
  std::int64_t modeled_hosts = 0;
  double build_ms = 0.0;
  std::uint64_t events = 0;
  double run_ms = 0.0;
  double events_per_sec = 0.0;
  double fib_kib = 0.0;
  double rss = 0.0;
};

/// Build the spec, attach foreground CBR islands plus a fluid
/// background, simulate `duration`, and report throughput/footprint.
ScalePoint run_scale_point(const std::string& spec_text, TimePs duration) {
  ScalePoint point;
  point.spec = spec_text;

  std::string error;
  const auto spec = topo::CompositeSpec::parse(spec_text, &error);
  QUARTZ_CHECK(spec.has_value(), "bad spec: " + error);

  topo::CompositeParams params;
  params.spec = *spec;
  // Foreground islands: one materialized host on the first leaf ring
  // plus a couple of switches of the second, so foreground flows cross
  // both the leaf mesh and a trunk.
  params.foreground_leaf_switches = spec->dims.back() + 2;
  params.foreground_hosts_per_switch = 1;

  const auto build_start = std::chrono::steady_clock::now();
  const topo::BuiltTopology topo = topo::build_composite(params);
  point.build_ms = bench::seconds_since(build_start) * 1e3;
  point.switches = static_cast<std::int64_t>(topo.graph.switches().size());
  point.links = static_cast<std::int64_t>(topo.graph.link_count());
  point.modeled_hosts = topo.composite->modeled_hosts;

  const routing::HierOracle oracle(topo);
  sim::Network net(topo, oracle);

  const std::vector<topo::NodeId>& hosts = topo.hosts;
  const std::size_t n = hosts.size();
  QUARTZ_CHECK(n >= 8, "foreground island too small");
  const int task = net.new_task({});

  // Foreground pairs span the island end to end (leaf 0 <-> leaf 1).
  std::vector<sim::CbrFlow> foreground;
  for (std::size_t k = 0; k < 4; ++k) {
    sim::CbrFlow f;
    f.src = hosts[k];
    f.dst = hosts[n - 1 - k];
    f.rate_bps = 2e9;
    foreground.push_back(f);
  }
  sim::CbrSource source(net, std::move(foreground), task, 0, duration);
  source.arm();

  // Background: fluid demands over the same island (adjacent pairs),
  // re-solved every 200 us.
  std::vector<sim::FluidDemand> demands;
  for (std::size_t k = 0; k + 5 < n; k += 2) {
    demands.push_back({hosts[k], hosts[k + 5], 1e9});
  }
  sim::FluidBackground fluid(net, oracle, std::move(demands));
  fluid.arm();

  const auto run_start = std::chrono::steady_clock::now();
  net.run_until(duration);
  point.run_ms = bench::seconds_since(run_start) * 1e3;
  point.events = net.events_processed();
  point.events_per_sec = point.run_ms > 0.0 ? point.events / (point.run_ms / 1e3) : 0.0;
  point.fib_kib = static_cast<double>(oracle.stats().entry_bytes) / 1024.0;
  point.rss = rss_mib();

  QUARTZ_CHECK(net.packets_delivered() > 0, "foreground delivered nothing");
  QUARTZ_CHECK(fluid.epochs() > 0, "fluid background never solved");
  return point;
}

struct FidelityArm {
  std::uint64_t packets = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t events = 0;
};

/// The shared fidelity workload on ring-of-rings:4x4@2: host h of
/// switch `slot` in leaf `leaf` (hosts are materialized in build
/// order, two per switch).
topo::NodeId fid_host(const topo::BuiltTopology& topo, int leaf, int slot, int h) {
  return topo.hosts[static_cast<std::size_t>(leaf * 8 + slot * 2 + h)];
}

std::vector<sim::CbrFlow> fidelity_foreground(const topo::BuiltTopology& topo) {
  std::vector<sim::CbrFlow> flows;
  const auto add = [&](int l0, int s0, int l1, int s1) {
    sim::CbrFlow f;
    f.src = fid_host(topo, l0, s0, 0);
    f.dst = fid_host(topo, l1, s1, 0);
    f.rate_bps = 1e9;
    flows.push_back(f);
  };
  add(0, 0, 0, 1);  // intra-ring, leaf 0
  add(0, 2, 1, 2);  // cross-ring over trunk(0,1)
  add(1, 0, 1, 3);  // intra-ring, leaf 1
  add(2, 0, 0, 3);  // cross-ring over trunk(2,0)
  return flows;
}

/// Background endpoints: host 1 on the same switches, so background
/// shares every foreground link except the foreground hosts' uplinks.
std::vector<sim::CbrFlow> fidelity_background_flows(const topo::BuiltTopology& topo) {
  std::vector<sim::CbrFlow> flows;
  const auto add = [&](int l0, int s0, int l1, int s1) {
    sim::CbrFlow f;
    f.src = fid_host(topo, l0, s0, 1);
    f.dst = fid_host(topo, l1, s1, 1);
    f.rate_bps = 2.5e9;   // rho = 0.25 on the shared 10G mesh lines
    f.packet = 64 * 8;    // small frames: residual waits stay small
    flows.push_back(f);
  };
  add(0, 0, 0, 1);
  add(0, 2, 1, 2);
  add(1, 0, 1, 3);
  add(2, 0, 0, 3);
  return flows;
}

/// Run one fidelity arm; `hybrid` selects fluid background + bias over
/// packet-level background.
FidelityArm run_fidelity_arm(bool hybrid, TimePs duration) {
  const auto spec = topo::CompositeSpec::parse("ring-of-rings:4x4@2");
  const topo::BuiltTopology topo = topo::build_composite(*spec);
  const routing::HierOracle oracle(topo);
  sim::Network net(topo, oracle);

  SampleSet latencies;
  const int fg_task = net.new_task(
      [&](const sim::Packet&, TimePs latency) { latencies.add(to_microseconds(latency)); });

  sim::CbrSource foreground(net, fidelity_foreground(topo), fg_task, 0, duration);
  foreground.arm();

  std::unique_ptr<sim::CbrSource> packet_background;
  std::unique_ptr<sim::FluidBackground> fluid;
  if (hybrid) {
    std::vector<sim::FluidDemand> demands;
    for (const sim::CbrFlow& f : fidelity_background_flows(topo)) {
      demands.push_back({f.src, f.dst, f.rate_bps});
    }
    sim::FluidParams params;
    params.mean_packet = 64 * 8;  // match the reference background frames
    fluid = std::make_unique<sim::FluidBackground>(net, oracle, std::move(demands), params);
    fluid->arm();
  } else {
    const int bg_task = net.new_task({});
    packet_background = std::make_unique<sim::CbrSource>(
        net, fidelity_background_flows(topo), bg_task, 0, duration, /*flow_id_base=*/1000);
    packet_background->arm();
  }

  net.run_until(duration + milliseconds(1));  // drain in-flight foreground

  FidelityArm arm;
  arm.packets = static_cast<std::uint64_t>(latencies.count());
  arm.p50_us = latencies.percentile(50.0);
  arm.p99_us = latencies.percentile(99.0);
  arm.events = net.events_processed();
  QUARTZ_CHECK(net.packets_dropped() == 0, "fidelity workload must not drop");
  return arm;
}

}  // namespace

void quartz::bench::run_scale() {
  Report& report = Report::instance();

  // ---- scale curve ------------------------------------------------------
  const std::vector<std::string> specs = {
      "ring-of-rings:8x8+10",       "ring-of-rings:16x16+10",
      "ring-of-rings:32x32+10",     "ring-of-rings:16x16x16+10",
      "ring-of-rings:32x32x32+10",  "ring-of-rings:48x48x48+10",
  };
  Table curve({"spec", "switches", "links", "modeled hosts", "build (ms)", "events",
               "run (ms)", "events/s", "FIB (KiB)", "RSS (MiB)"});
  ScalePoint largest;
  for (const std::string& spec : specs) {
    const ScalePoint point = run_scale_point(spec, milliseconds(2));
    char events_per_sec[32], fib[32], rss[32], build[32], run[32];
    std::snprintf(events_per_sec, sizeof(events_per_sec), "%.0f", point.events_per_sec);
    std::snprintf(fib, sizeof(fib), "%.1f", point.fib_kib);
    std::snprintf(rss, sizeof(rss), "%.0f", point.rss);
    std::snprintf(build, sizeof(build), "%.1f", point.build_ms);
    std::snprintf(run, sizeof(run), "%.1f", point.run_ms);
    curve.add_row({point.spec, std::to_string(point.switches), std::to_string(point.links),
                   std::to_string(point.modeled_hosts), build,
                   std::to_string(point.events), run, events_per_sec, fib, rss});
    largest = point;
  }
  report.add_table("scale_curve", curve);
  report.note("foreground: 4 CBR flows on a two-leaf island; background: fluid demands "
              "re-solved every 200 us; packet DES events are foreground-only");

  QUARTZ_CHECK(largest.switches >= 100000, "largest fabric below 100k switches");
  QUARTZ_CHECK(largest.modeled_hosts >= 1000000, "largest fabric below 1M modeled hosts");
  QUARTZ_CHECK(largest.events_per_sec >= 1e5,
               "hybrid event rate below the 100k events/s floor at the 100k-switch point");
  QUARTZ_CHECK(largest.rss <= 4096.0, "RSS above the 4 GiB ceiling at the 100k-switch point");

  // ---- hybrid vs full-packet fidelity -----------------------------------
  const TimePs fidelity_duration = milliseconds(5);
  const FidelityArm full = run_fidelity_arm(/*hybrid=*/false, fidelity_duration);
  const FidelityArm hybrid = run_fidelity_arm(/*hybrid=*/true, fidelity_duration);
  const double p50_delta = std::abs(hybrid.p50_us - full.p50_us) / full.p50_us;
  const double p99_delta = std::abs(hybrid.p99_us - full.p99_us) / full.p99_us;

  Table fidelity({"arm", "fg packets", "p50 (us)", "p99 (us)", "DES events"});
  const auto arm_row = [&](const char* name, const FidelityArm& arm) {
    char p50[32], p99[32];
    std::snprintf(p50, sizeof(p50), "%.3f", arm.p50_us);
    std::snprintf(p99, sizeof(p99), "%.3f", arm.p99_us);
    fidelity.add_row({name, std::to_string(arm.packets), p50, p99,
                      std::to_string(arm.events)});
  };
  arm_row("full packet", full);
  arm_row("hybrid", hybrid);
  report.add_table("fidelity", fidelity);
  {
    char note[160];
    std::snprintf(note, sizeof(note),
                  "fidelity deltas: p50 %.1f%%, p99 %.1f%% (gate < 10%%); hybrid ran %.1fx "
                  "fewer DES events",
                  100.0 * p50_delta, 100.0 * p99_delta,
                  static_cast<double>(full.events) / static_cast<double>(hybrid.events));
    report.note(note);
    report.add_row("fidelity_summary",
                   {{"p50_delta", telemetry::JsonValue(p50_delta)},
                    {"p99_delta", telemetry::JsonValue(p99_delta)},
                    {"full_events", telemetry::JsonValue(static_cast<std::int64_t>(full.events))},
                    {"hybrid_events",
                     telemetry::JsonValue(static_cast<std::int64_t>(hybrid.events))}});
  }
  QUARTZ_CHECK(full.packets == hybrid.packets, "arms must send identical foreground streams");
  QUARTZ_CHECK(hybrid.events < full.events, "the hybrid arm must run fewer DES events");
  QUARTZ_CHECK(p50_delta < 0.10, "hybrid p50 diverges from full packet by >= 10%");
  QUARTZ_CHECK(p99_delta < 0.10, "hybrid p99 diverges from full packet by >= 10%");
}
