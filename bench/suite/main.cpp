// quartz_bench — host-time benchmark of the simulator on its canonical
// workloads.  One process runs one workload:
//
//   quartz_bench --workload=NAME --seed=N [--seconds=S] [--smoke]
//                [--trace [--trace-out=trace.json]]
//
// Untraced (default): a warm-up/reference pass, then measured reps
// while they fit in --seconds (never fewer than three), then extra
// set-up-only samples.  wall_s, cpu_s and packets_per_s are the best
// rep's; setup_s and allocs_per_packet are medians over their samples.
// Each rep runs pinned to the next CPU in turn (CpuRotation).
// --trace: three untraced reps, one traced rep (spans + counters,
// 1 ms simulated slices), the workload's traced extras; prints every
// per-layer metric.  Either way the last stdout line is one JSON object
// with the metrics, their units and sample counts, the rep digest and
// the output checks.  run.py drives this binary; see README.md.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "probe.hpp"
#include "workloads.hpp"

namespace {

using namespace quartz::bench_suite;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},           {"setup_s", "s"},           {"cpu_s", "s"},
    {"packets_per_s", "1/s"},  {"peak_rss_mib", "MiB"},    {"allocs_per_packet", "count"},
};

constexpr MetricSpec kPerLayer[] = {
    {"topo.build_s", "s"},
    {"topo.switches", "count"},
    {"topo.links", "count"},
    {"routing.build_s", "s"},
    {"routing.hier_hits", "count"},
    {"routing.hier_misses", "count"},
    {"routing.hier_entry_kib", "KiB"},
    {"routing.fib_hits", "count"},
    {"routing.fib_misses", "count"},
    {"routing.fib_slow_path", "count"},
    {"routing.fib_invalidations", "count"},
    {"routing.fib_hit_ratio", "ratio"},
    {"routing.slow_path_s", "s"},
    {"network.build_s", "s"},
    {"workload.arm_s", "s"},
    {"harvest_s", "s"},
    {"engine.events", "count"},
    {"engine.ns_per_event", "ns"},
    {"engine.packet_pool_slots", "count"},
    {"engine.run_allocs", "count"},
    {"network.hops", "count"},
    {"network.ns_per_hop", "ns"},
    {"network.drops.queue_overflow", "count"},
    {"network.drops.link_down", "count"},
    {"network.drops.corrupted", "count"},
    {"sim.slices", "count"},
    {"sim.slice_ms_p50", "ms"},
    {"sim.slice_ms_p99", "ms"},
    {"telemetry.records", "count"},
    {"telemetry.bytes_per_record", "B"},
    {"telemetry.emergency_pages", "count"},
    {"telemetry.capture_s", "s"},
    {"telemetry.capture_ns_per_record", "ns"},
    {"shard.mail_posted", "count"},
    {"shard.windows", "count"},
    {"shard.event_inflation", "ratio"},
    {"shard.speedup", "ratio"},
    {"shard.cpu_per_wall", "ratio"},
    {"fluid.epochs", "count"},
    {"fluid.solve_ms", "ms"},
    {"fluid.share", "ratio"},
    {"serve.arrivals", "count"},
    {"serve.admitted", "count"},
    {"serve.shed", "count"},
    {"serve.retries", "count"},
    {"serve.ns_per_arrival", "ns"},
    {"trace.overhead", "ratio"},
};

constexpr int kMinReps = 3;
constexpr int kMaxReps = 200;
constexpr int kTracePassUntracedReps = 3;
/// Set-up samples wanted for the setup_s median, and the share of the
/// run's seconds that extra set-up-only samples may spend.
constexpr std::size_t kSetupSamples = 101;
constexpr double kSetupBudgetShare = 0.1;

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

struct Metric {
  double value = 0;
  std::vector<double> samples;  ///< empty for single-valued metrics
};

void print_result(const std::string& workload, std::uint64_t seed, bool smoke, bool traced,
                  int reps, std::uint64_t digest, const Checks& checks,
                  const std::vector<std::pair<MetricSpec, Metric>>& metrics) {
  std::string out = "{\"workload\": " + json_string(workload) +
                    ", \"seed\": " + std::to_string(seed) +
                    ", \"smoke\": " + (smoke ? "true" : "false") +
                    ", \"traced\": " + (traced ? "true" : "false") +
                    ", \"reps\": " + std::to_string(reps);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(digest));
  out += ", \"digest\": \"" + std::string(hex) + "\"";
  out += ", \"checks\": {\"attempted\": " + std::to_string(checks.attempted()) +
         ", \"failed\": " + std::to_string(checks.failed()) + ", \"failures\": [";
  for (std::size_t i = 0; i < checks.failures().size(); ++i) {
    out += (i ? ", " : "") + json_string(checks.failures()[i]);
  }
  out += "]}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [spec, m] = metrics[i];
    out += (i ? ", " : "") + json_string(spec.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(spec.unit);
    if (!m.samples.empty()) {
      out += ", \"n\": " + std::to_string(m.samples.size()) + ", \"samples\": [";
      for (std::size_t k = 0; k < m.samples.size(); ++k) {
        out += (k ? ", " : "") + json_number(m.samples[k]);
      }
      out += "]";
    }
    out += "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

Metric median_of(std::vector<double> samples) {
  Metric m;
  m.value = median(samples);
  m.samples = std::move(samples);
  return m;
}

/// The best rep: the lowest time, or the highest rate when `highest`.
/// Host noise on a shared machine (a busy neighbour on the same core or
/// memory bus) only ever slows a rep down, so the best rep tracks the
/// code's own cost: over ten runs its quartile spread was a third of
/// the median rep's.
Metric best_of(std::vector<double> samples, bool highest = false) {
  Metric m;
  m.value = highest ? *std::max_element(samples.begin(), samples.end())
                    : *std::min_element(samples.begin(), samples.end());
  m.samples = std::move(samples);
  return m;
}

void log_rep(const std::string& workload, const char* kind, int rep, double wall) {
  std::fprintf(stderr, "%s %s rep %d: %.3f s\n", workload.c_str(), kind, rep, wall);
}

void run_untraced(const std::string& name, Workload& workload, std::uint64_t seed, bool smoke,
                  double seconds) {
  Checks checks;
  CpuRotation cpus;
  cpus.next(workload.threads());
  const std::uint64_t expected = workload.reference(checks);

  std::vector<double> wall, cpu, setup, packets_per_s, allocs_per_packet;
  const double start = wall_seconds();
  int reps = 0;
  while (reps < kMinReps || (wall_seconds() - start + wall.back() <= seconds && reps < kMaxReps)) {
    cpus.next(workload.threads());
    const RepResult r = workload.rep(nullptr, checks);
    checks.expect(r.digest == expected, name + ": rep " + std::to_string(reps) +
                                            " digest differs from the reference");
    ++reps;
    wall.push_back(r.meter.wall_s);
    cpu.push_back(r.meter.cpu_s);
    setup.push_back(r.meter.setup_s);
    const double packets = static_cast<double>(r.packets);
    packets_per_s.push_back(r.meter.run_s > 0 ? packets / r.meter.run_s : 0.0);
    allocs_per_packet.push_back(packets > 0 ? static_cast<double>(r.meter.run_allocs) / packets
                                            : 0.0);
    log_rep(name, "measured", reps, r.meter.wall_s);
  }
  // setup_s needs more samples than the reps give when set-up is
  // cheap; set up again (no run) within a share of the time budget.
  const double setup_start = wall_seconds();
  while (setup.size() < kSetupSamples &&
         wall_seconds() - setup_start + setup.back() <= kSetupBudgetShare * seconds) {
    cpus.next(workload.threads());
    setup.push_back(workload.setup_only());
  }

  std::map<std::string, Metric> values;
  values["wall_s"] = best_of(wall);
  values["setup_s"] = median_of(setup);
  values["cpu_s"] = best_of(cpu);
  values["packets_per_s"] = best_of(packets_per_s, /*highest=*/true);
  values["allocs_per_packet"] = median_of(allocs_per_packet);
  values["peak_rss_mib"].value = peak_rss_mib();
  std::vector<std::pair<MetricSpec, Metric>> metrics;
  for (const MetricSpec& spec : kEndToEnd) metrics.emplace_back(spec, values[spec.name]);
  print_result(name, seed, smoke, false, reps, expected, checks, metrics);
}

void run_traced(const std::string& name, Workload& workload, std::uint64_t seed, bool smoke,
                const std::string& trace_out) {
  Checks checks;
  CpuRotation cpus;
  cpus.next(workload.threads());
  const std::uint64_t expected = workload.reference(checks);

  std::vector<double> wall, cpu;
  const int untraced_reps = smoke ? 1 : kTracePassUntracedReps;
  for (int i = 0; i < untraced_reps; ++i) {
    cpus.next(workload.threads());
    const RepResult r = workload.rep(nullptr, checks);
    checks.expect(r.digest == expected, name + ": untraced rep differs from the reference");
    wall.push_back(r.meter.wall_s);
    cpu.push_back(r.meter.cpu_s);
    log_rep(name, "untraced", i + 1, r.meter.wall_s);
  }
  const UntracedMedians untraced{median(wall), median(cpu)};

  Trace trace;
  cpus.next(workload.threads());
  RepResult traced = workload.rep(&trace, checks);
  checks.expect(traced.digest == expected,
                name + ": traced rep's simulated outputs differ from the untraced run's");
  log_rep(name, "traced", 1, traced.meter.wall_s);

  Layers layers = traced.layers;
  workload.trace_extras(untraced, layers, checks);
  layers["trace.overhead"] =
      untraced.wall_s > 0 ? (traced.meter.wall_s - traced.probe_s) / untraced.wall_s - 1.0 : 0.0;
  for (const auto& [key, value] : layers) trace.count(key, value);

  std::vector<std::pair<MetricSpec, Metric>> metrics;
  for (const MetricSpec& spec : kPerLayer) {
    Metric m;
    const auto it = layers.find(spec.name);
    if (it != layers.end()) m.value = it->second;
    metrics.emplace_back(spec, m);
    layers.erase(spec.name);
  }
  for (const auto& [key, value] : layers) {
    checks.expect(false, name + ": layer metric '" + key + "' is missing from the metric table");
    (void)value;
  }
  if (!trace_out.empty()) {
    std::ofstream file(trace_out);
    file << trace.to_json();
    checks.expect(static_cast<bool>(file), name + ": cannot write " + trace_out);
  }
  print_result(name, seed, smoke, true, untraced_reps + 1, expected, checks, metrics);
}

int usage(const char* why) {
  std::fprintf(stderr,
               "quartz_bench: %s\n"
               "usage: quartz_bench --workload=NAME --seed=N [--seconds=S] [--smoke]\n"
               "                    [--trace [--trace-out=PATH]]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const quartz::Flags flags = quartz::Flags::parse(argc, argv);
    const auto unknown =
        flags.unknown_keys({"workload", "seed", "seconds", "smoke", "trace", "trace-out"});
    if (!unknown.empty()) return usage(("unknown flag --" + unknown.front()).c_str());
    if (!flags.positional().empty()) return usage("unexpected positional argument");
    const std::string name = flags.get("workload");
    const std::int64_t seed = flags.get_int("seed", -1);
    const double seconds = flags.get_double("seconds", 0.0);
    const bool smoke = flags.get_bool("smoke");
    if (seed < 0) return usage("--seed=N (N >= 0) is required");
    if (seconds < 0) return usage("--seconds must be >= 0");
    const auto workload = make_workload(name, static_cast<std::uint64_t>(seed), smoke);
    if (workload == nullptr) return usage(("unknown workload '" + name + "'").c_str());
    if (flags.get_bool("trace")) {
      run_traced(name, *workload, static_cast<std::uint64_t>(seed), smoke, flags.get("trace-out"));
    } else {
      run_untraced(name, *workload, static_cast<std::uint64_t>(seed), smoke, smoke ? 0.0 : seconds);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "quartz_bench: %s\n", e.what());
    return 1;
  }
}
