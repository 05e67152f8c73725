// quartz-simulate: the packet simulator as a standalone tool.  Pick a
// fabric and a workload from flags and get a CSV-able result row — the
// entry point a downstream user scripts parameter sweeps with.
//
//   $ ./simulate --fabric=quartz-edge-core --pattern=scatter --tasks=4
//   $ ./simulate --fabric=three-tier --pattern=gather --tasks=8 --csv
//   $ ./simulate --list
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "cli.hpp"
#include "sim/experiments.hpp"

namespace {

using namespace quartz;
using namespace quartz::sim;

const std::vector<std::pair<std::string, Fabric>> kFabrics = {
    {"three-tier", Fabric::kThreeTierTree},
    {"jellyfish", Fabric::kJellyfish},
    {"quartz-core", Fabric::kQuartzInCore},
    {"quartz-edge", Fabric::kQuartzInEdge},
    {"quartz-edge-core", Fabric::kQuartzInEdgeAndCore},
    {"quartz-jellyfish", Fabric::kQuartzInJellyfish},
};

const std::vector<std::pair<std::string, Pattern>> kPatterns = {
    {"scatter", Pattern::kScatter},
    {"gather", Pattern::kGather},
    {"scatter-gather", Pattern::kScatterGather},
};

template <class T>
const T* lookup(const std::vector<std::pair<std::string, T>>& table, const std::string& name) {
  for (const auto& [key, value] : table) {
    if (key == name) return &value;
  }
  return nullptr;
}

int usage(const char* argv0) {
  std::printf(
      "usage: %s [--fabric=NAME] [--topology=composite:SPEC] [--pattern=NAME]\n"
      "          [--tasks=N] [--fanout=N] [--rate-mbps=R] [--duration-ms=D]\n"
      "          [--seed=S] [--localized] [--vlb=K] [--fib=on|off] [--csv]\n"
      "          [--list] [--replicas=N] [--jobs=N] [--shards=N] [--trace]\n"
      "          [--sample-every=N] [--metrics-out=FILE]\n"
      "          [--telemetry=binary|jsonl|off]\n"
      "\n"
      "  --topology=composite:SPEC  hierarchical composed fabric instead of a\n"
      "                named --fabric; SPEC is kind:D0xD1[...][@h][+m], e.g.\n"
      "                composite:ring-of-rings:8x8@2 (see docs/scale.md)\n"
      "  --telemetry=binary  capture the full event stream as compact binary\n"
      "                records in <metrics-out>.qtz (decode with quartz_decode)\n"
      "  --telemetry=jsonl   as binary, then decode the capture into\n"
      "                <metrics-out>.events.jsonl (what quartz_decode prints;\n"
      "                replicas interleave in time order)\n"
      "  --fib=on|off  route through the compiled FIB (default on); results\n"
      "                are bit-identical either way, only speed differs\n"
      "  --replicas=N  run N independent repetitions (seeds derived from\n"
      "                --seed) and report across-replica statistics\n"
      "  --jobs=N      worker threads for the replica sweep (0 = all\n"
      "                hardware threads); results are byte-identical for\n"
      "                every value\n"
      "  --shards=N    intra-run sharding: partition ONE simulation across\n"
      "                N cores (conservative time windows; see\n"
      "                docs/performance.md).  Needs --topology=composite:SPEC\n"
      "                and runs the shard-invariant uniform storm workload\n"
      "                until workloads shard, so it refuses --pattern,\n"
      "                --tasks, --fanout, --localized, --vlb and --fib.\n"
      "                Results are byte-identical at every N\n",
      argv0);
  return 1;
}

}  // namespace

int run(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);

  if (flags.get_bool("list")) {
    std::printf("fabrics:");
    for (const auto& [name, fabric] : kFabrics) std::printf(" %s", name.c_str());
    std::printf("\npatterns:");
    for (const auto& [name, pattern] : kPatterns) std::printf(" %s", name.c_str());
    std::printf("\n");
    return 0;
  }
  const auto unknown = flags.unknown_keys(
      {"fabric", "topology", "pattern", "tasks", "fanout", "rate-mbps", "duration-ms", "seed",
       "csv", "localized", "vlb", "fib", "list", "trace", "sample-every", "metrics-out",
       "replicas", "jobs", "shards", "telemetry"});
  for (const auto& key : unknown) std::printf("unknown flag --%s\n", key.c_str());
  if (!unknown.empty()) return usage(argv[0]);

  std::string fabric_name = flags.get("fabric", "quartz-edge-core");
  const std::string pattern_name = flags.get("pattern", "scatter");
  std::string composite_spec;
  if (!cli::parse_topology(flags, &composite_spec)) return usage(argv[0]);
  Fabric fabric = Fabric::kComposite;
  if (!composite_spec.empty()) {
    fabric_name = flags.get("topology");
  } else if (const Fabric* named = lookup(kFabrics, fabric_name)) {
    fabric = *named;
  } else {
    std::printf("unknown fabric '%s' (try --list)\n", fabric_name.c_str());
    return usage(argv[0]);
  }
  const Pattern* pattern = lookup(kPatterns, pattern_name);
  if (pattern == nullptr) {
    std::printf("unknown pattern '%s' (try --list)\n", pattern_name.c_str());
    return usage(argv[0]);
  }

  FabricConfig config;
  if (!composite_spec.empty()) config.composite = composite_spec;
  config.vlb_fraction = flags.get_double("vlb", 0.0);
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  if (!cli::parse_fib(flags, &config.use_fib)) return usage(argv[0]);

  TaskExperimentParams params;
  params.pattern = *pattern;
  params.tasks = static_cast<int>(flags.get_int("tasks", 4));
  params.fanout = static_cast<int>(flags.get_int("fanout", 15));
  params.per_flow_rate = megabits_per_second(flags.get_double("rate-mbps", 200.0));
  params.duration = milliseconds(flags.get_int("duration-ms", 10));
  params.localized = flags.get_bool("localized");
  params.seed = config.seed * 31 + 7;
  if (params.tasks < 1 || params.fanout < 1 || flags.get_int("duration-ms", 10) < 1 ||
      flags.get_double("rate-mbps", 200.0) <= 0.0 || flags.get_int("sample-every", 1) < 1) {
    std::printf("--tasks, --fanout, --duration-ms, --rate-mbps and --sample-every "
                "must be positive\n");
    return usage(argv[0]);
  }

  const int replicas = static_cast<int>(flags.get_int("replicas", 1));
  const int jobs = static_cast<int>(flags.get_int("jobs", 1));
  if (replicas < 1 || jobs < 0) {
    std::printf("--replicas must be positive, --jobs non-negative\n");
    return usage(argv[0]);
  }
  const int shards = static_cast<int>(flags.get_int("shards", 1));
  if (shards < 1) {
    std::printf("--shards must be positive, got %d\n", shards);
    return usage(argv[0]);
  }
  if (flags.has("shards")) {
    // Intra-run sharding: ONE simulation partitioned across cores (at
    // --shards=1, the same run on one core: the reference every other
    // shard count reproduces).
    // The partition planner needs a composed fabric (one shard per
    // top-level element), and the sharded engine runs the
    // shard-invariant uniform workload, so the sequential experiment
    // options below do not apply.
    if (composite_spec.empty()) {
      std::printf("--shards=%d needs --topology=composite:SPEC (the partition planner\n"
                  "shards one composed element per core; named fabrics stay serial)\n",
                  shards);
      return usage(argv[0]);
    }
    for (const char* flag : {"pattern", "tasks", "fanout", "localized", "vlb", "fib"}) {
      if (flags.has(flag)) {
        std::printf("--%s does not apply to --shards: the sharded engine runs the uniform\n"
                    "storm workload until workloads shard\n",
                    flag);
        return usage(argv[0]);
      }
    }
    if (replicas > 1 || flags.has("metrics-out") || flags.get_bool("trace") ||
        flags.get("telemetry", "off") != "off") {
      std::printf("--shards is the intra-run engine: combine with --replicas/--jobs by\n"
                  "running one process per replica; --metrics-out, --trace and\n"
                  "--telemetry are serial-engine options\n");
      return usage(argv[0]);
    }
    chaos::ShardedStormParams storm;
    storm.composite = composite_spec;
    storm.shards = shards;
    storm.seed = config.seed;
    storm.run_until = milliseconds(flags.get_int("duration-ms", 10));
    // Per-host send cadence from the requested per-flow rate.
    const double rate_mbps = flags.get_double("rate-mbps", 200.0);
    storm.packet_gap = std::max<TimePs>(
        1, static_cast<TimePs>(static_cast<double>(storm.packet_size) * 1e6 / rate_mbps));
    storm.packets_per_host =
        static_cast<int>(std::min<std::int64_t>(100000, storm.run_until / storm.packet_gap));
    const auto [result, events_per_s] = cli::run_fault_free_storm(storm);
    if (flags.get_bool("csv")) {
      // The row holds simulated outputs only, so reruns diff clean; the
      // wall-clock rate goes to stderr.
      std::printf("fabric,shards,strategy,lookahead_ns,mean_us,p99_us,deliveries,drops,events,"
                  "delivery_digest\n");
      std::printf("%s,%d,%s,%.3f,%.4f,%.4f,%llu,%llu,%llu,%016llx\n", fabric_name.c_str(),
                  result.shards, result.strategy.c_str(),
                  static_cast<double>(result.lookahead) * 1e-3, result.mean_latency_us,
                  result.p99_latency_us, static_cast<unsigned long long>(result.deliveries),
                  static_cast<unsigned long long>(result.drops),
                  static_cast<unsigned long long>(result.events),
                  static_cast<unsigned long long>(result.delivery_digest));
      std::fprintf(stderr, "events/s: %.0f\n", events_per_s);
    } else {
      std::printf("%s, sharded engine (%d shards, %s partition, lookahead %.0f ns):\n",
                  fabric_name.c_str(), result.shards, result.strategy.c_str(),
                  static_cast<double>(result.lookahead) * 1e-3);
      std::printf("  mean %.2f us   p99 %.2f us   (uniform shard-invariant workload)\n",
                  result.mean_latency_us, result.p99_latency_us);
      std::printf("  %llu delivered, %llu dropped, %llu events (%.0f events/s, %llu "
                  "cross-shard)\n",
                  static_cast<unsigned long long>(result.deliveries),
                  static_cast<unsigned long long>(result.drops),
                  static_cast<unsigned long long>(result.events), events_per_s,
                  static_cast<unsigned long long>(result.mail_posted));
      std::printf("  delivery digest %016llx (byte-identical at every --shards)\n",
                  static_cast<unsigned long long>(result.delivery_digest));
    }
    return 0;
  }

  cli::RunOutputs outputs(flags);
  if (!outputs.valid(stdout)) return usage(argv[0]);
  if (!outputs.open()) return 1;
  params.telemetry.trace = flags.get_bool("trace");
  params.telemetry.trace_sample_every =
      static_cast<std::uint32_t>(flags.get_int("sample-every", 1));
  if (outputs.metrics().enabled()) params.telemetry.metrics = &outputs.metrics();
  params.telemetry.stream = outputs.stream();
  params.telemetry.stream_background = true;

  if (replicas > 1) {
    SweepOptions sweep;
    sweep.jobs = jobs;
    sweep.root_seed = config.seed;
    const ReplicaSweepResult sweep_result =
        run_task_replicas(fabric, config, params, replicas, sweep);
    if (flags.get_bool("csv")) {
      std::printf(
          "fabric,pattern,tasks,localized,replicas,mean_us,mean_stddev_us,p99_us,packets,"
          "drops\n");
      std::printf("%s,%s,%d,%d,%d,%.4f,%.4f,%.4f,%llu,%llu\n", fabric_name.c_str(),
                  pattern_name.c_str(), params.tasks, params.localized ? 1 : 0, replicas,
                  sweep_result.mean_latency_us.mean(), sweep_result.mean_latency_us.stddev(),
                  sweep_result.p99_latency_us.mean(),
                  static_cast<unsigned long long>(sweep_result.packets_measured),
                  static_cast<unsigned long long>(sweep_result.packets_dropped));
    } else {
      std::printf("%s / %s, %d task(s)%s, %d replicas (%d job%s):\n", fabric_name.c_str(),
                  pattern_name.c_str(), params.tasks, params.localized ? " (localized)" : "",
                  replicas, resolve_jobs(jobs), resolve_jobs(jobs) == 1 ? "" : "s");
      std::printf("  mean %.2f us (+/- %.2f us across replicas)   p99 %.2f us\n",
                  sweep_result.mean_latency_us.mean(), sweep_result.mean_latency_us.stddev(),
                  sweep_result.p99_latency_us.mean());
      std::printf("  %llu packets measured, %llu dropped\n",
                  static_cast<unsigned long long>(sweep_result.packets_measured),
                  static_cast<unsigned long long>(sweep_result.packets_dropped));
    }
    return outputs.finish() ? 0 : 1;
  }

  const TaskExperimentResult result = run_task_experiment(fabric, config, params);

  if (flags.get_bool("csv")) {
    std::printf(
        "fabric,pattern,tasks,localized,mean_us,p99_us,ci95_us,queueing_us,packets,drops\n");
    std::printf("%s,%s,%d,%d,%.4f,%.4f,%.4f,%.4f,%llu,%llu\n", fabric_name.c_str(),
                pattern_name.c_str(), params.tasks, params.localized ? 1 : 0,
                result.mean_latency_us, result.p99_latency_us, result.ci95_us,
                result.mean_queueing_us,
                static_cast<unsigned long long>(result.packets_measured),
                static_cast<unsigned long long>(result.packets_dropped));
  } else {
    std::printf("%s / %s, %d task(s)%s:\n", fabric_name.c_str(), pattern_name.c_str(),
                params.tasks, params.localized ? " (localized)" : "");
    std::printf("  mean %.2f us   p99 %.2f us   (95%% CI +/- %.2f us)\n",
                result.mean_latency_us, result.p99_latency_us, result.ci95_us);
    std::printf("  of which queueing: %.2f us (%.0f%%)\n", result.mean_queueing_us,
                100.0 * result.mean_queueing_us / result.mean_latency_us);
    std::printf("  %llu packets measured, %llu dropped\n",
                static_cast<unsigned long long>(result.packets_measured),
                static_cast<unsigned long long>(result.packets_dropped));
  }

  if (params.telemetry.trace) {
    const auto& d = result.decomposition;
    std::printf(
        "latency decomposition (%llu sampled packets, mean us/packet):\n"
        "  host %.3f + queueing %.3f + serialization %.3f + switching %.3f"
        " + propagation %.3f = %.3f\n",
        static_cast<unsigned long long>(d.packets), d.host_us, d.queueing_us,
        d.serialization_us, d.switching_us, d.propagation_us, d.total_us);
  }
  return outputs.finish() ? 0 : 1;
}

int main(int argc, char** argv) { return cli::guarded_main(run, argc, argv); }
