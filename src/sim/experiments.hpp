// Ready-made experiment harnesses for the paper's simulation study.
//
// Each harness builds a fabric, attaches workloads, runs the DES and
// returns summary statistics; quartz_paper sweeps their parameters
// to regenerate the corresponding figure:
//  * build_fabric / run_task_experiment — Fig. 17 (global scatter /
//    gather / scatter-gather) and Fig. 18 (localized tasks);
//  * run_cross_traffic — Fig. 14 (prototype RPC under bursty
//    cross-traffic, 2-tier tree vs Quartz);
//  * run_pathological — Fig. 20 (switch-to-switch hotspot: non-blocking
//    core vs Quartz ECMP vs Quartz VLB).
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "routing/fib.hpp"
#include "routing/oracle.hpp"
#include "sim/network.hpp"
#include "sim/sweep.hpp"
#include "telemetry/binary_stream.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/trace.hpp"

namespace quartz::sim {

// ---------------------------------------------------------------------------
// Fabrics under test (§7's simulated architectures)

enum class Fabric {
  kThreeTierTree,
  kJellyfish,
  kQuartzInCore,
  kQuartzInEdge,
  kQuartzInEdgeAndCore,
  kQuartzInJellyfish,
  /// Hierarchical composed fabric (topo/composite.hpp) described by
  /// FabricConfig::composite; rings-of-rings route via HierOracle.
  kComposite,
};

std::string fabric_name(Fabric fabric);

/// Scale knobs; the defaults build ~64-host fabrics mirroring §7's
/// setup (ToR->2 aggs->2 cores at 40 Gb/s, 4-switch Quartz rings,
/// 16-switch Jellyfish with four 10 Gb/s inter-switch links each).
struct FabricConfig {
  int pods = 2;
  int tors_per_pod = 4;
  int hosts_per_tor = 8;
  int ring_size = 4;
  int jellyfish_switches = 16;
  int jellyfish_hosts_per_switch = 4;
  int jellyfish_inter_ports = 4;
  /// Fraction of mesh traffic VLB detours over two-hop paths; 0 = pure
  /// ECMP (the paper found the two indistinguishable for Fig. 17-18).
  double vlb_fraction = 0.0;
  /// Route through the compiled FIB (routing/fib.hpp).  Decisions are
  /// bit-identical with the FIB off; only the per-packet cost changes.
  /// Ignored for Fabric::kComposite rings-of-rings, whose HierOracle
  /// already IS a (level-group) FIB.
  bool use_fib = true;
  /// Fabric::kComposite spec, grammar `kind:D0xD1[...][@h][+m]`
  /// (topo::CompositeSpec); e.g. "ring-of-rings:4x4@2".
  std::string composite = "ring-of-rings:4x4@2";
  std::uint64_t seed = 1;
};

/// A fabric plus its routing state, ready to simulate.  The routing,
/// oracle and fib objects must outlive any Network bound to them.
struct BuiltFabric {
  topo::BuiltTopology topo;
  /// Null for kComposite rings-of-rings (HierOracle needs no ECMP
  /// groups).
  std::unique_ptr<routing::EcmpRouting> routing;
  std::unique_ptr<routing::RoutingOracle> oracle;
  /// Present when FabricConfig::use_fib; pass to Network::set_fib.
  std::unique_ptr<routing::Fib> fib;
};

BuiltFabric build_fabric(Fabric fabric, const FabricConfig& config = {});

// ---------------------------------------------------------------------------
// Fig. 17 / Fig. 18 — scatter / gather / scatter-gather tasks

enum class Pattern { kScatter, kGather, kScatterGather };

std::string pattern_name(Pattern pattern);

/// Optional observability attached to an experiment run.  Everything
/// here is passive: enabling it never changes simulated results.
struct TaskTelemetryOptions {
  /// Attach a PacketTracer and roll up the end-to-end latency
  /// decomposition (Table 2's budget, measured in vivo).
  bool trace = false;
  /// Trace every Nth packet (1 = all); rollups stay unbiased because
  /// packet ids are assigned in send order.
  std::uint32_t trace_sample_every = 1;
  /// > 0: attach a PeriodicSampler with this bucket width and report
  /// the time-series in TaskExperimentResult::timeline.
  TimePs sample_bucket = 0;
  /// If set, the run publishes simulator counters and the measured
  /// latency distribution into this registry under "sim." / "task.".
  telemetry::MetricRegistry* metrics = nullptr;
  /// If set, the run captures its full event stream as compact binary
  /// records (telemetry::BinaryStream) sealed into this page sink.
  /// PageSinks synchronize internally, so replica sweeps may share one
  /// StreamFile — each replica writes under its own stream id and the
  /// decoder merges deterministically (telemetry/decode.hpp).
  telemetry::PageSink* stream = nullptr;
  /// Stream id stamped on this run's pages (run_task_replicas
  /// overrides it with the replica index).
  std::uint32_t stream_id = 0;
  /// Seal pages to a background drainer thread (long interactive
  /// runs); false seals inline, which sweep workers use.
  bool stream_background = false;
};

struct TaskExperimentParams {
  Pattern pattern = Pattern::kScatter;
  int tasks = 1;
  int fanout = 15;  ///< receivers per scatter (senders per gather)
  /// Fig. 18: task 0 confined to one locality group (pod / edge ring)
  /// and measured alone; remaining tasks are global cross-traffic.
  bool localized = false;
  int local_fanout = 7;  ///< the paper's local task targets fewer hosts
  BitsPerSecond per_flow_rate = megabits_per_second(200);
  double scatter_gather_rounds_per_second = 5000.0;
  TimePs duration = milliseconds(20);
  std::uint64_t seed = 7;
  TaskTelemetryOptions telemetry;
};

struct TaskExperimentResult {
  double mean_latency_us = 0;
  double p99_latency_us = 0;
  double ci95_us = 0;
  /// Mean time spent waiting in output queues (congestion share of the
  /// latency; the remainder is switch latency + serialization + wire).
  double mean_queueing_us = 0;
  std::uint64_t packets_measured = 0;
  std::uint64_t packets_dropped = 0;

  // --- populated only when the matching TaskTelemetryOptions are on --
  /// Decomposition over every traced packet (telemetry.trace).
  telemetry::DecompositionSummary decomposition;
  /// Per-task decompositions, keyed by the simulator task id in
  /// creation order (task 0 is the localized task under Fig. 18).
  std::vector<std::pair<int, telemetry::DecompositionSummary>> task_decompositions;
  /// Time-series buckets (telemetry.sample_bucket > 0).
  std::vector<telemetry::BucketSummary> timeline;
};

TaskExperimentResult run_task_experiment(Fabric fabric, const FabricConfig& config,
                                         const TaskExperimentParams& params);

// ---------------------------------------------------------------------------
// Replica sweeps — independent repetitions of one experiment, sharded
// across a SweepRunner worker pool.  Each replica runs on its own
// engine with a seed derived from the sweep's root seed, so the merged
// result is byte-identical for every thread count.

struct ReplicaSweepResult {
  /// Per-replica results, in replica order (independent of jobs).
  std::vector<TaskExperimentResult> replicas;
  /// Across-replica accumulators (RunningStats::merge semantics).
  RunningStats mean_latency_us;
  RunningStats p99_latency_us;
  std::uint64_t packets_measured = 0;
  std::uint64_t packets_dropped = 0;
};

/// Run `replicas` independent repetitions of the experiment; the
/// fabric is identical across replicas, replica r's traffic seed is
/// derive_seed(sweep.root_seed, r).  TaskTelemetryOptions::metrics
/// receives every replica's registry folded in replica order, and a
/// shared stream gets one stream id per replica, so both are identical
/// for any jobs value.
ReplicaSweepResult run_task_replicas(Fabric fabric, const FabricConfig& config,
                                     const TaskExperimentParams& params, int replicas,
                                     const SweepOptions& sweep = {});

// ---------------------------------------------------------------------------
// Fig. 14 — prototype cross-traffic experiment

enum class PrototypeFabric { kTwoTierTree, kQuartz };

std::string prototype_name(PrototypeFabric fabric);

struct CrossTrafficParams {
  /// Per-source cross-traffic bandwidth (the paper sweeps 0-200 Mb/s,
  /// i.e. 0-20% of the 1 Gb/s links).
  double cross_mbps = 0.0;
  int cross_sources = 3;
  /// Packets per Nuttcp-style burst (1500B each); larger bursts sit
  /// longer on the shared 1 Gb/s bottleneck.
  int burst_packets = 80;
  int rpc_calls = 2000;
  std::uint64_t seed = 11;
};

struct CrossTrafficResult {
  double mean_rtt_us = 0;
  double ci95_us = 0;
  int rpcs_completed = 0;
};

CrossTrafficResult run_cross_traffic(PrototypeFabric fabric, const CrossTrafficParams& params);

// ---------------------------------------------------------------------------
// Fig. 20 — pathological switch-to-switch hotspot

enum class CoreKind { kNonBlockingSwitch, kQuartzEcmp, kQuartzVlb, kQuartzAdaptive };

std::string core_kind_name(CoreKind kind);

struct PathologicalParams {
  double aggregate_gbps = 10.0;  ///< total S1->S2 offered load (paper: 10-50)
  int flows = 8;                 ///< concurrent sender/receiver pairs
  double vlb_fraction = 0.8;     ///< k for the fixed-split VLB variant
  TimePs adaptive_threshold = microseconds(1);  ///< queue bar for kQuartzAdaptive
  /// Positive: kQuartzAdaptive pins flows to their last path until they
  /// idle this long (flowlet switching; avoids reordering).
  TimePs adaptive_flowlet_timeout = 0;
  TimePs duration = milliseconds(5);
  TimePs max_queue_delay = milliseconds(2);
  std::uint64_t seed = 13;
};

struct PathologicalResult {
  double mean_latency_us = 0;
  double p99_latency_us = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  /// Deliveries that arrived behind a later-sent packet of their flow.
  std::uint64_t reordered_packets = 0;
  bool saturated = false;  ///< drops observed (ECMP beyond the direct link)
};

PathologicalResult run_pathological(CoreKind kind, const PathologicalParams& params);

}  // namespace quartz::sim
