// Chaos storms: the one fault-storm driver, over the sharded engine.
//
// A storm builds a Quartz fabric (a composite spec, or a flat ring),
// partitions it into `shards` workers — serial simply means shards=1,
// the identical code path on one worker — drives a per-host timer-chain
// workload, and inside the window [storm_start, storm_end] throws the
// fault classes this codebase models at it:
//
//  * scripted fiber cuts,
//  * gray transceivers (a fixed per-packet loss on one lightpath),
//  * links flapping faster than detection converges,
//  * optionally, amplifier failures (span-wide gray failures whose drop
//    probability comes from the optical power budget: margin → Q →
//    BER → packet loss) and Poisson cut/repair churn over the mesh.
//
// Every fault is repaired before the quiescence point, halfway between
// storm_end and run_until.
//
// Sharding.  Each host's schedule and destinations are a pure hash of
// the seed, so the traffic is identical at every shard count (a global
// traffic RNG would not be).  The control plane is REPLICATED per
// shard: every shard runs its own FaultScheduler, ProbePlane,
// HealthMonitor, EcmpOracle (and, in hybrid mode, FluidBackground)
// over the full graph with identical seeds, so fault timelines and
// routing views agree everywhere without a byte of cross-shard
// coordination.  Only data packets cross shards, through the engine's
// mailboxes.
//
// Digests.  Each shard records its delivery and drop events (naturally
// sorted by (time, stamp)), and finish() k-way merges the per-shard
// streams by (time, stamp, kind) before hashing — the same total order
// the engine itself uses, so the digest at shards=1 is byte-identical
// to shards=2, 8, ... iff the parallel execution preserved the serial
// semantics.
//
// Invariants, judged by finish():
//
//  1. conservation — every packet sent is either delivered or counted
//     in exactly one drop, and the record streams agree with the
//     networks' counters;
//  2. hop bound — no delivered packet crossed more switches than the
//     fabric has (no forwarding loops under any deflection);
//  3. convergence — on every shard, the detector's view (HealthMonitor
//     or fixed-delay FailureView) agrees with the physical link state;
//  4. latency recovery — the post-storm tail's mean latency is within
//     25% of the pre-storm baseline.  A run whose traffic ends before
//     quiescence has no tail to judge and reports this one violated.
//
// Storms are pure functions of their params: a failing seed from CI
// reproduces locally bit for bit, at any shard count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "routing/ecmp.hpp"
#include "sim/partition.hpp"
#include "sim/sharded.hpp"
#include "topo/builders.hpp"

namespace quartz::snapshot {
class Writer;
class Reader;
}  // namespace quartz::snapshot

namespace quartz::chaos {

/// How the routing plane learns about failures during the storm.
enum class DetectionMode {
  kHealthMonitor,  ///< probe-based HealthMonitor with flap damping
  kFixedDelay,     ///< omniscient FailureView, updated a fixed delay late
};

struct ShardedStormParams {
  std::uint64_t seed = 1;
  /// Composite spec ("ring-of-rings:8x4@2") or "" for a flat Quartz
  /// ring of `flat_switches` (exercising the ring-segment splitter).
  std::string composite = "ring-of-rings:8x4@2";
  int flat_switches = 16;
  int flat_hosts_per_switch = 2;
  int shards = 1;

  /// Per-host timer-chain workload.
  int packets_per_host = 60;
  TimePs packet_gap = microseconds(2);
  Bits packet_size = bytes(400);

  /// Storm script: cuts + gray transceivers + flapping links, then
  /// amplifier failures (on ring 0 of the fabric) and Poisson churn
  /// (about two failures per lightpath per storm window), all failing
  /// inside [storm_start, storm_end] and repaired before the drain tail.
  int cuts = 2;
  int gray_links = 2;
  double gray_loss = 0.25;
  int flapping_links = 1;
  int amplifier_failures = 0;
  bool poisson_churn = false;
  TimePs storm_start = microseconds(30);
  TimePs storm_end = microseconds(120);
  TimePs run_until = microseconds(300);

  DetectionMode mode = DetectionMode::kHealthMonitor;
  TimePs probe_interval = microseconds(5);

  /// Hybrid mode: each shard evolves a sim::FluidBackground over a
  /// fixed set of host-pair demands, so its queueing bias and epoch
  /// timer chain ride the storm, the faults and every checkpoint.
  bool hybrid_background = false;
};

/// Pass/fail per invariant (see the file comment for definitions).
struct InvariantReport {
  bool conservation = false;
  bool hop_bound = false;
  bool converged = false;
  bool latency_recovered = false;

  bool all() const { return conservation && hop_bound && converged && latency_recovered; }
};

struct ShardedStormResult {
  std::uint64_t seed = 0;
  int shards = 1;
  TimePs lookahead = 0;
  std::string strategy;
  std::uint64_t delivery_digest = 0;
  std::uint64_t drop_digest = 0;
  std::uint64_t sent = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t drops = 0;
  std::uint64_t events = 0;
  std::uint64_t mail_posted = 0;
  double mean_latency_us = 0.0;
  double p99_latency_us = 0.0;

  /// Fault and detector counters of the (replicated) control plane.
  std::uint64_t cuts = 0;
  std::uint64_t repairs = 0;
  std::uint64_t degradations = 0;
  std::uint64_t restorations = 0;
  std::uint64_t probes = 0;
  std::uint64_t missed_probes = 0;
  std::uint64_t deaths = 0;
  std::uint64_t revivals = 0;
  std::uint64_t damped_recoveries = 0;
  /// Hybrid-mode witness (zero otherwise): epochs solved and the
  /// FNV-1a digest over every epoch's biases.
  std::uint64_t fluid_epochs = 0;
  std::uint64_t fluid_digest = 0;

  int max_hops = 0;
  int hop_bound = 0;
  double baseline_mean_us = 0.0;
  double tail_mean_us = 0.0;
  InvariantReport invariants;
  /// One human-readable line per violated invariant (empty on a pass).
  std::vector<std::string> violations;

  bool passed() const { return invariants.all(); }
  /// One-line summary for logs.
  std::string summary() const;
};

class ShardedStormRun final {
 public:
  explicit ShardedStormRun(const ShardedStormParams& params);
  ~ShardedStormRun();
  ShardedStormRun(const ShardedStormRun&) = delete;
  ShardedStormRun& operator=(const ShardedStormRun&) = delete;

  /// Schedule workload chains and the (replicated) storm script on
  /// every shard.  Call exactly once; restore() replaces it.
  void arm();
  /// Advance all shards to `end` through conservative windows.
  void run_to(TimePs end);
  TimePs now() const;

  /// Serialize the run at the current window barrier: the shard-layout
  /// chunk followed by each shard's component + engine chunks.  Only
  /// legal between run_to calls (mailboxes quiesced — asserted).
  void save(snapshot::Writer& w);
  /// Restore into a freshly constructed (never armed) run built from
  /// the same params.  Refuses a snapshot taken from different params,
  /// at a different shard count or partition with a structured error.
  void restore(snapshot::Reader& r);

  /// Drain to params.run_until, merge the per-shard digests and judge
  /// the four invariants.
  ShardedStormResult finish();

  const sim::PartitionPlan& plan() const;

 private:
  class StormShard;

  ShardedStormParams params_;
  topo::BuiltTopology topo_;
  std::vector<topo::LinkId> mesh_;
  routing::EcmpRouting routing_;
  std::unique_ptr<sim::ShardedSim> sim_;
  bool armed_ = false;
};

/// Build, arm and finish one storm.  With `restore_rehearsal` the run
/// is snapshotted mid-storm, restored into a fresh ShardedStormRun and
/// finished there; the result must equal the uninterrupted run's.
ShardedStormResult run_storm(const ShardedStormParams& params, bool restore_rehearsal = false);

/// Run `storms` storms with seeds base.seed, base.seed+1, ... — the
/// seeded sweep CI runs nightly.  The storms spread across `jobs`
/// worker threads (sim::SweepRunner; jobs <= 0 uses every hardware
/// thread) and the result vector is identical for every jobs value.
std::vector<ShardedStormResult> run_sweep(const ShardedStormParams& base, int storms,
                                          int jobs = 1, bool restore_rehearsal = false);

/// The soak shape: a flat 8-switch ring storm firing every fault class
/// (cuts, gray transceivers, a flapping link, an amplifier failure and
/// Poisson churn) for `storm_length`, under a steady workload that
/// outlasts quiescence so all four invariants can be judged.
ShardedStormParams every_fault_storm(std::uint64_t seed, TimePs storm_length);

}  // namespace quartz::chaos
