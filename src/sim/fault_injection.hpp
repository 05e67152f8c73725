// Live fault injection for the packet simulator — §3.5 made dynamic.
//
// core::analyze_faults answers "what if k fibers are cut right now"
// combinatorially and topo::survive_fiber_cuts rebuilds a degraded
// fabric before any packets fly.  The FaultScheduler instead makes
// failures, detection and recovery first-class events inside the DES:
// it scripts (or Poisson-samples) cut/repair timelines against a live
// Network, so experiments can observe what flows experience *between*
// a fiber cut and reconvergence — loss during the detection window,
// elevated multi-hop latency until repair, and the return to direct
// lightpaths afterwards.
//
// Like the workload generators, a FaultScheduler is pinned in memory
// once timelines are scheduled (events capture `this`); it is neither
// copyable nor movable.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "core/fault.hpp"
#include "sim/network.hpp"
#include "telemetry/metrics.hpp"
#include "topo/failures.hpp"

namespace quartz::sim {

/// Per-link Poisson cut/repair process parameters.
struct PoissonFaultParams {
  double failures_per_link_per_hour = 1e-4;
  double mean_repair_hours = 8.0;
  TimePs start = 0;
  TimePs stop = seconds(1);

  /// Derive the per-link rates from the steady-state availability
  /// model (core::analyze_availability): each fiber segment fails at
  /// cuts_per_km_per_year x span_km and stays down mttr_hours.
  static PoissonFaultParams from_availability(const core::AvailabilityParams& params,
                                              TimePs start, TimePs stop);
};

class FaultScheduler : public TimerHandler {
 public:
  explicit FaultScheduler(Network& network) : network_(network) {}
  FaultScheduler(const FaultScheduler&) = delete;
  FaultScheduler& operator=(const FaultScheduler&) = delete;

  /// Script one cut event: fail every listed link at `fail_at` and
  /// repair them all at `repair_at` (negative = never repaired).
  void schedule_cut(TimePs fail_at, std::vector<topo::LinkId> links, TimePs repair_at = -1);

  /// Script a §3.5 fiber cut against the network's own topology: every
  /// lightpath whose arc crosses the cut ring segment fails at
  /// `fail_at` and is restored at `repair_at` (negative = never).
  void schedule_fiber_cut(TimePs fail_at, const topo::FiberCut& cut, TimePs repair_at = -1);

  /// Drive an independent Poisson cut/repair timeline on every listed
  /// link between params.start and params.stop.  An empty list targets
  /// every WDM lightpath of the topology.  Repairs scheduled past
  /// `stop` still run (if the simulation is driven that far) so the
  /// fabric converges back to healthy.
  void run_poisson(const PoissonFaultParams& params, std::vector<topo::LinkId> links, Rng rng);

  // --- component faults (gray failures & flapping) ---------------------------
  //
  // These model the failure modes that do NOT sever a fiber: the link
  // stays up but silently corrupts packets (injected through
  // Network::set_link_loss), or bounces between up and down faster than
  // detection converges.  Use optical::degraded_drop_probability to
  // derive `drop_p` from the ring's power budget.

  /// A pump-laser (EDFA) failure on the fiber span `span`: every
  /// lightpath whose arc crosses that span loses part of its power
  /// budget and corrupts packets with probability `drop_p` from
  /// `fail_at` until `repair_at` (negative = never repaired).
  void schedule_amplifier_failure(TimePs fail_at, const topo::FiberCut& span, double drop_p,
                                  TimePs repair_at = -1);

  /// One aging transceiver degrades its own lightpath by `drop_p`.
  void schedule_transceiver_aging(TimePs fail_at, topo::LinkId link, double drop_p,
                                  TimePs repair_at = -1);

  /// Scripted flapping: `cycles` consecutive down/up cycles starting at
  /// `start` (down for `down_time`, then up for `up_time`, repeat).
  void schedule_flapping(TimePs start, topo::LinkId link, TimePs down_time, TimePs up_time,
                         int cycles);

  /// Individual link failures / repairs injected so far.
  std::uint64_t cuts() const { return cuts_; }
  std::uint64_t repairs() const { return repairs_; }
  /// Gray degradations applied / lifted so far.
  std::uint64_t degradations() const { return degradations_; }
  std::uint64_t restorations() const { return restorations_; }

  /// Export injection counters under `<prefix>.cuts` / `<prefix>.repairs`.
  void publish_metrics(telemetry::MetricRegistry& registry, const std::string& prefix) const;

  /// Serialize the scripted-action table, the Poisson process (params +
  /// RNG stream), counters and the reference-counted down/degrade
  /// state.  Pending timeline events live in the engine's snapshot and
  /// point back here through the HandlerMap.
  void save(snapshot::Writer& w) const;

  /// Restore into a freshly constructed scheduler on the restored
  /// network.  Must run before the engine restore dispatches any timer.
  void restore(snapshot::Reader& r);

 private:
  /// Timelines are timer events.  A scripted fail/repair/degrade/
  /// restore stores its operand bundle in actions_ and passes the index
  /// through the timer's `a`; the Poisson chain passes the link id.
  enum TimerTag : std::uint32_t {
    kScriptTag = 1,
    kPoissonFailTag = 2,
    kPoissonRepairTag = 3,
  };

  struct ScriptedAction {
    enum class Kind : std::uint8_t { kFail, kRepair, kDegrade, kRestore };
    Kind kind = Kind::kFail;
    double drop_p = 0.0;
    std::vector<topo::LinkId> links;
  };

  void on_timer(const TimerEvent& event) override;
  std::uint64_t add_action(ScriptedAction action);
  void apply_action(const ScriptedAction& action);

  void schedule_poisson_failure(topo::LinkId link, TimePs from);
  void require_valid_link(topo::LinkId link) const;

  /// Reference-counted physical state: a link goes down on its first
  /// active cut and comes back only when the LAST overlapping cut is
  /// repaired — a repair belonging to one window must not resurrect a
  /// link another window still holds down.
  void inject_fail(topo::LinkId link);
  void inject_repair(topo::LinkId link);

  /// Gray degradations stack: the combined drop probability of all
  /// active contributions is 1 - Π(1 - p_i).
  void add_degradation(topo::LinkId link, double drop_p);
  void remove_degradation(topo::LinkId link, double drop_p);
  void schedule_degradation(TimePs fail_at, std::vector<topo::LinkId> links, double drop_p,
                            TimePs repair_at);

  Network& network_;
  std::vector<ScriptedAction> actions_;
  PoissonFaultParams poisson_{};
  Rng rng_{0};
  std::uint64_t cuts_ = 0;
  std::uint64_t repairs_ = 0;
  std::uint64_t degradations_ = 0;
  std::uint64_t restorations_ = 0;
  std::unordered_map<topo::LinkId, int> down_refs_;
  std::unordered_map<topo::LinkId, std::vector<double>> degrade_contribs_;
};

}  // namespace quartz::sim
