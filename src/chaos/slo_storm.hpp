// SLO-under-storm: chaos against a live, defended service loop.
//
// The chaos storms (sharded_storm.hpp) batter a fire-and-forget packet workload;
// this harness batters the serve stack instead — open-loop arrivals,
// closed-loop admission, retry budgets and live re-grooming all on —
// and judges *service-level* invariants at quiescence:
//
//  1. request conservation — every admitted request resolved exactly
//     once (completed or failed; nothing outstanding), and every packet
//     is delivered or in a drop bucket;
//  2. SLO recovery — once the storm's faults are repaired and a
//     recovery slack has passed, no further observation window breaches
//     the latency budget;
//  3. bounded retry amplification — the retry budget held total sends
//     at or below `max_retry_amplification` x first sends even while
//     faults were manufacturing timeouts; and
//  4. reconfigured mid-flight — the demand shift scheduled inside the
//     storm window actually re-groomed the oracle (make-before-break
//     commit, epoch bump) while packets were in the air.
//
// Like the chaos storms, an SLO storm is a pure function of its seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "serve/serve_loop.hpp"

namespace quartz::chaos {

struct SloStormParams {
  std::uint64_t seed = 1;

  // Fabric (small ring; 1 Gb/s links keep overload reachable).
  int switches = 4;
  int hosts_per_switch = 2;

  // Serving.
  TimePs duration = milliseconds(24);
  TimePs drain = milliseconds(10);
  double arrivals_per_sec = 250'000.0;
  TimePs deadline = milliseconds(2);
  TimePs timeout = microseconds(1500);
  int max_retries = 2;

  // Storm window inside the serving interval: mesh cuts land in
  // [storm_start, storm_end) and are all repaired by storm_end.
  TimePs storm_start = milliseconds(6);
  TimePs storm_end = milliseconds(14);
  /// Windows closing after storm_end + recovery_slack must be clean
  /// (invariant 2).
  TimePs recovery_slack = milliseconds(4);
  int cuts = 2;
  /// Mesh lightpaths silently blackholed (loss 1.0, invisible to the
  /// failure view) across the storm window — the retry-budget stressor.
  int gray_links = 1;

  /// A demand shift fired mid-storm; the loop re-grooms in response
  /// while cuts are still live (invariant 4).
  TimePs shift_at = milliseconds(8);
  double hot_fraction = 0.6;

  double max_retry_amplification = 2.0;
};

struct SloStormInvariants {
  bool conservation = false;
  bool slo_recovered = false;
  bool amplification_bounded = false;
  bool reconfigured = false;

  bool all() const {
    return conservation && slo_recovered && amplification_bounded && reconfigured;
  }
};

struct SloStormReport {
  std::uint64_t seed = 0;
  serve::ServeReport serve;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  /// Breached windows observed after the recovery point.
  std::uint64_t breaches_after_recovery = 0;

  SloStormInvariants invariants;
  std::vector<std::string> violations;

  bool passed() const { return invariants.all(); }
  std::string summary() const;
};

/// Run one SLO storm to completion and judge its invariants.
SloStormReport run_slo_storm(const SloStormParams& params);

/// Seeded sweep (seeds base.seed, base.seed+1, ...), sharded like
/// chaos::run_sweep; byte-identical for every jobs value.
std::vector<SloStormReport> run_slo_sweep(const SloStormParams& base, int storms, int jobs = 1);

}  // namespace quartz::chaos
