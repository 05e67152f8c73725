// The benchmark's four canonical workloads.
//
// Each workload is a harness over the simulator's public API that runs
// one "rep" at a time: set up (topology, routing, network, workload
// arm), run (run_until / run_to), harvest (simulated outputs folded
// into a digest).  The harness times the phases from outside; the
// simulated outputs are output checks, never performance metrics, and
// every rep of one seed must reproduce them bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"

namespace quartz::bench_suite {

/// Per-layer metric values by name (see main.cpp's table for units).
using Layers = std::map<std::string, double>;

/// Output checks run so far; error_rate = failed / attempted.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failures_.size(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::vector<std::string> failures_;
};

struct RepResult {
  RepMeter meter;
  std::uint64_t packets = 0;  ///< packets delivered during the run phase
  std::uint64_t digest = 0;   ///< simulated outputs of the rep
  /// Host time spent in bench-side probes that only the traced rep
  /// makes (excluded from its overhead figure).
  double probe_s = 0;
  Layers layers;
};

/// Medians of the untraced reps, handed to the traced pass's extras.
struct UntracedMedians {
  double wall_s = 0;
  double cpu_s = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Threads a rep keeps busy (the CPUs it is pinned to).
  virtual int threads() const { return 1; }

  /// Untimed work before measurement: warms the process and runs the
  /// workload's reference cross-checks.  Returns the digest every
  /// measured rep must reproduce.
  virtual std::uint64_t reference(Checks& checks) = 0;

  /// One rep.  A non-null trace records spans around each call into a
  /// layer and cuts the run phase into 1 ms simulated slices.
  virtual RepResult rep(Trace* trace, Checks& checks) = 0;

  /// The rep's set-up phase alone (then torn down): host seconds.
  virtual double setup_only() = 0;

  /// Traced pass only: extra reps or probes that yield layer metrics
  /// (a serial reference, a capture-off rep, ...).
  virtual void trace_extras(const UntracedMedians& untraced, Layers& layers, Checks& checks) {
    (void)untraced, (void)layers, (void)checks;
  }
};

/// Build a workload; `smoke` shrinks it about 50x.  Null if unknown.
std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed, bool smoke);

}  // namespace quartz::bench_suite
