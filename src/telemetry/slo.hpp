// Windowed SLO gauges for long-running service loops.
//
// A batch experiment summarises latency once, at the end.  A serving
// loop needs the opposite: a rolling view ("what was p99 over the last
// window?") that a controller can react to while the run is still in
// flight.  SloTracker keeps per-window completion samples, closes a
// window on roll(), and reports the window's percentiles against the
// configured latency budgets — plus a consecutive-breach streak the
// admission controller uses to decide when a breach is sustained
// rather than a blip.
//
// Thread-confined like the rest of the simulation; samples are exact
// (percentiles interpolate linearly between the two closest ranks of
// the retained window), which is fine at simulated request rates.
// Closing a window keeps its sample buffer's capacity, so a warm
// tracker's roll() allocates nothing.
#pragma once

#include <cstdint>
#include <string>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "telemetry/metrics.hpp"

namespace quartz::snapshot {
class Writer;
class Reader;
}  // namespace quartz::snapshot

namespace quartz::telemetry {

/// One closed observation window.
struct SloWindow {
  TimePs start = 0;
  TimePs end = 0;
  std::uint64_t completed = 0;    ///< samples recorded in the window
  std::uint64_t in_deadline = 0;  ///< completions that met their deadline
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
  /// In-deadline completions per second of window time (the window's
  /// goodput).
  double goodput_per_sec = 0.0;
  bool p99_breach = false;
  bool p999_breach = false;

  bool breached() const { return p99_breach || p999_breach; }
};

class SloTracker {
 public:
  struct Config {
    /// Observation window length.
    TimePs window = milliseconds(1);
    /// p99 latency budget in microseconds; <= 0 disables the check.
    double budget_p99_us = 0.0;
    /// p99.9 latency budget in microseconds; <= 0 disables the check.
    double budget_p999_us = 0.0;
  };

  explicit SloTracker(Config config);

  /// Record one completion observed at simulated time `now`.
  void record(double latency_us, bool in_deadline);

  /// Close the current window at `now` and open the next one.  Returns
  /// the closed window's stats (also retrievable via last()).  An empty
  /// window closes with zeroed percentiles and no breach.
  const SloWindow& roll(TimePs now);

  /// The most recently closed window; valid once roll() ran at least
  /// once (zeroed before that).
  const SloWindow& last() const { return last_; }

  std::uint64_t windows_closed() const { return windows_closed_; }
  std::uint64_t windows_breached() const { return windows_breached_; }
  /// Closed windows in breach with no clean window in between; resets
  /// to zero on the first in-budget window.
  int consecutive_breaches() const { return consecutive_breaches_; }

  /// Cumulative latency distribution across every window (whole run).
  const SampleSet& cumulative_us() const { return cumulative_; }
  std::uint64_t total_completed() const { return total_completed_; }
  std::uint64_t total_in_deadline() const { return total_in_deadline_; }

  const Config& config() const { return config_; }

  /// Export the last window's gauges (`<prefix>.window_p99_us`,
  /// `.window_p999_us`, `.window_goodput_per_sec`), breach counters and
  /// the cumulative distribution under `<prefix>.latency_us`.
  void publish(MetricRegistry& registry, const std::string& prefix) const;

  /// Serialize the open window, the last closed window and the
  /// cumulative distribution (config is reconstructed by the owner).
  void save(snapshot::Writer& w) const;
  void restore(snapshot::Reader& r);

 private:
  Config config_;
  TimePs window_start_ = 0;
  SampleSet window_samples_;
  std::uint64_t window_in_deadline_ = 0;
  SloWindow last_;
  std::uint64_t windows_closed_ = 0;
  std::uint64_t windows_breached_ = 0;
  int consecutive_breaches_ = 0;
  SampleSet cumulative_;
  std::uint64_t total_completed_ = 0;
  std::uint64_t total_in_deadline_ = 0;
};

}  // namespace quartz::telemetry
