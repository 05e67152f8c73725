// In-band health probing of a live network.
//
// The ProbePlane closes the loop between the simulator's ground truth
// and the routing plane's HealthMonitor: it fires a tiny probe down
// every monitored lightpath at a fixed cadence, decides the probe's
// fate against the link's *physical* state (down links and gray
// failures both lose probes), and reports each outcome to the monitor
// at the probe's arrival time.  Probes are control-plane cells riding
// the links' dedicated management capacity: they never enter the output
// queues, never count against packet conservation, and cost one event
// per probe.
//
// Per-link schedules are staggered across one interval so a fabric-wide
// probe sweep does not synchronize into bursts.  Like the workload
// generators, a ProbePlane is pinned in memory once started (its timers
// point at it).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "routing/health_monitor.hpp"
#include "sim/network.hpp"

namespace quartz::sim {

/// Probes ride engine timers (fire / result), so a saturated probe
/// sweep costs zero allocations per probe once the engine's pools are
/// warm.
class ProbePlane : public TimerHandler {
 public:
  struct Options {
    /// Probe cadence per link.
    TimePs interval = microseconds(10);
    /// First sweep begins here...
    TimePs start = 0;
    /// ...and no probe is sent at or after this time (negative = probe
    /// for as long as the simulation runs).
    TimePs stop = -1;
    /// Seed of the stream sampling probe corruption on gray links
    /// (independent of the network's own corruption stream).
    std::uint64_t seed = 0x50524F4245ull;  // "PROBE"
  };

  /// Installs the monitor's transition/damp hooks so health events fan
  /// out to the network's telemetry sinks; set your own hooks after
  /// construction to override.
  ProbePlane(Network& network, routing::HealthMonitor& monitor);
  ProbePlane(Network& network, routing::HealthMonitor& monitor, Options options);
  ProbePlane(const ProbePlane&) = delete;
  ProbePlane& operator=(const ProbePlane&) = delete;

  /// Begin probing the listed links (empty = every link of the graph).
  /// Call before driving the simulation.
  void start(std::vector<topo::LinkId> links = {});

  std::uint64_t probes_sent() const { return sent_; }

  const Options& options() const { return options_; }

  /// Serialize the probe plane's mutable state (corruption stream +
  /// counter); pending fire/result timers live in the engine snapshot.
  void save(snapshot::Writer& w) const;
  /// Restore into a fresh plane (constructed with the same options, NOT
  /// started — the restored engine already holds the probe schedule).
  void restore(snapshot::Reader& r);

 private:
  /// Timer tags; `a` is the link.  A result's `b` holds the fate
  /// sealed at launch: bit 0 = launched, bit 1 = corrupted.
  enum TimerTag : std::uint32_t { kFireTag = 0, kResultTag = 1 };
  static constexpr std::uint64_t kLaunched = 1;
  static constexpr std::uint64_t kCorrupted = 2;

  void on_timer(const TimerEvent& event) override;

  void fire(topo::LinkId link);

  Network& network_;
  routing::HealthMonitor& monitor_;
  Options options_;
  Rng rng_;
  std::uint64_t sent_ = 0;
};

}  // namespace quartz::sim
