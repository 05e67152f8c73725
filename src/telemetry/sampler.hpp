// Time-series telemetry: fixed-width buckets of delivery latency,
// per-reason drop counts and per-link activity, with a top-K hottest
// lightpaths view per bucket.
//
// The sampler is event-driven: it derives every sample from the sink
// events it observes, so it needs no scheduler hook and adds no events
// to the simulation.  Bucket boundaries fall on multiples of the
// configured period; wire occupancy is attributed to the bucket in
// which the transmission starts (exact when the bucket is much longer
// than a packet's serialization time, which is the intended regime —
// 100 ms buckets vs microsecond packets).
#pragma once

#include <cstdint>
#include <ostream>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "telemetry/export.hpp"
#include "telemetry/sink.hpp"

namespace quartz::telemetry {

/// One link direction's activity within a bucket.
struct LinkActivity {
  topo::LinkId link = topo::kInvalidLink;
  int direction = 0;
  Bits bits = 0;
  std::uint64_t packets = 0;
  TimePs busy = 0;  ///< wire occupancy accumulated in the bucket
  /// busy / bucket width — the time-based utilization of the direction.
  double utilization = 0;
  double max_queue_wait_us = 0;
};

/// Roll-up of one time bucket.
struct BucketSummary {
  TimePs start = 0;
  std::uint64_t delivered = 0;
  double p50_us = 0;
  double p99_us = 0;
  double mean_us = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t link_down_drops = 0;
  std::uint64_t corrupted_drops = 0;
  double max_queue_wait_us = 0;
  std::vector<LinkActivity> hottest;  ///< top-K directions by bits

  JsonRow to_row() const;  ///< scalar fields only (hottest excluded)
};

class PeriodicSampler final : public TelemetrySink {
 public:
  struct Options {
    TimePs bucket = milliseconds(100);
    int top_k = 4;
  };

  PeriodicSampler();
  explicit PeriodicSampler(Options options);

  /// Summaries of every bucket observed so far, in time order.
  std::vector<BucketSummary> summaries() const;

  std::size_t bucket_count() const { return buckets_.size(); }

  /// t_ms,delivered,mean_us,p50_us,p99_us,queue_drops,link_down_drops,
  /// corrupted_drops,max_queue_wait_us — one row per bucket.
  void write_csv(std::ostream& os) const;

  // --- TelemetrySink ---------------------------------------------------------
  void on_transmit(const sim::Packet& packet, topo::NodeId from, topo::LinkId link,
                   int direction, TimePs ready, TimePs start, TimePs finish) override;
  void on_delivery(const sim::Packet& packet, TimePs delivered, TimePs latency) override;
  void on_drop(const sim::Packet& packet, DropReason reason, TimePs when) override;

 private:
  struct LinkCell {
    Bits bits = 0;
    std::uint64_t packets = 0;
    TimePs busy = 0;
    TimePs max_queue_wait = 0;
  };
  struct Bucket {
    SampleSet latency_us;
    std::uint64_t drops[kDropReasonCount] = {};
    TimePs max_queue_wait = 0;
    std::unordered_map<std::uint64_t, LinkCell> lines;  ///< key: link*2 + direction
  };

  Bucket& bucket_at(TimePs when);

  Options options_;
  std::vector<Bucket> buckets_;
};

/// Records the fault-injection timeline: physical cuts, repairs and
/// gray degradations as they strike, and the routing plane's delayed
/// detections (fixed-delay or probe-based) — the cut → detect →
/// reroute → repair story as machine-readable events.
class FaultTimeline final : public TelemetrySink {
 public:
  enum class Kind {
    kCut = 0,
    kRepair = 1,
    kDetectedDead = 2,
    kDetectedLive = 3,
    kDegraded = 4,       ///< drop probability raised (gray failure)
    kRestored = 5,       ///< drop probability back to zero
    kLossyDetected = 6,  ///< HealthMonitor marked the link lossy
    kLossyCleared = 7,   ///< HealthMonitor cleared the lossy mark
    kDamped = 8,         ///< a ready recovery was flap-damped
  };
  static constexpr int kKindCount = 9;

  struct Event {
    TimePs when = 0;
    topo::LinkId link = topo::kInvalidLink;
    Kind kind = Kind::kCut;
    /// Degraded: the new drop probability.  Damped: suppressed-until, us.
    double value = 0;
  };

  static const char* kind_name(Kind kind);

  const std::vector<Event>& events() const { return events_; }
  std::uint64_t cuts() const { return counts_[0]; }
  std::uint64_t repairs() const { return counts_[1]; }
  std::uint64_t detections() const { return counts_[2] + counts_[3]; }
  std::uint64_t degrades() const { return counts_[4]; }
  std::uint64_t restores() const { return counts_[5]; }
  std::uint64_t lossy_detections() const { return counts_[6]; }
  std::uint64_t damped() const { return counts_[8]; }
  std::uint64_t probes() const { return probes_; }
  std::uint64_t probe_losses() const { return probe_losses_; }

  /// Mean lag from a physical transition (cut, repair or degradation)
  /// to its detection (the blackhole window the routing plane cannot
  /// see), microseconds.
  double mean_detection_lag_us() const;

  /// One {"t_us", "link", "event"} object per line (degrade/damp rows
  /// carry an extra "value" field).
  void write_jsonl(std::ostream& os) const;
  std::vector<JsonRow> to_rows() const;

  // --- TelemetrySink ---------------------------------------------------------
  void on_link_state(topo::LinkId link, bool up, TimePs when) override;
  void on_link_detected(topo::LinkId link, bool dead, TimePs when) override;
  void on_link_degraded(topo::LinkId link, double loss_rate, TimePs when) override;
  void on_probe(topo::LinkId link, bool delivered, TimePs when) override;
  void on_health_transition(topo::LinkId link, routing::LinkHealth from, routing::LinkHealth to,
                            TimePs when) override;
  void on_flap_damped(topo::LinkId link, TimePs suppressed_until, TimePs when) override;

 private:
  std::vector<Event> events_;
  std::uint64_t counts_[kKindCount] = {};
  std::uint64_t probes_ = 0;
  std::uint64_t probe_losses_ = 0;
  /// Pending transition time per link, for detection-lag accounting.
  std::unordered_map<topo::LinkId, TimePs> pending_;
  /// Pending degradation time per link, consumed by lossy detection.
  std::unordered_map<topo::LinkId, TimePs> pending_degrade_;
  RunningStats detection_lag_us_;
};

}  // namespace quartz::telemetry
