// A registry of named counters, gauges and latency recorders.
//
// Hot paths obtain a metric once (a stable reference — the registry is
// node-based) and update it with a plain add/inc; there is no lookup or
// locking on the update path.  A disabled registry hands out shared
// unregistered scratch instances, so instrumented code costs one
// branchless increment on a dead slot and exports nothing.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "common/units.hpp"
#include "telemetry/export.hpp"
#include "telemetry/histogram.hpp"

namespace quartz::telemetry {

class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Latency distribution in microseconds with O(1) memory: a
/// StreamingHistogram (log2 buckets x 16 linear sub-buckets) replaces
/// the old retain-every-sample SampleSet, so billion-event runs cost a
/// fixed ~8 KiB per recorder.  count/mean/min/max stay exact;
/// percentiles are within one sub-bucket (<= 6.25% relative) and exact
/// at both extremes.
class LatencyRecorder {
 public:
  void add_us(double us) { histogram_.add(us); }
  void add(TimePs t) { histogram_.add(to_microseconds(t)); }
  void merge(const LatencyRecorder& other) { histogram_.merge(other.histogram_); }

  std::size_t count() const { return static_cast<std::size_t>(histogram_.count()); }
  bool empty() const { return histogram_.empty(); }
  double mean_us() const { return histogram_.mean(); }
  double percentile_us(double p) const { return histogram_.percentile(p); }
  double max_us() const { return histogram_.max(); }
  const StreamingHistogram& histogram() const { return histogram_; }

 private:
  StreamingHistogram histogram_;
};

class MetricRegistry {
 public:
  explicit MetricRegistry(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Find-or-create.  References stay valid for the registry's
  /// lifetime.  A disabled registry returns a shared scratch metric
  /// that is never exported.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyRecorder& latency(const std::string& name);

  std::size_t size() const { return counters_.size() + gauges_.size() + latencies_.size(); }

  /// Fold `other` in: counters add, gauges take its value, latency
  /// histograms merge.  Sweeps give each run its own registry and fold
  /// them in run order, so the result is the same for any worker count.
  void merge(const MetricRegistry& other);

  /// name,kind,count,value,p50_us,p99_us,max_us — one row per metric,
  /// sorted by name within each kind.
  void write_csv(std::ostream& os) const;

  /// {"counters": {...}, "gauges": {...}, "latencies_us": {name:
  /// {count, mean, p50, p99, max}}}
  void write_json(JsonWriter& w) const;

 private:
  bool enabled_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LatencyRecorder> latencies_;
  Counter scratch_counter_;
  Gauge scratch_gauge_;
  LatencyRecorder scratch_latency_;
};

}  // namespace quartz::telemetry
