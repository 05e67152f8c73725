// Streaming and sample-based statistics used by the simulator and the
// benchmark report generators: Welford running moments, percentile
// estimation from retained samples and normal confidence intervals
// (the paper reports 95% CIs for Fig. 14).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace quartz {

/// Welford online mean/variance accumulator. O(1) space.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const;
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

  /// Half-width of the normal-approximation confidence interval around
  /// the mean. level in {0.90, 0.95, 0.99}.
  double confidence_half_width(double level = 0.95) const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Retains every sample; supports exact percentiles. Use for per-packet
/// latency collections (bounded by simulated packet counts).
class SampleSet {
 public:
  void add(double x);
  void reserve(std::size_t n) { samples_.reserve(n); }
  /// Drop every sample but keep the capacity, so a set refilled over
  /// and over (one SLO window after another) stops allocating.
  void clear() {
    samples_.clear();
    partitioned_valid_ = false;
  }

  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  double mean() const;
  double stddev() const;
  double min() const;
  double max() const;
  /// Exact percentile, p in [0,100]: linear interpolation between the
  /// two order statistics around rank p/100 * (n-1).  Selects them in
  /// O(n) rather than sorting.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }
  double confidence_half_width(double level = 0.95) const;

  const std::vector<double>& samples() const { return samples_; }

  /// Replace the retained samples wholesale (checkpoint restore).
  void assign(std::vector<double> samples) {
    samples_ = std::move(samples);
    partitioned_valid_ = false;
  }

 private:
  std::vector<double> samples_;
  // A copy of samples_ that percentile() partially orders in place with
  // std::nth_element; each selection leaves it partitioned, so later
  // queries on the same samples start closer to done.  add(), clear()
  // and assign() invalidate it.
  mutable std::vector<double> partitioned_;
  mutable bool partitioned_valid_ = false;
};

}  // namespace quartz
