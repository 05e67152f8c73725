// O(1)-memory latency distributions for billion-event runs.
//
// StreamingHistogram is an HDR-style online histogram: values land in
// log2 major buckets refined by 16 linear sub-buckets, so the relative
// quantile error is bounded by the sub-bucket width (<= 1/16 ~ 6.25%)
// while memory stays a fixed ~8 KiB regardless of how many samples are
// added.  Exact count, sum, min and max are tracked on the side, so
// mean is exact and quantiles are clamped into [min, max].
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace quartz::telemetry {

/// Log2-bucketed online histogram over non-negative doubles.  add() is
/// a few integer ops and one array increment; memory is a fixed-size
/// member array (no heap).  Values <= 0 are counted in a dedicated
/// underflow bucket (latencies are positive; zero happens for e.g.
/// same-host deliveries with no overheads).
class StreamingHistogram {
 public:
  /// Linear sub-buckets per octave; 16 bounds quantile error at 6.25%.
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;
  /// Octave range: 2^-32 .. 2^32 covers sub-picosecond to ~136 years
  /// when the unit is microseconds.
  static constexpr int kMinExponent = -32;
  static constexpr int kMaxExponent = 31;
  static constexpr int kOctaves = kMaxExponent - kMinExponent + 1;
  static constexpr int kBuckets = kOctaves * kSubBuckets;

  void add(double value, std::uint64_t weight = 1);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

  /// Quantile in [0, 100] by cumulative-rank walk with linear
  /// interpolation inside the landing bucket; exact at the extremes
  /// (p0 = min, p100 = max) and within one sub-bucket width elsewhere.
  double percentile(double p) const;

  /// Fold another histogram in (across-replica aggregation).
  void merge(const StreamingHistogram& other);

  /// Bucket index a value lands in (exposed for tests).
  static int bucket_index(double value);
  /// Inclusive lower / exclusive upper bound of a bucket.
  static double bucket_lower(int index);
  static double bucket_upper(int index);

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t underflow_ = 0;  ///< values <= 0 (or below 2^kMinExponent)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace quartz::telemetry
