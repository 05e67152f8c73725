#include "telemetry/histogram.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace quartz::telemetry {

int StreamingHistogram::bucket_index(double value) {
  if (!(value > 0.0)) return -1;  // underflow bucket (also catches NaN)
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // value = mantissa * 2^exp, m in [0.5,1)
  // Re-normalize to value = frac * 2^e with frac in [1, 2).
  const int e = exponent - 1;
  if (e < kMinExponent) return -1;
  if (e > kMaxExponent) return kBuckets - 1;
  const double frac = mantissa * 2.0;  // [1, 2)
  int sub = static_cast<int>((frac - 1.0) * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  return (e - kMinExponent) * kSubBuckets + sub;
}

double StreamingHistogram::bucket_lower(int index) {
  const int e = index / kSubBuckets + kMinExponent;
  const int sub = index % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, e);
}

double StreamingHistogram::bucket_upper(int index) {
  const int e = index / kSubBuckets + kMinExponent;
  const int sub = index % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, e);
}

void StreamingHistogram::add(double value, std::uint64_t weight) {
  if (weight == 0) return;
  const int index = bucket_index(value);
  if (index < 0) {
    underflow_ += weight;
  } else {
    counts_[static_cast<std::size_t>(index)] += weight;
  }
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += weight;
  sum_ += value * static_cast<double>(weight);
}

double StreamingHistogram::percentile(double p) const {
  QUARTZ_REQUIRE(p >= 0.0 && p <= 100.0, "percentile must be in [0, 100]");
  if (count_ == 0) return 0.0;
  // Nearest-rank target (SampleSet::percentile instead interpolates
  // between ranks): the smallest value with at least ceil(p/100 * n)
  // samples at or below it.
  const double want = p / 100.0 * static_cast<double>(count_);
  std::uint64_t target = static_cast<std::uint64_t>(std::ceil(want));
  if (target == 0) target = 1;
  if (target > count_) target = count_;
  // Rank 1 is the minimum by definition — return it exactly rather
  // than a bucket interpolation, mirroring the exact-max case below.
  if (target == 1) return min_;

  std::uint64_t cumulative = underflow_;
  if (cumulative >= target) return std::min(0.0, min_);
  for (int i = 0; i < kBuckets; ++i) {
    const std::uint64_t in_bucket = counts_[static_cast<std::size_t>(i)];
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket >= target) {
      // Interpolate linearly inside the bucket, then clamp into the
      // observed range so p0/p100 are exact.
      const double lo = bucket_lower(i);
      const double hi = bucket_upper(i);
      const double frac =
          static_cast<double>(target - cumulative) / static_cast<double>(in_bucket);
      return std::clamp(lo + (hi - lo) * frac, min_, max_);
    }
    cumulative += in_bucket;
  }
  return max_;
}

void StreamingHistogram::merge(const StreamingHistogram& other) {
  if (other.count_ == 0) return;
  for (int i = 0; i < kBuckets; ++i) {
    counts_[static_cast<std::size_t>(i)] += other.counts_[static_cast<std::size_t>(i)];
  }
  underflow_ += other.underflow_;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

}  // namespace quartz::telemetry
