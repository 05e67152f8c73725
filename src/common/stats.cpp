#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace quartz {
namespace {

double z_for_level(double level) {
  // Two-sided normal quantiles for the levels the library supports.
  if (level >= 0.989) return 2.5758;
  if (level >= 0.949) return 1.9600;
  return 1.6449;  // 90%
}

}  // namespace

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  mean_ += delta * n2 / (n1 + n2);
  m2_ += other.m2_ + delta * delta * n1 * n2 / (n1 + n2);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double RunningStats::mean() const {
  QUARTZ_CHECK(count_ > 0, "mean of empty RunningStats");
  return mean_;
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  QUARTZ_CHECK(count_ > 0, "min of empty RunningStats");
  return min_;
}

double RunningStats::max() const {
  QUARTZ_CHECK(count_ > 0, "max of empty RunningStats");
  return max_;
}

double RunningStats::confidence_half_width(double level) const {
  if (count_ < 2) return 0.0;
  return z_for_level(level) * stddev() / std::sqrt(static_cast<double>(count_));
}

void SampleSet::add(double x) {
  samples_.push_back(x);
  partitioned_valid_ = false;
}

double SampleSet::mean() const {
  QUARTZ_CHECK(!samples_.empty(), "mean of empty SampleSet");
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::stddev() const {
  if (samples_.size() < 2) return 0.0;
  const double m = mean();
  double m2 = 0.0;
  for (double s : samples_) m2 += (s - m) * (s - m);
  return std::sqrt(m2 / static_cast<double>(samples_.size() - 1));
}

double SampleSet::min() const {
  QUARTZ_CHECK(!samples_.empty(), "min of empty SampleSet");
  return *std::min_element(samples_.begin(), samples_.end());
}

double SampleSet::max() const {
  QUARTZ_CHECK(!samples_.empty(), "max of empty SampleSet");
  return *std::max_element(samples_.begin(), samples_.end());
}

double SampleSet::percentile(double p) const {
  QUARTZ_REQUIRE(p >= 0.0 && p <= 100.0, "percentile out of range");
  QUARTZ_CHECK(!samples_.empty(), "percentile of empty SampleSet");
  if (samples_.size() == 1) return samples_.front();
  if (!partitioned_valid_) {
    partitioned_.assign(samples_.begin(), samples_.end());
    partitioned_valid_ = true;
  }
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  // Order statistic lo lands at `nth`; everything after it is no
  // smaller, so statistic lo+1 is the least of that tail.
  const auto nth = partitioned_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(partitioned_.begin(), nth, partitioned_.end());
  const double lo_value = *nth;
  const double hi_value =
      lo + 1 < partitioned_.size() ? *std::min_element(nth + 1, partitioned_.end()) : lo_value;
  return lo_value * (1.0 - frac) + hi_value * frac;
}

double SampleSet::confidence_half_width(double level) const {
  if (samples_.size() < 2) return 0.0;
  return z_for_level(level) * stddev() / std::sqrt(static_cast<double>(samples_.size()));
}

}  // namespace quartz
