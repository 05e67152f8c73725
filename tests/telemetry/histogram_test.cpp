#include "telemetry/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

namespace quartz::telemetry {
namespace {

TEST(StreamingHistogram, ExactMoments) {
  StreamingHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);

  h.add(3.0);
  h.add(1.0);
  h.add(8.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
}

TEST(StreamingHistogram, WeightedAdd) {
  StreamingHistogram h;
  h.add(2.0, 10);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.sum(), 20.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 2.0);
}

TEST(StreamingHistogram, ExtremesAreExact) {
  StreamingHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(static_cast<double>(i) * 0.37);
  EXPECT_DOUBLE_EQ(h.percentile(0), h.min());
  EXPECT_DOUBLE_EQ(h.percentile(100), h.max());
}

TEST(StreamingHistogram, QuantileErrorWithinOneSubBucket) {
  // Against the exact empirical quantile of a log-normal-ish stream:
  // the relative error must stay under the sub-bucket width (6.25%).
  std::mt19937_64 rng(42);
  std::lognormal_distribution<double> dist(2.0, 0.8);
  StreamingHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double v = dist(rng);
    samples.push_back(v);
    h.add(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
    const std::size_t rank = static_cast<std::size_t>(
        p / 100.0 * static_cast<double>(samples.size() - 1));
    const double exact = samples[rank];
    const double approx = h.percentile(p);
    EXPECT_NEAR(approx, exact, exact * 0.0625 + 1e-9) << "p" << p;
  }
}

TEST(StreamingHistogram, NonPositiveValuesLandInUnderflow) {
  StreamingHistogram h;
  h.add(0.0);
  h.add(-5.0);
  h.add(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  // The underflow bucket sorts before every finite bucket.
  EXPECT_DOUBLE_EQ(h.percentile(0), -5.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 10.0);
}

TEST(StreamingHistogram, MergeMatchesCombinedStream) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(0.1, 500.0);
  StreamingHistogram a, b, all;
  for (int i = 0; i < 5000; ++i) {
    const double v = dist(rng);
    (i % 2 == 0 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  // Summation order differs between the split and combined streams, so
  // allow for floating-point non-associativity.
  EXPECT_NEAR(a.sum(), all.sum(), all.sum() * 1e-12);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
  for (double p : {25.0, 50.0, 75.0, 99.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), all.percentile(p)) << "p" << p;
  }
}

TEST(StreamingHistogram, BucketBoundsBracketTheirValues) {
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> exp_dist(-30.0, 30.0);
  for (int i = 0; i < 1000; ++i) {
    const double v = std::exp2(exp_dist(rng));
    const int idx = StreamingHistogram::bucket_index(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, StreamingHistogram::kBuckets);
    EXPECT_GE(v, StreamingHistogram::bucket_lower(idx));
    EXPECT_LT(v, StreamingHistogram::bucket_upper(idx) * (1 + 1e-12));
  }
}

TEST(StreamingHistogram, BucketIndexIsMonotone) {
  int prev = -1;
  for (double v = 0.5; v < 1e6; v *= 1.031) {
    const int idx = StreamingHistogram::bucket_index(v);
    EXPECT_GE(idx, prev);
    prev = idx;
  }
}

}  // namespace
}  // namespace quartz::telemetry
