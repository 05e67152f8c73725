#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace quartz {
namespace {

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyThrowsOnMean) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_THROW(s.mean(), std::logic_error);
  EXPECT_THROW(s.min(), std::logic_error);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.confidence_half_width(), 0.0);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
  Rng rng(5);
  RunningStats all, a, b;
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.next_double() * 10.0;
    all.add(x);
    (i % 2 == 0 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean);
  RunningStats b;
  b.merge(a);
  EXPECT_DOUBLE_EQ(b.mean(), mean);
}

TEST(RunningStats, ManyChunkMergeMatchesSinglePass) {
  // Merge in uneven chunks (including empties) and compare against the
  // single-pass Welford baseline over the identical stream.
  Rng rng(13);
  RunningStats single;
  RunningStats merged;
  for (int chunk = 0; chunk < 20; ++chunk) {
    RunningStats part;
    const int n = chunk % 4 == 0 ? 0 : chunk * 37;  // some chunks empty
    for (int i = 0; i < n; ++i) {
      const double x = rng.next_exponential(0.5) - 1.0;
      single.add(x);
      part.add(x);
    }
    merged.merge(part);
  }
  ASSERT_EQ(merged.count(), single.count());
  EXPECT_NEAR(merged.mean(), single.mean(), 1e-9);
  EXPECT_NEAR(merged.variance(), single.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(merged.min(), single.min());
  EXPECT_DOUBLE_EQ(merged.max(), single.max());
}

TEST(RunningStats, ConfidenceShrinksWithSamples) {
  Rng rng(7);
  RunningStats small, large;
  for (int i = 0; i < 100; ++i) small.add(rng.next_double());
  for (int i = 0; i < 10'000; ++i) large.add(rng.next_double());
  EXPECT_GT(small.confidence_half_width(0.95), large.confidence_half_width(0.95));
}

TEST(SampleSet, PercentilesExactOnKnownData) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.median(), 50.5);
  EXPECT_NEAR(s.percentile(99.0), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 100.0);
}

TEST(SampleSet, SingleSampleIsEveryPercentile) {
  SampleSet s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(99.9), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 42.0);
}

TEST(SampleSet, PercentileEndpointsAreMinAndMax) {
  Rng rng(3);
  SampleSet s;
  for (int i = 0; i < 257; ++i) s.add(rng.next_double() * 100.0 - 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), s.min());
  EXPECT_DOUBLE_EQ(s.percentile(100.0), s.max());
}

TEST(SampleSet, PercentileRejectsOutOfRange) {
  SampleSet s;
  s.add(1.0);
  EXPECT_THROW(s.percentile(-1.0), std::invalid_argument);
  EXPECT_THROW(s.percentile(101.0), std::invalid_argument);
}

TEST(SampleSet, MeanAndStddevMatchRunningStats) {
  Rng rng(11);
  SampleSet set;
  RunningStats running;
  for (int i = 0; i < 5'000; ++i) {
    const double x = rng.next_exponential(2.0);
    set.add(x);
    running.add(x);
  }
  EXPECT_NEAR(set.mean(), running.mean(), 1e-9);
  EXPECT_NEAR(set.stddev(), running.stddev(), 1e-6);
}

TEST(SampleSet, SortCacheInvalidatedByAdd) {
  SampleSet s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 9.0);  // caches the partitioned copy
  s.add(11.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 11.0);  // must not reuse the stale copy
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  s.clear();
  EXPECT_TRUE(s.empty());
  s.add(4.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 4.0);
}

// The interpolated percentile of a full sort: what percentile() must
// reproduce bit for bit without sorting.
double sorted_percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v.front();
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

TEST(SampleSet, SelectionMatchesSortedReferenceWithDuplicates) {
  Rng rng(11);
  for (const std::size_t n : {1u, 2u, 3u, 10u, 1000u}) {
    SampleSet s;
    std::vector<double> reference;
    // Few distinct values, so most samples tie with others.
    auto draw = [&] {
      const double x = 0.25 * static_cast<double>(rng.next_below(n / 4 + 2));
      s.add(x);
      reference.push_back(x);
    };
    for (std::size_t i = 0; i < n; ++i) draw();
    for (int round = 0; round < 3; ++round) {
      for (const double p : {0.0, 0.1, 50.0, 99.0, 99.9, 100.0}) {
        EXPECT_EQ(s.percentile(p), sorted_percentile(reference, p))
            << "n " << reference.size() << " p " << p;
        // Queries in a row reuse the partitioned copy; an add between
        // them must invalidate it.
        if (p == 50.0) draw();
      }
      EXPECT_EQ(s.median(), sorted_percentile(reference, 50.0));
      EXPECT_EQ(s.min(), *std::min_element(reference.begin(), reference.end()));
      EXPECT_EQ(s.max(), *std::max_element(reference.begin(), reference.end()));
      draw();
    }
  }
}

TEST(Histogram, BinsAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(3.0);   // bin 1
  h.add(9.99);  // bin 4
  h.add(-5.0);  // clamps to bin 0
  h.add(42.0);  // clamps to bin 4
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bin(0), 2u);
  EXPECT_EQ(h.bin(1), 1u);
  EXPECT_EQ(h.bin(2), 0u);
  EXPECT_EQ(h.bin(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lower(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_upper(1), 4.0);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Histogram, AsciiRendersEveryBin) {
  Histogram h(0.0, 4.0, 4);
  h.add(1.0);
  h.add(1.5);
  h.add(3.0);
  const std::string art = h.ascii(10);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 4);
  EXPECT_NE(art.find('#'), std::string::npos);
}

}  // namespace
}  // namespace quartz
