#include "common/latency_histogram.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace qrank {
namespace {

// Adds `value` 99 times plus one far larger sample, so the p50 answer
// is the upper edge of `value`'s bucket rather than the clamp to max.
double UpperEdgeOf(uint64_t value) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.AddNanos(value);
  h.AddNanos(1'000'000'000);
  return h.PercentileNanos(0.50);
}

TEST(LatencyHistogramTest, EmptyHistogramReportsZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.PercentileNanos(0.0), 0.0);
  EXPECT_EQ(h.PercentileNanos(0.5), 0.0);
  EXPECT_EQ(h.PercentileNanos(1.0), 0.0);
  EXPECT_EQ(h.mean_nanos(), 0.0);
  EXPECT_EQ(h.max_nanos(), 0.0);
}

TEST(LatencyHistogramTest, P99IsTheNearestRankSample) {
  // 1070 samples: the nearest-rank p99 is sample ceil(0.99 * 1070) =
  // 1060, the first of the eleven 1 ms samples. Rounding q * N instead
  // would pick sample 1059, a 1 us one, and report its bucket edge.
  LatencyHistogram h;
  for (int i = 0; i < 1059; ++i) h.AddNanos(1'000);
  for (int i = 0; i < 11; ++i) h.AddNanos(1'000'000);
  ASSERT_EQ(h.count(), 1070u);
  EXPECT_EQ(h.PercentileNanos(0.99), 1'000'000.0);
  EXPECT_EQ(h.PercentileNanos(0.50), 1024.0);  // 1000 ns bucket edge
  EXPECT_EQ(h.PercentileNanos(0.98), 1024.0);  // rank 1049: still 1 us
}

TEST(LatencyHistogramTest, ExactQuantileRankIsNotRoundedUp) {
  // q * N == 7 lands on sample 7 even though 0.07 * 100 evaluates to a
  // hair above 7 in binary floating point.
  LatencyHistogram h;
  for (int i = 0; i < 7; ++i) h.AddNanos(10);
  for (int i = 0; i < 93; ++i) h.AddNanos(5'000);
  EXPECT_EQ(h.PercentileNanos(0.07), 11.0);  // the 10 ns bucket edge
  EXPECT_EQ(h.PercentileNanos(0.08), 5'000.0);
}

TEST(LatencyHistogramTest, BucketEdges) {
  // Below 16 ns every value has its own bucket; from there each power
  // of two splits into 16 linear sub-buckets.
  EXPECT_EQ(UpperEdgeOf(0), 1.0);
  EXPECT_EQ(UpperEdgeOf(15), 16.0);
  EXPECT_EQ(UpperEdgeOf(16), 17.0);    // [16, 32): width 1
  EXPECT_EQ(UpperEdgeOf(31), 32.0);
  EXPECT_EQ(UpperEdgeOf(32), 34.0);    // [32, 64): width 2
  EXPECT_EQ(UpperEdgeOf(1023), 1024.0);
  EXPECT_EQ(UpperEdgeOf(1024), 1088.0);  // [1024, 2048): width 64
}

TEST(LatencyHistogramTest, ClampsToTheExactMax) {
  LatencyHistogram h;
  for (int i = 0; i < 10; ++i) h.AddNanos(1'000);
  // Every sample sits in the bucket ending at 1024; the answer never
  // exceeds the largest sample actually seen.
  EXPECT_EQ(h.PercentileNanos(0.5), 1'000.0);
  EXPECT_EQ(h.PercentileNanos(0.99), 1'000.0);
  EXPECT_EQ(h.max_nanos(), 1'000.0);
  // Out-of-range quantiles clamp to [0, 1].
  EXPECT_EQ(h.PercentileNanos(1.5), 1'000.0);
  EXPECT_EQ(h.PercentileNanos(-1.0), 1'000.0);
  EXPECT_EQ(h.mean_nanos(), 1'000.0);
}

TEST(LatencyHistogramTest, ExtremeQuantilesPickFirstAndLastSamples) {
  LatencyHistogram h;
  h.AddNanos(3);
  for (int i = 0; i < 8; ++i) h.AddNanos(100);
  h.AddNanos(50'000);
  EXPECT_EQ(h.PercentileNanos(0.0), 4.0);  // rank 1: the 3 ns bucket
  EXPECT_EQ(h.PercentileNanos(1.0), 50'000.0);
}

}  // namespace
}  // namespace qrank
