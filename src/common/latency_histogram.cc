#include "common/latency_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

namespace qrank {

int LatencyHistogram::BucketIndex(uint64_t nanos) {
  if (nanos < kSubBuckets) return static_cast<int>(nanos);
  // Group g holds [2^(g+kSubBits-1), 2^(g+kSubBits)); the top kSubBits
  // bits below the leading bit pick the linear sub-bucket.
  const int msb = 63 - std::countl_zero(nanos);  // nanos >= 16 here
  const int group = msb - kSubBits + 1;
  const int sub =
      static_cast<int>((nanos >> (msb - kSubBits)) & (kSubBuckets - 1));
  const int index = group * kSubBuckets + sub;
  return std::min(index, kNumBuckets - 1);
}

double LatencyHistogram::BucketUpper(int index) {
  const int group = index / kSubBuckets;
  const int sub = index % kSubBuckets;
  if (group == 0) return static_cast<double>(sub + 1);
  const double base = std::ldexp(1.0, group + kSubBits - 1);  // 2^(g+3)
  const double width = base / kSubBuckets;
  return base + width * (sub + 1);
}

void LatencyHistogram::AddNanos(uint64_t nanos) {
  ++counts_[BucketIndex(nanos)];
  ++count_;
  sum_nanos_ += static_cast<double>(nanos);
  max_nanos_ = std::max(max_nanos_, static_cast<double>(nanos));
}

double LatencyHistogram::PercentileNanos(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th order statistic (1-based, nearest-rank method:
  // ceil(q * N)). The slack keeps a product that rounds a hair above an
  // integer (0.07 * 100) from skipping to the next rank.
  const uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(
          std::ceil(q * static_cast<double>(count_) - 1e-9)),
      1, count_);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      return std::min(BucketUpper(i), max_nanos_);
    }
  }
  return max_nanos_;
}

std::string LatencyHistogram::Summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%llu p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms",
                static_cast<unsigned long long>(count_),
                PercentileNanos(0.50) * 1e-6, PercentileNanos(0.90) * 1e-6,
                PercentileNanos(0.99) * 1e-6, max_nanos_ * 1e-6);
  return std::string(buf);
}

}  // namespace qrank
