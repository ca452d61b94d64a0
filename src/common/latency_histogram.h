// Log-linear latency histogram.
//
// The ingest loop records, for every event, the time from its queue
// arrival (UpdateEvent::enqueue_time) to the moment the generation that
// reflects it is published into the SnapshotStore — i.e. the first
// instant a TopK query can see the update — and the serve benches
// record per-query latency. Latencies span five orders of magnitude
// (tens of nanoseconds for an in-process TopK, hundreds of milliseconds
// for an age-flushed batch on the 131k-page workload), so the
// histogram uses HDR-style log-linear buckets: one
// power-of-two range per "decade", 16 linear sub-buckets inside each,
// giving a worst-case quantile error of ~6% at O(1) memory and O(1)
// Add. Percentile() answers from the conservative (upper) edge of the
// selected bucket so the p99 SLO gate never under-reports; max is
// tracked exactly.
//
// Not thread-safe: the IngestService owns its instances behind its
// stats mutex, and each bench row records into its own.

#ifndef QRANK_COMMON_LATENCY_HISTOGRAM_H_
#define QRANK_COMMON_LATENCY_HISTOGRAM_H_

#include <cstdint>
#include <string>

namespace qrank {

class LatencyHistogram {
 public:
  void AddNanos(uint64_t nanos);

  uint64_t count() const { return count_; }
  double max_nanos() const { return max_nanos_; }
  double mean_nanos() const {
    return count_ > 0 ? sum_nanos_ / static_cast<double>(count_) : 0.0;
  }

  /// Value (ns) at quantile `q` in [0, 1]; 0 when empty. Bucket-
  /// resolution: the upper edge of the bucket holding the q-th sample,
  /// clamped to the exact max.
  double PercentileNanos(double q) const;

  /// "n=1234 p50=1.2ms p90=3.4ms p99=5.6ms max=7.8ms".
  std::string Summary() const;

 private:
  // 16 linear sub-buckets per power of two of nanoseconds. Values
  // < 2^kSubBits land in the first group verbatim.
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;       // 16
  static constexpr int kGroups = 64 - kSubBits;           // 60
  static constexpr int kNumBuckets = kGroups * kSubBuckets;

  static int BucketIndex(uint64_t nanos);
  /// Exclusive upper edge of bucket `index` in ns.
  static double BucketUpper(int index);

  uint64_t counts_[kNumBuckets] = {};
  uint64_t count_ = 0;
  double sum_nanos_ = 0.0;
  double max_nanos_ = 0.0;
};

}  // namespace qrank

#endif  // QRANK_COMMON_LATENCY_HISTOGRAM_H_
