// Measurement helpers shared by every workload: percentile summaries
// with the sample-count rule, and the open-loop request schedule.
//
// Percentile rule: a timing is reported as its median plus the highest
// percentile of the ladder 50/90/99/99.9/99.99/99.999 that still has at
// least kMinBeyond samples strictly beyond it, together with the sample
// count. Below that count a tail percentile is a single sample and says
// nothing about the tail.
//
// Open-loop rule: a request's latency runs from the time it was DUE,
// not from the time the generator got round to sending it. A generator
// (or system) stall therefore shows up in the latency of every request
// that fell due during the stall, instead of silently thinning the
// offered load (coordinated omission).

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Samples a tail percentile needs beyond it to be reported.
inline constexpr size_t kMinBeyond = 10;

/// Samples strictly beyond the nearest-rank q-quantile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// Nearest-rank q-quantile of an ascending sample (0 when empty).
double Percentile(const std::vector<double>& sorted, double q);

/// The percentile ladder, ascending.
inline constexpr double kLadder[] = {0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999};
inline constexpr size_t kLadderSize = sizeof(kLadder) / sizeof(kLadder[0]);

struct Summary {
  size_t n = 0;
  /// Value at each kLadder quantile (0 where unsupported).
  double ladder[kLadderSize] = {};
  double p50 = 0.0;
  /// Highest ladder quantile with >= kMinBeyond samples beyond it; 0
  /// when even the median has fewer (n < 20).
  double tail_q = 0.0;
  double tail = 0.0;
  /// The 99th percentile, and whether the sample supports it.
  double p99 = 0.0;
  bool p99_ok = false;
};

/// Sorts `samples` and summarizes them.
Summary Summarize(std::vector<double> samples);

/// Median of a sample (0 when empty).
double Median(std::vector<double> samples);

double ToMicros(Clock::duration d);
double ToMillis(Clock::duration d);

/// Due times of an open-loop request stream: Poisson arrivals
/// (exponential gaps from `seed`) or a fixed gap, at `rate_per_s`.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(Clock::time_point start, double rate_per_s, bool poisson,
                   uint64_t seed);

  /// Due time of the next request.
  Clock::time_point Next();

 private:
  Clock::time_point start_;
  double rate_per_s_;
  bool poisson_;
  qrank::Rng rng_;
  double offset_s_ = 0.0;
};

/// Blocks until `due`: sleeps while more than `spin_below` remains,
/// then spins. A zero `spin_below` never spins (for generators that
/// must leave every core to the system under test).
void WaitUntil(Clock::time_point due, Clock::duration spin_below);

struct OpenLoopSamples {
  std::vector<double> latency_us;  // completion - due
  std::vector<double> late_us;     // send - due: how late the generator ran
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Calls `op(index, due)` at each due time of `schedule` until the next
/// due time passes `end`. `op` returns false on failure; failed requests
/// count in `failed` and carry no latency sample.
template <typename Op>
void RunOpenLoop(OpenLoopSchedule* schedule, Clock::time_point end,
                 Clock::duration spin_below, Op&& op, OpenLoopSamples* out) {
  for (uint64_t i = 0;; ++i) {
    const Clock::time_point due = schedule->Next();
    if (due >= end) break;
    WaitUntil(due, spin_below);
    const Clock::time_point sent = Clock::now();
    ++out->attempted;
    const bool ok = op(i, due);
    const Clock::time_point done = Clock::now();
    out->late_us.push_back(ToMicros(sent - due));
    if (ok) {
      out->latency_us.push_back(ToMicros(done - due));
    } else {
      ++out->failed;
    }
  }
}

/// Quiet-host rule: a wall-clock figure is measured over many short
/// samples (20-ms slices, bursts, generations) and reported at the
/// kQuiet quantile of its good end: the 90th percentile of throughputs,
/// the 10th percentile of latencies. On a shared host other tenants
/// stall vCPUs for spells of tens of ms to seconds, which slow some
/// samples of a run and sometimes most of them; the quiet end moves
/// with the program's own speed, not with how much of the run such a
/// spell covered. Tails are printed beside it, not gated.
inline constexpr double kQuiet = 0.1;

/// The kQuiet-quantile of a higher-is-better sample (its 90th
/// percentile) and of a lower-is-better one (its 10th); 0 when empty.
double QuietHigh(std::vector<double> samples);
double QuietLow(std::vector<double> samples);

/// Closed-loop slice length. Short enough that on a host whose vCPUs
/// stall every few tens of ms many slices hold no stall (the sharded
/// query path of ~8k queries/s read 4.6k-8.1k at 100-ms slices on such
/// a host, while its per-slice median latency moved 10%), long enough
/// for ~150 sharded queries per slice.
inline constexpr Clock::duration kSlice = std::chrono::milliseconds(20);

/// Throughput over fixed slices of a closed-loop phase, and the slice
/// boundaries, so per-slice latencies can be grouped with them.
class SliceRates {
 public:
  explicit SliceRates(Clock::time_point start, Clock::duration slice = kSlice)
      : slice_start_(start), slice_(slice) {}

  /// Records that `ops` operations completed by `now`, closing the
  /// current slice once it is at least one slice long.
  void Observe(Clock::time_point now, uint64_t ops) {
    if (now - slice_start_ < slice_) return;
    rates_.push_back(static_cast<double>(ops - slice_ops_) /
                     std::chrono::duration<double>(now - slice_start_).count());
    ends_.push_back(now);
    slice_start_ = now;
    slice_ops_ = ops;
  }

  const std::vector<double>& rates() const { return rates_; }

  /// Median of `values[i]` over the samples whose completion time
  /// `at[i]` falls in each closed slice, for every slice that holds a
  /// sample. Samples after the last closed slice are left out.
  std::vector<double> Medians(const std::vector<Clock::time_point>& at,
                              const std::vector<double>& values) const;

 private:
  Clock::time_point slice_start_;
  Clock::duration slice_;
  uint64_t slice_ops_ = 0;
  std::vector<double> rates_;
  std::vector<Clock::time_point> ends_;
};

/// Closed/open window pairs of a run: one pair per two seconds.
int WindowCount(double seconds);

/// End-to-end figures of a query workload measured in alternating
/// closed- and open-loop windows. The gated throughput and latency
/// follow the quiet-host rule over the closed loop's kSlice slices;
/// per-window figures and open-loop percentiles are printed beside them.
struct WindowFigures {
  std::vector<double> ops_per_s;    // per window: ops / elapsed
  std::vector<double> slice_rates;  // every SliceRates slice of the run
  std::vector<double> slice_p50_us;  // per-slice median query wall time
  std::vector<double> cpu_us_per_op;
  std::vector<double> closed_p50_us;  // per-query wall time, closed loop
  std::vector<Summary> open;          // latency from due time, per window
  std::vector<Summary> late;          // generator lateness, per window
  uint64_t closed_ops = 0;

  /// `latency_us` holds the closed loop's (sampled) per-query times,
  /// `rates` and `slice_medians` its per-slice throughputs and median
  /// query times.
  void AddClosed(uint64_t ops, double seconds, double cpu_s,
                 const std::vector<double>& rates,
                 const std::vector<double>& slice_medians,
                 const std::vector<double>& latency_us);
  void AddOpen(const OpenLoopSamples& open);
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
