#include "stats.h"

#include <algorithm>
#include <cmath>
#include <thread>

namespace perfbench {

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::clamp<size_t>(rank, 1, n);
}

double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

Summary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  Summary s;
  s.n = samples.size();
  s.p50 = Percentile(samples, 0.5);
  for (size_t i = 0; i < kLadderSize; ++i) {
    if (SamplesBeyond(s.n, kLadder[i]) < kMinBeyond) break;
    s.tail_q = kLadder[i];
    s.tail = s.ladder[i] = Percentile(samples, kLadder[i]);
  }
  s.p99 = Percentile(samples, 0.99);
  s.p99_ok = SamplesBeyond(s.n, 0.99) >= kMinBeyond;
  return s;
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return Percentile(samples, 0.5);
}

double ToMicros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double ToMillis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

OpenLoopSchedule::OpenLoopSchedule(Clock::time_point start, double rate_per_s,
                                   bool poisson, uint64_t seed)
    : start_(start), rate_per_s_(rate_per_s), poisson_(poisson), rng_(seed) {}

Clock::time_point OpenLoopSchedule::Next() {
  offset_s_ += poisson_ ? rng_.Exponential(rate_per_s_) : 1.0 / rate_per_s_;
  return start_ + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offset_s_));
}

void WaitUntil(Clock::time_point due, Clock::duration spin_below) {
  Clock::time_point now = Clock::now();
  if (due - now > spin_below) {
    std::this_thread::sleep_until(due - spin_below);
    now = Clock::now();
  }
  while (now < due) now = Clock::now();
}

int WindowCount(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / 2)));
}

double QuietHigh(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return Percentile(samples, 1.0 - kQuiet);
}

double QuietLow(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return Percentile(samples, kQuiet);
}

std::vector<double> SliceRates::Medians(
    const std::vector<Clock::time_point>& at,
    const std::vector<double>& values) const {
  std::vector<std::vector<double>> per_slice(ends_.size());
  for (size_t i = 0; i < at.size() && i < values.size(); ++i) {
    // Slice k holds the samples that completed in (ends_[k-1], ends_[k]].
    const auto it = std::lower_bound(ends_.begin(), ends_.end(), at[i]);
    if (it != ends_.end()) per_slice[it - ends_.begin()].push_back(values[i]);
  }
  std::vector<double> medians;
  for (std::vector<double>& slice : per_slice) {
    if (!slice.empty()) medians.push_back(Median(std::move(slice)));
  }
  return medians;
}

void WindowFigures::AddClosed(uint64_t ops, double seconds, double cpu_s,
                              const std::vector<double>& rates,
                              const std::vector<double>& slice_medians,
                              const std::vector<double>& latency_us) {
  closed_ops += ops;
  slice_rates.insert(slice_rates.end(), rates.begin(), rates.end());
  slice_p50_us.insert(slice_p50_us.end(), slice_medians.begin(),
                      slice_medians.end());
  closed_p50_us.push_back(Median(latency_us));
  ops_per_s.push_back(static_cast<double>(ops) / std::max(seconds, 1e-9));
  cpu_us_per_op.push_back(cpu_s * 1e6 /
                          static_cast<double>(std::max<uint64_t>(ops, 1)));
}

void WindowFigures::AddOpen(const OpenLoopSamples& samples) {
  open.push_back(Summarize(samples.latency_us));
  late.push_back(Summarize(samples.late_us));
}

}  // namespace perfbench
