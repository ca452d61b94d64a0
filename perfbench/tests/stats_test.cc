// Self-test of the benchmark's measurement helpers (src/stats.h):
// the percentile sample-count rule on small samples, open-loop timing
// from the due time, so a stall shows up in later requests, and the
// quiet-host quantiles over per-slice figures.
//
//   cmake --build .bench_build --target perfbench_stats_test
//   ctest --test-dir .bench_build

#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

void TestSmallSamples() {
  using perfbench::Summarize;
  const perfbench::Summary empty = Summarize({});
  EXPECT(empty.n == 0 && empty.p50 == 0.0 && empty.tail_q == 0.0 &&
         !empty.p99_ok);

  // 5 samples: a median, but no percentile has 10 samples beyond it.
  const perfbench::Summary five = Summarize(Iota(5));
  EXPECT(five.n == 5);
  EXPECT(five.p50 == 3.0);
  EXPECT(five.tail_q == 0.0);
  EXPECT(!five.p99_ok);

  // 20 samples: exactly 10 beyond the median, so p50 is the tail.
  const perfbench::Summary twenty = Summarize(Iota(20));
  EXPECT(twenty.p50 == 10.0);
  EXPECT(twenty.tail_q == 0.5);

  // 999 samples leave 9 beyond p99: p90 is the highest supported.
  const perfbench::Summary below = Summarize(Iota(999));
  EXPECT(below.tail_q == 0.9);
  EXPECT(!below.p99_ok);

  // 1000 samples leave exactly 10 beyond p99.
  const perfbench::Summary at = Summarize(Iota(1000));
  EXPECT(at.tail_q == 0.99);
  EXPECT(at.p99_ok);
  EXPECT(at.p99 == 990.0);
  EXPECT(at.p50 == 500.0);
  EXPECT(perfbench::SamplesBeyond(1000, 0.99) == 10);
}

// A 20 ms stall of request 10 in a 2 kHz fixed-rate open loop: the
// requests due during the stall are sent late, and their latency,
// timed from the due time, must carry that wait even though each
// one's own service time is ~0.
void TestStallShowsInLaterRequests() {
  using Clock = perfbench::Clock;
  const Clock::time_point start = Clock::now();
  perfbench::OpenLoopSchedule schedule(start, 2000.0, /*poisson=*/false, 1);
  perfbench::OpenLoopSamples out;
  perfbench::RunOpenLoop(
      &schedule, start + std::chrono::milliseconds(100),
      std::chrono::microseconds(100),
      [](uint64_t i, Clock::time_point) {
        if (i == 10) std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return true;
      },
      &out);
  EXPECT(out.attempted >= 150 && out.failed == 0);
  EXPECT(out.latency_us.size() == out.attempted);
  // Request 10 itself took >= 20 ms.
  EXPECT(out.latency_us[10] >= 20000.0);
  // Request 11 was due 0.5 ms after request 10 and waited the rest of
  // the stall: >= 19 ms of lateness and latency.
  EXPECT(out.late_us[11] >= 19000.0);
  EXPECT(out.latency_us[11] >= 19000.0);
  // The backlog drains at once (the op is free), so the 40 requests due
  // during the stall all show latency far above their service time.
  int delayed = 0;
  for (size_t i = 11; i < 51; ++i) delayed += out.latency_us[i] > 500.0;
  EXPECT(delayed >= 35);
  // Without the stall, latency stays near zero well after it.
  EXPECT(out.latency_us.back() < 5000.0);
}

void TestPoissonSchedule() {
  using Clock = perfbench::Clock;
  const Clock::time_point start{};
  perfbench::OpenLoopSchedule a(start, 1000.0, /*poisson=*/true, 7);
  perfbench::OpenLoopSchedule b(start, 1000.0, /*poisson=*/true, 7);
  Clock::time_point last;
  for (int i = 0; i < 100000; ++i) {
    last = a.Next();
    EXPECT(last == b.Next());
    if (g_failures > 0) return;
  }
  // 100k arrivals at 1 kHz take ~100 s; the mean gap is within 2%.
  const double seconds = std::chrono::duration<double>(last - start).count();
  EXPECT(std::fabs(seconds - 100.0) < 2.0);
}

// The quiet-host quantiles, and per-slice medians grouped by the
// slices' boundaries.
void TestQuietSlices() {
  using Clock = perfbench::Clock;
  EXPECT(perfbench::QuietHigh({}) == 0.0 && perfbench::QuietLow({}) == 0.0);
  // 20 samples 1..20: the 90th percentile is the 18th, the 10th the 2nd.
  EXPECT(perfbench::QuietHigh(Iota(20)) == 18.0);
  EXPECT(perfbench::QuietLow(Iota(20)) == 2.0);

  // Four 10-ms slices closed at 10, 20, 30 and 40 ms; ops complete every
  // ms with latency equal to the slice index, except a slow spell that
  // makes the second slice's latency 100.
  const Clock::time_point start{};
  perfbench::SliceRates slices(start, std::chrono::milliseconds(10));
  std::vector<Clock::time_point> at;
  std::vector<double> latency;
  for (int ms = 1; ms <= 45; ++ms) {
    const Clock::time_point now = start + std::chrono::milliseconds(ms);
    at.push_back(now);
    const int slice = (ms - 1) / 10;
    latency.push_back(slice == 1 ? 100.0 : static_cast<double>(slice));
    slices.Observe(now, static_cast<uint64_t>(ms));
  }
  EXPECT(slices.rates().size() == 4);
  EXPECT(std::fabs(slices.rates()[0] - 1000.0) < 1e-6);
  const std::vector<double> medians = slices.Medians(at, latency);
  // The five samples after the last closed slice are left out.
  EXPECT(medians.size() == 4);
  EXPECT(medians.size() == 4 && medians[0] == 0.0 && medians[1] == 100.0 &&
         medians[2] == 2.0 && medians[3] == 3.0);
  // The spell moves the median slice but not the quiet end.
  EXPECT(perfbench::QuietLow(medians) == 0.0);
}

}  // namespace

int main() {
  TestSmallSamples();
  TestStallShowsInLaterRequests();
  TestPoissonSchedule();
  TestQuietSlices();
  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_stats_test: all checks passed\n");
  return 0;
}
