// query-local: QueryEngine::TopK over a SnapshotStore holding a 1M-page
// bundle, with the query mix of query-sharded, while one publisher
// thread republishes a fresh generation every kPublishEvery.
//
// Why: serve does all the work and dist none. The bundle's working set
// (~36 MiB of score, order and posting sections) is far larger than a
// core's L2, while each 131k-page shard of query-sharded fits in it, so
// this workload shows the cache effects that one hides. Reads run beside
// writes through the store's RCU pin, swap and reclaim.
//
// Phases (untraced run): one-second windows alternate between a closed
// loop of kReaders reader threads, each with its own TopKScratch
// (ops_per_s, latency_us, cpu_us_per_op), and a single-thread open
// loop at a fixed Poisson rate of about half one reader's capacity
// (latency percentiles from due time; see WindowFigures). The publisher
// churns throughout. A traced run alternates untraced and traced
// closed-loop windows, then runs the traced open loop.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "inputs.h"
#include "serve/query_engine.h"
#include "serve/score_bundle.h"
#include "serve/snapshot_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using qrank::LoadedBundle;
using qrank::TopKEntry;

constexpr qrank::NodeId kPages = 1'000'000;
constexpr qrank::SiteId kSitesLocal = kPages / kPagesPerSite;
constexpr int kReaders = 3;
constexpr auto kPublishEvery = std::chrono::milliseconds(200);
/// Open-loop rate: about half of one reader's closed-loop capacity
/// measured on a 4-core Xeon host. Fixed, so two commits are offered
/// the same load.
constexpr double kOpenRatePerS = 600000.0;
constexpr size_t kMixSize = 1 << 16;
/// Sampling stride and cap of the answers checked against the full-scan
/// reference (each check scans all 1M pages). The stride is one more
/// than the mix size, so consecutive samples walk through the mix.
constexpr uint64_t kSampleStride = kMixSize + 1;
constexpr size_t kMaxSamplesPerThread = 8;
/// Query-index offset between phases, so each phase samples other
/// queries of the mix.
constexpr uint64_t kWindowStride = 1'000'003;
/// Untraced readers time every kTimeEvery-th query only: two clock
/// reads per query would cost a sizeable share of a ~0.3 us query.
constexpr uint64_t kTimeEvery = 16;
/// Above one reader's query rate on the hosts measured (~2M/s).
constexpr double kMaxReaderQps = 4e6;

/// The two generations the publisher alternates between: generation g
/// of the store serves image (g - 1) % 2. Same PageRank, different Q̂
/// draws, as consecutive estimator runs would give.
struct Inputs {
  std::vector<double> pagerank;
  std::vector<qrank::SiteId> site_ids;
  std::vector<double> quality[2];
  std::vector<uint8_t> image[2];
};

qrank::Status SetUp(uint64_t seed, Inputs* in, qrank::SnapshotStore* store,
                    SpanLog* spans) {
  in->pagerank = PowerLawPageRank(kPages, seed);
  for (int g = 0; g < 2; ++g) {
    qrank::ScoreBundleSource src =
        EstimatorShapedSource(in->pagerank, kPagesPerSite, seed + 1 + g);
    in->quality[g] = src.quality;
    if (g == 0) in->site_ids = src.site_ids;
    QRANK_ASSIGN_OR_RETURN(qrank::ScoreBundleWriter writer,
                           qrank::ScoreBundleWriter::Create(std::move(src)));
    in->image[g] = writer.Serialize();
  }
  const Clock::time_point t0 = Clock::now();
  QRANK_ASSIGN_OR_RETURN(LoadedBundle bundle,
                         LoadedBundle::FromBuffer(in->image[0]));
  const Clock::time_point t1 = Clock::now();
  QRANK_RETURN_NOT_OK(
      store->PublishOrdered(
               std::make_shared<const LoadedBundle>(std::move(bundle)), 1)
          .status());
  spans->Add("serve.bundle_load", "setup", 0, t0, t1);
  spans->Add("serve.publish_ordered", "setup", 0, t1, Clock::now());
  return qrank::Status::OK();
}

/// Republishes the other image every kPublishEvery until stopped.
class Publisher {
 public:
  Publisher(const Inputs& in, qrank::SnapshotStore* store)
      : in_(in), store_(store), thread_([this] { Loop(); }) {}
  ~Publisher() { Stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after Stop().
  const SpanLog& spans() const { return spans_; }
  const qrank::Status& status() const { return status_; }

 private:
  void Loop() {
    Clock::time_point next = Clock::now() + kPublishEvery;
    for (uint64_t i = 0; !stop_.load() && !Interrupted(); ++i) {
      std::this_thread::sleep_until(next);
      next += kPublishEvery;
      const int g = static_cast<int>(store_->generation() % 2);
      std::vector<uint8_t> image = in_.image[g];
      const Clock::time_point t0 = Clock::now();
      qrank::Result<LoadedBundle> bundle =
          LoadedBundle::FromBuffer(std::move(image));
      const Clock::time_point t1 = Clock::now();
      if (!bundle.ok()) {
        status_ = bundle.status();
        return;
      }
      store_->Publish(
          std::make_shared<const LoadedBundle>(std::move(bundle).value()));
      spans_.Add("serve.bundle_load", "publish", i, t0, t1);
      spans_.Add("serve.publish", "publish", i, t1, Clock::now());
    }
  }

  const Inputs& in_;
  qrank::SnapshotStore* const store_;
  std::atomic<bool> stop_{false};
  SpanLog spans_{1 << 12};
  qrank::Status status_;
  std::thread thread_;  // last: starts after the members it uses
};

struct Sample {
  size_t query;
  uint64_t generation;
  std::vector<TopKEntry> entries;
};

/// One reader's view of a phase.
struct ReaderResult {
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<double> latency_us;
  std::vector<Clock::time_point> latency_at;  // closed loop: completion
  std::vector<Sample> samples;
  SpanLog spans{0};
};

constexpr const char* kClassSpan[] = {"serve.topk_global", "serve.topk_blend",
                                      "serve.topk_site", "serve.topk_explore"};

/// Runs query `i` of the mix; samples it when no publish raced it, so
/// the generation (and hence the reference image) is known.
bool Query(const qrank::QueryEngine& engine, const qrank::SnapshotStore& store,
           const QueryMix& mix, uint64_t i, qrank::TopKScratch* scratch,
           ReaderResult* r, bool trace) {
  const size_t qi = i % mix.queries.size();
  const uint64_t g1 = store.generation();
  const Clock::time_point t0 = Clock::now();
  const bool ok = engine.TopK(mix.queries[qi], scratch).ok();
  if (trace) {
    r->spans.Add(kClassSpan[static_cast<int>(mix.classes[qi])], "query", i, t0,
                 Clock::now());
  }
  if (ok && i % kSampleStride == 0 && r->samples.size() < kMaxSamplesPerThread &&
      store.generation() == g1) {
    r->samples.push_back({qi, g1,
                          std::vector<TopKEntry>(scratch->results().begin(),
                                                 scratch->results().end())});
  }
  return ok;
}

struct ClosedLoop {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double seconds = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latency_us;  // every kTimeEvery-th query
  std::vector<double> slice_rates;
  std::vector<double> slice_p50_us;
};

ClosedLoop RunClosed(const qrank::SnapshotStore& store, const QueryMix& mix,
                     double seconds, uint64_t first_index, bool trace,
                     std::vector<ReaderResult>* results) {
  const qrank::QueryEngine engine(&store);
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<ReaderResult> per(kReaders);
  // Live per-reader op counts for the slice rates, one cache line each
  // so the readers do not contend.
  struct alignas(64) LiveCount {
    std::atomic<uint64_t> ops{0};
  };
  std::vector<LiveCount> live(kReaders);
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t) {
    ReaderResult& r = per[t];
    if (trace) r.spans = SpanLog(1 << 15);
    // Reserved so the samples grow RSS in proportion to the queries
    // timed, without a reallocation's doubling step in peak_rss_mb.
    const size_t capacity =
        static_cast<size_t>(seconds * kMaxReaderQps / kTimeEvery);
    r.latency_us.reserve(capacity);
    r.latency_at.reserve(capacity);
    threads.emplace_back([&, t] {
      qrank::TopKScratch scratch;
      while (!go.load()) std::this_thread::yield();
      // Readers start at different points of the mix.
      for (uint64_t i = first_index + static_cast<uint64_t>(t) * 7919;
           !stop.load(std::memory_order_relaxed); ++i) {
        ++r.ops;
        if (r.ops % 64 == 0) live[t].ops.store(r.ops, std::memory_order_relaxed);
        if (i % kTimeEvery != 0) {
          if (!Query(engine, store, mix, i, &scratch, &r, trace)) ++r.failed;
          continue;
        }
        const Clock::time_point t0 = Clock::now();
        if (!Query(engine, store, mix, i, &scratch, &r, trace)) ++r.failed;
        const Clock::time_point done = Clock::now();
        r.latency_us.push_back(ToMicros(done - t0));
        r.latency_at.push_back(done);
      }
    });
  }
  ClosedLoop c;
  const double cpu0 = SelfCpuSeconds();
  const Clock::time_point start = Clock::now();
  go.store(true);
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  SliceRates slices(start);
  for (Clock::time_point now = start; now < end && !Interrupted();
       now = Clock::now()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    uint64_t ops = 0;
    for (const LiveCount& l : live) ops += l.ops.load(std::memory_order_relaxed);
    slices.Observe(Clock::now(), ops);
  }
  c.slice_rates = slices.rates();
  stop.store(true);
  for (std::thread& t : threads) t.join();
  c.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  c.cpu_s = SelfCpuSeconds() - cpu0;
  size_t timed = 0;
  for (const ReaderResult& r : per) timed += r.latency_us.size();
  c.latency_us.reserve(timed);
  std::vector<Clock::time_point> latency_at;
  latency_at.reserve(timed);
  for (ReaderResult& r : per) {
    c.ops += r.ops;
    c.failed += r.failed;
    c.latency_us.insert(c.latency_us.end(), r.latency_us.begin(),
                        r.latency_us.end());
    latency_at.insert(latency_at.end(), r.latency_at.begin(),
                      r.latency_at.end());
    // Only the answer samples and spans outlive the window.
    r.latency_us = {};
    r.latency_at = {};
    results->push_back(std::move(r));
  }
  c.slice_p50_us = slices.Medians(latency_at, c.latency_us);
  return c;
}

OpenLoopSamples RunOpen(const qrank::SnapshotStore& store, const QueryMix& mix,
                        double seconds, uint64_t first_index, uint64_t seed,
                        bool trace,
                        std::vector<ReaderResult>* results) {
  const qrank::QueryEngine engine(&store);
  qrank::TopKScratch scratch;
  ReaderResult r;
  if (trace) r.spans = SpanLog(1 << 17);
  OpenLoopSamples out;
  const Clock::time_point start = Clock::now();
  OpenLoopSchedule schedule(start, kOpenRatePerS, /*poisson=*/true, seed);
  RunOpenLoop(
      &schedule,
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds)),
      std::chrono::milliseconds(1),
      [&](uint64_t i, Clock::time_point) {
        return !Interrupted() &&
               Query(engine, store, mix, first_index + i, &scratch, &r,
                     trace);
      },
      &out);
  results->push_back(std::move(r));
  return out;
}

uint64_t CountWrongAnswers(const Inputs& in, const QueryMix& mix,
                           const std::vector<ReaderResult>& results,
                           size_t* checked) {
  uint64_t wrong = 0;
  for (const ReaderResult& r : results) {
    for (const Sample& s : r.samples) {
      const int g = static_cast<int>((s.generation - 1) % 2);
      const std::vector<TopKEntry> expect = ReferenceTopK(
          in.quality[g], in.pagerank, in.site_ids, mix.queries[s.query]);
      if (!SameEntries(s.entries, expect)) ++wrong;
      ++*checked;
    }
  }
  return wrong;
}

}  // namespace

void RunQueryLocal(const RunOptions& options, Report* report) {
  const QueryMix mix =
      MakeQueryMix(kMixSize, kSitesLocal, options.seed ^ 0x51a7d);
  std::vector<double> setup_s;
  SpanLog setup_spans(64);
  std::unique_ptr<Inputs> in;
  std::unique_ptr<qrank::SnapshotStore> store;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int rep = 0; rep < repeats && !Interrupted(); ++rep) {
    in.reset();
    store.reset();
    in = std::make_unique<Inputs>();
    store = std::make_unique<qrank::SnapshotStore>();
    const Clock::time_point t0 = Clock::now();
    const qrank::Status st = SetUp(options.seed, in.get(), store.get(),
                                   &setup_spans);
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (!st.ok()) {
      report->Fail("set-up: " + st.ToString());
      return;
    }
  }
  if (Interrupted()) return;

  const Clock::time_point origin = Clock::now();
  std::vector<ReaderResult> results;
  Publisher publisher(*in, store.get());
  const double s = options.seconds;
  const int windows = WindowCount(s);
  if (!options.trace) {
    WindowFigures w;
    for (int i = 0; i < windows && !Interrupted(); ++i) {
      const double win = s / (2 * windows);
      const ClosedLoop closed =
          RunClosed(*store, mix, win, i * kWindowStride, false, &results);
      const OpenLoopSamples open =
          RunOpen(*store, mix, win, i * kWindowStride + kWindowStride / 2,
                  options.seed * windows + i, false, &results);
      report->attempted += closed.ops + open.attempted;
      report->failed += closed.failed + open.failed;
      w.AddClosed(closed.ops, closed.seconds, closed.cpu_s, closed.slice_rates,
                  closed.slice_p50_us, closed.latency_us);
      w.AddOpen(open);
    }
    publisher.Stop();
    ReportQueryFigures(w, setup_s, SelfPeakRssMiB(),
                       std::to_string(kReaders) + " readers", kOpenRatePerS,
                       report);
  } else {
    // Untraced and traced closed-loop windows alternate, so the
    // overhead estimate compares like with like.
    std::vector<double> plain_rates;
    std::vector<double> traced_rates;
    for (int i = 0; i < windows && !Interrupted(); ++i) {
      for (const bool trace : {false, true}) {
        const ClosedLoop c = RunClosed(*store, mix, s / (4 * windows),
                                       (2 * i + trace) * kWindowStride, trace,
                                       &results);
        report->attempted += c.ops;
        report->failed += c.failed;
        std::vector<double>& rates = trace ? traced_rates : plain_rates;
        rates.insert(rates.end(), c.slice_rates.begin(), c.slice_rates.end());
      }
    }
    const OpenLoopSamples open =
        RunOpen(*store, mix, s / 4, 0, options.seed, true, &results);
    publisher.Stop();
    report->attempted += open.attempted;
    report->failed += open.failed;
    SpanLog spans(0);
    spans.Append(setup_spans);
    spans.Append(publisher.spans());
    for (const ReaderResult& r : results) spans.Append(r.spans);
    for (const char* name : kClassSpan) {
      report->Metric(std::string(name) + "_ns", spans.MedianOf(name, 1e9),
                     "ns");
    }
    report->Metric("serve.publish_us", spans.MedianOf("serve.publish", 1e6),
                   "us");
    report->Metric("serve.bundle_load_ms",
                   spans.MedianOf("serve.bundle_load", 1e3), "ms");
    report->Metric("serve.publish_ordered_ms",
                   spans.MedianOf("serve.publish_ordered", 1e3), "ms");
    const Summary open_lat = Summarize(open.latency_us);
    report->Metric("load.latency_p50_us", open_lat.p50, "us");
    report->Metric("load.latency_p99_us", open_lat.p99, "us");
    report->Metric("load.gen_late_p99_us", Summarize(open.late_us).p99, "us");
    const double plain_qps = Median(plain_rates);
    const double traced_qps = Median(traced_rates);
    report->Metric("trace.overhead_pct",
                   100.0 * (plain_qps / std::max(traced_qps, 1e-9) - 1.0), "%");
    report->Note("tracing overhead: closed-loop qps untraced " +
                 std::to_string(plain_qps) + " vs traced " +
                 std::to_string(traced_qps));
    const std::string path = options.scratch_dir + "/trace_query-local.tsv";
    if (spans.WriteTsv(path, origin)) {
      report->Note("spans: " + std::to_string(spans.size()) + " written to " +
                   path + " (" + std::to_string(spans.dropped()) +
                   " dropped)");
    }
  }
  if (!publisher.status().ok()) {
    report->Fail("publisher: " + publisher.status().ToString());
  }
  report->Note("publisher: " + std::to_string(store->generation()) +
               " generations published");
  if (store->generation() < 2) report->Fail("the publisher never published");

  size_t checked = 0;
  const uint64_t wrong = CountWrongAnswers(*in, mix, results, &checked);
  report->failed += wrong;
  report->Note("oracle: " + std::to_string(checked) +
               " sampled answers compared with a full-scan reference, " +
               std::to_string(wrong) + " wrong");
  if (checked == 0) report->Fail("no answer was checked");
  if (wrong > 0) report->Fail("answers differ from the full-scan reference");
  if (report->failed > 0) {
    report->Fail(std::to_string(report->failed) + " failed queries");
  }
}

}  // namespace perfbench
