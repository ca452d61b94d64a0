// query-sharded: the 131k-page bundle split by site into 4 shards, each
// served by a real qrank_worker process, queried through one
// qrank::Coordinator in this process.
//
// Why: the transport, fan-out, channel hand-off and merge of src/dist
// do most of the work here; the serve-layer TopK on each shard is a
// small share of each query's wall time. Ingest, rank and core do no
// work after set-up.
//
// Phases (untraced run): one-second windows alternate between a closed
// loop of one client (ops_per_s, latency_us, cpu_us_per_op) and a
// single-thread open loop at a fixed Poisson rate of about half that
// capacity (latency percentiles timed from each query's due time; see
// WindowFigures). A traced run alternates untraced and traced closed-
// loop windows (their qps ratio is the tracing overhead), then runs the
// traced open loop and the per-layer probes: a raw frame round trip to
// one worker, the codec, and the engine on shard 0's bundle.

#include <sched.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dist/coordinator.h"
#include "dist/rpc.h"
#include "dist/shard_map.h"
#include "dist/wire_format.h"
#include "inputs.h"
#include "serve/query_engine.h"
#include "serve/score_bundle.h"
#include "workers.h"
#include "workloads.h"

namespace perfbench {
namespace {

using qrank::Coordinator;
using qrank::DistTopKResult;
using qrank::TopKEntry;
using qrank::TopKQuery;

constexpr uint32_t kShards = 4;
/// The run (this process, its channel threads and the workers, which
/// inherit the mask) is pinned to this many CPUs. On a VM an idle vCPU
/// halts, and waking it goes through the host, so unpinned the dozen
/// wake-ups of a fan-out query cost what the host's load makes them:
/// on a 4-vCPU VM the median of ten runs moved from 8.9k to 11.8k
/// queries/s between rounds, and single runs fell to 5.3k. Pinned to
/// two vCPUs that the deployment keeps busy, the medians of rounds
/// taken over the same hour read 7.9k–8.5k.
constexpr int kCpus = 2;
/// Open-loop rate: about half the single-client closed-loop capacity
/// (~7.5k/s on two vCPUs of a 4-core Xeon host). Fixed, so two commits
/// are offered the same load.
constexpr double kOpenRatePerS = 4000.0;
constexpr size_t kMixSize = 1 << 16;
/// Every kSampleEvery-th query is kept for the oracle comparison.
constexpr uint64_t kSampleEvery = 61;

struct Deployment {
  explicit Deployment(const std::string& scratch) : dir(scratch) {}
  ~Deployment() {
    if (coord != nullptr) coord->Stop();
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  TempDir dir;
  std::optional<qrank::LoadedBundle> bundle;  // unsharded, the oracle
  qrank::ShardSplit split;
  WorkerFleet fleet;
  std::vector<uint16_t> ports;
  std::unique_ptr<Coordinator> coord;
};

/// Builds the inputs, splits them, starts the workers and the
/// coordinator, and completes one query: everything before the first
/// timed operation.
qrank::Status SetUp(const RunOptions& options, Deployment* d) {
  if (!d->dir.ok()) return qrank::Status::IOError("cannot create temp dir");
  const qrank::CsrGraph graph = MakeSiteGraph(options.seed);
  QRANK_ASSIGN_OR_RETURN(
      qrank::ScoreBundleWriter writer,
      qrank::ScoreBundleWriter::Create(EstimatorShapedSource(
          SitePageRank(graph), kPagesPerSite, options.seed + 1)));
  QRANK_ASSIGN_OR_RETURN(qrank::LoadedBundle bundle,
                         qrank::LoadedBundle::FromBuffer(writer.Serialize()));
  d->bundle.emplace(std::move(bundle));
  QRANK_ASSIGN_OR_RETURN(
      d->split, qrank::SplitBundleBySite(*d->bundle, kShards, d->dir.path()));
  for (uint32_t s = 0; s < kShards; ++s) {
    const std::string stem = d->dir.path() + "/worker_" + std::to_string(s);
    QRANK_RETURN_NOT_OK(d->fleet.Spawn(
        options.worker_binary, d->split.bundle_paths[s],
        d->split.meta_paths[s], stem + ".port", stem + ".log"));
  }
  std::vector<qrank::ShardAddress> addresses(kShards);
  for (uint32_t s = 0; s < kShards; ++s) {
    QRANK_ASSIGN_OR_RETURN(addresses[s].primary.port,
                           d->fleet.WaitPort(s, 30.0));
    d->ports.push_back(addresses[s].primary.port);
  }
  // Wide budgets: on an idle loopback deployment a hedge or a degraded
  // answer means a stall of the host, which the run should count, not
  // provoke.
  qrank::CoordinatorOptions copts;
  copts.query_deadline = std::chrono::milliseconds(2000);
  copts.hedge_delay = std::chrono::milliseconds(500);
  d->coord = std::make_unique<Coordinator>(d->split.map, std::move(addresses),
                                           copts);
  QRANK_RETURN_NOT_OK(d->coord->Start());
  DistTopKResult warm;
  TopKQuery q;
  QRANK_RETURN_NOT_OK(d->coord->TopK(q, &warm));
  if (warm.degraded) return qrank::Status::Internal("warm-up query degraded");
  return qrank::Status::OK();
}

struct Sample {
  size_t query;
  std::vector<TopKEntry> entries;
};

struct ClosedLoop {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double seconds = 0.0;
  double self_cpu_s = 0.0;
  double worker_cpu_s = 0.0;
  uint64_t context_switches = 0;
  uint64_t hedges = 0;
  std::vector<double> latency_us;
  std::vector<double> slice_rates;
  std::vector<double> slice_p50_us;
};

/// Sends one query; keeps a copy of every kSampleEvery-th answer.
bool SendQuery(Coordinator& coord, const QueryMix& mix, uint64_t i,
           DistTopKResult* result, std::vector<Sample>* samples) {
  const size_t qi = i % mix.queries.size();
  const qrank::Status st = coord.TopK(mix.queries[qi], result);
  const bool ok = st.ok() && !result->degraded;
  if (ok && i % kSampleEvery == 0) {
    samples->push_back({qi, result->entries});
  }
  return ok;
}

ClosedLoop RunClosed(Deployment& d, const QueryMix& mix, double seconds,
                     uint64_t first_index, SpanLog* spans,
                     std::vector<Sample>* samples) {
  ClosedLoop r;
  DistTopKResult result;
  const uint64_t hedges0 = d.coord->hedges_fired();
  const double self0 = SelfCpuSeconds();
  const double workers0 = d.fleet.CpuSeconds();
  const uint64_t csw0 = SelfContextSwitches();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point now = start;
  SliceRates slices(start);
  std::vector<Clock::time_point> done_at;
  for (uint64_t i = first_index; now < end && !Interrupted(); ++i) {
    const Clock::time_point t0 = Clock::now();
    const bool ok = SendQuery(*d.coord, mix, i, &result, samples);
    now = Clock::now();
    r.latency_us.push_back(ToMicros(now - t0));
    done_at.push_back(now);
    if (spans != nullptr) {
      spans->Add("dist.coord_topk", "query", i, t0, now);
    }
    ++r.ops;
    if (!ok) ++r.failed;
    slices.Observe(now, r.ops);
  }
  r.slice_rates = slices.rates();
  r.slice_p50_us = slices.Medians(done_at, r.latency_us);
  r.seconds = std::chrono::duration<double>(now - start).count();
  r.self_cpu_s = SelfCpuSeconds() - self0;
  r.worker_cpu_s = d.fleet.CpuSeconds() - workers0;
  r.context_switches = SelfContextSwitches() - csw0;
  r.hedges = d.coord->hedges_fired() - hedges0;
  return r;
}

OpenLoopSamples RunOpen(Deployment& d, const QueryMix& mix, double seconds,
                        uint64_t first_index, uint64_t seed, SpanLog* spans,
                        std::vector<Sample>* samples) {
  OpenLoopSamples out;
  DistTopKResult result;
  const Clock::time_point start = Clock::now();
  OpenLoopSchedule schedule(start, kOpenRatePerS, /*poisson=*/true, seed);
  RunOpenLoop(
      &schedule,
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds)),
      std::chrono::microseconds(60),
      [&](uint64_t i, Clock::time_point) {
        if (Interrupted()) return false;
        const Clock::time_point t0 = Clock::now();
        const bool ok =
            SendQuery(*d.coord, mix, first_index + i, &result, samples);
        if (spans != nullptr) {
          spans->Add("dist.coord_topk_open", "query", first_index + i, t0,
                     Clock::now());
        }
        return ok;
      },
      &out);
  return out;
}

/// Compares sampled merged answers with the single-process engine on
/// the unsharded bundle: rows, page ids, promotions and bitwise scores.
uint64_t CountWrongAnswers(const Deployment& d, const QueryMix& mix,
                           const std::vector<Sample>& samples) {
  qrank::TopKScratch scratch;
  uint64_t wrong = 0;
  for (const Sample& s : samples) {
    const qrank::Status st = qrank::QueryEngine::TopKOnBundle(
        *d.bundle, mix.queries[s.query], &scratch);
    const std::vector<TopKEntry> expect(scratch.results().begin(),
                                        scratch.results().end());
    if (!st.ok() || !SameEntries(s.entries, expect)) ++wrong;
  }
  return wrong;
}

/// Per-layer probes outside the coordinator: a raw frame round trip to
/// worker 0 on a private socket, the request/response codec (timed in
/// batches of kCodecBatch calls, below the clock's resolution one by
/// one), and the engine on shard 0's bundle loaded in this process.
constexpr int kCodecBatch = 64;

qrank::Status ProbeLayers(const Deployment& d, const QueryMix& mix,
                          double seconds, SpanLog* spans) {
  const auto budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / 3));
  qrank::WireTopKRequest req;
  req.k = 10;
  req.site = qrank::kAllSites;
  req.blend_alpha = 0.5;
  std::vector<uint8_t> frame;
  qrank::EncodeTopKRequest(req, &frame);
  std::vector<uint8_t> response;
  {
    QRANK_ASSIGN_OR_RETURN(
        qrank::Socket sock,
        qrank::Socket::Connect("127.0.0.1", d.ports.at(0),
                               Clock::now() + std::chrono::seconds(5)));
    const Clock::time_point end = Clock::now() + budget;
    for (uint64_t i = 0; Clock::now() < end && !Interrupted(); ++i) {
      const Clock::time_point t0 = Clock::now();
      const qrank::RpcDeadline deadline = t0 + std::chrono::seconds(5);
      QRANK_RETURN_NOT_OK(qrank::SendFrame(sock, frame, deadline));
      QRANK_RETURN_NOT_OK(
          qrank::RecvFrame(sock, &response, deadline).status());
      spans->Add("dist.rtt", "probe", i, t0, Clock::now());
    }
  }
  qrank::WireTopKResponse decoded;
  for (uint64_t b = 0; b < 2000; ++b) {
    Clock::time_point t0 = Clock::now();
    for (int j = 0; j < kCodecBatch; ++j) {
      req.request_id = b * kCodecBatch + j;
      qrank::EncodeTopKRequest(req, &frame);
    }
    Clock::time_point t1 = Clock::now();
    spans->Add("dist.encode_x64", "probe", b, t0, t1);
    for (int j = 0; j < kCodecBatch; ++j) {
      QRANK_ASSIGN_OR_RETURN(const qrank::FrameHeader header,
                             qrank::DecodeFrame(response));
      QRANK_RETURN_NOT_OK(qrank::DecodeTopKResponse(
          std::span<const uint8_t>(response).subspan(
              qrank::kFrameHeaderBytes, header.payload_len),
          &decoded));
    }
    spans->Add("dist.decode_x64", "probe", b, t1, Clock::now());
  }
  QRANK_ASSIGN_OR_RETURN(const qrank::LoadedBundle shard0,
                         qrank::LoadedBundle::Load(d.split.bundle_paths.at(0)));
  qrank::TopKScratch scratch;
  const Clock::time_point end = Clock::now() + budget;
  for (uint64_t i = 0; Clock::now() < end && !Interrupted(); ++i) {
    // What worker 0 is asked: global queries with exploration left to
    // the coordinator, and site queries of the sites it owns.
    TopKQuery q = mix.queries[i % mix.queries.size()];
    if (q.site == qrank::kAllSites) {
      q.exploration_epsilon = 0.0;
    } else if (d.split.map.ShardForSite(q.site) != 0) {
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    QRANK_RETURN_NOT_OK(
        qrank::QueryEngine::TopKOnBundle(shard0, q, &scratch));
    spans->Add("dist.worker_engine", "probe", i, t0, Clock::now());
  }
  return qrank::Status::OK();
}

/// Pins the calling thread, and every thread and process it starts
/// later, to the first `n` CPUs it may run on. Returns them, e.g. "0,1".
std::string PinToFirstCpus(int n) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "unpinned";
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  std::string cpus;
  for (int c = 0, taken = 0; c < CPU_SETSIZE && taken < n; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    CPU_SET(c, &pinned);
    if (taken++ > 0) cpus += ',';
    cpus += std::to_string(c);
  }
  if (sched_setaffinity(0, sizeof(pinned), &pinned) != 0) return "unpinned";
  return cpus;
}

}  // namespace

void RunQuerySharded(const RunOptions& options, Report* report) {
  report->Note("pinned to CPUs " + PinToFirstCpus(kCpus));
  const QueryMix mix = MakeQueryMix(kMixSize, kSites, options.seed ^ 0x51a7d);
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> d;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int rep = 0; rep < repeats && !Interrupted(); ++rep) {
    if (d != nullptr) {
      d->coord->Stop();
      const qrank::Status st = d->fleet.Stop();
      if (!st.ok()) report->Fail("set-up teardown: " + st.ToString());
    }
    d = std::make_unique<Deployment>(options.scratch_dir);
    const Clock::time_point t0 = Clock::now();
    const qrank::Status st = SetUp(options, d.get());
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (!st.ok()) {
      report->Fail("set-up: " + st.ToString());
      return;
    }
  }
  if (Interrupted()) {
    report->Fail("interrupted");
    return;
  }

  const Clock::time_point origin = Clock::now();
  std::vector<Sample> samples;
  const double s = options.seconds;
  uint64_t next = 0;
  const int windows = WindowCount(s);
  if (!options.trace) {
    WindowFigures w;
    for (int i = 0; i < windows && !Interrupted(); ++i) {
      const double win = s / (2 * windows);
      const ClosedLoop closed = RunClosed(*d, mix, win, next, nullptr, &samples);
      next += closed.ops;
      const OpenLoopSamples open = RunOpen(
          *d, mix, win, next, options.seed * windows + i, nullptr, &samples);
      next += open.attempted;
      report->attempted += closed.ops + open.attempted;
      report->failed += closed.failed + open.failed;
      w.AddClosed(closed.ops, closed.seconds,
                  closed.self_cpu_s + closed.worker_cpu_s, closed.slice_rates,
                  closed.slice_p50_us, closed.latency_us);
      w.AddOpen(open);
    }
    ReportQueryFigures(w, setup_s, SelfPeakRssMiB() + d->fleet.PeakRssMiB(),
                       "1 client, " + std::to_string(kShards) + " workers",
                       kOpenRatePerS, report);
  } else {
    SpanLog spans(1 << 19);
    // Untraced and traced closed-loop windows alternate, so the
    // overhead estimate compares like with like.
    ClosedLoop plain;
    ClosedLoop traced;
    std::vector<double> plain_rates;
    std::vector<double> traced_rates;
    for (int i = 0; i < windows && !Interrupted(); ++i) {
      const double win = s / (4 * windows);
      for (const bool with_spans : {false, true}) {
        const ClosedLoop c = RunClosed(*d, mix, win, next,
                                       with_spans ? &spans : nullptr, &samples);
        next += c.ops;
        ClosedLoop& sum = with_spans ? traced : plain;
        sum.ops += c.ops;
        sum.failed += c.failed;
        sum.self_cpu_s += c.self_cpu_s;
        sum.worker_cpu_s += c.worker_cpu_s;
        sum.context_switches += c.context_switches;
        sum.hedges += c.hedges;
        std::vector<double>& rates = with_spans ? traced_rates : plain_rates;
        rates.insert(rates.end(), c.slice_rates.begin(), c.slice_rates.end());
      }
    }
    const OpenLoopSamples open =
        RunOpen(*d, mix, s / 4, next, options.seed, &spans, &samples);
    const qrank::Status probe = ProbeLayers(*d, mix, s / 4, &spans);
    if (!probe.ok()) report->Fail("layer probes: " + probe.ToString());
    report->attempted += plain.ops + traced.ops + open.attempted;
    report->failed += plain.failed + traced.failed + open.failed;

    const double plain_qps = Median(plain_rates);
    const double traced_qps = Median(traced_rates);
    const double coord_us = spans.MedianOf("dist.coord_topk", 1e6);
    const double rtt_us = spans.MedianOf("dist.rtt", 1e6);
    report->Metric("dist.coord_topk_us", coord_us, "us");
    report->Metric("dist.rtt_us", rtt_us, "us");
    report->Metric("dist.fanout_self_us", coord_us - rtt_us, "us");
    report->Metric("dist.encode_ns",
                   spans.MedianOf("dist.encode_x64", 1e9) / kCodecBatch, "ns");
    report->Metric("dist.decode_ns",
                   spans.MedianOf("dist.decode_x64", 1e9) / kCodecBatch, "ns");
    report->Metric("dist.worker_engine_us",
                   spans.MedianOf("dist.worker_engine", 1e6), "us");
    const double q = std::max<uint64_t>(plain.ops, 1);
    report->Metric("dist.coord_cpu_us_per_query", plain.self_cpu_s * 1e6 / q,
                   "us");
    report->Metric("dist.worker_cpu_us_per_query",
                   plain.worker_cpu_s * 1e6 / q, "us");
    report->Metric("dist.coord_csw_per_query", plain.context_switches / q,
                   "count");
    report->Metric("dist.hedges_per_kq",
                   1000.0 * (plain.hedges + traced.hedges) /
                       std::max<uint64_t>(plain.ops + traced.ops, 1),
                   "count");
    report->Metric("dist.degraded",
                   static_cast<double>(d->coord->degraded_queries()), "count");
    const Summary open_lat = Summarize(open.latency_us);
    report->Metric("load.latency_p50_us", open_lat.p50, "us");
    report->Metric("load.latency_p99_us", open_lat.p99, "us");
    report->Metric("load.gen_late_p99_us", Summarize(open.late_us).p99, "us");
    report->Metric("trace.overhead_pct",
                   100.0 * (plain_qps / std::max(traced_qps, 1e-9) - 1.0), "%");
    report->Note("tracing overhead: closed-loop qps untraced " +
                 std::to_string(plain_qps) + " vs traced " +
                 std::to_string(traced_qps));
    const std::string path =
        options.scratch_dir + "/trace_query-sharded.tsv";
    if (spans.WriteTsv(path, origin)) {
      report->Note("spans: " + std::to_string(spans.size()) + " written to " +
                   path + " (" + std::to_string(spans.dropped()) +
                   " dropped)");
    }
  }

  const uint64_t wrong = CountWrongAnswers(*d, mix, samples);
  report->failed += wrong;
  report->Note("oracle: " + std::to_string(samples.size()) +
               " sampled answers compared with the unsharded engine, " +
               std::to_string(wrong) + " wrong");
  if (wrong > 0) report->Fail("merged answers differ from the oracle");
  if (report->failed > 0) {
    report->Fail(std::to_string(report->failed) + " failed or degraded queries");
  }
  d->coord->Stop();
  const qrank::Status st = d->fleet.Stop();
  if (!st.ok()) report->Fail("worker teardown: " + st.ToString());
}

}  // namespace perfbench
