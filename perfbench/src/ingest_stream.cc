// ingest-stream: an IngestService seeded with the 131k-page graph (the
// default BatchPolicy, a kReject queue), fed by one producer thread.
//
// Why: ingest, graph, rank (warm DeltaPageRank through the fused
// kernel), core (the Eq-1 estimator) and the serve export and publish
// path do the work; no queries run. The cold initial solve is part of
// set-up.
//
// Phases (untraced run): an open loop of Poisson arrivals at a fixed
// nominal rate of about a third of the backfill throughput (update-to-
// servable latency, timed from each event's due time); then, once those
// events are servable, windows that alternate bursts of kBurstEvents
// events on an idle service (latency_us = due time to servable of a
// burst) with a backfill that pushes the same stream as fast as the
// service accepts it (ops_per_s = events made servable per second,
// cpu_us_per_op). The event mix is rich-get-richer site-local link adds,
// adds to new pages (page growth and the young-page Q̂ = PR fallback),
// removals of existing seed edges, and visits.
//
// A traced run makes the same live pass, shorter, and then replays the
// accepted stream serially, batch by batch along the service's own
// generation log, through the public calls the service makes (Flush,
// ApplyDelta, DirtyFrontier, ComputeDeltaPageRank, ComputeWindowQuality,
// writer build and serialize, FromBuffer, PublishOrdered), one span per
// call. The replay must end on the service's graph and scores, bit for
// bit.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/bundle_export.h"
#include "graph/graph_delta.h"
#include "ingest/batch_accumulator.h"
#include "ingest/ingest_service.h"
#include "inputs.h"
#include "rank/delta_pagerank.h"
#include "rank/pagerank.h"
#include "rank/rank_vector.h"
#include "serve/score_bundle.h"
#include "serve/snapshot_store.h"
#include "workloads.h"

namespace perfbench {
namespace {

using qrank::CsrGraph;
using qrank::IngestService;
using qrank::NodeId;
using qrank::UpdateEvent;

/// Open-loop arrival rate: about a third of the backfill throughput
/// (~15k events/s with full 4096-event batches) measured on a 4-core
/// Xeon host. Half that throughput sits at the knee of the service's
/// small-batch capacity (a ~1600-event generation takes ~210 ms), where
/// freshness drifts upward within a run. Fixed, so two commits are
/// offered the same load.
constexpr double kOpenRatePerS = 5000.0;
constexpr size_t kQueueCapacity = 1 << 14;
/// Events per burst: about one open-loop generation's worth, and half
/// of BatchPolicy::max_events, so a burst is never split by size.
constexpr size_t kBurstEvents = 2048;
/// Above any phase's event rate on the hosts measured (backfill ~16k/s).
constexpr double kMaxEventsPerS = 50000.0;

qrank::SiteId SiteOf(NodeId page) {
  return page < kSitePages ? page / kPagesPerSite : page % kSites;
}

/// The seeded event stream.
class EventSource {
 public:
  EventSource(const CsrGraph& graph, uint64_t seed)
      : rng_(seed), in_site_(kPagesPerSite, 1.0, seed) {
    edges_.reserve(graph.num_edges());
    for (NodeId u = 0; u < graph.num_nodes(); ++u) {
      for (const NodeId v : graph.OutNeighbors(u)) edges_.push_back({u, v});
    }
  }

  UpdateEvent Next() {
    const uint64_t roll = rng_.UniformUint64(100);
    const NodeId src = static_cast<NodeId>(rng_.UniformUint64(kSitePages));
    if (roll < 70) {
      // Rich get richer: low in-site ranks are the popular pages.
      const NodeId site_base = src / kPagesPerSite * kPagesPerSite;
      return UpdateEvent::AddEdge(src, site_base + in_site_.PickRank(&rng_));
    }
    if (roll < 75) return UpdateEvent::AddEdge(src, next_new_page_++);
    if (roll < 85) {
      const qrank::Edge& e = edges_[rng_.UniformUint64(edges_.size())];
      return UpdateEvent::RemoveEdge(e.src, e.dst);
    }
    return UpdateEvent::Visit(src);
  }

 private:
  qrank::Rng rng_;
  ZipfPicker in_site_;
  std::vector<qrank::Edge> edges_;
  NodeId next_new_page_ = kSitePages;
};

struct Service {
  qrank::SnapshotStore store;
  std::unique_ptr<IngestService> ingest;
  std::unique_ptr<EventSource> source;
};

/// Builds the inputs and starts the service (cold solve + initial
/// publish): everything before the first timed event.
qrank::Status SetUp(uint64_t seed, Service* s) {
  CsrGraph graph = MakeSiteGraph(seed);
  s->source = std::make_unique<EventSource>(graph, seed ^ 0xe7e47);
  qrank::IngestOptions options;
  options.queue.capacity = kQueueCapacity;
  options.queue.backpressure = qrank::BackpressurePolicy::kReject;
  options.num_sites = kSites;
  options.site_of = SiteOf;
  QRANK_ASSIGN_OR_RETURN(
      s->ingest, IngestService::Create(std::move(graph), &s->store, options));
  return s->ingest->Start();
}

/// Records when each servable_sequence() advance was observed.
class ServableWatcher {
 public:
  explicit ServableWatcher(const IngestService& ingest)
      : ingest_(ingest), thread_([this] { Loop(); }) {}
  ~ServableWatcher() { Stop(); }
  ServableWatcher(const ServableWatcher&) = delete;
  ServableWatcher& operator=(const ServableWatcher&) = delete;

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  struct Advance {
    uint64_t sequence;
    Clock::time_point time;
  };
  /// Valid after Stop().
  const std::vector<Advance>& advances() const { return advances_; }

 private:
  void Loop() {
    uint64_t seen = ingest_.servable_sequence();
    while (!stop_.load()) {
      ingest_.WaitServable(seen + 1, std::chrono::milliseconds(2));
      const uint64_t s = ingest_.servable_sequence();
      if (s > seen) {
        advances_.push_back({s, Clock::now()});
        seen = s;
      }
    }
  }

  const IngestService& ingest_;
  std::atomic<bool> stop_{false};
  std::vector<Advance> advances_;
  std::thread thread_;  // last: starts after the members it uses
};

/// Servable sequence at time t, from the watcher's record.
uint64_t ServableAt(const std::vector<ServableWatcher::Advance>& adv,
                    uint64_t initial, Clock::time_point t) {
  uint64_t s = initial;
  for (const auto& a : adv) {
    if (a.time > t) break;
    s = a.sequence;
  }
  return s;
}

struct LivePass {
  std::vector<UpdateEvent> accepted;  // sequence i + 1 at index i
  std::vector<Clock::time_point> due;
  uint64_t open_accepted = 0;
  OpenLoopSamples open;
  std::vector<double> fresh_ms;  // open-loop events, from due time
  /// Per-window fresh_ms medians: the open loop is cut into windows of
  /// two seconds by due time, and the median over windows is reported,
  /// so a stall of the host that hits one window moves no reported value.
  std::vector<double> window_p50_ms;
  /// Due time to servable of each burst's last event.
  std::vector<double> burst_ms;
  /// Backfill throughput per generation (events published / time since
  /// the previous publish); ops_per_s is their median, for the same
  /// reason.
  std::vector<double> generation_eps;
  double eps = 0.0;
  uint64_t eps_events = 0;
  double cpu_us_per_event = 0.0;
  qrank::IngestStats stats;
  std::vector<qrank::IngestGenerationInfo> log;
};

qrank::Status RunLive(Service* s, double seconds, uint64_t seed,
                      LivePass* live) {
  IngestService& ingest = *s->ingest;
  const uint64_t initial = ingest.servable_sequence();
  // Reserved up front, so the run's own records grow RSS in proportion
  // to the events accepted, without a reallocation's doubling step in
  // peak_rss_mb. Untouched capacity is not resident.
  const size_t capacity = static_cast<size_t>(seconds * kMaxEventsPerS);
  live->accepted.reserve(capacity);
  live->due.reserve(capacity);
  live->fresh_ms.reserve(capacity);
  ServableWatcher watcher(ingest);
  const auto span = [](double sec) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(sec));
  };

  // Open loop. The generator sleeps between arrivals, leaving every
  // core to the service.
  const Clock::time_point open_start = Clock::now();
  OpenLoopSchedule schedule(open_start, kOpenRatePerS, /*poisson=*/true,
                            seed);
  RunOpenLoop(
      &schedule, open_start + span(seconds / 5), Clock::duration::zero(),
      [&](uint64_t, Clock::time_point due) {
        if (Interrupted()) return false;
        const UpdateEvent e = s->source->Next();
        if (!ingest.Enqueue(e).ok()) return false;
        live->accepted.push_back(e);
        live->due.push_back(due);
        return true;
      },
      &live->open);
  live->open_accepted = live->accepted.size();
  if (!ingest.WaitServable(live->open_accepted, std::chrono::seconds(60))) {
    return qrank::Status::Internal("open-loop events never became servable");
  }

  // Bursts and backfill alternate in windows over the rest of the run,
  // so a slow spell of the host that covers a few seconds lands on
  // samples of both phases instead of on all samples of one.
  //
  // Bursts: kBurstEvents events due at once on an idle service, then a
  // wait until the last one is servable. Each burst is one batch (it is
  // enqueued well within BatchPolicy::max_age), so its latency is the
  // batching delay plus one generation of fixed size.
  //
  // Backfill: the same stream, as fast as the queue accepts it; each
  // window then drains before the next bursts.
  const int pairs = WindowCount(seconds * 2 / 5);
  const double phase_s = seconds * 2 / 5 / pairs;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> backfills;
  double cpu_s = 0.0;
  for (int w = 0; w < pairs && !Interrupted(); ++w) {
    const Clock::time_point burst_end = Clock::now() + span(phase_s);
    while (Clock::now() < burst_end && !Interrupted()) {
      const Clock::time_point due = Clock::now();
      for (size_t i = 0; i < kBurstEvents; ++i) {
        const UpdateEvent e = s->source->Next();
        QRANK_RETURN_NOT_OK(ingest.Enqueue(e));
        live->accepted.push_back(e);
        live->due.push_back(due);
      }
      if (!ingest.WaitServable(live->accepted.size(),
                               std::chrono::seconds(60))) {
        return qrank::Status::Internal("burst never became servable");
      }
      live->burst_ms.push_back(ToMillis(Clock::now() - due));
    }

    const Clock::time_point bf_start = Clock::now();
    const Clock::time_point bf_end = bf_start + span(phase_s);
    const double cpu0 = SelfCpuSeconds();
    while (Clock::now() < bf_end && !Interrupted()) {
      const UpdateEvent e = s->source->Next();
      const Clock::time_point due = Clock::now();
      qrank::Status st;
      while (!(st = ingest.Enqueue(e)).ok() && Clock::now() < bf_end) {
        if (st.code() != qrank::StatusCode::kOutOfRange) return st;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (!st.ok()) break;  // the phase ended while the queue was full
      live->accepted.push_back(e);
      live->due.push_back(due);
    }
    backfills.emplace_back(bf_start, Clock::now());
    cpu_s += SelfCpuSeconds() - cpu0;
    if (!ingest.WaitServable(live->accepted.size(),
                             std::chrono::seconds(60))) {
      return qrank::Status::Internal("accepted events never became servable");
    }
  }
  watcher.Stop();
  QRANK_RETURN_NOT_OK(ingest.Stop());
  const auto& adv = watcher.advances();

  for (size_t i = 0; i < live->accepted.size(); ++i) {
    live->accepted[i].sequence = i + 1;
    live->accepted[i].enqueue_time = live->due[i];
  }
  const int windows = WindowCount(seconds / 5);
  std::vector<std::vector<double>> per_window(windows);
  size_t a = 0;
  for (uint64_t seq = 1; seq <= live->open_accepted; ++seq) {
    while (a < adv.size() && adv[a].sequence < seq) ++a;
    if (a == adv.size()) {
      return qrank::Status::Internal("servable advance not observed");
    }
    const double ms = ToMillis(adv[a].time - live->due[seq - 1]);
    live->fresh_ms.push_back(ms);
    const double offset =
        std::chrono::duration<double>(live->due[seq - 1] - open_start).count();
    per_window[std::min<int>(windows - 1,
                             static_cast<int>(offset / (seconds / 5) *
                                              windows))]
        .push_back(ms);
  }
  for (const auto& w : per_window) {
    if (!w.empty()) live->window_p50_ms.push_back(Median(w));
  }

  // Throughput over whole generations inside the backfill windows.
  uint64_t window_events = 0;
  for (const auto& [bf_start, bf_stop] : backfills) {
    const ServableWatcher::Advance* first = nullptr;
    const ServableWatcher::Advance* last = nullptr;
    for (const auto& adv_i : adv) {
      if (adv_i.time < bf_start || adv_i.time > bf_stop) continue;
      if (first == nullptr) first = &adv_i;
      last = &adv_i;
    }
    window_events += ServableAt(adv, initial, bf_stop) -
                     ServableAt(adv, initial, bf_start);
    if (first == nullptr) continue;
    live->eps_events += last->sequence - first->sequence;
    for (const auto* g = first; g != last; ++g) {
      live->generation_eps.push_back(
          (g[1].sequence - g[0].sequence) /
          std::chrono::duration<double>(g[1].time - g[0].time).count());
    }
  }
  if (live->generation_eps.empty()) {
    return qrank::Status::Internal(
        "no backfill window published two generations");
  }
  live->eps = QuietHigh(live->generation_eps);
  live->cpu_us_per_event =
      cpu_s * 1e6 / std::max<uint64_t>(window_events, 1);
  live->stats = ingest.Stats();
  live->log = ingest.GenerationLog();
  return qrank::Status::OK();
}

bool SameGraph(const CsrGraph& a, const CsrGraph& b) {
  return a.num_nodes() == b.num_nodes() && a.offsets() == b.offsets() &&
         a.targets() == b.targets();
}

/// The service's output checks: gap-free generation tiling, the graph
/// of a sequential replay, and PageRank within the drift budget of a
/// from-scratch solve on that graph.
void CheckLive(const Service& s, const LivePass& live, uint64_t seed,
               Report* report) {
  const uint64_t total = live.accepted.size();
  if (live.stats.queue.enqueued != total) {
    report->Fail("queue accepted " + std::to_string(live.stats.queue.enqueued) +
                 " events, producer counted " + std::to_string(total));
  }
  std::vector<qrank::IngestGenerationInfo> log = live.log;
  std::sort(log.begin(), log.end(),
            [](const auto& x, const auto& y) { return x.generation < y.generation; });
  uint64_t next = 1;
  for (const auto& g : log) {
    if (g.last_sequence == 0) continue;  // the Start() publish
    if (g.first_sequence != next || g.last_sequence < g.first_sequence) {
      report->Fail("generation " + std::to_string(g.generation) +
                   " does not continue the sequence at " +
                   std::to_string(next));
      break;
    }
    next = g.last_sequence + 1;
  }
  if (next != total + 1) report->Fail("generations do not tile every event");
  if (live.stats.servable_sequence != total ||
      live.stats.latency_count != total) {
    report->Fail("not every accepted event became servable");
  }

  const CsrGraph base = MakeSiteGraph(seed);
  qrank::BatchPolicy all;
  all.max_events = total + 1;
  all.max_age = std::chrono::hours(1);
  qrank::BatchAccumulator acc(all);
  for (const UpdateEvent& e : live.accepted) acc.Absorb(e);
  qrank::Result<qrank::FlushedBatch> batch = acc.Flush(base);
  qrank::Result<CsrGraph> replay =
      batch.ok() ? base.ApplyDelta(batch.value().delta)
                 : qrank::Result<CsrGraph>(batch.status());
  const CsrGraph& current = s.ingest->CurrentGraph();
  if (!replay.ok() || !SameGraph(replay.value(), current)) {
    report->Fail("CurrentGraph() differs from the sequential replay");
  }

  const qrank::DeltaPageRankOptions rank = qrank::DefaultIngestRankOptions();
  const qrank::Result<qrank::PageRankResult> scratch =
      qrank::ComputePageRank(current, rank.base);
  const std::shared_ptr<const qrank::LoadedBundle> bundle = s.store.Acquire();
  if (!scratch.ok() || bundle == nullptr ||
      bundle->pagerank().size() != scratch.value().scores.size()) {
    report->Fail("no published PageRank to compare");
    return;
  }
  // Both solves stop within tolerance / (1 - damping) of the fixed point
  // (probability scale); the delta engine may hide freeze_threshold *
  // tolerance more; the export scale multiplies by n.
  const double tol = rank.base.tolerance;
  const double budget =
      (2.0 * tol / (1.0 - rank.base.damping) + rank.freeze_threshold * tol) *
      static_cast<double>(current.num_nodes());
  double l1 = 0.0;
  for (size_t i = 0; i < scratch.value().scores.size(); ++i) {
    l1 += std::fabs(bundle->pagerank()[i] - scratch.value().scores[i]);
  }
  report->Note("drift: L1 " + std::to_string(l1) + " against a budget of " +
               std::to_string(budget) + " on " +
               std::to_string(current.num_nodes()) + " pages");
  if (!(l1 < budget)) {
    report->Fail("published PageRank drifted beyond the budget");
  }
}

/// Serial replay of the live pass along the service's generation log,
/// one span per public call.
struct Replay {
  SpanLog spans{1 << 14};
  std::vector<double> iterations;
  std::vector<double> node_updates;
  std::vector<double> batch_events;
  std::vector<double> queue_wait_ms;
  uint64_t structural_events = 0;
  uint64_t delta_changes = 0;
  Clock::time_point start;
  double wall_s = 0.0;
};

qrank::Status RunReplay(const Service& s, const LivePass& live, uint64_t seed,
                        Replay* r) {
  CsrGraph graph = MakeSiteGraph(seed);
  const qrank::IngestOptions defaults;
  const qrank::DeltaPageRankOptions rank_defaults =
      qrank::DefaultIngestRankOptions();
  std::vector<double> prev_probability;
  bool prev_converged = false;
  std::deque<qrank::SharedObservation> window;
  const auto solve = [&](const std::vector<uint8_t>& dirty,
                         qrank::DeltaPageRankResult* out) -> qrank::Status {
    qrank::DeltaPageRankOptions rank = rank_defaults;
    if (!prev_probability.empty()) {
      rank.base.initial_scores =
          qrank::ProjectToSize(prev_probability, graph.num_nodes());
    }
    QRANK_ASSIGN_OR_RETURN(*out,
                           qrank::ComputeDeltaPageRank(graph, dirty, rank));
    prev_converged = out->base.converged;
    prev_probability = out->base.scores;
    const double inv_n = 1.0 / static_cast<double>(graph.num_nodes());
    for (double& p : prev_probability) p *= inv_n;
    window.push_back(std::make_shared<const std::vector<double>>(
        std::move(out->base.scores)));
    if (window.size() > defaults.observation_window) window.pop_front();
    return qrank::Status::OK();
  };
  qrank::DeltaPageRankResult cold;
  QRANK_RETURN_NOT_OK(solve({}, &cold));  // what Start() does

  qrank::SnapshotStore store;
  qrank::BatchAccumulator acc(defaults.batch);
  std::vector<qrank::IngestGenerationInfo> log = live.log;
  std::sort(log.begin(), log.end(),
            [](const auto& x, const auto& y) { return x.generation < y.generation; });
  r->start = Clock::now();
  for (const auto& g : log) {
    if (g.last_sequence == 0) continue;
    if (Interrupted()) return qrank::Status::Internal("interrupted");
    const uint64_t op = g.generation;
    for (uint64_t seq = g.first_sequence; seq <= g.last_sequence; ++seq) {
      acc.Absorb(live.accepted[seq - 1]);
    }
    Clock::time_point t0 = Clock::now();
    QRANK_ASSIGN_OR_RETURN(qrank::FlushedBatch batch, acc.Flush(graph));
    Clock::time_point t1 = Clock::now();
    r->spans.Add("ingest.flush", "generation", op, t0, t1);
    r->batch_events.push_back(static_cast<double>(batch.num_events));
    r->structural_events += batch.num_adds + batch.num_removes;
    r->delta_changes += batch.delta.num_changes();
    if (g.last_sequence <= live.open_accepted) {
      r->queue_wait_ms.push_back(ToMillis(live.due[g.last_sequence - 1] -
                                          live.due[g.first_sequence - 1]));
    }
    std::vector<uint8_t> dirty;
    if (!batch.delta.empty()) {
      t0 = Clock::now();
      QRANK_ASSIGN_OR_RETURN(CsrGraph next, graph.ApplyDelta(batch.delta));
      t1 = Clock::now();
      dirty = batch.delta.DirtyFrontier(next);
      const Clock::time_point t2 = Clock::now();
      r->spans.Add("graph.apply", "generation", op, t0, t1);
      r->spans.Add("graph.frontier", "generation", op, t1, t2);
      graph = std::move(next);
    }
    if (batch.delta.empty() && prev_converged && !window.empty()) {
      window.push_back(window.back());
      if (window.size() > defaults.observation_window) window.pop_front();
      r->iterations.push_back(0);
      r->node_updates.push_back(0);
    } else {
      qrank::DeltaPageRankResult solved;
      t0 = Clock::now();
      QRANK_RETURN_NOT_OK(solve(dirty, &solved));
      r->spans.Add("rank.solve", "generation", op, t0, Clock::now());
      r->iterations.push_back(solved.base.iterations);
      r->node_updates.push_back(static_cast<double>(solved.node_updates));
    }
    const std::vector<qrank::SharedObservation> obs(window.begin(),
                                                    window.end());
    t0 = Clock::now();
    QRANK_ASSIGN_OR_RETURN(std::vector<double> quality,
                           qrank::ComputeWindowQuality(obs, defaults.estimator));
    t1 = Clock::now();
    r->spans.Add("core.estimate", "generation", op, t0, t1);
    qrank::ScoreBundleSource source;
    source.quality = std::move(quality);
    source.pagerank = *obs.back();
    source.num_sites = kSites;
    source.site_ids.resize(graph.num_nodes());
    for (NodeId p = 0; p < graph.num_nodes(); ++p) {
      source.site_ids[p] = SiteOf(p);
    }
    source.creator_tag = static_cast<uint32_t>(op);
    t0 = Clock::now();
    QRANK_ASSIGN_OR_RETURN(qrank::ScoreBundleWriter writer,
                           qrank::ScoreBundleWriter::Create(std::move(source)));
    std::vector<uint8_t> image = writer.Serialize();
    t1 = Clock::now();
    r->spans.Add("core.export", "generation", op, t0, t1);
    QRANK_ASSIGN_OR_RETURN(qrank::LoadedBundle bundle,
                           qrank::LoadedBundle::FromBuffer(std::move(image)));
    const Clock::time_point t2 = Clock::now();
    r->spans.Add("serve.bundle_load", "generation", op, t1, t2);
    QRANK_RETURN_NOT_OK(
        store
            .PublishOrdered(
                std::make_shared<const qrank::LoadedBundle>(std::move(bundle)),
                g.last_sequence)
            .status());
    r->spans.Add("serve.publish_ordered", "generation", op, t2, Clock::now());
  }
  r->wall_s = std::chrono::duration<double>(Clock::now() - r->start).count();

  if (!SameGraph(graph, s.ingest->CurrentGraph())) {
    return qrank::Status::Internal("replay graph differs from CurrentGraph()");
  }
  const auto mine = store.Acquire();
  const auto theirs = s.store.Acquire();
  const auto same = [](std::span<const double> x, std::span<const double> y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  if (mine == nullptr || theirs == nullptr ||
      !same(mine->pagerank(), theirs->pagerank()) ||
      !same(mine->quality(), theirs->quality())) {
    return qrank::Status::Internal(
        "replayed scores differ from the service's last generation");
  }
  return qrank::Status::OK();
}

}  // namespace

void RunIngestStream(const RunOptions& options, Report* report) {
  std::vector<double> setup_s;
  std::unique_ptr<Service> s;
  const int repeats = options.trace ? 1 : kSetupRepeats;
  for (int rep = 0; rep < repeats && !Interrupted(); ++rep) {
    s.reset();
    s = std::make_unique<Service>();
    const Clock::time_point t0 = Clock::now();
    const qrank::Status st = SetUp(options.seed, s.get());
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    if (!st.ok()) {
      report->Fail("set-up: " + st.ToString());
      return;
    }
  }
  if (Interrupted()) return;

  const double live_seconds = options.trace ? options.seconds / 2
                                            : options.seconds;
  LivePass live;
  const qrank::Status st = RunLive(s.get(), live_seconds, options.seed, &live);
  report->attempted += live.open.attempted +
                       (live.accepted.size() - live.open_accepted);
  report->failed += live.open.failed;
  if (!st.ok()) {
    report->Fail("live pass: " + st.ToString());
    return;
  }
  CheckLive(*s, live, options.seed, report);

  const Summary fresh = Summarize(live.fresh_ms);
  if (!options.trace) {
    report->Metric("ops_per_s", live.eps, "1/s", live.eps_events);
    report->Metric("latency_us", QuietLow(live.burst_ms) * 1e3, "us",
                   live.burst_ms.size());
    report->Metric("cpu_us_per_op", live.cpu_us_per_event, "us");
    report->Metric("peak_rss_mb", SelfPeakRssMiB(), "MiB");
    report->Metric("setup_s", Median(setup_s), "s", setup_s.size());
    report->Note("ingest_eps " + std::to_string(live.eps) +
                 " 1/s (backfill, 90th percentile of " +
                 std::to_string(live.generation_eps.size()) +
                 " generations, n=" + std::to_string(live.eps_events) +
                 " events); quartiles " + Quartiles(live.generation_eps));
    report->Note("burst_fresh_ms " + std::to_string(QuietLow(live.burst_ms)) +
                 " ms (" + std::to_string(kBurstEvents) +
                 "-event bursts, due time to servable: 10th percentile of " +
                 std::to_string(live.burst_ms.size()) +
                 " bursts); quartiles " + Quartiles(live.burst_ms));
    report->Timing("burst_fresh_ms", Summarize(live.burst_ms), "ms");
    std::string per_window = "fresh_p50_ms per 2-s window:";
    for (const double v : live.window_p50_ms) {
      per_window += ' ';
      per_window += std::to_string(v);
    }
    report->Note(per_window);
    report->Timing("fresh_ms (open loop, " +
                       std::to_string(static_cast<int>(kOpenRatePerS)) +
                       "/s Poisson, due time to servable)",
                   fresh, "ms");
    report->Timing("load.gen_late_us", Summarize(live.open.late_us), "us");
    if (!fresh.p99_ok) report->Fail("too few open-loop events for a p99");
  } else {
    Replay r;
    const qrank::Status rs = RunReplay(*s, live, options.seed, &r);
    if (!rs.ok()) report->Fail("replay: " + rs.ToString());
    static constexpr const char* kStages[] = {
        "ingest.flush", "graph.apply",       "graph.frontier",
        "rank.solve",   "core.estimate",     "core.export",
        "serve.bundle_load", "serve.publish_ordered"};
    double stage_sum = 0.0;
    for (const char* stage : kStages) {
      const double ms = r.spans.MedianOf(stage, 1e3);
      stage_sum += ms;
      report->Metric(std::string(stage) + "_ms", ms, "ms");
    }
    report->Metric("rank.iterations", Median(r.iterations), "count");
    report->Metric("rank.node_updates", Median(r.node_updates), "count");
    report->Metric("ingest.batch_events", Median(r.batch_events), "count");
    report->Metric("ingest.coalesce_ratio",
                   static_cast<double>(r.delta_changes) /
                       std::max<uint64_t>(r.structural_events, 1),
                   "ratio");
    report->Metric("ingest.queue_wait_ms", Median(r.queue_wait_ms), "ms");
    const qrank::IngestStats& st_live = live.stats;
    const double svc[] = {st_live.stage_apply.p50_ms, st_live.stage_solve.p50_ms,
                          st_live.stage_estimate.p50_ms,
                          st_live.stage_export.p50_ms,
                          st_live.stage_publish.p50_ms};
    static constexpr const char* kSvc[] = {"apply", "solve", "estimate",
                                           "export", "publish"};
    double svc_sum = 0.0;
    for (int i = 0; i < 5; ++i) {
      svc_sum += svc[i];
      report->Metric(std::string("ingest.svc_") + kSvc[i] + "_p50_ms", svc[i],
                     "ms");
    }
    report->Metric("ingest.replay_stage_sum_ms", stage_sum, "ms");
    report->Metric("ingest.svc_stage_sum_ms", svc_sum, "ms");
    report->Metric("ingest.rejected", static_cast<double>(live.open.failed),
                   "count");
    report->Metric("load.latency_p50_us", fresh.p50 * 1e3, "us");
    report->Metric("load.latency_p99_us", fresh.p99 * 1e3, "us");
    report->Metric("load.gen_late_p99_us", Summarize(live.open.late_us).p99,
                   "us");
    // The live pass carries no spans; the replay's only tracing cost is
    // recording them, measured per span where the benchmark runs.
    const double span_ns = CalibrateSpanCostNs();
    report->Metric("trace.overhead_pct",
                   100.0 * span_ns * 1e-9 * r.spans.size() /
                       std::max(r.wall_s, 1e-9),
                   "%");
    const double svc_p90 = st_live.stage_apply.p90_ms +
                           st_live.stage_solve.p90_ms +
                           st_live.stage_estimate.p90_ms +
                           st_live.stage_export.p90_ms +
                           st_live.stage_publish.p90_ms;
    report->Note("replayed stage medians sum to " + std::to_string(stage_sum) +
                 " ms per generation; the service's stage p50s sum to " +
                 std::to_string(svc_sum) + " ms (p90s " +
                 std::to_string(svc_p90) + " ms) over " +
                 std::to_string(st_live.generations) + " generations");
    report->Timing("fresh_ms (traced run's live pass)", fresh, "ms");
    const std::string path = options.scratch_dir + "/trace_ingest-stream.tsv";
    if (r.spans.WriteTsv(path, r.start)) {
      report->Note("spans: " + std::to_string(r.spans.size()) +
                   " written to " + path);
    }
  }
  if (live.open.failed > 0) {
    report->Fail(std::to_string(live.open.failed) +
                 " open-loop events rejected by the queue");
  }
}

}  // namespace perfbench
