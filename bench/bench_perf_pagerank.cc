// Performance of the PageRank engines (google-benchmark).
//
// Covers the repro hint "efficient sparse matrix PageRank": power
// iteration vs Gauss-Seidel vs adaptive vs quadratic extrapolation on
// Barabasi-Albert graphs of growing size, at the tolerance used by the
// Section 8 pipeline, plus warm DeltaPageRank on both of its paths.
// Iteration counts are exported as counters so the acceleration claims
// of [11]/[12] are visible alongside wall-clock.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "bench_json.h"
#include "common/parallel_for.h"
#include "common/rng.h"
#include "graph/analysis.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "graph/reorder.h"
#include "rank/adaptive_pagerank.h"
#include "rank/delta_pagerank.h"
#include "rank/extrapolation.h"
#include "rank/pagerank.h"
#include "rank/rank_vector.h"
#include "rank/sweep_ops.h"

namespace {

// Set by --order= / --partition= / --kernel= / --compressed= in main;
// consumed by the site-locality benchmarks below. The BM_PageRankKernel
// family ignores these and pins its own variants so the regression gate
// always compares scalar vs SIMD within one run.
qrank::NodeOrdering g_order = qrank::NodeOrdering::kIdentity;
qrank::SweepPartition g_partition = qrank::SweepPartition::kEdgeBalanced;
qrank::KernelVariant g_kernel = qrank::KernelVariant::kScalar;
bool g_compressed = false;

qrank::CsrGraph MakeGraph(int64_t nodes, uint32_t out_degree = 8) {
  qrank::Rng rng(1234);
  return qrank::CsrGraph::FromEdgeList(
             qrank::GenerateBarabasiAlbert(
                 static_cast<qrank::NodeId>(nodes), out_degree, &rng)
                 .value())
      .value();
}

qrank::PageRankOptions BaseOptions() {
  qrank::PageRankOptions o;
  o.tolerance = 1e-9;
  o.max_iterations = 1000;
  return o;
}

void BM_PageRankPower(benchmark::State& state) {
  qrank::CsrGraph g = MakeGraph(state.range(0));
  qrank::PageRankOptions o = BaseOptions();
  uint32_t iterations = 0;
  for (auto _ : state) {
    auto r = qrank::ComputePageRank(g, o);
    iterations = r->iterations;
    benchmark::DoNotOptimize(r->scores.data());
  }
  state.counters["iters"] = iterations;
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(g.num_edges()) * iterations,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_PageRankGaussSeidel(benchmark::State& state) {
  qrank::CsrGraph g = MakeGraph(state.range(0));
  qrank::PageRankOptions o = BaseOptions();
  uint32_t iterations = 0;
  for (auto _ : state) {
    auto r = qrank::ComputePageRankGaussSeidel(g, o);
    iterations = r->iterations;
    benchmark::DoNotOptimize(r->scores.data());
  }
  state.counters["iters"] = iterations;
}

void BM_PageRankAdaptive(benchmark::State& state) {
  qrank::CsrGraph g = MakeGraph(state.range(0));
  qrank::AdaptivePageRankOptions o;
  o.base = BaseOptions();
  o.freeze_threshold = 1e-6;
  uint32_t iterations = 0;
  uint64_t updates = 0;
  for (auto _ : state) {
    auto r = qrank::ComputeAdaptivePageRank(g, o);
    iterations = r->base.iterations;
    updates = r->node_updates;
    benchmark::DoNotOptimize(r->base.scores.data());
  }
  state.counters["iters"] = iterations;
  state.counters["upd/iter/node"] =
      static_cast<double>(updates) /
      (static_cast<double>(iterations) * static_cast<double>(g.num_nodes()));
}

void BM_PageRankExtrapolated(benchmark::State& state) {
  qrank::CsrGraph g = MakeGraph(state.range(0));
  qrank::ExtrapolatedPageRankOptions o;
  o.base = BaseOptions();
  uint32_t iterations = 0;
  for (auto _ : state) {
    auto r = qrank::ComputeExtrapolatedPageRank(g, o);
    iterations = r->base.iterations;
    benchmark::DoNotOptimize(r->base.scores.data());
  }
  state.counters["iters"] = iterations;
}

void BM_PageRankWarmStart(benchmark::State& state) {
  // Iterations saved by warm-starting from a slightly perturbed
  // solution (the cross-snapshot case of SnapshotSeries).
  qrank::CsrGraph g = MakeGraph(8192);
  qrank::PageRankOptions o = BaseOptions();
  auto cold = qrank::ComputePageRank(g, o);
  const bool warm = state.range(0) == 1;
  if (warm) o.initial_scores = cold->scores;
  uint32_t iterations = 0;
  for (auto _ : state) {
    auto r = qrank::ComputePageRank(g, o);
    iterations = r->iterations;
    benchmark::DoNotOptimize(r->scores.data());
  }
  state.counters["iters"] = iterations;
}

void BM_PageRankHighDamping(benchmark::State& state) {
  // Damping 0.95: slow spectral gap; where extrapolation pays off most.
  qrank::CsrGraph g = MakeGraph(8192);
  qrank::PageRankOptions o = BaseOptions();
  o.damping = 0.95;
  const bool extrapolate = state.range(0) == 1;
  uint32_t iterations = 0;
  for (auto _ : state) {
    if (extrapolate) {
      qrank::ExtrapolatedPageRankOptions eo;
      eo.base = o;
      auto r = qrank::ComputeExtrapolatedPageRank(g, eo);
      iterations = r->base.iterations;
      benchmark::DoNotOptimize(r->base.scores.data());
    } else {
      auto r = qrank::ComputePageRank(g, o);
      iterations = r->iterations;
      benchmark::DoNotOptimize(r->scores.data());
    }
  }
  state.counters["iters"] = iterations;
}

void BM_PageRankPowerThreads(benchmark::State& state) {
  // Thread sweep at acceptance scale: Barabasi-Albert n = 2^18, m = 8
  // (~2M edges after dedup). Fixed 20 iterations so every thread count
  // does identical work; the parallel-equivalence test proves the scores
  // are bit-identical across this sweep.
  static qrank::CsrGraph g = MakeGraph(1 << 18);
  g.BuildTranspose();  // shared cache; build outside the timed region
  qrank::PageRankOptions o = BaseOptions();
  o.max_iterations = 20;
  o.tolerance = 1e-300;  // never met: fixed work per run
  o.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = qrank::ComputePageRank(g, o);
    benchmark::DoNotOptimize(r->scores.data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(g.num_edges()) * 20.0,
      benchmark::Counter::kIsIterationInvariantRate);
}

// Site-clustered web (num_sites x 200 pages at ~13 links/page, the
// Section 8 crawl shape) under a fixed pseudorandom relabeling. The
// generator emits each site's pages contiguously — already near-optimal
// cache layout — but a real crawl discovers pages interleaved across
// sites, so the benchmark input models that crawl order. This is the
// labeling the --order= reorderings recover locality from.
qrank::CsrGraph MakeCrawlOrderSiteGraph(qrank::NodeId num_sites) {
  qrank::Rng rng(99);
  qrank::CsrGraph g =
      qrank::CsrGraph::FromEdgeList(
          qrank::GenerateSiteClustered(num_sites, 200, 12, 6, &rng).value())
          .value();
  std::vector<qrank::NodeId> scramble(g.num_nodes());
  std::iota(scramble.begin(), scramble.end(), qrank::NodeId{0});
  for (qrank::NodeId i = g.num_nodes(); i > 1; --i) {
    std::swap(scramble[i - 1], scramble[rng.UniformUint64(i)]);
  }
  return g.Permute(scramble).value();
}

struct SiteLocalityCase {
  qrank::CsrGraph crawl;
  qrank::ReorderedGraph reordered;
  double linf = 0.0;  // L-inf distance from the identity-order scores
};

SiteLocalityCase MakeSiteLocalityCase(qrank::NodeId num_sites) {
  SiteLocalityCase c;
  c.crawl = MakeCrawlOrderSiteGraph(num_sites);
  c.reordered = qrank::ReorderGraph(c.crawl, g_order).value();
  qrank::PageRankOptions ref = BaseOptions();
  ref.max_iterations = 20;
  ref.tolerance = 1e-300;
  ref.partition = g_partition;
  ref.num_threads = 1;
  const std::vector<double> ours = qrank::RemapToOriginal(
      qrank::ComputePageRank(c.reordered.graph, ref)->scores,
      c.reordered.perm);
  const std::vector<double> base =
      qrank::ComputePageRank(c.crawl, ref)->scores;
  for (size_t i = 0; i < base.size(); ++i) {
    c.linf = std::max(c.linf, std::fabs(ours[i] - base[i]));
  }
  return c;
}

void RunSiteLocality(benchmark::State& state, const SiteLocalityCase& c) {
  // The acceptance benchmark of the reordering work: fixed 20 Jacobi
  // iterations on the crawl-order graph relabeled by --order= and
  // partitioned by --partition=, across a thread sweep. The
  // linf_vs_identity counter is the L-infinity distance (after mapping
  // back to crawl-order ids) from the identity-ordering scores — the
  // 1e-12 agreement contract that makes the orderings interchangeable.
  qrank::PageRankOptions o = BaseOptions();
  o.max_iterations = 20;
  o.tolerance = 1e-300;  // never met: fixed work per run
  o.partition = g_partition;
  o.kernel = g_kernel;
  o.use_compressed_transpose = g_compressed;
  o.num_threads = static_cast<int>(state.range(0));
  c.reordered.graph.BuildTranspose();  // outside the timed region
  if (g_compressed) c.reordered.graph.BuildCompressedTranspose();
  for (auto _ : state) {
    auto r = qrank::ComputePageRank(c.reordered.graph, o);
    benchmark::DoNotOptimize(r->scores.data());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["linf_vs_identity"] = c.linf;
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(c.reordered.graph.num_edges()) * 20.0,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_PageRankSiteLocality(benchmark::State& state) {
  // 131k pages: the score arrays fit mid-level cache on big-LLC hosts,
  // so the ordering win here is the lower bound of the effect.
  static const SiteLocalityCase c = MakeSiteLocalityCase(655);
  RunSiteLocality(state, c);
}

void BM_PageRankSiteLocalityXL(benchmark::State& state) {
  // 1M pages: the gathered out-share array (8 MB) exceeds any private
  // cache, the regime the reordering is actually for.
  static const SiteLocalityCase c = MakeSiteLocalityCase(5000);
  RunSiteLocality(state, c);
}

// ---------------------------------------------------------------------------
// Warm DeltaPageRank after one change to the 131k-page site graph, on
// both engine paths: period 1 (the fused kernel; sweep:gs is what
// ingest runs) and period 8 (the frozen-set engine, what SnapshotSeries
// runs; Jacobi only).
//  * growth: about one ingest-stream generation — ~1.1k in-site link
//    adds, 130 links to newly born pages, 200 removals. Each birth
//    changes the teleport share 1/n of every row, so most rows wake.
//  * site_local: 10 link adds inside each of 10 sites, no new pages;
//    the perturbation stays local and most rows stay frozen.
// The rows per regime record the split that keeps both periods, and
// the Jacobi-vs-Gauss-Seidel sweep counts; --partition= picks the row
// partition (the Gauss-Seidel blocks).
// ---------------------------------------------------------------------------

enum class DeltaRegime { kGrowth, kSiteLocal };

struct DeltaCase {
  qrank::CsrGraph graph;          // the changed graph
  std::vector<uint8_t> frontier;  // its dirty frontier
  std::vector<double> warm;       // converged pre-change scores, resized
};

DeltaCase MakeDeltaCase(DeltaRegime regime) {
  constexpr qrank::NodeId kPagesPerSite = 200;
  qrank::Rng rng(4242);
  const qrank::CsrGraph g0 =
      qrank::CsrGraph::FromEdgeList(
          qrank::GenerateSiteClustered(655, kPagesPerSite, 12, 6, &rng)
              .value())
          .value();
  const qrank::NodeId n0 = g0.num_nodes();
  std::vector<qrank::Edge> edges;
  edges.reserve(g0.num_edges() + 1500);
  for (qrank::NodeId u = 0; u < n0; ++u) {
    for (qrank::NodeId v : g0.OutNeighbors(u)) edges.push_back({u, v});
  }
  auto add_in_site = [&](qrank::NodeId site) {
    const qrank::NodeId base = site * kPagesPerSite;
    const auto src =
        base + static_cast<qrank::NodeId>(rng.UniformUint64(kPagesPerSite));
    const auto dst =
        base + static_cast<qrank::NodeId>(rng.UniformUint64(kPagesPerSite));
    if (src != dst) edges.push_back({src, dst});
  };
  const qrank::NodeId num_sites = n0 / kPagesPerSite;
  qrank::NodeId n1 = n0;
  if (regime == DeltaRegime::kGrowth) {
    for (int k = 0; k < 200; ++k) {
      const size_t i = rng.UniformUint64(edges.size());
      edges[i] = edges.back();
      edges.pop_back();
    }
    for (int k = 0; k < 1100; ++k) {
      add_in_site(static_cast<qrank::NodeId>(rng.UniformUint64(num_sites)));
    }
    for (int k = 0; k < 130; ++k) {
      edges.push_back(
          {static_cast<qrank::NodeId>(rng.UniformUint64(n0)), n1++});
    }
  } else {
    for (qrank::NodeId site = 0; site < 10; ++site) {
      for (int k = 0; k < 10; ++k) add_in_site(site * (num_sites / 10));
    }
  }
  DeltaCase c;
  c.graph = qrank::CsrGraph::FromEdges(n1, edges).value();
  c.frontier = qrank::GraphDelta::Between(g0, c.graph).DirtyFrontier(c.graph);
  c.warm = qrank::ProjectToSize(
      qrank::ComputePageRank(g0, qrank::PageRankOptions{})->scores, n1);
  c.graph.BuildTranspose();  // outside the timed region
  return c;
}

void BM_DeltaPageRank(benchmark::State& state, DeltaRegime regime,
                      qrank::SweepMethod sweep) {
  static const DeltaCase growth = MakeDeltaCase(DeltaRegime::kGrowth);
  static const DeltaCase site_local = MakeDeltaCase(DeltaRegime::kSiteLocal);
  const DeltaCase& c = regime == DeltaRegime::kGrowth ? growth : site_local;
  qrank::DeltaPageRankOptions o;  // the ingest tolerance and damping
  o.base.initial_scores = c.warm;
  o.base.partition = g_partition;
  o.base.sweep = sweep;
  o.full_sweep_period = static_cast<uint32_t>(state.range(0));
  uint32_t iterations = 0;
  uint64_t updates = 0;
  for (auto _ : state) {
    auto r = qrank::ComputeDeltaPageRank(c.graph, c.frontier, o);
    iterations = r->base.iterations;
    updates = r->node_updates;
    benchmark::DoNotOptimize(r->base.scores.data());
  }
  size_t dirty = 0;
  for (uint8_t f : c.frontier) dirty += f != 0;
  const double n = static_cast<double>(c.graph.num_nodes());
  state.counters["iters"] = iterations;
  state.counters["upd/iter/node"] =
      static_cast<double>(updates) / (static_cast<double>(iterations) * n);
  state.counters["dirty_frac"] = static_cast<double>(dirty) / n;
}

// ---------------------------------------------------------------------------
// Kernel throughput: scalar vs SIMD x raw vs compressed transpose, on
// the sitexl graph under the --order= relabeling. Fixed 20 Jacobi
// iterations; counters carry edges/s, the resolved dispatch level and
// the measured in-neighbor bytes-per-edge, and the
// --check_kernel_regression gate in main reads them back.
// ---------------------------------------------------------------------------

const qrank::CsrGraph& KernelGraph() {
  static const qrank::CsrGraph g = [] {
    qrank::CsrGraph crawl = MakeCrawlOrderSiteGraph(5000);
    qrank::CsrGraph ordered =
        std::move(qrank::ReorderGraph(crawl, g_order).value().graph);
    ordered.BuildTranspose();
    ordered.BuildCompressedTranspose();
    return ordered;
  }();
  return g;
}

void RunKernelThroughput(benchmark::State& state, qrank::KernelVariant kernel,
                         bool compressed) {
  const qrank::CsrGraph& g = KernelGraph();
  qrank::PageRankOptions o = BaseOptions();
  o.max_iterations = 20;
  o.tolerance = 1e-300;  // never met: fixed work per run
  o.partition = g_partition;
  o.kernel = kernel;
  o.use_compressed_transpose = compressed;
  o.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto r = qrank::ComputePageRank(g, o);
    benchmark::DoNotOptimize(r->scores.data());
  }
  const qrank::TransposeStorageStats storage =
      qrank::ComputeTransposeStorage(g);
  state.counters["threads"] = static_cast<double>(state.range(0));
  state.counters["simd_level"] = static_cast<double>(
      qrank::rank_internal::KernelVariantLevel(kernel));
  state.counters["bytes_per_edge"] = compressed
                                         ? storage.compressed_bytes_per_edge
                                         : storage.raw_bytes_per_edge;
  state.counters["compression_ratio"] = storage.compression_ratio;
  state.counters["edges/s"] = benchmark::Counter(
      static_cast<double>(g.num_edges()) * 20.0,
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_PageRankKernelScalar(benchmark::State& state) {
  RunKernelThroughput(state, qrank::KernelVariant::kScalar, false);
}
void BM_PageRankKernelScalarCompressed(benchmark::State& state) {
  RunKernelThroughput(state, qrank::KernelVariant::kScalar, true);
}
void BM_PageRankKernelSimd(benchmark::State& state) {
  RunKernelThroughput(state, qrank::KernelVariant::kSimd, false);
}
void BM_PageRankKernelSimdCompressed(benchmark::State& state) {
  RunKernelThroughput(state, qrank::KernelVariant::kSimd, true);
}

// --check_kernel_regression: fails the process unless, within this very
// run, (a) the SIMD kernel beat the scalar oracle on sitexl by
// --min_simd_speedup (default 1.2x; within-run ratios survive host
// changes where absolute floors do not), (b) SIMD throughput cleared
// --min_simd_edges_per_s (default 700M/s, the PR acceptance floor of
// 2x the 355M/s the scalar kernel shipped at), and (c) the delta-gap
// transpose actually compressed by >= --min_compression (default 1.8x).
int CheckKernelRegression(const std::vector<qrank_bench::BenchRow>& rows,
                          double min_speedup, double min_edges_per_s,
                          double min_compression) {
  auto find = [&rows](const std::string& name) -> const qrank_bench::BenchRow* {
    for (const qrank_bench::BenchRow& r : rows) {
      if (r.name.rfind(name, 0) == 0) return &r;
    }
    return nullptr;
  };
  const qrank_bench::BenchRow* scalar = find("BM_PageRankKernelScalar/");
  const qrank_bench::BenchRow* simd = find("BM_PageRankKernelSimd/");
  const qrank_bench::BenchRow* compressed =
      find("BM_PageRankKernelSimdCompressed/");
  if (scalar == nullptr || simd == nullptr || compressed == nullptr) {
    std::fprintf(stderr,
                 "check_kernel_regression: kernel benchmarks missing from "
                 "this run (use a filter that keeps BM_PageRankKernel*)\n");
    return 1;
  }
  int rc = 0;
  const double scalar_rate = scalar->Counter("edges/s");
  const double simd_rate = simd->Counter("edges/s");
  const double speedup = scalar_rate > 0.0 ? simd_rate / scalar_rate : 0.0;
  const double ratio = compressed->Counter("compression_ratio");
  if (simd->Counter("simd_level") < 2.0) {
    // Scalar-only host/build, or AVX2-only (level 1): the documented
    // speedup comes from 512-bit gathers — AVX2's are microcoded on
    // common cores and land at scalar speed, so gating throughput
    // there would flake on mixed CI fleets. Still enforce the
    // compression gate, which is host-independent.
    std::fprintf(stderr,
                 "check_kernel_regression: AVX-512 unavailable (dispatch "
                 "level %.0f); skipping throughput gates\n",
                 simd->Counter("simd_level"));
  } else {
    if (speedup < min_speedup) {
      std::fprintf(stderr,
                   "check_kernel_regression: FAIL simd/scalar speedup "
                   "%.2fx < %.2fx (scalar %.3g simd %.3g edges/s)\n",
                   speedup, min_speedup, scalar_rate, simd_rate);
      rc = 1;
    }
    if (simd_rate < min_edges_per_s) {
      std::fprintf(stderr,
                   "check_kernel_regression: FAIL simd throughput %.3g "
                   "edges/s < floor %.3g\n",
                   simd_rate, min_edges_per_s);
      rc = 1;
    }
  }
  if (ratio < min_compression) {
    std::fprintf(stderr,
                 "check_kernel_regression: FAIL transpose compression "
                 "%.2fx < %.2fx\n",
                 ratio, min_compression);
    rc = 1;
  }
  if (rc == 0) {
    std::fprintf(stderr,
                 "check_kernel_regression: PASS speedup %.2fx, simd %.3g "
                 "edges/s, compression %.2fx\n",
                 speedup, simd_rate, ratio);
  }
  return rc;
}

}  // namespace

BENCHMARK(BM_PageRankPower)->Arg(1024)->Arg(8192)->Arg(65536)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PageRankPowerThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_PageRankGaussSeidel)->Arg(1024)->Arg(8192)->Arg(65536)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PageRankAdaptive)->Arg(1024)->Arg(8192)->Arg(65536)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PageRankExtrapolated)->Arg(1024)->Arg(8192)->Arg(65536)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PageRankHighDamping)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PageRankWarmStart)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PageRankSiteLocality)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_PageRankSiteLocalityXL)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_DeltaPageRank, growth/sweep:jacobi, DeltaRegime::kGrowth,
                  qrank::SweepMethod::kJacobi)
    ->ArgName("period")->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_DeltaPageRank, growth/sweep:gs, DeltaRegime::kGrowth,
                  qrank::SweepMethod::kBlockGaussSeidel)
    ->ArgName("period")->Arg(1)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_DeltaPageRank, site_local/sweep:jacobi,
                  DeltaRegime::kSiteLocal, qrank::SweepMethod::kJacobi)
    ->ArgName("period")->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_DeltaPageRank, site_local/sweep:gs,
                  DeltaRegime::kSiteLocal,
                  qrank::SweepMethod::kBlockGaussSeidel)
    ->ArgName("period")->Arg(1)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_PageRankKernelScalar)->Arg(1)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_PageRankKernelScalarCompressed)->Arg(1)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_PageRankKernelSimd)->Arg(1)->Arg(8)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();
BENCHMARK(BM_PageRankKernelSimdCompressed)->Arg(1)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()
    ->UseRealTime();

// Shared BenchMain handles --threads= and the BENCH_pagerank.json
// output. Stripped here: --order=identity|degree|bfs|hybrid and
// --partition=node|edge relabel/partition the site-locality and kernel
// suites; --kernel=scalar|simd|avx2|avx512 and --compressed=BOOL steer
// the site-locality benchmarks (the kernel suite pins its own
// variants); --check_kernel_regression[=BOOL] plus the
// --min_simd_speedup= / --min_simd_edges_per_s= / --min_compression=
// floors turn the run into a CI gate.
int main(int argc, char** argv) {
  bool check_regression = false;
  double min_speedup = 1.2;
  double min_edges_per_s = 7e8;
  double min_compression = 1.8;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--order=", 0) == 0) {
      g_order = qrank::ParseNodeOrdering(a.substr(8)).value();
      continue;
    }
    if (a.rfind("--partition=", 0) == 0) {
      if (!qrank::ParseSweepPartition(a.substr(12), &g_partition)) {
        std::fprintf(stderr, "bad --partition= value '%s'\n",
                     a.substr(12).c_str());
        return 1;
      }
      continue;
    }
    if (a.rfind("--kernel=", 0) == 0) {
      if (!qrank::ParseKernelVariant(a.substr(9), &g_kernel)) {
        std::fprintf(stderr, "bad --kernel= value '%s'\n",
                     a.substr(9).c_str());
        return 1;
      }
      continue;
    }
    if (a.rfind("--compressed", 0) == 0) {
      g_compressed = a != "--compressed=false" && a != "--compressed=0";
      continue;
    }
    if (a == "--check_kernel_regression" ||
        a == "--check_kernel_regression=true") {
      check_regression = true;
      continue;
    }
    if (a.rfind("--min_simd_speedup=", 0) == 0) {
      min_speedup = std::atof(a.c_str() + 19);
      continue;
    }
    if (a.rfind("--min_simd_edges_per_s=", 0) == 0) {
      min_edges_per_s = std::atof(a.c_str() + 23);
      continue;
    }
    if (a.rfind("--min_compression=", 0) == 0) {
      min_compression = std::atof(a.c_str() + 18);
      continue;
    }
    args.push_back(argv[i]);
  }
  return qrank_bench::BenchMain(
      static_cast<int>(args.size()), args.data(), "pagerank",
      [&](const std::vector<qrank_bench::BenchRow>& rows) {
        return check_regression
                   ? CheckKernelRegression(rows, min_speedup, min_edges_per_s,
                                           min_compression)
                   : 0;
      });
}
