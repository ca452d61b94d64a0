// Equivalence suite for the SIMD pull-sweep variants and the compressed
// (decode-on-the-fly) pull path, against the scalar oracle
// (DESIGN.md §5g):
//   - AVX2: bit-exact vs scalar — the accumulator is the scalar
//     4-accumulator fold with p0..p3 as the four lanes of one __m256d.
//   - AVX-512: a different fold association; <= 1e-14 per-element bound
//     on mass-1 scores, every generator, thread count and partition.
//   - Compressed: the shared fused decode+accumulate uses the scalar
//     fold, so compressed scores are bit-exact vs scalar raw for EVERY
//     variant.
//   - Block Gauss-Seidel sweeps: the same two contracts (AVX2 bit-exact,
//     AVX-512 within the bound) against the scalar GS sweep.
// Variants that the host (or build, or QRANK_FORCE_SIMD_LEVEL) cannot
// dispatch resolve to a lower level; those cases degenerate to
// scalar-vs-scalar and pass trivially, so the suite is safe on any CPU
// while exercising the full matrix on AVX-capable ones.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/snapshot_series.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "rank/delta_pagerank.h"
#include "rank/pagerank.h"
#include "rank/sweep_ops.h"

namespace qrank {
namespace {

// Per-element bound for the AVX-512 fold (DESIGN.md §5g): each pull is
// a re-association of deg(i) addends, so its error is O(deg * eps *
// pull) and the iteration contracts the accumulated drift to
// ~alpha/(1-alpha) times one sweep's worth. A hub with in-degree in
// the hundreds and a ~0.15 score lands near 2e-15; 1e-14 holds that
// with ~5x margin across every generator here.
constexpr double kAvx512Tolerance = 1e-14;

const int kThreadCounts[] = {1, 2, 4, 8};
const SweepPartition kPartitions[] = {SweepPartition::kNodeBalanced,
                                      SweepPartition::kEdgeBalanced};

struct NamedGraph {
  std::string name;
  CsrGraph graph;
};

// One instance of every generator family, sized to cross the parallel
// grain with several blocks while staying fast under sanitizers.
std::vector<NamedGraph> TestGraphs() {
  std::vector<NamedGraph> graphs;
  {
    Rng rng(11);
    graphs.push_back(
        {"barabasi_albert",
         CsrGraph::FromEdgeList(GenerateBarabasiAlbert(4000, 6, &rng).value())
             .value()});
  }
  {
    Rng rng(12);
    // Sparse enough to leave dangling nodes.
    graphs.push_back(
        {"erdos_renyi",
         CsrGraph::FromEdgeList(GenerateErdosRenyi(1500, 0.002, &rng).value())
             .value()});
  }
  {
    Rng rng(13);
    graphs.push_back(
        {"copy_model",
         CsrGraph::FromEdgeList(
             GenerateCopyModel(3000, 5, 0.5, &rng).value())
             .value()});
  }
  {
    Rng rng(14);
    graphs.push_back(
        {"site_clustered",
         CsrGraph::FromEdgeList(
             GenerateSiteClustered(40, 50, 8, 4, &rng).value())
             .value()});
  }
  {
    Rng rng(15);
    graphs.push_back(
        {"quality_seeded",
         CsrGraph::FromEdgeList(
             GenerateQualitySeeded(2500, 5, 2.0, 5.0, 2.0, &rng)
                 .value()
                 .edges)
             .value()});
  }
  graphs.push_back(
      {"ring", CsrGraph::FromEdgeList(GenerateRing(500, 3).value()).value()});
  graphs.push_back(
      {"star",
       CsrGraph::FromEdgeList(GenerateStar(400).value()).value()});
  return graphs;
}

// Fixed work for the kernel-equivalence runs: a tolerance-based stop
// would couple the comparison to the convergence test — a residual
// landing within one ulp of the threshold could legally shift the
// AVX-512 iteration count by one and smear the per-element bound into
// a residual-sized difference.
PageRankOptions FixedWorkOptions() {
  PageRankOptions o;
  o.tolerance = 1e-300;  // never met
  o.max_iterations = 60;
  return o;
}

// True when `variant` actually resolves to a different fold than the
// scalar oracle on this host/build (i.e. AVX-512 dispatched).
bool ResolvesToAvx512(KernelVariant variant) {
  return rank_internal::KernelVariantLevel(variant) == SimdLevel::kAvx512;
}

void ExpectEquivalent(const NamedGraph& g, KernelVariant variant,
                      bool compressed,
                      SweepMethod sweep = SweepMethod::kJacobi) {
  // Compressed rows always run the scalar fold; raw AVX-512 is the one
  // combination allowed the documented tolerance.
  const bool exact = compressed || !ResolvesToAvx512(variant);
  for (SweepPartition partition : kPartitions) {
    // The residual reduction tree follows the block boundaries, which
    // the partition mode moves — so the scalar oracle must share the
    // partition for residual/iteration equality to be meaningful.
    PageRankOptions scalar_options = FixedWorkOptions();
    scalar_options.partition = partition;
    scalar_options.sweep = sweep;
    scalar_options.num_threads = 1;
    const Result<PageRankResult> oracle =
        ComputePageRank(g.graph, scalar_options);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(g.name + " variant=" + KernelVariantName(variant) +
                   (compressed ? " compressed" : " raw") + " partition=" +
                   (partition == SweepPartition::kNodeBalanced ? "node"
                                                               : "edge") +
                   " threads=" + std::to_string(threads) +
                   (sweep == SweepMethod::kJacobi ? "" : " gauss-seidel"));
      PageRankOptions o = FixedWorkOptions();
      o.sweep = sweep;
      o.kernel = variant;
      o.use_compressed_transpose = compressed;
      o.partition = partition;
      o.num_threads = threads;
      const Result<PageRankResult> r = ComputePageRank(g.graph, o);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->scores.size(), oracle->scores.size());
      if (exact) {
        EXPECT_EQ(r->iterations, oracle->iterations);
        EXPECT_EQ(r->residual, oracle->residual);
        for (size_t i = 0; i < r->scores.size(); ++i) {
          ASSERT_EQ(r->scores[i], oracle->scores[i]) << "node " << i;
        }
      } else {
        for (size_t i = 0; i < r->scores.size(); ++i) {
          ASSERT_NEAR(r->scores[i], oracle->scores[i], kAvx512Tolerance)
              << "node " << i;
        }
      }
    }
  }
}

TEST(SimdEquivalenceTest, Avx2BitExactOnAllGenerators) {
  for (const NamedGraph& g : TestGraphs()) {
    ExpectEquivalent(g, KernelVariant::kAvx2, /*compressed=*/false);
  }
}

TEST(SimdEquivalenceTest, Avx512WithinToleranceOnAllGenerators) {
  for (const NamedGraph& g : TestGraphs()) {
    ExpectEquivalent(g, KernelVariant::kAvx512, /*compressed=*/false);
  }
}

TEST(SimdEquivalenceTest, BestSimdOnAllGenerators) {
  for (const NamedGraph& g : TestGraphs()) {
    ExpectEquivalent(g, KernelVariant::kSimd, /*compressed=*/false);
  }
}

// Block Gauss-Seidel feeds each row to the accumulator as three runs
// (old, fresh, old shares). Accumulate calls compose the same way in
// the scalar and AVX2 folds, so the AVX2 contract carries over; the
// fixed-work options keep every one of the 60 sweeps a GS sweep.
TEST(SimdEquivalenceTest, GaussSeidelAvx2BitExactOnAllGenerators) {
  for (const NamedGraph& g : TestGraphs()) {
    ExpectEquivalent(g, KernelVariant::kAvx2, /*compressed=*/false,
                     SweepMethod::kBlockGaussSeidel);
  }
}

TEST(SimdEquivalenceTest, GaussSeidelAvx512WithinToleranceOnAllGenerators) {
  for (const NamedGraph& g : TestGraphs()) {
    ExpectEquivalent(g, KernelVariant::kAvx512, /*compressed=*/false,
                     SweepMethod::kBlockGaussSeidel);
  }
}

TEST(SimdEquivalenceTest, CompressedBitExactForEveryVariant) {
  for (const NamedGraph& g : TestGraphs()) {
    for (KernelVariant variant :
         {KernelVariant::kScalar, KernelVariant::kAvx2, KernelVariant::kAvx512,
          KernelVariant::kSimd}) {
      ExpectEquivalent(g, variant, /*compressed=*/true);
    }
  }
}

TEST(SimdEquivalenceTest, ScalarRequestNeverDispatchesSimd) {
  // kScalar is the default and the oracle: requesting it must resolve
  // to the scalar fold even on AVX-capable hosts.
  EXPECT_EQ(rank_internal::KernelVariantLevel(KernelVariant::kScalar),
            SimdLevel::kScalar);
}

TEST(SimdEquivalenceTest, VariantNamesRoundTrip) {
  for (KernelVariant v : {KernelVariant::kScalar, KernelVariant::kSimd,
                          KernelVariant::kAvx2, KernelVariant::kAvx512}) {
    KernelVariant parsed;
    ASSERT_TRUE(ParseKernelVariant(KernelVariantName(v), &parsed));
    EXPECT_EQ(parsed, v);
  }
  KernelVariant parsed;
  EXPECT_FALSE(ParseKernelVariant("sse2", &parsed));
}

TEST(SimdEquivalenceTest, WarmStartMatchesScalarWarmStart) {
  // SnapshotSeries warm-start mode: the second solve starts from the
  // first solve's scores. SIMD must agree with scalar along the whole
  // warm-started trajectory, not just from the uniform start.
  Rng rng(21);
  CsrGraph g =
      CsrGraph::FromEdgeList(GenerateBarabasiAlbert(3000, 5, &rng).value())
          .value();
  PageRankOptions cold_options;
  cold_options.tolerance = 1e-10;
  const PageRankResult cold = ComputePageRank(g, cold_options).value();

  PageRankOptions scalar_options = FixedWorkOptions();
  scalar_options.max_iterations = 30;
  scalar_options.initial_scores = cold.scores;
  const PageRankResult warm_scalar =
      ComputePageRank(g, scalar_options).value();

  for (bool compressed : {false, true}) {
    PageRankOptions o = scalar_options;
    o.kernel = KernelVariant::kSimd;
    o.use_compressed_transpose = compressed;
    const PageRankResult warm_simd = ComputePageRank(g, o).value();
    ASSERT_EQ(warm_simd.scores.size(), warm_scalar.scores.size());
    const bool exact = compressed || !ResolvesToAvx512(KernelVariant::kSimd);
    for (size_t i = 0; i < warm_simd.scores.size(); ++i) {
      if (exact) {
        ASSERT_EQ(warm_simd.scores[i], warm_scalar.scores[i]) << "node " << i;
      } else {
        ASSERT_NEAR(warm_simd.scores[i], warm_scalar.scores[i],
                    kAvx512Tolerance)
            << "node " << i;
      }
    }
  }
}

TEST(SimdEquivalenceTest, DeltaEngineCompressedMatchesRaw) {
  // The incremental engine routes per-row pulls through the dispatched
  // row_pull/compressed_row_pull pointers; compressed rows must
  // reproduce the raw-row solve bit-for-bit (both run the scalar fold).
  Rng rng(31);
  CsrGraph g0 =
      CsrGraph::FromEdgeList(GenerateBarabasiAlbert(2000, 5, &rng).value())
          .value();
  // Tolerance-based stop is safe here: every run below uses the scalar
  // fold, so trajectories are float-identical and stop together.
  PageRankOptions base;
  base.tolerance = 1e-11;
  const PageRankResult r0 = ComputePageRank(g0, base).value();

  std::vector<Edge> edges;
  for (NodeId u = 0; u < g0.num_nodes(); ++u) {
    for (NodeId v : g0.OutNeighbors(u)) edges.push_back({u, v});
  }
  for (int k = 0; k < 30; ++k) {
    NodeId u = static_cast<NodeId>(rng.UniformUint64(g0.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.UniformUint64(g0.num_nodes()));
    if (u != v) edges.push_back({u, v});
  }
  CsrGraph g1 = CsrGraph::FromEdges(g0.num_nodes(), edges).value();
  const GraphDelta delta = GraphDelta::Between(g0, g1);
  const std::vector<uint8_t> frontier = delta.DirtyFrontier(g1);

  DeltaPageRankOptions options;
  options.base = base;
  options.base.initial_scores = r0.scores;
  const DeltaPageRankResult raw =
      ComputeDeltaPageRank(g1, frontier, options).value();

  options.base.use_compressed_transpose = true;
  for (KernelVariant variant : {KernelVariant::kScalar, KernelVariant::kSimd}) {
    options.base.kernel = variant;
    const DeltaPageRankResult compressed =
        ComputeDeltaPageRank(g1, frontier, options).value();
    EXPECT_EQ(compressed.base.iterations, raw.base.iterations);
    EXPECT_EQ(compressed.node_updates, raw.node_updates);
    ASSERT_EQ(compressed.base.scores.size(), raw.base.scores.size());
    for (size_t i = 0; i < raw.base.scores.size(); ++i) {
      ASSERT_EQ(compressed.base.scores[i], raw.base.scores[i])
          << "node " << i << " variant=" << KernelVariantName(variant);
    }
  }
}

void FillSeries(SnapshotSeries* s) {
  Rng rng(41);
  std::vector<Edge> edges =
      GenerateBarabasiAlbert(1500, 4, &rng).value().edges();
  for (int i = 0; i < 3; ++i) {
    const NodeId n = static_cast<NodeId>(1500 + 40 * i);
    for (int k = 0; k < 50 * i; ++k) {
      NodeId u = static_cast<NodeId>(rng.UniformUint64(n));
      NodeId v = static_cast<NodeId>(rng.UniformUint64(n));
      if (u != v) edges.push_back({u, v});
    }
    ASSERT_TRUE(
        s->AddSnapshot(i + 1.0, CsrGraph::FromEdges(n, edges).value()).ok());
  }
}

TEST(SimdEquivalenceTest, SnapshotSeriesCompressedMatchesScalar) {
  // End-to-end over both series modes: warm-started from-scratch solves
  // and the incremental delta pipeline, with the compressed transpose
  // and SIMD dispatch on. Compressed rows run the scalar fold, so the
  // whole trajectory is bit-identical to the scalar baseline.
  for (SeriesMode mode : {SeriesMode::kWarmStart, SeriesMode::kIncremental}) {
    SeriesComputeOptions o;
    o.mode = mode;
    o.pagerank.tolerance = 1e-11;
    o.pagerank.max_iterations = 2000;

    SnapshotSeries reference;
    FillSeries(&reference);
    ASSERT_TRUE(reference.ComputePageRanks(o).ok());

    o.pagerank.kernel = KernelVariant::kSimd;
    o.pagerank.use_compressed_transpose = true;
    SnapshotSeries series;
    FillSeries(&series);
    ASSERT_TRUE(series.ComputePageRanks(o).ok());

    for (size_t i = 0; i < reference.num_snapshots(); ++i) {
      EXPECT_EQ(series.iterations_per_snapshot()[i],
                reference.iterations_per_snapshot()[i])
          << "snapshot " << i;
      ASSERT_EQ(series.pagerank(i).size(), reference.pagerank(i).size());
      for (size_t p = 0; p < reference.pagerank(i).size(); ++p) {
        ASSERT_EQ(series.pagerank(i)[p], reference.pagerank(i)[p])
            << "snapshot " << i << " node " << p;
      }
    }
  }
}

}  // namespace
}  // namespace qrank
