#include "rank/delta_pagerank.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/graph_delta.h"
#include "rank/rank_vector.h"

namespace qrank {
namespace {

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) d += std::fabs(a[i] - b[i]);
  return d;
}

CsrGraph RandomGraph(NodeId n, uint32_t deg, uint64_t seed) {
  Rng rng(seed);
  return CsrGraph::FromEdgeList(GenerateBarabasiAlbert(n, deg, &rng).value())
      .value();
}

// A successor graph with a handful of edge changes.
CsrGraph Perturb(const CsrGraph& g, int add_count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) edges.push_back({u, v});
  }
  for (int k = 0; k < add_count; ++k) {
    NodeId u = static_cast<NodeId>(rng.UniformUint64(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.UniformUint64(g.num_nodes()));
    if (u != v) edges.push_back({u, v});
  }
  return CsrGraph::FromEdges(g.num_nodes(), edges).value();
}

TEST(DeltaPageRankTest, ColdStartMatchesPlainPageRank) {
  CsrGraph g = RandomGraph(2000, 5, 7);
  PageRankOptions base;
  base.tolerance = 1e-11;
  PageRankResult plain = ComputePageRank(g, base).value();

  DeltaPageRankOptions options;
  options.base = base;
  // Empty frontier = everything dirty (a cold start).
  DeltaPageRankResult delta = ComputeDeltaPageRank(g, {}, options).value();
  EXPECT_TRUE(delta.base.converged);
  EXPECT_LT(L1Distance(delta.base.scores, plain.scores), 1e-9);
}

TEST(DeltaPageRankTest, WarmStartWithFrontierMatchesFromScratch) {
  // The exactness contract: after a small perturbation, the frozen-set
  // warm-started solve agrees with the from-scratch solve within the
  // engine tolerance.
  CsrGraph g0 = RandomGraph(3000, 5, 11);
  PageRankOptions base;
  base.tolerance = 1e-11;
  PageRankResult r0 = ComputePageRank(g0, base).value();

  CsrGraph g1 = Perturb(g0, 40, 13);
  GraphDelta delta = GraphDelta::Between(g0, g1);
  ASSERT_FALSE(delta.empty());

  DeltaPageRankOptions options;
  options.base = base;
  options.base.initial_scores = r0.scores;
  DeltaPageRankResult incr =
      ComputeDeltaPageRank(g1, delta.DirtyFrontier(g1), options).value();
  PageRankResult scratch = ComputePageRank(g1, base).value();

  EXPECT_TRUE(incr.base.converged);
  EXPECT_LT(L1Distance(incr.base.scores, scratch.scores), 1e-9);
}

TEST(DeltaPageRankTest, SiteLocalDeltaDoesFarFewerNodeUpdates) {
  // On a site-clustered graph (the regime the engine targets — a pure
  // preferential-attachment expander mixes any perturbation globally in
  // a few hops), churn confined to one site leaves distant sites frozen.
  Rng rng(17);
  CsrGraph g0 =
      CsrGraph::FromEdgeList(GenerateSiteClustered(50, 100, 4, 3, &rng).value())
          .value();
  PageRankOptions base;
  base.tolerance = 1e-10;
  PageRankResult r0 = ComputePageRank(g0, base).value();

  // Add 10 edges inside site 7 (pages 700..799).
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g0.num_nodes(); ++u) {
    for (NodeId v : g0.OutNeighbors(u)) edges.push_back({u, v});
  }
  for (int k = 0; k < 10; ++k) {
    NodeId u = 700 + static_cast<NodeId>(rng.UniformUint64(100));
    NodeId v = 700 + static_cast<NodeId>(rng.UniformUint64(100));
    if (u != v) edges.push_back({u, v});
  }
  CsrGraph g1 = CsrGraph::FromEdges(g0.num_nodes(), edges).value();
  GraphDelta delta = GraphDelta::Between(g0, g1);
  ASSERT_FALSE(delta.empty());

  DeltaPageRankOptions options;
  options.base = base;
  options.base.initial_scores = r0.scores;
  DeltaPageRankResult incr =
      ComputeDeltaPageRank(g1, delta.DirtyFrontier(g1), options).value();
  PageRankResult scratch = ComputePageRank(g1, base).value();

  EXPECT_TRUE(incr.base.converged);
  EXPECT_LT(L1Distance(incr.base.scores, scratch.scores), 1e-8);
  const uint64_t scratch_updates =
      static_cast<uint64_t>(scratch.iterations) * g1.num_nodes();
  EXPECT_LT(incr.node_updates, scratch_updates / 3);
  EXPECT_GT(incr.frozen_at_end, 0u);
}

TEST(DeltaPageRankTest, FrontierTouchingOnlyDanglingNodes) {
  // 3 and 4 are dangling; a frontier containing only them still
  // converges to the true fixed point (dangling mass redistribution
  // makes their scores globally coupled).
  CsrGraph g =
      CsrGraph::FromEdges(5, {{0, 1}, {0, 3}, {1, 2}, {2, 0}, {2, 4}})
          .value();
  PageRankOptions base;
  base.tolerance = 1e-12;
  PageRankResult scratch = ComputePageRank(g, base).value();

  DeltaPageRankOptions options;
  options.base = base;
  options.base.initial_scores = scratch.scores;
  std::vector<uint8_t> frontier = {0, 0, 0, 1, 1};
  DeltaPageRankResult incr =
      ComputeDeltaPageRank(g, frontier, options).value();
  EXPECT_TRUE(incr.base.converged);
  EXPECT_LT(L1Distance(incr.base.scores, scratch.scores), 1e-10);
}

TEST(DeltaPageRankTest, TotalMassNScale) {
  CsrGraph g = RandomGraph(1000, 4, 23);
  PageRankOptions base;
  base.scale = ScaleConvention::kTotalMassN;
  base.tolerance = 1e-11;
  DeltaPageRankOptions options;
  options.base = base;
  DeltaPageRankResult r = ComputeDeltaPageRank(g, {}, options).value();
  double sum = 0.0;
  for (double s : r.base.scores) sum += s;
  EXPECT_NEAR(sum, static_cast<double>(g.num_nodes()), 1e-6);
}

TEST(DeltaPageRankTest, FullSweepPeriodOneIsPlainWarmJacobi) {
  // Period 1 skips no row, so it must be exactly ComputePageRank warm-
  // started from the same vector (then renormalized): bitwise scores,
  // the same iterations and residual, n updates per iteration, nothing
  // frozen or hidden. The successor graph grows by 40 dangling pages
  // (the ingest regime: every row's teleport share changes), and the
  // all-frozen frontier is ignored.
  CsrGraph g0 = RandomGraph(12000, 4, 29);
  PageRankOptions base;
  base.tolerance = 1e-11;
  std::vector<double> warm = ComputePageRank(g0, base).value().scores;

  Rng rng(31);
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g0.num_nodes(); ++u) {
    for (NodeId v : g0.OutNeighbors(u)) edges.push_back({u, v});
  }
  const NodeId n = g0.num_nodes() + 40;
  for (int k = 0; k < 200; ++k) {
    NodeId u = static_cast<NodeId>(rng.UniformUint64(g0.num_nodes()));
    NodeId v = static_cast<NodeId>(rng.UniformUint64(n));
    if (u != v) edges.push_back({u, v});
  }
  CsrGraph g1 = CsrGraph::FromEdges(n, edges).value();
  warm.resize(n, 1.0 / static_cast<double>(n));
  base.initial_scores = warm;

  for (int threads : {1, 2, 4}) {
    base.num_threads = threads;
    DeltaPageRankOptions options;
    options.base = base;
    options.full_sweep_period = 1;
    std::vector<uint8_t> frontier(n, 0);
    DeltaPageRankResult r = ComputeDeltaPageRank(g1, frontier, options).value();
    PageRankResult plain = ComputePageRank(g1, base).value();
    NormalizeSum(&plain.scores, 1.0);

    EXPECT_TRUE(r.base.converged) << "threads=" << threads;
    EXPECT_EQ(r.base.iterations, plain.iterations) << "threads=" << threads;
    EXPECT_EQ(r.base.residual, plain.residual) << "threads=" << threads;
    EXPECT_EQ(r.node_updates, uint64_t{r.base.iterations} * n);
    EXPECT_EQ(r.frozen_at_end, 0u);
    EXPECT_EQ(r.drift_ledger_total, 0.0);
    ASSERT_EQ(r.base.scores.size(), plain.scores.size());
    for (size_t i = 0; i < plain.scores.size(); ++i) {
      ASSERT_EQ(r.base.scores[i], plain.scores[i])
          << "node " << i << " threads=" << threads;
    }
  }
}

TEST(DeltaPageRankTest, PeriodOneBlockGaussSeidelIsWarmComputePageRank) {
  // The ingest setting: a site graph grows by 60 linked-to pages, and
  // period 1 with block Gauss-Seidel sweeps solves it from the old
  // scores. The result is ComputePageRank's under the same options, bit
  // for bit; it keeps the Jacobi bound (closing sweep) and needs fewer
  // sweeps than warm Jacobi.
  Rng rng(37);
  const CsrGraph g0 = CsrGraph::FromEdgeList(
                          GenerateSiteClustered(60, 200, 8, 4, &rng).value())
                          .value();
  PageRankOptions base;
  std::vector<double> warm = ComputePageRank(g0, base).value().scores;
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g0.num_nodes(); ++u) {
    for (NodeId v : g0.OutNeighbors(u)) edges.push_back({u, v});
  }
  const NodeId n = g0.num_nodes() + 60;
  for (NodeId p = g0.num_nodes(); p < n; ++p) {
    edges.push_back({static_cast<NodeId>(rng.UniformUint64(p)), p});
  }
  for (int k = 0; k < 300; ++k) {
    const NodeId u = static_cast<NodeId>(rng.UniformUint64(n));
    const NodeId v = static_cast<NodeId>(rng.UniformUint64(n));
    if (u != v) edges.push_back({u, v});
  }
  const CsrGraph g1 = CsrGraph::FromEdges(n, edges).value();
  warm.resize(n, 1.0 / static_cast<double>(n));
  base.initial_scores = warm;

  DeltaPageRankOptions jacobi_options;
  jacobi_options.base = base;
  jacobi_options.full_sweep_period = 1;
  const DeltaPageRankResult jacobi =
      ComputeDeltaPageRank(g1, {}, jacobi_options).value();

  DeltaPageRankOptions options = jacobi_options;
  options.base.sweep = SweepMethod::kBlockGaussSeidel;
  const DeltaPageRankResult r = ComputeDeltaPageRank(g1, {}, options).value();
  PageRankResult plain = ComputePageRank(g1, options.base).value();
  NormalizeSum(&plain.scores, 1.0);

  ASSERT_TRUE(r.base.converged);
  EXPECT_EQ(r.base.iterations, plain.iterations);
  EXPECT_EQ(r.base.residual, plain.residual);
  EXPECT_EQ(r.node_updates, uint64_t{r.base.iterations} * n);
  EXPECT_EQ(r.drift_ledger_total, 0.0);
  ASSERT_EQ(r.base.scores.size(), plain.scores.size());
  for (size_t i = 0; i < plain.scores.size(); ++i) {
    ASSERT_EQ(r.base.scores[i], plain.scores[i]) << "node " << i;
  }

  EXPECT_LT(r.base.iterations, jacobi.base.iterations);
  const double alpha = base.damping;
  EXPECT_LE(L1Distance(r.base.scores, jacobi.base.scores),
            2.0 * alpha * base.tolerance / (1.0 - alpha));
  PageRankOptions one_sweep;
  one_sweep.initial_scores = r.base.scores;
  one_sweep.max_iterations = 1;
  EXPECT_LT(ComputePageRank(g1, one_sweep).value().residual, base.tolerance);
}

TEST(DeltaPageRankTest, BlockGaussSeidelNeedsPeriodOneAndTheRawTranspose) {
  CsrGraph g = RandomGraph(3000, 3, 41);
  DeltaPageRankOptions options;
  options.base.sweep = SweepMethod::kBlockGaussSeidel;
  options.full_sweep_period = 8;  // the frozen-set engine has no GS sweep
  Result<DeltaPageRankResult> r = ComputeDeltaPageRank(g, {}, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);

  options.full_sweep_period = 2;
  EXPECT_EQ(ComputeDeltaPageRank(g, {}, options).status().code(),
            StatusCode::kInvalidArgument);

  options.full_sweep_period = 1;
  options.base.use_compressed_transpose = true;
  EXPECT_EQ(ComputeDeltaPageRank(g, {}, options).status().code(),
            StatusCode::kInvalidArgument);

  options.base.use_compressed_transpose = false;
  EXPECT_TRUE(ComputeDeltaPageRank(g, {}, options).ok());
}

TEST(DeltaPageRankTest, ValidatesOptions) {
  CsrGraph g = RandomGraph(100, 3, 31);
  DeltaPageRankOptions options;
  options.freeze_threshold = 0.0;
  EXPECT_FALSE(ComputeDeltaPageRank(g, {}, options).ok());

  options = {};
  options.full_sweep_period = 0;
  EXPECT_FALSE(ComputeDeltaPageRank(g, {}, options).ok());

  options = {};
  std::vector<uint8_t> wrong_size(g.num_nodes() - 1, 1);
  EXPECT_FALSE(ComputeDeltaPageRank(g, wrong_size, options).ok());

  options.base.damping = 1.5;
  EXPECT_FALSE(ComputeDeltaPageRank(g, {}, options).ok());
}

TEST(DeltaPageRankTest, EmptyGraph) {
  CsrGraph g;
  DeltaPageRankResult r = ComputeDeltaPageRank(g, {}).value();
  EXPECT_TRUE(r.base.scores.empty());
}

}  // namespace
}  // namespace qrank
