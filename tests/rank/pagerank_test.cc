#include "rank/pagerank.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "graph/generators.h"
#include "rank/delta_pagerank.h"
#include "rank/pagerank_kernel.h"

namespace qrank {
namespace {

double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

TEST(PageRankTest, EmptyGraphGivesEmptyScores) {
  CsrGraph g;
  Result<PageRankResult> r = ComputePageRank(g);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->scores.empty());
  EXPECT_TRUE(r->converged);
}

TEST(PageRankTest, ValidatesOptions) {
  CsrGraph g = CsrGraph::FromEdges(2, {{0, 1}}).value();
  PageRankOptions o;
  o.damping = 1.0;
  EXPECT_FALSE(ComputePageRank(g, o).ok());
  o = PageRankOptions{};
  o.damping = -0.1;
  EXPECT_FALSE(ComputePageRank(g, o).ok());
  o = PageRankOptions{};
  o.tolerance = 0.0;
  EXPECT_FALSE(ComputePageRank(g, o).ok());
  o = PageRankOptions{};
  o.max_iterations = 0;
  EXPECT_FALSE(ComputePageRank(g, o).ok());
}

TEST(PageRankTest, ScoresFormDistribution) {
  Rng rng(1);
  CsrGraph g = CsrGraph::FromEdgeList(
                   GenerateBarabasiAlbert(500, 3, &rng).value())
                   .value();
  Result<PageRankResult> r = ComputePageRank(g);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_NEAR(Sum(r->scores), 1.0, 1e-9);
  for (double s : r->scores) EXPECT_GT(s, 0.0);
}

TEST(PageRankTest, TotalMassNScaling) {
  CsrGraph g = CsrGraph::FromEdgeList(GenerateRing(10, 1).value()).value();
  PageRankOptions o;
  o.scale = ScaleConvention::kTotalMassN;
  Result<PageRankResult> r = ComputePageRank(g, o);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(Sum(r->scores), 10.0, 1e-8);
  // The ring is vertex-transitive: every page has PageRank exactly 1,
  // the paper's "initial value" fixed point.
  for (double s : r->scores) EXPECT_NEAR(s, 1.0, 1e-10);
}

TEST(PageRankTest, UniformOnRegularRing) {
  CsrGraph g = CsrGraph::FromEdgeList(GenerateRing(17, 3).value()).value();
  Result<PageRankResult> r = ComputePageRank(g);
  ASSERT_TRUE(r.ok());
  for (double s : r->scores) EXPECT_NEAR(s, 1.0 / 17.0, 1e-12);
}

TEST(PageRankTest, TwoNodeCycleAnalytic) {
  CsrGraph g = CsrGraph::FromEdges(2, {{0, 1}, {1, 0}}).value();
  Result<PageRankResult> r = ComputePageRank(g);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r->scores[0], 0.5, 1e-12);
  EXPECT_NEAR(r->scores[1], 0.5, 1e-12);
}

TEST(PageRankTest, ChainAnalyticValues) {
  // 0 -> 1 with damping a: x0 = (1-a)/2 + a*x_dangling_share...
  // Use the closed form for the 2-node graph 0->1 where 1 is dangling:
  // dangling mass redistributes uniformly. Let v = 1/2.
  //   x0 = (1-a)/2 + a*x1/2
  //   x1 = (1-a)/2 + a*x0 + a*x1/2
  // Solve with a = 0.85.
  CsrGraph g = CsrGraph::FromEdges(2, {{0, 1}}).value();
  PageRankOptions o;
  o.tolerance = 1e-14;
  Result<PageRankResult> r = ComputePageRank(g, o);
  ASSERT_TRUE(r.ok());
  const double a = 0.85;
  // From the equations: x0 = (1-a)/2 + a/2 * x1; x0 + x1 = 1.
  double x0 = (1.0 - a / 2.0) / 2.0 / (1.0 - a / 2.0 + a / 2.0);
  // Direct algebra: x0 = ((1-a)/2 + a/2) / (1 + a/2)?  Verify
  // numerically instead: substitute x1 = 1 - x0 into the first equation:
  // x0 = (1-a)/2 + a(1-x0)/2  =>  x0 (1 + a/2) = 1/2  => x0 = 1/(2+a).
  x0 = 1.0 / (2.0 + a);
  EXPECT_NEAR(r->scores[0], x0, 1e-10);
  EXPECT_NEAR(r->scores[1], 1.0 - x0, 1e-10);
}

TEST(PageRankTest, StarHubDominates) {
  CsrGraph g = CsrGraph::FromEdgeList(GenerateStar(20).value()).value();
  Result<PageRankResult> r = ComputePageRank(g);
  ASSERT_TRUE(r.ok());
  for (NodeId s = 1; s <= 20; ++s) {
    EXPECT_GT(r->scores[0], 5.0 * r->scores[s]);
  }
  EXPECT_NEAR(Sum(r->scores), 1.0, 1e-9);
}

TEST(PageRankTest, DanglingMassIsConserved) {
  // Graph with many dangling nodes: star (hub dangles) plus isolated
  // dangling nodes.
  EdgeList e(10);
  e.Add(1, 0);
  e.Add(2, 0);
  CsrGraph g = CsrGraph::FromEdgeList(e).value();
  Result<PageRankResult> r = ComputePageRank(g);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(Sum(r->scores), 1.0, 1e-9);
}

TEST(PageRankTest, ZeroDampingGivesTeleportDistribution) {
  CsrGraph g = CsrGraph::FromEdges(3, {{0, 1}, {1, 2}}).value();
  PageRankOptions o;
  o.damping = 0.0;
  Result<PageRankResult> r = ComputePageRank(g, o);
  ASSERT_TRUE(r.ok());
  for (double s : r->scores) EXPECT_NEAR(s, 1.0 / 3.0, 1e-12);
  EXPECT_EQ(r->iterations, 1u);
}

TEST(PageRankTest, RequireConvergenceReportsNotConverged) {
  Rng rng(2);
  CsrGraph g = CsrGraph::FromEdgeList(
                   GenerateBarabasiAlbert(200, 3, &rng).value())
                   .value();
  PageRankOptions o;
  o.max_iterations = 2;
  o.tolerance = 1e-15;
  o.require_convergence = true;
  Result<PageRankResult> r = ComputePageRank(g, o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotConverged);

  o.require_convergence = false;
  r = ComputePageRank(g, o);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->converged);
  EXPECT_EQ(r->iterations, 2u);
}

TEST(PageRankTest, HigherInDegreeHigherRank) {
  // 3 satellites point at 0; 1 satellite points at 1.
  CsrGraph g =
      CsrGraph::FromEdges(6, {{2, 0}, {3, 0}, {4, 0}, {5, 1}}).value();
  Result<PageRankResult> r = ComputePageRank(g);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->scores[0], r->scores[1]);
  EXPECT_GT(r->scores[1], r->scores[2]);
}

TEST(PageRankTest, LinkFromImportantPageWorthMore) {
  // Two receivers: node 10 is linked by a hub (itself heavily linked),
  // node 11 is linked by a leaf. Both receivers have in-degree 1.
  EdgeList e(12);
  for (NodeId s = 0; s < 8; ++s) e.Add(s, 8);  // 8 is the hub
  e.Add(8, 10);
  e.Add(9, 11);
  CsrGraph g = CsrGraph::FromEdgeList(e).value();
  Result<PageRankResult> r = ComputePageRank(g);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->scores[10], 2.0 * r->scores[11]);
}

TEST(PageRankTest, WarmStartValidation) {
  CsrGraph g = CsrGraph::FromEdges(2, {{0, 1}, {1, 0}}).value();
  PageRankOptions o;
  o.initial_scores = {1.0};  // wrong size
  EXPECT_FALSE(ComputePageRank(g, o).ok());
  o.initial_scores = {0.0, 0.0};  // all zero
  EXPECT_FALSE(ComputePageRank(g, o).ok());
  o.initial_scores = {-1.0, 2.0};  // negative
  EXPECT_FALSE(ComputePageRank(g, o).ok());
}

TEST(PageRankTest, WarmStartFromSolutionConvergesImmediately) {
  Rng rng(55);
  CsrGraph g = CsrGraph::FromEdgeList(
                   GenerateBarabasiAlbert(300, 3, &rng).value())
                   .value();
  PageRankOptions o;
  o.tolerance = 1e-10;
  auto cold = ComputePageRank(g, o);
  ASSERT_TRUE(cold.ok());
  o.initial_scores = cold->scores;
  auto warm = ComputePageRank(g, o);
  ASSERT_TRUE(warm.ok());
  EXPECT_LE(warm->iterations, 2u);
  // Same fixed point regardless of start.
  double dist = 0.0;
  for (size_t i = 0; i < warm->scores.size(); ++i) {
    dist += std::fabs(warm->scores[i] - cold->scores[i]);
  }
  EXPECT_LT(dist, 1e-9);
}

TEST(PageRankTest, WarmStartScaleIsIrrelevant) {
  CsrGraph g = CsrGraph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}}).value();
  PageRankOptions a, b;
  a.initial_scores = {1.0, 2.0, 3.0};
  b.initial_scores = {10.0, 20.0, 30.0};
  auto ra = ComputePageRank(g, a);
  auto rb = ComputePageRank(g, b);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->iterations, rb->iterations);
}

double L1Distance(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) d += std::fabs(a[i] - b[i]);
  return d;
}

CsrGraph SiteGraph() {
  Rng rng(61);
  return CsrGraph::FromEdgeList(
             GenerateSiteClustered(60, 200, 8, 4, &rng).value())
      .value();
}

TEST(PageRankTest, BlockGaussSeidelRejectsTheCompressedTranspose) {
  CsrGraph g = SiteGraph();
  PageRankOptions o;
  o.sweep = SweepMethod::kBlockGaussSeidel;
  o.use_compressed_transpose = true;
  Result<PageRankResult> r = ComputePageRank(g, o);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(PageRankTest, BlockGaussSeidelKeepsTheJacobiErrorBound) {
  // Convergence is declared on a closing Jacobi sweep, so a GS result
  // carries Jacobi's a-posteriori bound: one more Jacobi sweep moves it
  // by less than tol, and it lies within alpha * tol / (1 - alpha) of
  // the fixed point, as the Jacobi result does.
  const CsrGraph g = SiteGraph();
  PageRankOptions o;
  const PageRankResult jacobi = ComputePageRank(g, o).value();
  o.sweep = SweepMethod::kBlockGaussSeidel;
  const PageRankResult gs = ComputePageRank(g, o).value();
  ASSERT_TRUE(jacobi.converged);
  ASSERT_TRUE(gs.converged);
  EXPECT_LT(gs.residual, o.tolerance);
  EXPECT_NEAR(Sum(gs.scores), 1.0, 1e-9);

  PageRankOptions one_sweep;
  one_sweep.initial_scores = gs.scores;
  one_sweep.max_iterations = 1;
  const PageRankResult again = ComputePageRank(g, one_sweep).value();
  EXPECT_LT(again.residual, o.tolerance);

  const double alpha = o.damping;
  EXPECT_LE(L1Distance(gs.scores, jacobi.scores),
            2.0 * alpha * o.tolerance / (1.0 - alpha));
}

TEST(PageRankTest, BlockGaussSeidelStopsOnAJacobiSweep) {
  // The stopping rule, replayed on the kernel: GS sweeps until one
  // changes the iterate by less than tol, then Jacobi sweeps until a
  // Jacobi residual is below tol. ComputePageRank must return exactly
  // that iterate, sweep count and residual.
  const CsrGraph g = SiteGraph();
  PageRankOptions o;
  o.sweep = SweepMethod::kBlockGaussSeidel;
  const PageRankResult r = ComputePageRank(g, o).value();

  const std::vector<double> uniform(g.num_nodes(),
                                    1.0 / static_cast<double>(g.num_nodes()));
  rank_internal::PageRankKernel kernel(g, o, uniform);
  uint32_t sweeps = 0;
  double residual = 0.0;
  do {
    residual = kernel.GaussSeidelSweep();
    ++sweeps;
  } while (residual >= o.tolerance);
  uint32_t jacobi_sweeps = 0;
  do {
    residual = kernel.Sweep();
    ++jacobi_sweeps;
  } while (residual >= o.tolerance);
  EXPECT_GE(jacobi_sweeps, 1u);
  EXPECT_EQ(r.iterations, sweeps + jacobi_sweeps);
  EXPECT_EQ(r.residual, residual);
  ASSERT_EQ(r.scores.size(), kernel.scores().size());
  for (size_t i = 0; i < r.scores.size(); ++i) {
    ASSERT_EQ(r.scores[i], kernel.scores()[i]) << "node " << i;
  }
}

TEST(PageRankTest, BlockGaussSeidelNeedsFewerSweepsOnASiteGraph) {
  // Links are mostly intra-site and sites sit inside one partition
  // block, so most of a row's in-links read this sweep's values.
  const CsrGraph g = SiteGraph();
  for (SweepPartition partition :
       {SweepPartition::kNodeBalanced, SweepPartition::kEdgeBalanced}) {
    PageRankOptions o;
    o.partition = partition;
    const uint32_t jacobi = ComputePageRank(g, o).value().iterations;
    o.sweep = SweepMethod::kBlockGaussSeidel;
    const uint32_t gs = ComputePageRank(g, o).value().iterations;
    // At least a fifth fewer sweeps, the closing Jacobi sweep included.
    EXPECT_LE(gs * 5, jacobi * 4)
        << SweepPartitionName(partition) << ": gs " << gs << " jacobi "
        << jacobi;
  }
}

// FNV-1a over the score bits, iteration count and residual of every
// scalar solve: the fused kernel's Jacobi and block Gauss-Seidel sweeps
// on the raw transpose and Jacobi on the compressed one, each through
// ComputePageRank and a warm ComputeDeltaPageRank at periods 1 and 8
// (Gauss-Seidel runs at period 1 only), on both partitions of two
// graphs, plus the serial ComputePageRankGaussSeidel reference.
uint64_t ScalarSolveDigest() {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  const auto mix_result = [&mix](const PageRankResult& r) {
    mix(r.scores.size());
    for (double s : r.scores) mix(std::bit_cast<uint64_t>(s));
    mix(r.iterations);
    mix(std::bit_cast<uint64_t>(r.residual));
  };
  Rng rng(71);
  const EdgeList graphs[] = {GenerateBarabasiAlbert(3000, 4, &rng).value(),
                             GenerateSiteClustered(30, 100, 8, 4, &rng).value()};
  for (const EdgeList& edges : graphs) {
    // The warm solves start from the converged scores of `edges` and
    // rank it grown by 40 random links; the frontier marks their ends.
    const CsrGraph before = CsrGraph::FromEdgeList(edges).value();
    const std::vector<double> warm = ComputePageRank(before).value().scores;
    EdgeList grown = edges;
    std::vector<uint8_t> frontier(before.num_nodes(), 0);
    for (int k = 0; k < 40; ++k) {
      const NodeId s = static_cast<NodeId>(rng.UniformUint64(before.num_nodes()));
      const NodeId t = static_cast<NodeId>(rng.UniformUint64(before.num_nodes()));
      grown.Add(s, t);
      frontier[s] = frontier[t] = 1;
    }
    const CsrGraph g = CsrGraph::FromEdgeList(grown).value();
    mix_result(ComputePageRankGaussSeidel(g).value());
    for (SweepPartition partition :
         {SweepPartition::kNodeBalanced, SweepPartition::kEdgeBalanced}) {
      for (const auto& [sweep, compressed] :
           {std::pair{SweepMethod::kJacobi, false},
            std::pair{SweepMethod::kBlockGaussSeidel, false},
            std::pair{SweepMethod::kJacobi, true}}) {
        PageRankOptions o;
        o.partition = partition;
        o.sweep = sweep;
        o.use_compressed_transpose = compressed;
        mix_result(ComputePageRank(g, o).value());
        for (uint32_t period : {1u, 8u}) {
          if (period > 1 && sweep == SweepMethod::kBlockGaussSeidel) continue;
          DeltaPageRankOptions d;
          d.base = o;
          d.base.initial_scores = warm;
          d.full_sweep_period = period;
          mix_result(ComputeDeltaPageRank(g, frontier, d).value().base);
        }
      }
    }
  }
  return h;
}

TEST(PageRankTest, ScalarSolvesMatchTheGoldenDigest) {
  // Digest of the same solves run by the engines that read the uniform
  // teleport from an n-length vector, v[i] = 1/n, instead of the scalar
  // 1/n: scores, sweep counts and residuals are unchanged to the bit.
  EXPECT_EQ(ScalarSolveDigest(), 0xa4524d60cd37aedcull);
}

class PageRankDampingTest : public ::testing::TestWithParam<double> {};

TEST_P(PageRankDampingTest, DistributionInvariantAcrossDamping) {
  Rng rng(33);
  CsrGraph g = CsrGraph::FromEdgeList(
                   GenerateCopyModel(400, 4, 0.6, &rng).value())
                   .value();
  PageRankOptions o;
  o.damping = GetParam();
  Result<PageRankResult> r = ComputePageRank(g, o);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->converged);
  EXPECT_NEAR(Sum(r->scores), 1.0, 1e-8);
  double min_score = *std::min_element(r->scores.begin(), r->scores.end());
  // Teleport floor: every page gets at least (1-damping)/n.
  EXPECT_GE(min_score, (1.0 - GetParam()) / 400.0 - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Damping, PageRankDampingTest,
                         ::testing::Values(0.0, 0.3, 0.5, 0.85, 0.95, 0.99));

}  // namespace
}  // namespace qrank
