// Survey of every ranking engine in qrank on one synthetic Web graph:
// PageRank (power iteration, Gauss-Seidel, adaptive, extrapolated) and
// in-degree — and how each correlates with the latent quality that
// generated the links.
//
// Build & run:  ./build/examples/ranking_engines

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "common/rng.h"
#include "common/stats.h"
#include "common/table_writer.h"
#include "graph/generators.h"
#include "rank/adaptive_pagerank.h"
#include "rank/baselines.h"
#include "rank/extrapolation.h"
#include "rank/pagerank.h"
#include "rank/rank_vector.h"

int main() {
  // A quality-seeded graph: links attach preferentially to high-quality
  // pages, so "quality recovery" is measurable for every metric.
  qrank::Rng rng(2718);
  qrank::Result<qrank::QualitySeededGraph> seeded =
      qrank::GenerateQualitySeeded(/*num_nodes=*/1200, /*out_degree=*/4,
                                   /*quality_alpha=*/1.2,
                                   /*quality_beta=*/2.5,
                                   /*quality_strength=*/2.0, &rng);
  if (!seeded.ok()) {
    std::fprintf(stderr, "%s\n", seeded.status().ToString().c_str());
    return EXIT_FAILURE;
  }
  qrank::Result<qrank::CsrGraph> graph =
      qrank::CsrGraph::FromEdgeList(seeded->edges);
  if (!graph.ok()) return EXIT_FAILURE;
  const qrank::CsrGraph& g = *graph;
  const std::vector<double>& quality = seeded->quality;

  std::printf("graph: %u pages, %zu links, %zu dangling\n\n", g.num_nodes(),
              g.num_edges(), g.CountDanglingNodes());

  qrank::TableWriter table(
      {"engine", "iterations", "Spearman vs quality", "top page"});
  auto report = [&](const char* name, const std::vector<double>& scores,
                    uint32_t iterations) {
    auto rho = qrank::SpearmanCorrelation(scores, quality);
    table.AddRow({name, std::to_string(iterations),
                  rho.ok() ? qrank::TableWriter::FormatDouble(rho.value(), 3)
                           : std::string("n/a"),
                  std::to_string(qrank::TopK(scores, 1)[0])});
  };

  qrank::PageRankOptions pr_options;
  auto power = qrank::ComputePageRank(g, pr_options);
  auto gs = qrank::ComputePageRankGaussSeidel(g, pr_options);
  qrank::AdaptivePageRankOptions ad_options;
  auto adaptive = qrank::ComputeAdaptivePageRank(g, ad_options);
  qrank::ExtrapolatedPageRankOptions ex_options;
  auto extrapolated = qrank::ComputeExtrapolatedPageRank(g, ex_options);
  if (!power.ok() || !gs.ok() || !adaptive.ok() || !extrapolated.ok()) {
    std::fprintf(stderr, "an engine failed\n");
    return EXIT_FAILURE;
  }

  report("PageRank (power)", power->scores, power->iterations);
  report("PageRank (Gauss-Seidel)", gs->scores, gs->iterations);
  report("PageRank (adaptive)", adaptive->base.scores,
         adaptive->base.iterations);
  report("PageRank (extrapolated)", extrapolated->base.scores,
         extrapolated->base.iterations);
  report("in-degree", qrank::InDegreeScores(g), 0);
  table.RenderAscii(std::cout);
  return EXIT_SUCCESS;
}
