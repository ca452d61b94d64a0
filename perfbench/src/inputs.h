// Seeded inputs of the three workloads. Everything the program sees is
// generated here from --seed; the same seed gives the same inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "graph/csr_graph.h"
#include "serve/query_engine.h"
#include "serve/score_bundle.h"

namespace perfbench {

/// The 131k-page site-clustered web: 655 sites x 200 pages, 12 intra-
/// site out-links and 6 inter-site links per site (the shape of the
/// repository's serve and ingest suites). Page p lives on site p / 200.
inline constexpr qrank::SiteId kSites = 655;
inline constexpr qrank::NodeId kPagesPerSite = 200;
inline constexpr qrank::NodeId kSitePages = kSites * kPagesPerSite;

qrank::CsrGraph MakeSiteGraph(uint64_t seed);

/// Real PageRank of `graph` on the mass-n scale (30 Jacobi sweeps at
/// most, as the serve suite does).
std::vector<double> SitePageRank(const qrank::CsrGraph& graph);

/// A bundle source shaped like the estimator's output: Q = PR * (1 + I)
/// with a per-page relative increase I uniform in [-0.5, 2). Sites are
/// contiguous runs of `pages_per_site` rows.
qrank::ScoreBundleSource EstimatorShapedSource(std::vector<double> pagerank,
                                               qrank::NodeId pages_per_site,
                                               uint64_t seed);

/// A power-law PageRank column for `n` pages (Pareto tail, exponent
/// 1.1, mass n): the 1M-page bundle of query-local is too large to rank
/// a generated graph in set-up on every run.
std::vector<double> PowerLawPageRank(qrank::NodeId n, uint64_t seed);

/// Zipf(1) draw over ranks [0, n) mapped through a seeded permutation,
/// so popular items are spread over the id space.
class ZipfPicker {
 public:
  ZipfPicker(uint32_t n, double exponent, uint64_t seed);
  uint32_t Pick(qrank::Rng* rng) const;
  /// Rank order only (item = rank), for skew inside a fixed layout.
  uint32_t PickRank(qrank::Rng* rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> item_;
};

/// Query classes of the mix; per-layer spans are kept per class.
enum class QueryClass : uint8_t {
  kGlobal = 0,   // no site filter, alpha in {0, 1}: an order-section prefix
  kBlend = 1,    // no site filter, alpha = 0.5: threshold algorithm
  kSite = 2,     // site filter (Zipf-skewed site)
  kExplore = 3,  // global, exploration epsilon = 0.1
};

struct QueryMix {
  std::vector<qrank::TopKQuery> queries;
  std::vector<QueryClass> classes;
};

/// The seeded query mix: ~60% global k=10 with alpha in {0, 0.5, 1},
/// ~10% global k=100, ~20% site-filtered k=10 with a Zipf-skewed site,
/// ~10% global exploration (epsilon 0.1, k=10).
QueryMix MakeQueryMix(size_t count, qrank::SiteId num_sites, uint64_t seed);

/// Full-scan reference top-k: every eligible row scored with the
/// engine's blend expression, ordered by (score desc, row asc), then the
/// engine's documented exploration draw replayed. Independent of the
/// bundle's precomputed order and posting sections except for the
/// posting order of a site's rows, which the bundle format fixes as
/// (quality desc, row asc) and which this function rebuilds itself.
std::vector<qrank::TopKEntry> ReferenceTopK(
    const std::vector<double>& quality, const std::vector<double>& pagerank,
    const std::vector<qrank::SiteId>& site_ids, const qrank::TopKQuery& query);

/// True when both answers agree entry for entry: row, page id, promoted
/// flag and bitwise score.
bool SameEntries(const std::vector<qrank::TopKEntry>& a,
                 const std::vector<qrank::TopKEntry>& b);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
