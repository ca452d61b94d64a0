#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "graph/generators.h"
#include "rank/pagerank.h"

namespace perfbench {

using qrank::NodeId;
using qrank::SiteId;
using qrank::TopKEntry;
using qrank::TopKQuery;

qrank::CsrGraph MakeSiteGraph(uint64_t seed) {
  qrank::Rng rng(seed);
  return qrank::CsrGraph::FromEdgeList(
             qrank::GenerateSiteClustered(kSites, kPagesPerSite, 12, 6, &rng)
                 .value())
      .value();
}

std::vector<double> SitePageRank(const qrank::CsrGraph& graph) {
  qrank::PageRankOptions options;
  options.max_iterations = 30;
  options.scale = qrank::ScaleConvention::kTotalMassN;
  return qrank::ComputePageRank(graph, options).value().scores;
}

qrank::ScoreBundleSource EstimatorShapedSource(std::vector<double> pagerank,
                                               NodeId pages_per_site,
                                               uint64_t seed) {
  qrank::ScoreBundleSource src;
  src.pagerank = std::move(pagerank);
  const NodeId n = static_cast<NodeId>(src.pagerank.size());
  src.quality.resize(n);
  src.site_ids.resize(n);
  qrank::Rng rng(seed);
  for (NodeId i = 0; i < n; ++i) {
    src.quality[i] = src.pagerank[i] * (1.0 + rng.UniformDouble(-0.5, 2.0));
    src.site_ids[i] = i / pages_per_site;
  }
  src.num_sites = (n + pages_per_site - 1) / pages_per_site;
  src.creator_tag = static_cast<uint32_t>(seed);
  return src;
}

std::vector<double> PowerLawPageRank(NodeId n, uint64_t seed) {
  qrank::Rng rng(seed);
  std::vector<double> pr(n);
  double sum = 0.0;
  for (double& v : pr) {
    v = rng.Pareto(1.0, 1.1);
    sum += v;
  }
  const double scale = static_cast<double>(n) / sum;
  for (double& v : pr) v *= scale;
  return pr;
}

ZipfPicker::ZipfPicker(uint32_t n, double exponent, uint64_t seed)
    : cdf_(n), item_(n) {
  double total = 0.0;
  for (uint32_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  std::iota(item_.begin(), item_.end(), 0u);
  qrank::Rng rng(seed);
  for (uint32_t i = n; i > 1; --i) {
    std::swap(item_[i - 1], item_[rng.UniformUint64(i)]);
  }
}

uint32_t ZipfPicker::PickRank(qrank::Rng* rng) const {
  const double u = rng->UniformDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<uint32_t>(
      std::min<ptrdiff_t>(it - cdf_.begin(), cdf_.size() - 1));
}

uint32_t ZipfPicker::Pick(qrank::Rng* rng) const {
  return item_[PickRank(rng)];
}

QueryMix MakeQueryMix(size_t count, SiteId num_sites, uint64_t seed) {
  static constexpr double kAlphas[] = {0.0, 0.5, 1.0};
  qrank::Rng rng(seed);
  const ZipfPicker sites(num_sites, 1.0, seed ^ 0x5a17e5u);
  QueryMix mix;
  mix.queries.reserve(count);
  mix.classes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    TopKQuery q;
    q.k = 10;
    q.blend_alpha = kAlphas[rng.UniformUint64(3)];
    const uint64_t roll = rng.UniformUint64(100);
    QueryClass c;
    if (roll < 70) {
      if (roll >= 60) q.k = 100;
      c = q.blend_alpha == 0.5 ? QueryClass::kBlend : QueryClass::kGlobal;
    } else if (roll < 90) {
      q.site = sites.Pick(&rng);
      c = QueryClass::kSite;
    } else {
      q.exploration_epsilon = 0.1;
      q.exploration_seed = rng.NextUint64();
      c = QueryClass::kExplore;
    }
    mix.queries.push_back(q);
    mix.classes.push_back(c);
  }
  return mix;
}

std::vector<TopKEntry> ReferenceTopK(const std::vector<double>& quality,
                                     const std::vector<double>& pagerank,
                                     const std::vector<SiteId>& site_ids,
                                     const TopKQuery& query) {
  const double wq = query.blend_alpha;
  const double wp = 1.0 - query.blend_alpha;
  const auto blend = [&](NodeId row) {
    return wq * quality[row] + wp * pagerank[row];
  };
  const NodeId n = static_cast<NodeId>(quality.size());
  std::vector<NodeId> eligible;
  if (query.site == qrank::kAllSites) {
    eligible.resize(n);
    std::iota(eligible.begin(), eligible.end(), NodeId{0});
  } else {
    for (NodeId r = 0; r < n; ++r) {
      if (site_ids[r] == query.site) eligible.push_back(r);
    }
    // The posting order exploration draws from.
    std::sort(eligible.begin(), eligible.end(), [&](NodeId a, NodeId b) {
      return quality[a] != quality[b] ? quality[a] > quality[b] : a < b;
    });
  }
  std::vector<TopKEntry> all;
  all.reserve(eligible.size());
  for (const NodeId r : eligible) all.push_back({r, r, blend(r), false});
  const size_t k = std::min<size_t>(query.k, all.size());
  std::partial_sort(all.begin(), all.begin() + k, all.end(),
                    [](const TopKEntry& a, const TopKEntry& b) {
                      return a.score != b.score ? a.score > b.score
                                                : a.row < b.row;
                    });
  all.resize(k);
  if (query.exploration_epsilon > 0.0) {
    qrank::Rng rng(query.exploration_seed);
    for (size_t j = 0; j < all.size(); ++j) {
      if (!rng.Bernoulli(query.exploration_epsilon)) continue;
      for (int attempt = 0; attempt < 8; ++attempt) {
        const NodeId row =
            query.site != qrank::kAllSites
                ? eligible[rng.UniformUint64(eligible.size())]
                : static_cast<NodeId>(rng.UniformUint64(n));
        const bool duplicate =
            std::any_of(all.begin(), all.end(),
                        [row](const TopKEntry& e) { return e.row == row; });
        if (duplicate) continue;
        all[j] = TopKEntry{row, row, blend(row), true};
        break;
      }
    }
  }
  return all;
}

bool SameEntries(const std::vector<TopKEntry>& a,
                 const std::vector<TopKEntry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].row != b[i].row || a[i].page_id != b[i].page_id ||
        a[i].promoted != b[i].promoted ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
