// QueryEngine correctness against a brute-force oracle: for every
// blend alpha, k, and site filter the fast paths (order-prefix reads
// and Fagin's threshold algorithm over a quality-ordered and a
// PageRank-ordered list) must reproduce the full-scan (score desc,
// row asc) ranking exactly — including on score distributions
// engineered to be tie-heavy, where a sloppy threshold-stop, heap
// comparator or position-based dedup shows up immediately.

#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/parallel_for.h"
#include "serve/score_bundle.h"
#include "serve/snapshot_store.h"

namespace qrank {
namespace {

constexpr NodeId kPages = 500;
constexpr SiteId kSites = 7;

// Tie-heavy scores: values quantized to a handful of levels so order
// sections and the blend have many exact collisions.
const LoadedBundle& TieBundle() {
  static const LoadedBundle b = [] {
    Rng rng(31);
    ScoreBundleSource src;
    src.quality.resize(kPages);
    src.pagerank.resize(kPages);
    src.site_ids.resize(kPages);
    for (NodeId i = 0; i < kPages; ++i) {
      src.quality[i] = static_cast<double>(rng.UniformUint64(8));
      src.pagerank[i] = static_cast<double>(rng.UniformUint64(8)) / 2.0;
      src.site_ids[i] = static_cast<SiteId>(rng.UniformUint64(kSites));
    }
    src.num_sites = kSites;
    return LoadedBundle::FromBuffer(
               ScoreBundleWriter::Create(std::move(src)).value().Serialize())
        .value();
  }();
  return b;
}

// Continuous scores (ties only by coincidence): the threshold
// algorithm's common regime.
const LoadedBundle& SmoothBundle() {
  static const LoadedBundle b = [] {
    Rng rng(77);
    ScoreBundleSource src;
    src.quality.resize(kPages);
    src.pagerank.resize(kPages);
    src.site_ids.resize(kPages);
    for (NodeId i = 0; i < kPages; ++i) {
      src.quality[i] = rng.Pareto(1.0, 1.2);
      src.pagerank[i] = rng.Pareto(0.5, 1.5);
      src.site_ids[i] = static_cast<SiteId>(rng.UniformUint64(kSites));
    }
    src.num_sites = kSites;
    return LoadedBundle::FromBuffer(
               ScoreBundleWriter::Create(std::move(src)).value().Serialize())
        .value();
  }();
  return b;
}

// Two quality and two PageRank levels: nearly every comparison in both
// lists is a tie broken by row id, so the threshold algorithm meets
// most rows in both lists and the position-based dedup decides on
// equal scores throughout.
const LoadedBundle& QuantizedBundle() {
  static const LoadedBundle b = [] {
    Rng rng(4242);
    ScoreBundleSource src;
    src.quality.resize(kPages);
    src.pagerank.resize(kPages);
    src.site_ids.resize(kPages);
    for (NodeId i = 0; i < kPages; ++i) {
      src.quality[i] = static_cast<double>(rng.UniformUint64(2));
      src.pagerank[i] = 0.25 * static_cast<double>(rng.UniformUint64(2));
      src.site_ids[i] = static_cast<SiteId>(rng.UniformUint64(kSites));
    }
    src.num_sites = kSites;
    return LoadedBundle::FromBuffer(
               ScoreBundleWriter::Create(std::move(src)).value().Serialize())
        .value();
  }();
  return b;
}

// Full-scan reference: blend every eligible row, stable (score desc,
// row asc) order, first k.
std::vector<TopKEntry> Oracle(const LoadedBundle& b, const TopKQuery& q) {
  std::vector<NodeId> rows;
  for (NodeId i = 0; i < b.num_pages(); ++i) {
    if (q.site == kAllSites || b.site_ids()[i] == q.site) rows.push_back(i);
  }
  std::vector<TopKEntry> all;
  for (NodeId row : rows) {
    const double score = q.blend_alpha * b.quality()[row] +
                         (1.0 - q.blend_alpha) * b.pagerank()[row];
    all.push_back({row, b.page_ids()[row], score, false});
  }
  std::sort(all.begin(), all.end(), [](const TopKEntry& a, const TopKEntry& c) {
    if (a.score != c.score) return a.score > c.score;
    return a.row < c.row;
  });
  if (all.size() > q.k) all.resize(q.k);
  return all;
}

void ExpectMatchesOracle(const LoadedBundle& b, const TopKQuery& q) {
  TopKScratch scratch;
  ASSERT_TRUE(QueryEngine::TopKOnBundle(b, q, &scratch).ok());
  const std::vector<TopKEntry> expect = Oracle(b, q);
  const std::span<const TopKEntry> got = scratch.results();
  ASSERT_EQ(got.size(), expect.size())
      << "alpha " << q.blend_alpha << " k " << q.k << " site " << q.site;
  for (size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i].row, expect[i].row)
        << "rank " << i << " alpha " << q.blend_alpha << " k " << q.k
        << " site " << q.site;
    EXPECT_EQ(got[i].score, expect[i].score);
    EXPECT_EQ(got[i].page_id, expect[i].page_id);
    EXPECT_FALSE(got[i].promoted);
  }
}

TEST(QueryEngineTest, MatchesOracleAcrossBlendsAndSites) {
  for (const LoadedBundle* b : {&TieBundle(), &SmoothBundle()}) {
    for (double alpha : {0.0, 0.3, 0.5, 1.0}) {
      for (uint32_t k : {1u, 5u, 10u, 100u, kPages, kPages + 50}) {
        TopKQuery q;
        q.blend_alpha = alpha;
        q.k = k;
        ExpectMatchesOracle(*b, q);
        for (SiteId site = 0; site < kSites; ++site) {
          q.site = site;
          ExpectMatchesOracle(*b, q);
        }
        q.site = kAllSites;
      }
    }
  }
}

TEST(QueryEngineTest, ScratchReuseAcrossShapesStaysExact) {
  // One scratch serving wildly different queries back to back — stale
  // heap/dedup state from a previous query must never leak in.
  TopKScratch scratch;
  const LoadedBundle& b = SmoothBundle();
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    TopKQuery q;
    q.blend_alpha = rng.UniformDouble();
    q.k = static_cast<uint32_t>(rng.UniformUint64(30));
    q.site = rng.Bernoulli(0.5)
                 ? kAllSites
                 : static_cast<SiteId>(rng.UniformUint64(kSites));
    ASSERT_TRUE(QueryEngine::TopKOnBundle(b, q, &scratch).ok());
    const std::vector<TopKEntry> expect = Oracle(b, q);
    ASSERT_EQ(scratch.results().size(), expect.size());
    for (size_t j = 0; j < expect.size(); ++j) {
      ASSERT_EQ(scratch.results()[j].row, expect[j].row) << "query " << i;
    }
  }
}

TEST(QueryEngineTest, ZeroKYieldsEmpty) {
  TopKScratch scratch;
  TopKQuery q;
  q.k = 0;
  ASSERT_TRUE(QueryEngine::TopKOnBundle(TieBundle(), q, &scratch).ok());
  EXPECT_TRUE(scratch.results().empty());
}

TEST(QueryEngineTest, RejectsInvalidParameters) {
  TopKScratch scratch;
  TopKQuery q;
  q.blend_alpha = 1.5;
  EXPECT_EQ(QueryEngine::TopKOnBundle(TieBundle(), q, &scratch).code(),
            StatusCode::kInvalidArgument);
  q.blend_alpha = std::nan("");
  EXPECT_EQ(QueryEngine::TopKOnBundle(TieBundle(), q, &scratch).code(),
            StatusCode::kInvalidArgument);
  q = {};
  q.exploration_epsilon = -0.1;
  EXPECT_EQ(QueryEngine::TopKOnBundle(TieBundle(), q, &scratch).code(),
            StatusCode::kInvalidArgument);
  q = {};
  q.site = kSites;  // one past the last site
  EXPECT_EQ(QueryEngine::TopKOnBundle(TieBundle(), q, &scratch).code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, StoreBackedQueriesNeedAPublish) {
  SnapshotStore store;
  const QueryEngine engine(&store);
  TopKScratch scratch;
  EXPECT_EQ(engine.TopK({}, &scratch).code(),
            StatusCode::kFailedPrecondition);

  ScoreBundleSource src;
  src.quality = {2.0, 1.0, 3.0};
  src.pagerank = {1.0, 1.0, 1.0};
  store.Publish(
      LoadedBundle::FromBuffer(
          ScoreBundleWriter::Create(std::move(src)).value().Serialize())
          .value());
  TopKQuery q;
  q.k = 2;
  ASSERT_TRUE(engine.TopK(q, &scratch).ok());
  ASSERT_EQ(scratch.results().size(), 2u);
  EXPECT_EQ(scratch.results()[0].row, 2u);
  EXPECT_EQ(scratch.results()[1].row, 0u);
}

TEST(QueryEngineTest, ExplorationIsDeterministicPerSeed) {
  const LoadedBundle& b = SmoothBundle();
  TopKQuery q;
  q.k = 20;
  q.exploration_epsilon = 0.5;
  q.exploration_seed = 1234;
  TopKScratch s1, s2;
  ASSERT_TRUE(QueryEngine::TopKOnBundle(b, q, &s1).ok());
  ASSERT_TRUE(QueryEngine::TopKOnBundle(b, q, &s2).ok());
  ASSERT_EQ(s1.results().size(), s2.results().size());
  for (size_t i = 0; i < s1.results().size(); ++i) {
    EXPECT_EQ(s1.results()[i].row, s2.results()[i].row);
    EXPECT_EQ(s1.results()[i].promoted, s2.results()[i].promoted);
  }
}

TEST(QueryEngineTest, ExplorationPromotesEligiblePagesOnly) {
  const LoadedBundle& b = SmoothBundle();
  TopKQuery q;
  q.k = 10;
  q.site = 3;
  q.exploration_epsilon = 1.0;
  size_t promoted = 0;
  TopKScratch scratch;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    q.exploration_seed = seed;
    ASSERT_TRUE(QueryEngine::TopKOnBundle(b, q, &scratch).ok());
    std::vector<NodeId> rows;
    for (const TopKEntry& e : scratch.results()) {
      EXPECT_EQ(b.site_ids()[e.row], q.site);  // filter survives the mix
      EXPECT_EQ(e.page_id, b.page_ids()[e.row]);
      EXPECT_EQ(e.score, b.quality()[e.row]);  // alpha = 1
      rows.push_back(e.row);
      promoted += e.promoted ? 1 : 0;
    }
    std::sort(rows.begin(), rows.end());
    EXPECT_TRUE(std::adjacent_find(rows.begin(), rows.end()) == rows.end())
        << "duplicate result rows at seed " << seed;
  }
  EXPECT_GT(promoted, 0u);  // epsilon = 1 must actually promote
}

TEST(QueryEngineTest, ExplorationRateTracksEpsilon) {
  const LoadedBundle& b = SmoothBundle();
  TopKQuery q;
  q.k = 10;
  q.exploration_epsilon = 0.2;
  size_t promoted = 0, total = 0;
  TopKScratch scratch;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    q.exploration_seed = seed;
    ASSERT_TRUE(QueryEngine::TopKOnBundle(b, q, &scratch).ok());
    for (const TopKEntry& e : scratch.results()) {
      ++total;
      promoted += e.promoted ? 1 : 0;
    }
  }
  const double rate = static_cast<double>(promoted) / total;
  EXPECT_NEAR(rate, 0.2, 0.05);
}

uint32_t GroupSize(const LoadedBundle& b, SiteId site) {
  return b.site_offsets()[site + 1] - b.site_offsets()[site];
}

TEST(QueryEngineTest, EverySiteMatchesOracleAtEveryListDepth) {
  // k at and past the group size walks the threshold algorithm to the
  // end of both site lists.
  for (const LoadedBundle* b :
       {&TieBundle(), &SmoothBundle(), &QuantizedBundle()}) {
    for (double alpha : {0.0, 0.25, 0.5, 1.0}) {
      for (SiteId site = 0; site < kSites; ++site) {
        const uint32_t size = GroupSize(*b, site);
        for (uint32_t k : {1u, 10u, size, size + 5}) {
          TopKQuery q;
          q.blend_alpha = alpha;
          q.k = k;
          q.site = site;
          ExpectMatchesOracle(*b, q);
        }
      }
    }
  }
}

TEST(QueryEngineTest, QuantizedScoresMatchOracleGloballyAndPerSite) {
  const LoadedBundle& b = QuantizedBundle();
  for (double alpha : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
    for (uint32_t k : {1u, 2u, 7u, 64u, 250u, kPages, kPages + 1}) {
      TopKQuery q;
      q.blend_alpha = alpha;
      q.k = k;
      ExpectMatchesOracle(b, q);
      for (SiteId site = 0; site < kSites; ++site) {
        q.site = site;
        ExpectMatchesOracle(b, q);
      }
    }
  }
}

TEST(QueryEngineTest, SiteExplorationDrawsFromTheQualityOrderedGroup) {
  // The promoted rows of a site query come from the site's posting
  // group in quality order, replayed over the oracle's answer.
  for (const LoadedBundle* b : {&SmoothBundle(), &QuantizedBundle()}) {
    for (double alpha : {0.0, 0.5, 1.0}) {
      for (SiteId site = 0; site < kSites; ++site) {
        TopKQuery q;
        q.blend_alpha = alpha;
        q.k = 15;
        q.site = site;
        q.exploration_epsilon = 0.3;
        q.exploration_seed = 7 + site;
        std::vector<TopKEntry> expect = Oracle(*b, q);
        const std::span<const NodeId> group = b->site_pages().subspan(
            b->site_offsets()[site], GroupSize(*b, site));
        DrawExplorationPromotions(
            q.exploration_seed, q.exploration_epsilon, group, b->num_pages(),
            expect, [&](size_t j, NodeId row) {
              expect[j] = TopKEntry{row, b->page_ids()[row],
                                    alpha * b->quality()[row] +
                                        (1.0 - alpha) * b->pagerank()[row],
                                    true};
            });
        TopKScratch scratch;
        ASSERT_TRUE(QueryEngine::TopKOnBundle(*b, q, &scratch).ok());
        ASSERT_EQ(scratch.results().size(), expect.size());
        for (size_t i = 0; i < expect.size(); ++i) {
          EXPECT_EQ(scratch.results()[i].row, expect[i].row)
              << "site " << site << " alpha " << alpha << " slot " << i;
          EXPECT_EQ(scratch.results()[i].score, expect[i].score);
          EXPECT_EQ(scratch.results()[i].promoted, expect[i].promoted);
        }
      }
    }
  }
}

// FNV-1a over every field of every answer of a fixed query sweep.
uint64_t AnswerDigest() {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  TopKScratch scratch;
  for (const LoadedBundle* b :
       {&SmoothBundle(), &TieBundle(), &QuantizedBundle()}) {
    for (double alpha : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      for (uint32_t k : {1u, 10u, 37u}) {
        for (SiteId site = 0; site <= kSites; ++site) {
          for (double eps : {0.0, 0.3}) {
            TopKQuery q;
            q.blend_alpha = alpha;
            q.k = k;
            q.site = site == kSites ? kAllSites : site;
            q.exploration_epsilon = eps;
            q.exploration_seed = 1000 * k + site;
            EXPECT_TRUE(QueryEngine::TopKOnBundle(*b, q, &scratch).ok());
            mix(scratch.results().size());
            for (const TopKEntry& e : scratch.results()) {
              mix(e.row);
              mix(e.page_id);
              mix(std::bit_cast<uint64_t>(e.score));
              mix(e.promoted ? 1 : 0);
            }
          }
        }
      }
    }
  }
  return h;
}

TEST(QueryEngineTest, AnswersAreBitIdenticalToTheSiteScanEngine) {
  // Digest of the same sweep served by the engine that scanned whole
  // site groups and deduplicated with a per-row stamp array: global,
  // site, blended and exploration answers (rows, ids, score bits,
  // promotions) are unchanged by the single threshold-algorithm path.
  EXPECT_EQ(AnswerDigest(), 0x9129f5029e1f10a2ull);
}

// -- derived index ---------------------------------------------------------

TEST(QueryEngineTest, DerivedSitePostingsAreByteIdenticalAcrossThreads) {
  // 40000 rows over 37 sites: three 16384-row blocks, so the blocked
  // counting sort (not the one-block serial walk) runs above 1 thread.
  Rng rng(0x5eed);
  ScoreBundleSource src;
  const NodeId n = 40000;
  src.quality.resize(n);
  src.pagerank.resize(n);
  src.site_ids.resize(n);
  for (NodeId i = 0; i < n; ++i) {
    src.quality[i] = rng.Pareto(1.0, 1.2);
    src.pagerank[i] = static_cast<double>(rng.UniformUint64(50));  // ties
    src.site_ids[i] = static_cast<SiteId>(rng.UniformUint64(37));
  }
  src.num_sites = 37;
  const std::vector<uint8_t> image =
      ScoreBundleWriter::Create(std::move(src)).value().Serialize();

  ParallelOptions serial;
  serial.num_threads = 1;
  const LoadedBundle reference =
      LoadedBundle::FromBuffer(image, serial).value();
  // The serial result is the stable partition of the pagerank order by
  // site.
  const std::span<const NodeId> got = reference.site_pages_by_pagerank();
  ASSERT_EQ(got.size(), size_t{n});
  std::vector<uint32_t> cursor(reference.site_offsets().begin(),
                               reference.site_offsets().end() - 1);
  for (NodeId row : reference.order_by_pagerank()) {
    ASSERT_EQ(got[cursor[reference.site_ids()[row]]++], row);
  }
  for (int threads : {2, 4, 8}) {
    ParallelOptions wide;
    wide.num_threads = threads;
    const LoadedBundle b = LoadedBundle::FromBuffer(image, wide).value();
    const std::span<const NodeId> derived = b.site_pages_by_pagerank();
    ASSERT_EQ(derived.size(), got.size());
    EXPECT_EQ(std::memcmp(derived.data(), got.data(),
                          got.size() * sizeof(NodeId)),
              0)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace qrank
