// Steady-state allocation behavior of the serving hot path.
//
// QueryEngine::TopK's contract is zero heap allocations per query once
// the caller's TopKScratch has warmed up to the largest k it serves:
// the bounded heap and the result slots are reused, and the
// store-backed path revalidates a cached pin with one atomic generation
// load, never allocating. The scratch is sized by k clamped to the
// eligible rows, never by the bundle's page count or the raw k asked
// for. The test instruments the global allocator (the kernel_alloc_test
// harness, plus a byte count) and proves long query sequences — every
// blend mode, site filters, exploration, and store-backed acquires —
// allocate nothing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "serve/query_engine.h"
#include "serve/score_bundle.h"
#include "serve/snapshot_store.h"

namespace {

std::atomic<size_t> g_allocations{0};
std::atomic<size_t> g_bytes{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace qrank {
namespace {

constexpr NodeId kPages = 4096;
constexpr SiteId kSites = 16;

const LoadedBundle& Bundle() {
  static const LoadedBundle b = [] {
    Rng rng(11);
    ScoreBundleSource src;
    src.quality.resize(kPages);
    src.pagerank.resize(kPages);
    src.site_ids.resize(kPages);
    for (NodeId i = 0; i < kPages; ++i) {
      src.quality[i] = rng.Pareto(1.0, 1.2);
      src.pagerank[i] = rng.Pareto(1.0, 1.2);
      src.site_ids[i] = static_cast<SiteId>(rng.UniformUint64(kSites));
    }
    src.num_sites = kSites;
    return LoadedBundle::FromBuffer(
               ScoreBundleWriter::Create(std::move(src)).value().Serialize())
        .value();
  }();
  return b;
}

size_t AllocationsDuring(const std::function<void()>& fn) {
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

size_t BytesDuring(const std::function<void()>& fn) {
  const size_t before = g_bytes.load(std::memory_order_relaxed);
  fn();
  return g_bytes.load(std::memory_order_relaxed) - before;
}

TEST(ServeAllocTest, TopKOnBundleAllocationFreeAfterWarmup) {
  const LoadedBundle& b = Bundle();
  TopKScratch scratch;
  TopKQuery warm;
  warm.k = 64;  // largest k any query below uses
  ASSERT_TRUE(QueryEngine::TopKOnBundle(b, warm, &scratch).ok());

  const size_t allocs = AllocationsDuring([&b, &scratch] {
    TopKQuery q;
    for (int i = 0; i < 2000; ++i) {
      q.k = 1 + static_cast<uint32_t>(i % 64);
      q.blend_alpha = (i % 3) * 0.5;            // 0, 0.5, 1
      q.site = (i % 5 == 0) ? static_cast<SiteId>(i % kSites) : kAllSites;
      q.exploration_epsilon = (i % 7 == 0) ? 0.3 : 0.0;
      q.exploration_seed = static_cast<uint64_t>(i);
      ASSERT_TRUE(QueryEngine::TopKOnBundle(b, q, &scratch).ok());
      ASSERT_FALSE(scratch.results().empty());
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ServeAllocTest, StoreBackedTopKAllocationFreeAfterWarmup) {
  SnapshotStore store;
  {
    Rng rng(12);
    ScoreBundleSource src;
    src.quality.resize(kPages);
    src.pagerank.resize(kPages);
    for (NodeId i = 0; i < kPages; ++i) {
      src.quality[i] = rng.UniformDouble(0.0, 5.0);
      src.pagerank[i] = rng.UniformDouble(0.0, 5.0);
    }
    store.Publish(
        LoadedBundle::FromBuffer(
            ScoreBundleWriter::Create(std::move(src)).value().Serialize())
            .value());
  }
  const QueryEngine engine(&store);
  TopKScratch scratch;
  TopKQuery q;
  q.k = 10;
  q.blend_alpha = 0.5;
  ASSERT_TRUE(engine.TopK(q, &scratch).ok());  // warm-up

  // The scratch's cached pin is revalidated by one atomic generation
  // load — no allocation per query even through the store.
  const size_t allocs = AllocationsDuring([&engine, &scratch, &q] {
    for (int i = 0; i < 2000; ++i) {
      ASSERT_TRUE(engine.TopK(q, &scratch).ok());
    }
  });
  EXPECT_EQ(allocs, 0u);
}

TEST(ServeAllocTest, ScratchGrowthIsAmortizedOnce) {
  const LoadedBundle& b = Bundle();
  TopKScratch scratch;
  TopKQuery q;
  q.k = 32;
  // First query on a fresh scratch allocates (heap, results)...
  const size_t first = AllocationsDuring([&b, &scratch, &q] {
    ASSERT_TRUE(QueryEngine::TopKOnBundle(b, q, &scratch).ok());
  });
  EXPECT_GT(first, 0u);
  // ...and never again at the same or smaller shape.
  const size_t rest = AllocationsDuring([&b, &scratch, &q] {
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(QueryEngine::TopKOnBundle(b, q, &scratch).ok());
    }
  });
  EXPECT_EQ(rest, 0u);
}

TEST(ServeAllocTest, HugeKAllocatesForTheEligibleRowsOnly) {
  // k = UINT32_MAX is clamped before the scratch grows: a fresh scratch
  // takes heap + result slots for the eligible rows, not 2^32 entries.
  const LoadedBundle& b = Bundle();
  for (double alpha : {0.0, 0.5, 1.0}) {
    for (SiteId site : {kAllSites, SiteId{3}}) {
      TopKQuery q;
      q.k = UINT32_MAX;
      q.blend_alpha = alpha;
      q.site = site;
      const size_t eligible =
          site == kAllSites
              ? size_t{kPages}
              : b.site_offsets()[site + 1] - b.site_offsets()[site];
      TopKScratch scratch;
      const size_t bytes = BytesDuring([&b, &scratch, &q] {
        ASSERT_TRUE(QueryEngine::TopKOnBundle(b, q, &scratch).ok());
      });
      EXPECT_EQ(scratch.results().size(), eligible);
      EXPECT_LE(bytes, 2 * eligible * sizeof(TopKEntry) + 1024)
          << "alpha " << alpha << " site " << site;
    }
  }
}

TEST(ServeAllocTest, ScratchDoesNotGrowWithPageCount) {
  // A scratch warmed on a 64-page bundle serves the 4096-page bundle at
  // the same k without allocating: nothing in it is sized by the rows.
  ScoreBundleSource src;
  Rng rng(13);
  for (int i = 0; i < 64; ++i) {
    src.quality.push_back(rng.UniformDouble(0.0, 5.0));
    src.pagerank.push_back(rng.UniformDouble(0.0, 5.0));
  }
  const LoadedBundle small =
      LoadedBundle::FromBuffer(
          ScoreBundleWriter::Create(std::move(src)).value().Serialize())
          .value();
  TopKScratch scratch;
  TopKQuery q;
  q.k = 10;
  q.blend_alpha = 0.5;
  ASSERT_TRUE(QueryEngine::TopKOnBundle(small, q, &scratch).ok());
  const LoadedBundle& big = Bundle();
  const size_t allocs = AllocationsDuring([&big, &scratch, &q] {
    for (double alpha : {0.0, 0.5, 1.0}) {
      q.blend_alpha = alpha;
      ASSERT_TRUE(QueryEngine::TopKOnBundle(big, q, &scratch).ok());
    }
  });
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace qrank
