// QueryEngine: concurrent quality-ranked top-k over a SnapshotStore.
//
// A query asks for the k best pages under the blended score
//
//   s(p) = alpha * Q̂(p) + (1 - alpha) * PR(p)
//
// optionally restricted to one site, optionally with the randomized
// exploration mix of Pandey et al. ("Shuffling a Stacked Deck",
// PAPERS.md): with probability `exploration_epsilon` per result slot,
// the deterministic result is replaced by a uniformly random eligible
// page — the partial randomization that gives unpopular-but-good pages
// the impressions the estimator needs, without derailing the whole
// ranking.
//
// Hot-path design (the 1M+ QPS contract, verified by bench_perf_serve
// and the counting-allocator test). Every query, global or site-
// filtered, runs one dispatch over the eligible rows held twice: in
// quality order and in PageRank order. For a global query those are the
// bundle's two order sections; for a site query, the site's posting
// group and the same group in PageRank order (derived at load, see
// LoadedBundle::site_pages_by_pagerank).
//   * alpha == 1 / alpha == 0: the answer is a prefix of one list, O(k).
//   * 0 < alpha < 1: Fagin's threshold algorithm over the two lists.
//     Both are walked in parallel; the scan stops as soon as the k-th
//     best blended score beats the threshold
//     alpha * q_cursor + (1 - alpha) * pr_cursor, which no unseen page
//     can exceed (both terms are monotone down the lists). Exact, and
//     in practice terminates after O(k) .. a few hundred entries. A row
//     met in both lists is pushed once: since both lists are strict
//     (score desc, row asc) orders, one comparison against the other
//     list's cursor tells whether it was met already.
//   * Zero allocations per query: all scratch (bounded heap, result
//     slots) lives in a caller-owned TopKScratch and is reused. Its
//     size is O(k) for the largest clamped k served, independent of the
//     bundle's page count; TopK only allocates when a query asks for
//     more results than the scratch has held before.
//
// Thread model: QueryEngine is stateless and shared; each serving
// thread owns one TopKScratch, which also holds the thread's
// generation pin (re-validated by one atomic generation() load per
// query, re-acquired only after a publish), so a concurrent Publish
// never invalidates the spans mid-scan.

#ifndef QRANK_SERVE_QUERY_ENGINE_H_
#define QRANK_SERVE_QUERY_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/edge_list.h"
#include "graph/site_graph.h"
#include "serve/score_bundle.h"
#include "serve/snapshot_store.h"

namespace qrank {

/// "No site filter" sentinel.
inline constexpr SiteId kAllSites = static_cast<SiteId>(-1);

struct TopKQuery {
  uint32_t k = 10;

  /// Weight of the quality estimate in the blend (1 = pure Q̂, the
  /// paper's replace-PageRank mode; 0 = pure PageRank). Must be in
  /// [0, 1].
  double blend_alpha = 1.0;

  /// Restrict results to this site (kAllSites = no filter). Must be
  /// < num_sites when set.
  SiteId site = kAllSites;

  /// Pandey-style randomized promotion: probability per result slot of
  /// replacing the deterministic entry with a uniformly random eligible
  /// page. Must be in [0, 1]; 0 disables.
  double exploration_epsilon = 0.0;

  /// Seed of the (deterministic) exploration draws. Queries with equal
  /// seed, epsilon and bundle return identical results.
  uint64_t exploration_seed = 0;
};

struct TopKEntry {
  NodeId row = 0;       // row index within the bundle
  NodeId page_id = 0;   // external page id (bundle's page_ids section)
  double score = 0.0;   // blended score
  bool promoted = false;  // true when placed by the exploration mix
};

/// The exploration draws, shared by QueryEngine::TopK and the
/// coordinator's replay of them over a merged distributed result (both
/// must consume one Rng stream identically for the answers to match).
/// Each slot j of `results` flips a Bernoulli(epsilon) coin; on heads
/// it makes up to 8 uniform draws from the eligible rows — `group` when
/// non-empty, else [0, num_rows) — and promotes the first row not
/// already in `results`. promote(j, row) must store row into
/// results[j].row: later draws are checked against the updated slots.
template <typename Promote>
void DrawExplorationPromotions(uint64_t seed, double epsilon,
                               std::span<const NodeId> group,
                               uint64_t num_rows,
                               std::span<const TopKEntry> results,
                               Promote&& promote) {
  Rng rng(seed);
  for (size_t j = 0; j < results.size(); ++j) {
    if (!rng.Bernoulli(epsilon)) continue;
    for (int attempt = 0; attempt < 8; ++attempt) {
      const NodeId row =
          group.empty() ? static_cast<NodeId>(rng.UniformUint64(num_rows))
                        : group[rng.UniformUint64(group.size())];
      const bool duplicate =
          std::any_of(results.begin(), results.end(),
                      [row](const TopKEntry& e) { return e.row == row; });
      if (duplicate) continue;
      promote(j, row);
      break;
    }
  }
}

/// Reusable per-thread query scratch. One instance per serving thread;
/// results() is valid until the next TopK call on the same scratch.
///
/// The scratch also holds the thread's generation pin: store-backed
/// TopK caches the acquired bundle here and revalidates it with one
/// atomic SnapshotStore::generation() load per query, re-pinning (one
/// brief mutex hold) only when a publish actually happened. Dropping
/// the scratch drops the pin.
class TopKScratch {
 public:
  TopKScratch() = default;

  /// Results of the last successful TopK, best first.
  std::span<const TopKEntry> results() const {
    return {out_.data(), out_size_};
  }

 private:
  friend class QueryEngine;

  /// Grows scratch for queries of up to `k` results (k already clamped
  /// to the eligible row count). Allocation happens here and only here.
  void Reserve(size_t k);

  std::vector<TopKEntry> heap_;   // bounded min-heap, capacity k
  std::vector<TopKEntry> out_;    // sorted results, capacity k
  size_t out_size_ = 0;

  // Generation-cached pin for store-backed queries.
  std::shared_ptr<const LoadedBundle> pinned_;
  uint64_t pinned_generation_ = 0;
};

class QueryEngine {
 public:
  /// The store must outlive the engine. The engine itself is immutable
  /// and safe to share across threads.
  explicit QueryEngine(const SnapshotStore* store) : store_(store) {}

  /// Serves a top-k query from the store's current generation into
  /// `scratch->results()`. FailedPrecondition before the first publish;
  /// InvalidArgument on out-of-range query parameters. k is clamped to
  /// the eligible page count; k = 0 yields empty results.
  Status TopK(const TopKQuery& query, TopKScratch* scratch) const;

  /// Same, on an explicitly pinned bundle (tests, tools, and callers
  /// that batch many queries against one Acquire()).
  static Status TopKOnBundle(const LoadedBundle& bundle,
                             const TopKQuery& query, TopKScratch* scratch);

 private:
  const SnapshotStore* store_;
};

}  // namespace qrank

#endif  // QRANK_SERVE_QUERY_ENGINE_H_
