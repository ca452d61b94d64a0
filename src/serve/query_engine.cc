#include "serve/query_engine.h"

#include <algorithm>
#include <utility>

#include "common/annotations.h"

namespace qrank {

namespace {

// Strict weak order "a is a worse result than b": lower blended score,
// ties broken toward the higher row so the (score desc, row asc) oracle
// order is reproduced exactly.
inline bool Worse(const TopKEntry& a, const TopKEntry& b) {
  if (a.score != b.score) return a.score < b.score;
  return a.row > b.row;
}

// Bounded min-heap over heap[0..size): the root is the worst retained
// result, so a full heap admits a candidate iff it beats the root.
inline void SiftUp(TopKEntry* heap, size_t i) {
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Worse(heap[i], heap[parent])) break;
    std::swap(heap[i], heap[parent]);
    i = parent;
  }
}

inline void SiftDown(TopKEntry* heap, size_t size, size_t i) {
  for (;;) {
    size_t worst = i;
    const size_t l = 2 * i + 1;
    const size_t r = 2 * i + 2;
    if (l < size && Worse(heap[l], heap[worst])) worst = l;
    if (r < size && Worse(heap[r], heap[worst])) worst = r;
    if (worst == i) return;
    std::swap(heap[i], heap[worst]);
    i = worst;
  }
}

}  // namespace

void TopKScratch::Reserve(size_t k) {
  if (heap_.size() < k) {
    heap_.resize(k);
    out_.resize(k);
  }
}

QRANK_HOT Status QueryEngine::TopK(const TopKQuery& query,
                                   TopKScratch* scratch) const {
  // Generation-cached fast path: one atomic load per query; the store
  // mutex is touched only when a publish moved the generation since
  // this scratch last pinned.
  const uint64_t gen = store_->generation();
  if (gen == 0) {
    return Status::FailedPrecondition(
        "SnapshotStore has no published generation yet");
  }
  if (scratch->pinned_generation_ != gen || scratch->pinned_ == nullptr) {
    store_->Pin(&scratch->pinned_, &scratch->pinned_generation_);
  }
  return TopKOnBundle(*scratch->pinned_, query, scratch);
}

QRANK_HOT Status QueryEngine::TopKOnBundle(const LoadedBundle& bundle,
                                           const TopKQuery& query,
                                           TopKScratch* scratch) {
  const double alpha = query.blend_alpha;
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    return Status::InvalidArgument("blend_alpha must be in [0, 1]");
  }
  const double eps = query.exploration_epsilon;
  if (!(eps >= 0.0 && eps <= 1.0)) {
    return Status::InvalidArgument("exploration_epsilon must be in [0, 1]");
  }
  if (query.site != kAllSites && query.site >= bundle.num_sites()) {
    return Status::InvalidArgument("site filter out of range");
  }

  const std::span<const double> qv = bundle.quality();
  const std::span<const double> pv = bundle.pagerank();
  const std::span<const NodeId> ids = bundle.page_ids();
  const double wq = alpha;
  const double wp = 1.0 - alpha;
  const auto blend = [&qv, &pv, wq, wp](NodeId row) {
    return wq * qv[row] + wp * pv[row];
  };

  // The eligible rows twice, in (quality desc, row asc) and in
  // (pagerank desc, row asc) order: one site's two posting groups, or
  // the two global order sections. `group` is what exploration draws
  // from (empty = every row).
  std::span<const NodeId> by_q = bundle.order_by_quality();
  std::span<const NodeId> by_p = bundle.order_by_pagerank();
  std::span<const NodeId> group;
  if (query.site != kAllSites) {
    const std::span<const uint32_t> offsets = bundle.site_offsets();
    const uint32_t lo = offsets[query.site];
    const uint32_t size = offsets[query.site + 1] - lo;
    by_q = bundle.site_pages().subspan(lo, size);
    by_p = bundle.site_pages_by_pagerank().subspan(lo, size);
    group = by_q;
  }
  const size_t k = std::min<size_t>(query.k, by_q.size());

  // qrank-lint: allow(hot-alloc) amortized warm-up: grows only when a
  // query asks for more results than this scratch has ever held.
  scratch->Reserve(k);
  scratch->out_size_ = 0;
  if (k == 0) return Status::OK();

  TopKEntry* const heap = scratch->heap_.data();
  TopKEntry* const out = scratch->out_.data();
  if (wp == 0.0 || wq == 0.0) {
    // Pure quality / pure pagerank: a prefix of one list.
    const std::span<const NodeId> order = wp == 0.0 ? by_q : by_p;
    for (size_t i = 0; i < k; ++i) {
      out[i] = TopKEntry{order[i], ids[order[i]], blend(order[i]), false};
    }
    scratch->out_size_ = k;
  } else {
    // Fagin's threshold algorithm over the two lists. After consuming
    // depth d of both, every unseen row r satisfies q(r) <= q(by_q[d])
    // and pr(r) <= pr(by_p[d]), hence
    // blend(r) <= tau = wq*q(by_q[d]) + wp*pr(by_p[d]) (rounding is
    // monotone, so the bound survives floating point). Stopping only
    // when the retained worst strictly beats tau keeps the (score, row)
    // tie-break exact against the full-scan oracle.
    //
    // Each row is pushed once, when first met. Both lists are strict
    // (score desc, row asc) orders, so a row's position in the other
    // list follows from one comparison: by_q[d] already came up in
    // by_p[0, d) iff it sorts at or before by_p[d-1] in pagerank
    // order, and by_p[d] already came up in by_q[0, d] iff it sorts at
    // or before by_q[d] in quality order.
    size_t heap_size = 0;
    const auto push = [heap, &heap_size, k](NodeId row, double score) {
      const TopKEntry e{row, 0, score, false};
      if (heap_size < k) {
        heap[heap_size] = e;
        SiftUp(heap, heap_size++);
      } else if (Worse(heap[0], e)) {
        heap[0] = e;
        SiftDown(heap, heap_size, 0);
      }
    };
    const auto before = [](std::span<const double> v, NodeId a, NodeId b) {
      return v[a] > v[b] || (v[a] == v[b] && a < b);
    };
    for (size_t d = 0; d < by_q.size(); ++d) {
      const NodeId qa = by_q[d];
      const NodeId pb = by_p[d];
      if (d == 0 || before(pv, by_p[d - 1], qa)) push(qa, blend(qa));
      if (before(qv, qa, pb)) push(pb, blend(pb));
      const double tau = wq * qv[qa] + wp * pv[pb];
      if (heap_size == k && heap[0].score > tau) break;
    }
    // Drain the heap back-to-front into descending order.
    scratch->out_size_ = heap_size;
    while (heap_size > 0) {
      out[heap_size - 1] = heap[0];
      out[heap_size - 1].page_id = ids[heap[0].row];
      heap[0] = heap[--heap_size];
      SiftDown(heap, heap_size, 0);
    }
  }

  if (eps > 0.0) {
    // Pandey-style randomized promotion: each slot independently
    // flips to a uniformly random eligible page (first-come slots keep
    // their position — the promoted page inherits the impression).
    DrawExplorationPromotions(
        query.exploration_seed, eps, group, bundle.num_pages(),
        std::span<const TopKEntry>(out, scratch->out_size_),
        [out, &ids, &blend](size_t j, NodeId row) {
          out[j] = TopKEntry{row, ids[row], blend(row), true};
        });
  }
  return Status::OK();
}

}  // namespace qrank
