#include "serve/query_engine.h"

#include <algorithm>
#include <cstring>
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

void TopKScratch::Reserve(NodeId n, uint32_t k) {
  if (heap_.size() < k) {
    heap_.resize(k);
    out_.resize(k);
  }
  if (stamp_.size() < n) stamp_.resize(n, 0);
}

bool TopKScratch::MarkVisited(NodeId row) {
  if (stamp_[row] == epoch_) return false;
  stamp_[row] = epoch_;
  return true;
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

  const NodeId n = bundle.num_pages();
  const std::span<const double> qv = bundle.quality();
  const std::span<const double> pv = bundle.pagerank();
  const std::span<const NodeId> ids = bundle.page_ids();
  const double wq = alpha;
  const double wp = 1.0 - alpha;
  const auto blend = [&qv, &pv, wq, wp](NodeId row) {
    return wq * qv[row] + wp * pv[row];
  };
  const auto entry = [&ids, &blend](NodeId row) {
    return TopKEntry{row, ids[row], blend(row), false};
  };

  // Eligible rows: one site's posting group (quality-descending) or the
  // whole bundle.
  std::span<const NodeId> group;
  if (query.site != kAllSites) {
    const std::span<const uint32_t> offsets = bundle.site_offsets();
    group = bundle.site_pages().subspan(
        offsets[query.site], offsets[query.site + 1] - offsets[query.site]);
  }
  const size_t eligible =
      query.site != kAllSites ? group.size() : static_cast<size_t>(n);
  const size_t k = std::min<size_t>(query.k, eligible);

  // qrank-lint: allow(hot-alloc) amortized warm-up: grows only when a
  // new generation has more pages than this scratch has ever seen.
  scratch->Reserve(n, query.k);
  scratch->heap_size_ = 0;
  scratch->out_size_ = 0;
  if (++scratch->epoch_ == 0) {  // u32 wrap: reset all stamps once per 2^32
    std::memset(scratch->stamp_.data(), 0,
                scratch->stamp_.size() * sizeof(uint32_t));
    scratch->epoch_ = 1;
  }
  if (k == 0) return Status::OK();

  TopKEntry* const heap = scratch->heap_.data();
  TopKEntry* const out = scratch->out_.data();
  size_t& heap_size = scratch->heap_size_;
  const auto push = [heap, &heap_size, k](const TopKEntry& e) {
    if (heap_size < k) {
      heap[heap_size] = e;
      SiftUp(heap, heap_size++);
    } else if (Worse(heap[0], e)) {
      heap[0] = e;
      SiftDown(heap, heap_size, 0);
    }
  };

  if (query.site != kAllSites) {
    if (wp == 0.0) {
      // Pure quality: the posting group is already in oracle order.
      for (size_t i = 0; i < k; ++i) out[i] = entry(group[i]);
      scratch->out_size_ = k;
    } else {
      // Blended site scan with an upper-bound cutoff: the group is
      // quality-descending and no page beats the global pagerank max,
      // so once wq*q(group[i]) + wp*pr_max falls below the retained
      // worst, the tail cannot contribute.
      const double pr_max = pv[bundle.order_by_pagerank()[0]];
      for (size_t i = 0; i < group.size(); ++i) {
        if (heap_size == k &&
            wq * qv[group[i]] + wp * pr_max < heap[0].score) {
          break;
        }
        push(entry(group[i]));
      }
    }
  } else if (wp == 0.0 || wq == 0.0) {
    // Pure quality / pure pagerank: a prefix of the precomputed order.
    const std::span<const NodeId> order =
        wp == 0.0 ? bundle.order_by_quality() : bundle.order_by_pagerank();
    for (size_t i = 0; i < k; ++i) out[i] = entry(order[i]);
    scratch->out_size_ = k;
  } else {
    // Fagin's threshold algorithm over the two order sections. After
    // consuming depth d of both lists, every unseen row r satisfies
    // q(r) <= q(A[d]) and pr(r) <= pr(B[d]), hence
    // blend(r) <= tau = wq*q(A[d]) + wp*pr(B[d]) (rounding is monotone,
    // so the bound survives floating point). Stopping only when the
    // retained worst strictly beats tau keeps the (score, row)
    // tie-break exact against the full-scan oracle.
    const std::span<const NodeId> by_q = bundle.order_by_quality();
    const std::span<const NodeId> by_p = bundle.order_by_pagerank();
    for (size_t d = 0; d < n; ++d) {
      const NodeId qa = by_q[d];
      const NodeId pb = by_p[d];
      if (scratch->MarkVisited(qa)) push(entry(qa));
      if (scratch->MarkVisited(pb)) push(entry(pb));
      const double tau = wq * qv[qa] + wp * pv[pb];
      if (heap_size == k && heap[0].score > tau) break;
    }
  }

  if (scratch->out_size_ == 0) {
    // Drain the heap back-to-front into descending order.
    scratch->out_size_ = heap_size;
    while (heap_size > 0) {
      out[heap_size - 1] = heap[0];
      heap[0] = heap[--heap_size];
      SiftDown(heap, heap_size, 0);
    }
  }

  if (eps > 0.0) {
    // Pandey-style randomized promotion: each slot independently
    // flips to a uniformly random eligible page (first-come slots keep
    // their position — the promoted page inherits the impression).
    DrawExplorationPromotions(
        query.exploration_seed, eps, group, n,
        std::span<const TopKEntry>(out, scratch->out_size_),
        [out, &ids, &blend](size_t j, NodeId row) {
          out[j] = TopKEntry{row, ids[row], blend(row), true};
        });
  }
  return Status::OK();
}

}  // namespace qrank
