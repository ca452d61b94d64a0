#include "rank/adaptive_pagerank.h"

#include <algorithm>
#include <cmath>

#include "rank/internal.h"
#include "rank/rank_vector.h"

namespace qrank {

using rank_internal::FinishResult;
using rank_internal::ValidateOptions;

Result<AdaptivePageRankResult> ComputeAdaptivePageRank(
    const CsrGraph& graph, const AdaptivePageRankOptions& options) {
  QRANK_RETURN_NOT_OK(ValidateOptions(graph, options.base));
  if (options.freeze_threshold <= 0.0) {
    return Status::InvalidArgument("freeze_threshold must be positive");
  }
  if (options.full_sweep_period == 0) {
    return Status::InvalidArgument("full_sweep_period must be >= 1");
  }

  const NodeId n = graph.num_nodes();
  AdaptivePageRankResult result;
  if (n == 0) {
    result.base.converged = true;
    return result;
  }

  const double alpha = options.base.damping;
  const double inv_n = 1.0 / static_cast<double>(n);

  // Cached transpose, shared across engines on this graph — no O(E)
  // private copy.
  graph.BuildTranspose();
  std::vector<double> inv_outdeg(n, 0.0);
  for (NodeId u = 0; u < n; ++u) {
    uint32_t d = graph.OutDegree(u);
    if (d > 0) inv_outdeg[u] = 1.0 / static_cast<double>(d);
  }

  std::vector<double> x(n, inv_n);
  std::vector<double> next = x;
  std::vector<bool> frozen(n, false);

  for (uint32_t iter = 1; iter <= options.base.max_iterations; ++iter) {
    const bool full_sweep = (iter % options.full_sweep_period == 0);
    double dangling = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      if (inv_outdeg[u] == 0.0) dangling += x[u];
    }
    const double teleport_mass = 1.0 - alpha + alpha * dangling;

    double residual = 0.0;
    for (NodeId i = 0; i < n; ++i) {
      if (frozen[i] && !full_sweep) {
        next[i] = x[i];
        continue;
      }
      double pull = 0.0;
      for (NodeId u : graph.InNeighbors(i)) {
        pull += x[u] * inv_outdeg[u];
      }
      double fresh = teleport_mass * inv_n + alpha * pull;
      double delta = std::fabs(fresh - x[i]);
      residual += delta;
      next[i] = fresh;
      ++result.node_updates;
      // Relative per-page convergence; fresh > 0 whenever damping < 1.
      if (fresh > 0.0 && delta / fresh < options.freeze_threshold) {
        frozen[i] = true;
      } else if (full_sweep) {
        frozen[i] = false;  // page woke back up; resume updating it
      }
    }
    x.swap(next);
    result.base.residual = residual;
    result.base.iterations = iter;
    // Only trust global convergence on a full sweep: frozen pages
    // contributed no residual on partial sweeps.
    if (full_sweep && residual < options.base.tolerance) {
      result.base.converged = true;
      break;
    }
    // Approximate convergence (the source algorithm's stopping rule):
    // every page individually met the per-page criterion. The result is
    // within O(freeze_threshold / (1 - damping)) of the exact vector.
    if (full_sweep &&
        std::all_of(frozen.begin(), frozen.end(), [](bool f) { return f; })) {
      result.base.converged = true;
      break;
    }
  }

  // If the loop exhausted iterations right before a scheduled full sweep,
  // run one final full update to obtain an honest residual.
  if (!result.base.converged) {
    double dangling = 0.0;
    for (NodeId u = 0; u < n; ++u) {
      if (inv_outdeg[u] == 0.0) dangling += x[u];
    }
    const double teleport_mass = 1.0 - alpha + alpha * dangling;
    double residual = 0.0;
    for (NodeId i = 0; i < n; ++i) {
      double pull = 0.0;
      for (NodeId u : graph.InNeighbors(i)) {
        pull += x[u] * inv_outdeg[u];
      }
      double fresh = teleport_mass * inv_n + alpha * pull;
      residual += std::fabs(fresh - x[i]);
      next[i] = fresh;
      ++result.node_updates;
    }
    x.swap(next);
    result.base.residual = residual;
    if (residual < options.base.tolerance) result.base.converged = true;
  }

  for (NodeId i = 0; i < n; ++i) {
    if (frozen[i]) ++result.frozen_at_end;
  }
  NormalizeSum(&x, 1.0);
  result.base.scores = std::move(x);
  QRANK_RETURN_NOT_OK(FinishResult(graph, options.base, &result.base));
  return result;
}

}  // namespace qrank
