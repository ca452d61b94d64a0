#include "rank/extrapolation.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "rank/internal.h"
#include "rank/rank_vector.h"

namespace qrank {

using rank_internal::FinishResult;
using rank_internal::ValidateOptions;

namespace {

// One quadratic-extrapolation step from four successive iterates
// h[0]=x_{k-3} .. h[3]=x_k. Returns false (leaving *out untouched) when
// the least-squares system is numerically singular.
bool QuadraticExtrapolate(const std::array<std::vector<double>, 4>& h,
                          std::vector<double>* out) {
  const size_t n = h[0].size();
  // y_j = x_{k-3+j} - x_{k-3}, j = 1..3. Solve min || [y1 y2] g + y3 ||.
  double a11 = 0.0, a12 = 0.0, a22 = 0.0, b1 = 0.0, b2 = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double y1 = h[1][i] - h[0][i];
    double y2 = h[2][i] - h[0][i];
    double y3 = h[3][i] - h[0][i];
    a11 += y1 * y1;
    a12 += y1 * y2;
    a22 += y2 * y2;
    b1 += y1 * y3;
    b2 += y2 * y3;
  }
  double det = a11 * a22 - a12 * a12;
  double scale = a11 * a22;
  if (!(std::fabs(det) > 1e-14 * (scale > 0.0 ? scale : 1.0))) {
    return false;  // iterates already (nearly) collinear
  }
  double g1 = (-b1 * a22 + b2 * a12) / det;
  double g2 = (-a11 * b2 + a12 * b1) / det;
  const double g3 = 1.0;
  double beta0 = g1 + g2 + g3;
  double beta1 = g2 + g3;
  double beta2 = g3;

  out->resize(n);
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double val = beta0 * h[1][i] + beta1 * h[2][i] + beta2 * h[3][i];
    // Extrapolation can momentarily produce tiny negative components;
    // clamp before renormalizing (the iterate must stay a distribution).
    (*out)[i] = val > 0.0 ? val : 0.0;
    sum += (*out)[i];
  }
  if (sum <= 0.0) return false;
  for (double& x : *out) x /= sum;
  return true;
}

}  // namespace

Result<ExtrapolatedPageRankResult> ComputeExtrapolatedPageRank(
    const CsrGraph& graph, const ExtrapolatedPageRankOptions& options) {
  QRANK_RETURN_NOT_OK(ValidateOptions(graph, options.base));
  if (options.period < 4) {
    return Status::InvalidArgument("extrapolation period must be >= 4");
  }

  const NodeId n = graph.num_nodes();
  ExtrapolatedPageRankResult result;
  if (n == 0) {
    result.base.converged = true;
    return result;
  }

  const double alpha = options.base.damping;
  const double inv_n = 1.0 / static_cast<double>(n);
  std::vector<double> x(n, inv_n);
  std::vector<double> next(n, 0.0);

  // Ring buffer of the last 4 iterates (h[3] most recent).
  std::array<std::vector<double>, 4> history;
  uint32_t history_filled = 0;

  for (uint32_t iter = 1; iter <= options.base.max_iterations; ++iter) {
    double dangling = 0.0;
    std::fill(next.begin(), next.end(), 0.0);
    for (NodeId u = 0; u < n; ++u) {
      auto nbrs = graph.OutNeighbors(u);
      if (nbrs.empty()) {
        dangling += x[u];
        continue;
      }
      double share = alpha * x[u] / static_cast<double>(nbrs.size());
      for (NodeId t : nbrs) next[t] += share;
    }
    double teleport_mass = 1.0 - alpha + alpha * dangling;
    for (NodeId i = 0; i < n; ++i) next[i] += teleport_mass * inv_n;

    result.base.residual = L1Distance(next, x);
    x.swap(next);
    result.base.iterations = iter;
    if (result.base.residual < options.base.tolerance) {
      result.base.converged = true;
      break;
    }

    // Maintain history and periodically extrapolate.
    if (history_filled < 4) {
      history[history_filled++] = x;
    } else {
      std::rotate(history.begin(), history.begin() + 1, history.end());
      history[3] = x;
    }
    if (history_filled == 4 && iter >= options.warmup &&
        iter % options.period == 0) {
      std::vector<double> cleaned;
      if (QuadraticExtrapolate(history, &cleaned)) {
        x = std::move(cleaned);
        ++result.extrapolations_applied;
        history_filled = 0;  // restart history from the cleaned iterate
      }
    }
  }

  result.base.scores = std::move(x);
  QRANK_RETURN_NOT_OK(FinishResult(graph, options.base, &result.base));
  return result;
}

}  // namespace qrank
