// Helpers shared between the PageRank engine translation units.
// Not part of the public API.

#ifndef QRANK_RANK_INTERNAL_H_
#define QRANK_RANK_INTERNAL_H_

#include <vector>

#include "common/status.h"
#include "graph/csr_graph.h"
#include "rank/pagerank.h"

namespace qrank {
namespace rank_internal {

/// Validates damping/tolerance/iteration/sweep/warm-start options.
Status ValidateOptions(const CsrGraph& graph, const PageRankOptions& options);

/// Applies the requested ScaleConvention in place.
void ApplyScale(const CsrGraph& graph, const PageRankOptions& options,
                std::vector<double>* scores);

/// The first power-iteration iterate: the (normalized) warm start if
/// provided, else the uniform distribution. Needs num_nodes() > 0.
std::vector<double> InitialIterate(const CsrGraph& graph,
                                   const PageRankOptions& options);

/// The fused kernel (rank/pagerank_kernel.h) from InitialIterate(
/// graph, options): Jacobi sweeps, preceded under
/// SweepMethod::kBlockGaussSeidel by Gauss-Seidel sweeps until their
/// change drops under options.tolerance, until a Jacobi residual drops
/// under options.tolerance or options.max_iterations run out. Fills
/// scores (probability scale, before FinishResult), iterations (both
/// kinds), residual and converged in *result.
void SolveJacobi(const CsrGraph& graph, const PageRankOptions& options,
                 PageRankResult* result);

/// Enforces require_convergence and applies scaling.
Status FinishResult(const CsrGraph& graph, const PageRankOptions& options,
                    PageRankResult* result);

}  // namespace rank_internal
}  // namespace qrank

#endif  // QRANK_RANK_INTERNAL_H_
