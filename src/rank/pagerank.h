// PageRank engines.
//
// Implements the metric of Section 3 of the paper:
//
//   PR(p_i) = d + (1 - d) [ PR(p_1)/c_1 + ... + PR(p_m)/c_m ]
//
// where d is the paper's damping (teleport) probability and c_j the
// out-degree of the linking page. The teleport is uniform, as in the
// paper: every page gets the same share of it (d/n in probability
// scale). Footnote 2 ("a page with no outgoing link is assumed to link
// to every page") is realized as uniform redistribution of dangling
// mass, without materializing O(n^2) edges.
//
// Two numeric conventions are supported:
//  * kProbability — scores form a distribution (sum to 1): the
//    random-surfer stationary distribution.
//  * kTotalMassN — scores sum to num_nodes, matching the paper's
//    "initial PageRank value 1 per page" convention used in Section 8.
//
// Engines (the paper ranks with "the basic PageRank algorithm"; the
// others are the accelerations it cites and the warm engine the
// snapshot pipeline runs):
//  * ComputePageRank        — Jacobi power iteration in the pull
//    formulation on the fused kernel (rank/pagerank_kernel.h), or block
//    Gauss-Seidel sweeps closed by a Jacobi sweep (options.sweep); runs
//    on the parallel substrate, and scores are bit-identical for every
//    num_threads value.
//  * ComputePageRankGaussSeidel — in-place sweeps, typically ~2x fewer
//    iterations; requires the transpose. Deliberately serial: each
//    update reads values written earlier in the same sweep, so any
//    parallel order would change the iterates. It is the independent
//    reference the equivalence tests compare the parallel engine to.
//  * ComputeDeltaPageRank (delta_pagerank.h) — warm-started re-ranking
//    of an evolving graph, on the same kernel or a frozen-set engine.
//  * ComputeAdaptivePageRank (adaptive_pagerank.h)   — [11] in the paper.
//  * ComputeExtrapolatedPageRank (extrapolation.h)   — [12] in the paper.

#ifndef QRANK_RANK_PAGERANK_H_
#define QRANK_RANK_PAGERANK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/csr_graph.h"

namespace qrank {

enum class ScaleConvention {
  kProbability,  // scores sum to 1
  kTotalMassN,   // scores sum to num_nodes (paper's Section 8 convention)
};

/// How the Jacobi pull sweep splits rows into fixed parallel blocks.
/// Either way the partition depends only on the graph and the grain —
/// never on the thread count — so scores stay bit-identical across
/// --threads values; the two partitions are distinct deterministic
/// engines (different summation order, same fixed point).
enum class SweepPartition {
  /// Equal node count per block. On power-law graphs the block holding
  /// the hubs carries most of the edges and the other threads idle.
  kNodeBalanced,
  /// Equal work per block, weighting row i by in_degree(i) + 1 (one
  /// binary search per boundary over the transpose CSR offsets).
  kEdgeBalanced,
};

/// "node" | "edge" — the names the shared --partition flag accepts.
const char* SweepPartitionName(SweepPartition partition);

/// Parses the names above; false on unknown input.
bool ParseSweepPartition(const std::string& text, SweepPartition* out);

/// How the fused kernel updates rows within one sweep (DESIGN.md §5g).
enum class SweepMethod {
  /// Every row pulls last sweep's values: the reference iteration.
  kJacobi,
  /// Inside each block of the fixed partition, a row pulls this sweep's
  /// values for the block's earlier rows. Fewer sweeps to the same
  /// tolerance; convergence is still declared on a closing Jacobi sweep.
  kBlockGaussSeidel,
};

/// Instruction-set variant of the fused pull sweep (see
/// rank/pagerank_kernel.h and DESIGN.md §5g). Scalar is the default
/// and the oracle; AVX2 reproduces its 4-accumulator fold bit-for-bit
/// (lane j == accumulator j); AVX-512 folds 8 lanes and carries a
/// test-enforced <= 1e-14 per-element tolerance. Requests the build or
/// hardware cannot honor clamp DOWN (never up), so every option value
/// is safe on every machine.
enum class KernelVariant {
  kScalar,  // portable reference fold
  kSimd,    // best available: runtime CPUID pick of avx512 > avx2 > scalar
  kAvx2,
  kAvx512,
};

/// "scalar" | "simd" | "avx2" | "avx512".
const char* KernelVariantName(KernelVariant variant);

/// Parses the names above; false on unknown input.
bool ParseKernelVariant(const std::string& text, KernelVariant* out);

struct PageRankOptions {
  /// Probability of following a link (1 - paper's d). 0.85 is the
  /// standard Brin-Page value.
  double damping = 0.85;

  /// Stop when the L1 change between successive iterates (in probability
  /// scale) drops below this.
  double tolerance = 1e-10;

  uint32_t max_iterations = 200;

  ScaleConvention scale = ScaleConvention::kProbability;

  /// If true, a run that hits max_iterations without meeting tolerance
  /// returns Status::NotConverged; if false it returns the last iterate
  /// with converged=false.
  bool require_convergence = false;

  /// Optional warm-start iterate (probability or any positive scale —
  /// normalized internally). Empty means start from the uniform
  /// distribution. Must have num_nodes non-negative entries with a
  /// positive sum. The fixed point is unchanged; only the iteration
  /// count depends on the start.
  std::vector<double> initial_scores;

  /// Executor count for the Jacobi engine: 0 = the process default
  /// (SetDefaultThreads / hardware concurrency), 1 = serial on the
  /// calling thread. Scores do not depend on this value — reductions
  /// use a fixed block tree (see common/parallel_for.h).
  int num_threads = 0;

  /// Row partition of the Jacobi sweep (see SweepPartition). Edge
  /// balancing is the default: it fixes the thread-skew that node
  /// blocks suffer on hub-heavy web graphs and costs one boundary
  /// computation per solve.
  SweepPartition partition = SweepPartition::kEdgeBalanced;

  /// Pull-sweep instruction set (see KernelVariant). Scores do not
  /// depend on the partition or thread count under ANY variant; they
  /// are bit-identical across variants except kAvx512 (tolerance
  /// documented above).
  KernelVariant kernel = KernelVariant::kScalar;

  /// Pull from the delta-gap compressed transpose (decode-on-the-fly;
  /// graph/compressed_csr.h) instead of the raw transpose arrays.
  /// Bit-identical scores for every variant — the decoder feeds the
  /// same fold — trading decode ALU for the memory traffic the sweep
  /// is bound on. The encode is cached on the graph like the transpose.
  bool use_compressed_transpose = false;

  /// Sweep of the fused kernel, honored by ComputePageRank and by
  /// ComputeDeltaPageRank at full_sweep_period 1 (other engines ignore
  /// it). kBlockGaussSeidel runs block Gauss-Seidel sweeps until their
  /// L1 change drops under tolerance, then Jacobi sweeps until a Jacobi
  /// residual does, so the result carries Jacobi's error bound;
  /// `iterations` counts both kinds. Scores depend on the partition but
  /// not on the thread count. Incompatible with use_compressed_transpose
  /// (InvalidArgument).
  SweepMethod sweep = SweepMethod::kJacobi;
};

struct PageRankResult {
  std::vector<double> scores;
  uint32_t iterations = 0;
  bool converged = false;
  /// Final L1 residual (probability scale).
  double residual = 0.0;
};

/// Jacobi power iteration. InvalidArgument on bad options
/// (damping outside [0,1), non-positive tolerance, bad initial_scores).
/// An empty graph yields an empty score vector.
Result<PageRankResult> ComputePageRank(const CsrGraph& graph,
                                       const PageRankOptions& options = {});

/// Gauss-Seidel sweeps over the pull formulation (uses the transpose;
/// in-place updates so later nodes see this sweep's fresh values).
/// Same contract as ComputePageRank.
Result<PageRankResult> ComputePageRankGaussSeidel(
    const CsrGraph& graph, const PageRankOptions& options = {});

}  // namespace qrank

#endif  // QRANK_RANK_PAGERANK_H_
