// Fused allocation-free PageRank pull sweep.
//
// The seed Jacobi engine walked the graph four times per iteration
// (dangling reduce, out-share scatter, pull pass, residual reduce) and
// sized a fresh partial-sum vector inside every reduce. This kernel
// fuses all of it into ONE pass over the rows: computing next[i] also
// accumulates the L1 residual, banks next[i] into the *next*
// iteration's dangling sum (so the leading reduce disappears), and
// writes next[i] * inv_outdeg[i] into a double-buffered out-share
// array (so the scatter pass disappears). Every buffer — iterates,
// out-shares, reduce scratch — is allocated once in the constructor;
// Sweep() itself performs no heap allocation (asserted by
// tests/rank/kernel_alloc_test.cc).
//
// Rows are partitioned by PullSweepBoundaries: fixed uniform node
// blocks, or edge-balanced blocks of ~equal in-edge weight found by
// binary search over the transpose CSR offsets. Both depend only on
// (graph, grain), never the thread count, and per-block partials fold
// through the fixed pairwise tree of common/parallel_for.h — so scores
// are bit-identical for every --threads value (the substrate's
// determinism contract, load-bearing for the quality estimator).
//
// GaussSeidelSweep() runs the same fused pass as a block Gauss-Seidel
// sweep: inside each block, rows read the out-shares the block has
// already refreshed this sweep. A block still reads no other block's
// fresh values, so the thread-count contract holds (DESIGN.md §5g).

#ifndef QRANK_RANK_PAGERANK_KERNEL_H_
#define QRANK_RANK_PAGERANK_KERNEL_H_

#include <span>
#include <vector>

#include "common/parallel_for.h"
#include "graph/csr_graph.h"
#include "rank/pagerank.h"
#include "rank/sweep_ops.h"

namespace qrank {
namespace rank_internal {

/// The fixed row partition a pull sweep runs over. kNodeBalanced gives
/// the uniform grain-sized blocks of ParallelForBlocks; kEdgeBalanced
/// weights row i by in_degree(i) + 1 and balances total weight across
/// the same number of blocks (building the transpose if absent).
/// Deterministic in (graph, partition, grain).
std::vector<size_t> PullSweepBoundaries(const CsrGraph& graph,
                                        SweepPartition partition,
                                        size_t grain);

class PageRankKernel {
 public:
  /// Readies every buffer the iteration needs and builds the graph's
  /// transpose (so the O(E) build lands outside the timed sweeps).
  /// `graph` must outlive the kernel; `initial` is the first iterate
  /// (probability scale). Reads damping, num_threads and partition from
  /// `options`. The teleport is uniform: 1/n per row.
  PageRankKernel(const CsrGraph& graph, const PageRankOptions& options,
                 std::vector<double> initial);

  /// One fused Jacobi application: x <- F(x). Returns the L1 residual
  /// ||x_new - x_old||_1. Allocation-free.
  double Sweep() { return Run(block_fn_); }

  /// One block Gauss-Seidel sweep over the same partition: row i of a
  /// block pulls this sweep's values for the block's rows before i and
  /// last sweep's for all others (sweep_impl.h). Scores stay
  /// bit-identical at any thread count. Returns the L1 change of the
  /// sweep. Needs a kernel built with options.sweep ==
  /// kBlockGaussSeidel (which finds each row's run ends once).
  /// Allocation-free.
  double GaussSeidelSweep();

  const std::vector<double>& scores() const { return x_; }
  std::vector<double> TakeScores() { return std::move(x_); }
  const std::vector<size_t>& boundaries() const { return bounds_; }

  /// The instruction set the sweeps actually run (the request from
  /// options.kernel clamped to hardware/build support) and whether they
  /// pull from the compressed transpose. For bench/test reporting.
  SimdLevel simd_level() const { return funcs_.level; }
  bool compressed() const { return compressed_; }

 private:
  double Run(BlockSweepFn block);

  const NodeId n_;
  const double alpha_;
  const double inv_n_;  // uniform teleport share, 1/n
  ParallelOptions par_;
  std::vector<size_t> bounds_;  // fixed sweep partition, n_+... boundaries

  std::span<const size_t> in_offsets_;
  std::span<const NodeId> in_sources_;
  SweepFuncs funcs_;        // resolved ISA variant (see sweep_ops.h)
  bool compressed_ = false;
  BlockSweepFn block_fn_ = nullptr;    // funcs_.raw_block or .compressed_block
  const uint64_t* byte_offsets_ = nullptr;  // compressed stream, if enabled
  const uint8_t* bytes_ = nullptr;
  std::vector<double> inv_outdeg_;  // 0 for dangling rows

  std::vector<double> x_;
  std::vector<double> next_;
  std::vector<double> out_share_;       // x_[u] * inv_outdeg_[u]
  std::vector<double> next_out_share_;  // double buffer, swapped per sweep
  std::vector<uint32_t> gs_run_ends_;  // SweepArgs::gs_run_ends; GS only
  std::vector<double> reduce_scratch_;  // per-block partials, reused
  double dangling_;  // sum of x_[u] over dangling u, carried sweep-to-sweep
};

}  // namespace rank_internal
}  // namespace qrank

#endif  // QRANK_RANK_PAGERANK_KERNEL_H_
