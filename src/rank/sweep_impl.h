// Shared implementation templates behind sweep_ops.h. Included ONLY by
// the per-ISA translation units (pagerank_kernel.cc and the
// pagerank_kernel_avx2/_avx512.cc files) — each instantiates the
// templates with its lane accumulator under its own -m flags. Keeping
// the instantiations TU-local is what lets one header serve three ISAs
// without ODR trouble.
//
// An accumulator type Acc models the scalar 4-accumulator fold:
//   Acc acc;                                  // all partials zero
//   acc.Accumulate(src, count, out_share);    // stream a source run
//   double pull = acc.Fold();                 // fixed fold order
// The raw path instantiates the row loop with the TU's Acc; the
// compressed (decode-on-the-fly) path is the same for every ISA — a
// fused decode+accumulate under the scalar oracle fold, because varint
// decode dominates a compressed row and gathering from a just-decoded
// buffer store-forward-stalls wide loads. Compressed scores are
// therefore bit-exact against the scalar raw path for EVERY variant.

#ifndef QRANK_RANK_SWEEP_IMPL_H_
#define QRANK_RANK_SWEEP_IMPL_H_

#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/annotations.h"
#include "graph/compressed_csr.h"
#include "rank/sweep_ops.h"

namespace qrank {
namespace rank_internal {

template <class Acc>
QRANK_HOT double PullRow(const NodeId* src, size_t count, const double* out_share) {
  Acc acc;
  acc.Accumulate(src, count, out_share);
  return acc.Fold();
}

/// Fused decode + accumulate over one compressed row, reproducing the
/// scalar oracle bit-for-bit: values stream through a 4-slot group —
/// full groups land on p0..p3, the final partial group (< 4) folds into
/// p0 — exactly ScalarAcc's assignment. Inline (not a template): every
/// ISA variant shares this one definition, which is what makes
/// compressed output identical across variants.
QRANK_HOT inline double CompressedScalarPullRow(const uint8_t* p, const uint8_t* end,
                                      const double* out_share) {
  if (p >= end) return 0.0;  // empty row
  double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
  uint32_t prev;
  p = DecodeU32VarintUnchecked(p, &prev);  // first value is absolute
  uint32_t pending[4];
  pending[0] = prev;
  size_t npend = 1;
  for (;;) {
    if (npend == 4) {
      p0 += out_share[pending[0]];
      p1 += out_share[pending[1]];
      p2 += out_share[pending[2]];
      p3 += out_share[pending[3]];
      npend = 0;
    }
    // Fast path: in a locality-friendly ordering most gaps fit one
    // byte, so whole words of the stream carry four gaps with no
    // continuation bit — decode with shifts and accumulate the group
    // directly, skipping four branchy varint loops.
    while (npend == 0 && p + 4 <= end) {
      uint32_t w;
      std::memcpy(&w, p, 4);
      if ((w & 0x80808080u) != 0) break;
      prev += w & 0xffu;
      p0 += out_share[prev];
      prev += (w >> 8) & 0xffu;
      p1 += out_share[prev];
      prev += (w >> 16) & 0xffu;
      p2 += out_share[prev];
      prev += (w >> 24) & 0xffu;
      p3 += out_share[prev];
      p += 4;
    }
    if (p >= end) break;
    uint32_t delta;
    p = DecodeU32VarintUnchecked(p, &delta);
    prev += delta;
    pending[npend++] = prev;
  }
  if (npend == 4) {
    p0 += out_share[pending[0]];
    p1 += out_share[pending[1]];
    p2 += out_share[pending[2]];
    p3 += out_share[pending[3]];
  } else {
    for (size_t i = 0; i < npend; ++i) p0 += out_share[pending[i]];
  }
  return (p0 + p1) + (p2 + p3);
}

// The fused row loop of PageRankKernel::Sweep (see pagerank_kernel.h
// for the full story): next scores + L1 residual + carried dangling
// mass + next out-shares in one pass over rows [lo, hi).
//
// kGaussSeidel makes it a block Gauss-Seidel sweep: row i pulls this
// sweep's out-share for in-block sources in [lo, i) and last sweep's
// for every other source. A transpose row is sorted by source, so that
// is three contiguous runs (< lo, [lo, i), >= i), whose ends the kernel
// finds once at construction (gs_run_ends), streamed through one
// accumulator.
// Accumulate calls compose (tails land in lane 0 in both the scalar and
// the AVX2 fold), so AVX2 stays bit-exact against scalar, and a block
// reads no other block's fresh values, so no thread count changes a
// bit (DESIGN.md §5g).
template <class Acc, bool kCompressed, bool kGaussSeidel = false>
QRANK_HOT std::array<double, 2> BlockSweep(const SweepArgs& a, size_t lo, size_t hi) {
  static_assert(!(kCompressed && kGaussSeidel),
                "Gauss-Seidel sweeps pull from the raw transpose only");
  // Hoist every field into restrict-qualified locals: the stores to
  // next/next_out_share would otherwise force the compiler to reload
  // the argument block (and re-derive the row pointers) each row.
  const size_t* __restrict in_off = a.in_off;
  const NodeId* __restrict in_src = a.in_src;
  const uint64_t* __restrict byte_off = a.byte_off;
  const uint8_t* __restrict bytes = a.bytes;
  const double* __restrict x = a.x;
  const double* __restrict out_share = a.out_share;
  const double* __restrict inv_outdeg = a.inv_outdeg;
  double* __restrict next = a.next;
  // The Gauss-Seidel loop reads next_out_share where it writes it, so
  // there the pointer must not promise the compiler otherwise.
  std::conditional_t<kGaussSeidel, double*, double* __restrict>
      next_out_share = a.next_out_share;
  const uint32_t* __restrict gs_run_ends = a.gs_run_ends;
  const double alpha = a.alpha;
  const double inv_n = a.inv_n;
  const double base_weight = a.base_weight;
  double residual = 0.0;
  double next_dangling = 0.0;
  for (size_t i = lo; i < hi; ++i) {
    double pull;
    if constexpr (kCompressed) {
      pull = CompressedScalarPullRow(bytes + byte_off[i],
                                     bytes + byte_off[i + 1], out_share);
    } else if constexpr (kGaussSeidel) {
      const NodeId* row = in_src + in_off[i];
      const size_t count = in_off[i + 1] - in_off[i];
      const size_t old_end = gs_run_ends[2 * i];
      const size_t fresh_end = gs_run_ends[2 * i + 1];
      Acc acc;
      // Sources before the block are rare when links stay near their
      // targets (1.5% of rows on the 131k site graph); skipping the
      // empty run changes no bit.
      if (old_end != 0) [[unlikely]] acc.Accumulate(row, old_end, out_share);
      acc.Accumulate(row + old_end, fresh_end - old_end, next_out_share);
      acc.Accumulate(row + fresh_end, count - fresh_end, out_share);
      pull = acc.Fold();
    } else {
      const size_t begin = in_off[i];
      pull = PullRow<Acc>(in_src + begin, in_off[i + 1] - begin, out_share);
    }
    // Kept as one expression: the AVX-512 TU contracts it into an FMA,
    // and pre-multiplying base_weight * inv_n per sweep would round
    // those sweeps differently (DESIGN.md §5g).
    const double fresh = base_weight * inv_n + alpha * pull;
    residual += std::fabs(fresh - x[i]);
    if (inv_outdeg[i] == 0.0) next_dangling += fresh;
    next[i] = fresh;
    next_out_share[i] = fresh * inv_outdeg[i];
  }
  return {residual, next_dangling};
}

template <class Acc>
SweepFuncs MakeSweepFuncs(SimdLevel level) {
  SweepFuncs funcs;
  funcs.level = level;
  funcs.raw_block = &BlockSweep<Acc, /*kCompressed=*/false>;
  funcs.gauss_seidel_block =
      &BlockSweep<Acc, /*kCompressed=*/false, /*kGaussSeidel=*/true>;
  // NOT a per-TU instantiation: the compressed sweep must come from the
  // scalar TU so no ISA TU's implied FMA can re-round its row update
  // (see the declaration in sweep_ops.h).
  funcs.compressed_block = &ScalarCompressedBlockSweep;
  funcs.row_pull = &PullRow<Acc>;
  funcs.compressed_row_pull = &CompressedScalarPullRow;
  return funcs;
}

}  // namespace rank_internal
}  // namespace qrank

#endif  // QRANK_RANK_SWEEP_IMPL_H_
