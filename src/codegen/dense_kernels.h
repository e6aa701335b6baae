// Dense (fully-connected) kernel variants for symbolic codegen (§4.5).
//
// Convention: x is [M, K], w is [N, K] (transposed weights), out is [M, N].
//
// The paper's observation: after tiling a symbolic dimension by a factor T,
// loop boundary conditions can only be eliminated if the residue r = M mod T
// is known when the kernel is compiled. Nimble therefore emits T
// residue-specialized copies of the kernel (replacing M with T*q + r) plus a
// runtime dispatch on r; with fewer copies, uncovered residues fall back to
// the generic symbolic kernel, which checks the tile boundary at runtime.
//
// We reproduce that structure with templates:
//  - DenseResidue<R>: q full tiles of kTileRows rows (MicroTile8F32) + a
//    compile-time tail of R rows (MicroTilePartialF32) — the specialized
//    kernel for residue class R, with no per-tile boundary check;
//  - DenseSymbolicChecked: one generic kernel where every tile re-derives
//    `rows = min(kTileRows, M - i)` and branches on it — what symbolic
//    codegen emits when it cannot specialize.
// Every one of them computes each output row in MicroRow1F32's order, so
// the dispatch configuration changes speed, never bits.
#pragma once

#include <algorithm>
#include <cstdint>

namespace nimble {
namespace codegen {

/// Tile factor along the (symbolic) M dimension. The paper's auto-tuner
/// selects 8 for all three BERT dense layers (§6.3).
inline constexpr int kTileRows = 8;

/// Adds the last k_depth % 4 products (`tail` of them, from k4 on) to a
/// reduced chain sum: up to three guarded adds, not a loop. GCC vectorizes
/// a tail loop, which spills the main loop's induction variable to the
/// stack, and at a compile-time K divisible by 4 it warns
/// (-Waggressive-loop-optimizations) about the empty tail.
inline float AddKTail(float fin, const float* xrow, const float* wrow,
                      int64_t k4, int64_t tail) {
  if (tail > 0) fin += xrow[k4] * wrow[k4];
  if (tail > 1) fin += xrow[k4 + 1] * wrow[k4 + 1];
  if (tail > 2) fin += xrow[k4 + 2] * wrow[k4 + 2];
  return fin;
}

/// Canonical per-row accumulation: 4 interleaved chains over k (breaking
/// the multiply-add latency chain), reduced as (a0+a1)+(a2+a3), scalar
/// tail. EVERY specialized dense path — single row, multi-row tile, or the
/// batched rows-in-lanes tile — reproduces exactly this arithmetic order
/// per row. That invariant is the bit-identity contract that lets the
/// serving layer mix per-request and packed-batch execution freely
/// (src/batch/pack_plan.h).
inline void MicroRow1F32(const float* xrow, const float* w, float* outrow,
                         int64_t n_cols, int64_t k_depth) {
  const int64_t k4 = k_depth - k_depth % 4;
  const int64_t tail = k_depth - k4;
  for (int64_t n = 0; n < n_cols; ++n) {
    const float* wrow = w + n * k_depth;
    float acc[4] = {};
    for (int64_t k = 0; k < k4; k += 4) {
      acc[0] += xrow[k + 0] * wrow[k + 0];
      acc[1] += xrow[k + 1] * wrow[k + 1];
      acc[2] += xrow[k + 2] * wrow[k + 2];
      acc[3] += xrow[k + 3] * wrow[k + 3];
    }
    outrow[n] = AddKTail((acc[0] + acc[1]) + (acc[2] + acc[3]), xrow, wrow,
                         k4, tail);
  }
}

/// Full kTileRows-row tile, defined in dispatch.cc: rows-in-lanes (one
/// 8-wide vector lane per row, weights broadcast — the layout batched
/// serving wants) when the CPU supports AVX2, row-at-a-time MicroRow1F32
/// otherwise. Deliberately compiled without fused multiply-add: a fused
/// contraction would round differently and break the per-row bit-identity
/// contract above.
void MicroTile8F32(const float* x, const float* w, float* out, int64_t n_cols,
                   int64_t k_depth, int64_t out_stride);

/// Deepest contraction the rows-in-lanes tile holds in its stack-resident
/// transpose buffer (32 KiB). MicroTile8F32 falls back to row-at-a-time
/// beyond it; MicroTile8BlockedF32 instead chunks K at this bound and
/// keeps the lanes path for any depth.
inline constexpr int64_t kMicroTileDepthLimit = 1024;

/// K-chunked variant of the full tile for the cache-blocked dense path
/// (DenseBlocked): streams K in block_k-sized chunks (rounded to a
/// multiple of 4, capped at kMicroTileDepthLimit) while keeping every
/// (row, column) accumulator chain live across chunks, so the per-element
/// arithmetic order is EXACTLY MicroRow1F32's — chunk boundaries at
/// multiples of 4 only split each chain's += sequence, they never reorder
/// or re-associate it. When one chunk covers the whole contraction it
/// delegates to MicroTile8F32 outright (one micro-kernel, one contract);
/// past the old depth limit it is also what keeps the blocked path
/// vectorized where MicroTile8F32 would drop to scalar rows.
void MicroTile8BlockedF32(const float* x, const float* w, float* out,
                          int64_t n_cols, int64_t k_depth, int64_t out_stride,
                          int64_t block_k);

/// Partial tile of 1..kTileRows-1 rows, defined in dispatch.cc. With AVX2
/// it runs chains-in-lanes: rows in pairs, one 8-wide vector per pair
/// holding row a's four accumulation chains in lanes 0-3 and row b's in
/// lanes 4-7, the weight quad broadcast to both halves; an odd last row
/// pairs with itself. Without AVX2 it runs MicroRow1F32 row at a time.
/// Compiled without fused multiply-add, so every row's bits match
/// MicroRow1F32.
void MicroTilePartialF32(const float* x, const float* w, float* out,
                         int64_t rows, int64_t n_cols, int64_t k_depth,
                         int64_t out_stride);

/// Residue-specialized dense kernel: M = kTileRows * q + R with R fixed at
/// compile time. All loop bounds in the hot path are tile-exact; full tiles
/// run rows-in-lanes where the CPU allows (MicroTile8F32).
template <int R>
void DenseResidue(const float* x, const float* w, float* out, int64_t m,
                  int64_t n, int64_t k) {
  int64_t q = m / kTileRows;
  for (int64_t t = 0; t < q; ++t) {
    MicroTile8F32(x + t * kTileRows * k, w, out + t * kTileRows * n, n, k, n);
  }
  if constexpr (R > 0) {
    MicroTilePartialF32(x + q * kTileRows * k, w, out + q * kTileRows * n, R,
                        n, k, n);
  }
}

/// Generic symbolic kernel: every tile carries a runtime boundary check;
/// a full tile runs MicroTile8F32 and a partial one MicroTilePartialF32
/// (the same split DenseBlockedCell makes).
void DenseSymbolicChecked(const float* x, const float* w, float* out,
                          int64_t m, int64_t n, int64_t k);

/// Fully static kernel: all three extents are compile-time constants. Used
/// as the Figure 3 baseline ("static codegen").
template <int64_t M, int64_t N, int64_t K>
void DenseStatic(const float* x, const float* w, float* out) {
  constexpr int64_t q = M / kTileRows;
  constexpr int R = static_cast<int>(M % kTileRows);
  for (int64_t t = 0; t < q; ++t) {
    MicroTile8F32(x + t * kTileRows * K, w, out + t * kTileRows * N, N, K, N);
  }
  if constexpr (R > 0) {
    MicroTilePartialF32(x + q * kTileRows * K, w, out + q * kTileRows * N, R,
                        N, K, N);
  }
}

}  // namespace codegen
}  // namespace nimble
