#include "src/codegen/dispatch.h"

#include "src/codegen/parallel.h"
#include "src/codegen/tuner.h"
#include "src/support/logging.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

namespace nimble {
namespace codegen {

namespace {

/// A rows x n_cols block one row at a time: the tile kernels' fallback
/// where the CPU lacks AVX2 (and the full tile's past the lane depth).
void MicroRowsF32(const float* x, const float* w, float* out, int64_t rows,
                  int64_t n_cols, int64_t k_depth, int64_t out_stride) {
  for (int64_t r = 0; r < rows; ++r) {
    MicroRow1F32(x + r * k_depth, w, out + r * out_stride, n_cols, k_depth);
  }
}

// ---- rows-in-lanes 8-row tile ----------------------------------------------
//
// The batched-serving layout: one vector lane per batch row, weights
// broadcast across lanes, so an 8-request packed batch streams each weight
// row ONCE instead of 8 times and does 8 rows of multiply-add per vector op.
// Per-lane arithmetic is exactly MicroRow1F32's order (4 chains over k,
// (a0+a1)+(a2+a3), scalar tail), and the function is compiled WITHOUT fused
// multiply-add, so every row's bits match the single-row kernel —
// bit-identity across per-request and packed execution (src/batch/).
//
// Runtime-dispatched: x86-64 with AVX2 takes the lane path; everything else
// (and k beyond the transpose buffer) falls back to row-at-a-time.

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NIMBLE_DENSE_LANES 1

typedef float v8sf __attribute__((vector_size(32)));

/// Largest contraction depth the stack-resident transpose buffer covers
/// (32 KiB); deeper contractions use the scalar tile — or, on the blocked
/// path, K-chunking (MicroTile8LanesChunkedF32 below).
constexpr int64_t kMaxLaneDepth = kMicroTileDepthLimit;

/// Widest column block whose accumulator chains the chunked tile keeps
/// resident (4 chains x 8 lanes x 4 bytes = 128 B per column -> 16 KiB).
/// DenseConfigSpace tops out at block_n = 128, so a tuned cell never
/// splits; wider ad-hoc calls are chunked internally.
constexpr int64_t kMaxChunkCols = 128;

__attribute__((target("avx2"))) void MicroTile8LanesF32(
    const float* x, const float* w, float* out, int64_t n_cols,
    int64_t k_depth, int64_t out_stride) {
  // Transpose the 8 x k tile once so the row dimension is lane-contiguous.
  alignas(32) v8sf xT[kMaxLaneDepth];
  int64_t k4 = (k_depth / 4) * 4;
  for (int64_t kk = 0; kk < k4; ++kk) {
    for (int r = 0; r < 8; ++r) xT[kk][r] = x[r * k_depth + kk];
  }
  // Two output columns per iteration: their accumulator sets are
  // independent, which hides the vector-add latency the 4 chains of a
  // single column cannot. Per-(row, column) arithmetic is untouched.
  int64_t n = 0;
  for (; n + 2 <= n_cols; n += 2) {
    const float* wrow0 = w + n * k_depth;
    const float* wrow1 = wrow0 + k_depth;
    v8sf a0 = {}, a1 = {}, a2 = {}, a3 = {};
    v8sf b0 = {}, b1 = {}, b2 = {}, b3 = {};
    for (int64_t kk = 0; kk + 4 <= k4; kk += 4) {
      v8sf x0 = xT[kk + 0], x1 = xT[kk + 1], x2 = xT[kk + 2], x3 = xT[kk + 3];
      a0 += x0 * wrow0[kk + 0];
      a1 += x1 * wrow0[kk + 1];
      a2 += x2 * wrow0[kk + 2];
      a3 += x3 * wrow0[kk + 3];
      b0 += x0 * wrow1[kk + 0];
      b1 += x1 * wrow1[kk + 1];
      b2 += x2 * wrow1[kk + 2];
      b3 += x3 * wrow1[kk + 3];
    }
    for (int r = 0; r < 8; ++r) {
      float fin0 = (a0[r] + a1[r]) + (a2[r] + a3[r]);
      float fin1 = (b0[r] + b1[r]) + (b2[r] + b3[r]);
      for (int64_t kk = k4; kk < k_depth; ++kk) {
        fin0 += x[r * k_depth + kk] * wrow0[kk];
        fin1 += x[r * k_depth + kk] * wrow1[kk];
      }
      out[r * out_stride + n] = fin0;
      out[r * out_stride + n + 1] = fin1;
    }
  }
  for (; n < n_cols; ++n) {
    const float* wrow = w + n * k_depth;
    v8sf acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
    for (int64_t kk = 0; kk + 4 <= k4; kk += 4) {
      acc0 += xT[kk + 0] * wrow[kk + 0];
      acc1 += xT[kk + 1] * wrow[kk + 1];
      acc2 += xT[kk + 2] * wrow[kk + 2];
      acc3 += xT[kk + 3] * wrow[kk + 3];
    }
    for (int r = 0; r < 8; ++r) {
      float fin = (acc0[r] + acc1[r]) + (acc2[r] + acc3[r]);
      for (int64_t kk = k4; kk < k_depth; ++kk) {
        fin += x[r * k_depth + kk] * wrow[kk];
      }
      out[r * out_stride + n] = fin;
    }
  }
}

/// The K-chunked tile (<= kMaxChunkCols columns): per-column accumulator
/// chains persist across chunks in `acc`, so splitting K at multiples of 4
/// leaves every chain's += sequence — and therefore every output bit —
/// exactly MicroRow1F32's. Chunking restores the transpose-buffer locality
/// for any depth: each 8 x bk slab of x is transposed once and reused by
/// every column of the block while it is still L1-resident.
__attribute__((target("avx2"))) void MicroTile8LanesChunkedF32(
    const float* x, const float* w, float* out, int64_t n_cols,
    int64_t k_depth, int64_t out_stride, int64_t bk) {
  alignas(32) v8sf acc[4 * kMaxChunkCols];
  for (int64_t i = 0; i < 4 * n_cols; ++i) acc[i] = v8sf{};
  alignas(32) v8sf xT[kMaxLaneDepth];
  int64_t k4 = (k_depth / 4) * 4;
  for (int64_t c0 = 0; c0 < k4; c0 += bk) {
    int64_t c1 = std::min(c0 + bk, k4);
    for (int64_t kk = c0; kk < c1; ++kk) {
      for (int r = 0; r < 8; ++r) xT[kk - c0][r] = x[r * k_depth + kk];
    }
    // Column pairs, like the unchunked tile: two independent accumulator
    // sets hide the vector-add latency, and each xT load is shared.
    int64_t n = 0;
    for (; n + 2 <= n_cols; n += 2) {
      const float* wrow0 = w + n * k_depth;
      const float* wrow1 = wrow0 + k_depth;
      v8sf a0 = acc[4 * n + 0], a1 = acc[4 * n + 1];
      v8sf a2 = acc[4 * n + 2], a3 = acc[4 * n + 3];
      v8sf b0 = acc[4 * n + 4], b1 = acc[4 * n + 5];
      v8sf b2 = acc[4 * n + 6], b3 = acc[4 * n + 7];
      for (int64_t kk = c0; kk + 4 <= c1; kk += 4) {
        const v8sf* xt = xT + (kk - c0);
        v8sf x0 = xt[0], x1 = xt[1], x2 = xt[2], x3 = xt[3];
        a0 += x0 * wrow0[kk + 0];
        a1 += x1 * wrow0[kk + 1];
        a2 += x2 * wrow0[kk + 2];
        a3 += x3 * wrow0[kk + 3];
        b0 += x0 * wrow1[kk + 0];
        b1 += x1 * wrow1[kk + 1];
        b2 += x2 * wrow1[kk + 2];
        b3 += x3 * wrow1[kk + 3];
      }
      acc[4 * n + 0] = a0;
      acc[4 * n + 1] = a1;
      acc[4 * n + 2] = a2;
      acc[4 * n + 3] = a3;
      acc[4 * n + 4] = b0;
      acc[4 * n + 5] = b1;
      acc[4 * n + 6] = b2;
      acc[4 * n + 7] = b3;
    }
    for (; n < n_cols; ++n) {
      const float* wrow = w + n * k_depth;
      v8sf a0 = acc[4 * n + 0], a1 = acc[4 * n + 1];
      v8sf a2 = acc[4 * n + 2], a3 = acc[4 * n + 3];
      for (int64_t kk = c0; kk + 4 <= c1; kk += 4) {
        const v8sf* xt = xT + (kk - c0);
        a0 += xt[0] * wrow[kk + 0];
        a1 += xt[1] * wrow[kk + 1];
        a2 += xt[2] * wrow[kk + 2];
        a3 += xt[3] * wrow[kk + 3];
      }
      acc[4 * n + 0] = a0;
      acc[4 * n + 1] = a1;
      acc[4 * n + 2] = a2;
      acc[4 * n + 3] = a3;
    }
  }
  for (int64_t n = 0; n < n_cols; ++n) {
    const float* wrow = w + n * k_depth;
    for (int r = 0; r < 8; ++r) {
      float fin = (acc[4 * n + 0][r] + acc[4 * n + 1][r]) +
                  (acc[4 * n + 2][r] + acc[4 * n + 3][r]);
      for (int64_t kk = k4; kk < k_depth; ++kk) {
        fin += x[r * k_depth + kk] * wrow[kk];
      }
      out[r * out_stride + n] = fin;
    }
  }
}

// ---- chains-in-lanes partial tile ------------------------------------------
//
// The 1-7 rows a full tile leaves over. Rows go in pairs, one vector per
// pair: lanes 0-3 hold row a's four accumulation chains and lanes 4-7 row
// b's, and the weight quad w[n, k..k+3] is broadcast to both halves — so
// lane j of each half runs MicroRow1F32's chain j over k = j (mod 4) in
// ascending order, and one vector multiply-add does 8 of the tile's
// multiply-accumulates instead of MicroRow1F32's ~1. Four output columns
// per iteration share each x load and give 4 * PAIRS independent chains.
// Three horizontal adds reduce them as (l0+l1)+(l2+l3) per row; the K tail
// is MicroRow1F32's guarded adds. No fused multiply-add (see above), so
// every bit matches the single-row kernel. x_step and out_step are the
// distance from a pair's row a to its row b: one row, or 0 for a row
// paired with itself. The pair and column loops are unrolled outright:
// left as loops, GCC keeps the accumulator arrays in memory and stores
// every chain on every k step.

template <int PAIRS>
__attribute__((target("avx2"))) void MicroRowPairsLanesF32(
    const float* x, const float* w, float* out, int64_t n_cols,
    int64_t k_depth, int64_t x_step, int64_t out_step) {
  const int64_t k4 = k_depth - k_depth % 4;
  const int64_t tail = k_depth - k4;
  int64_t n = 0;
  for (; n + 4 <= n_cols; n += 4) {
    const float* wrow = w + n * k_depth;
    v8sf acc[PAIRS][4] = {};
    for (int64_t k = 0; k < k4; k += 4) {
      v8sf xv[PAIRS];
      #pragma GCC unroll 4
      for (int p = 0; p < PAIRS; ++p) {
        const float* xa = x + 2 * p * x_step + k;
        xv[p] = _mm256_insertf128_ps(_mm256_castps128_ps256(_mm_loadu_ps(xa)),
                                     _mm_loadu_ps(xa + x_step), 1);
      }
      #pragma GCC unroll 4
      for (int c = 0; c < 4; ++c) {
        v8sf wv = _mm256_broadcast_ps(
            reinterpret_cast<const __m128*>(wrow + c * k_depth + k));
        #pragma GCC unroll 4
        for (int p = 0; p < PAIRS; ++p) acc[p][c] += xv[p] * wv;
      }
    }
    #pragma GCC unroll 4
    for (int p = 0; p < PAIRS; ++p) {
      // fin = {row a: columns n..n+3 | row b: columns n..n+3}, each lane
      // (l0+l1)+(l2+l3) of its column's chains.
      v8sf fin = _mm256_hadd_ps(_mm256_hadd_ps(acc[p][0], acc[p][1]),
                                _mm256_hadd_ps(acc[p][2], acc[p][3]));
      float* outa = out + 2 * p * out_step + n;
      float* outb = outa + out_step;
      if (tail == 0) {
        _mm_storeu_ps(outa, _mm256_castps256_ps128(fin));
        _mm_storeu_ps(outb, _mm256_extractf128_ps(fin, 1));
        continue;
      }
      const float* xa = x + 2 * p * x_step;
      for (int c = 0; c < 4; ++c) {
        const float* wc = wrow + c * k_depth;
        outa[c] = AddKTail(fin[c], xa, wc, k4, tail);
        outb[c] = AddKTail(fin[4 + c], xa + x_step, wc, k4, tail);
      }
    }
  }
  for (; n < n_cols; ++n) {
    const float* wrow = w + n * k_depth;
    v8sf acc[PAIRS] = {};
    for (int64_t k = 0; k < k4; k += 4) {
      v8sf wv = _mm256_broadcast_ps(reinterpret_cast<const __m128*>(wrow + k));
      #pragma GCC unroll 4
      for (int p = 0; p < PAIRS; ++p) {
        const float* xa = x + 2 * p * x_step + k;
        v8sf xv = _mm256_insertf128_ps(
            _mm256_castps128_ps256(_mm_loadu_ps(xa)), _mm_loadu_ps(xa + x_step),
            1);
        acc[p] += xv * wv;
      }
    }
    #pragma GCC unroll 4
    for (int p = 0; p < PAIRS; ++p) {
      const float* xa = x + 2 * p * x_step;
      float fa = (acc[p][0] + acc[p][1]) + (acc[p][2] + acc[p][3]);
      float fb = (acc[p][4] + acc[p][5]) + (acc[p][6] + acc[p][7]);
      out[2 * p * out_step + n] = AddKTail(fa, xa, wrow, k4, tail);
      out[(2 * p + 1) * out_step + n] =
          AddKTail(fb, xa + x_step, wrow, k4, tail);
    }
  }
}

bool LanesSupported() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}
#endif  // x86-64 gcc/clang

}  // namespace

void MicroTile8F32(const float* x, const float* w, float* out, int64_t n_cols,
                   int64_t k_depth, int64_t out_stride) {
#ifdef NIMBLE_DENSE_LANES
  if (k_depth <= kMaxLaneDepth && LanesSupported()) {
    MicroTile8LanesF32(x, w, out, n_cols, k_depth, out_stride);
    return;
  }
#endif
  MicroRowsF32(x, w, out, kTileRows, n_cols, k_depth, out_stride);
}

void MicroTilePartialF32(const float* x, const float* w, float* out,
                         int64_t rows, int64_t n_cols, int64_t k_depth,
                         int64_t out_stride) {
  NIMBLE_CHECK(rows >= 1 && rows < kTileRows) << "partial tile of " << rows;
#ifdef NIMBLE_DENSE_LANES
  if (LanesSupported()) {
    using PairsFn = void (*)(const float*, const float*, float*, int64_t,
                             int64_t, int64_t, int64_t);
    static constexpr PairsFn kPairs[] = {nullptr, MicroRowPairsLanesF32<1>,
                                         MicroRowPairsLanesF32<2>,
                                         MicroRowPairsLanesF32<3>};
    if (rows >= 2) {
      kPairs[rows / 2](x, w, out, n_cols, k_depth, k_depth, out_stride);
    }
    if (rows % 2 != 0) {
      // An odd last row pairs with itself (steps 0): both halves compute it
      // and store the same bits to the same place. Half the lanes repeat
      // work, but four columns of independent chains still beat
      // MicroRow1F32's one (measured ~1.5x at 1x256x128).
      int64_t r = rows - 1;
      MicroRowPairsLanesF32<1>(x + r * k_depth, w, out + r * out_stride,
                               n_cols, k_depth, 0, 0);
    }
    return;
  }
#endif
  MicroRowsF32(x, w, out, rows, n_cols, k_depth, out_stride);
}

void MicroTile8BlockedF32(const float* x, const float* w, float* out,
                          int64_t n_cols, int64_t k_depth, int64_t out_stride,
                          int64_t block_k) {
#ifdef NIMBLE_DENSE_LANES
  if (LanesSupported()) {
    if (k_depth <= kMaxLaneDepth && k_depth <= block_k) {
      MicroTile8LanesF32(x, w, out, n_cols, k_depth, out_stride);
      return;
    }
    int64_t bk = std::min<int64_t>(block_k, kMaxLaneDepth);
    bk = (bk / 4) * 4;  // chunk at a chain-phase boundary (see dense_kernels.h)
    if (bk < 4) bk = 4;
    for (int64_t n0 = 0; n0 < n_cols; n0 += kMaxChunkCols) {
      int64_t nb = std::min<int64_t>(kMaxChunkCols, n_cols - n0);
      MicroTile8LanesChunkedF32(x, w + n0 * k_depth, out + n0, nb, k_depth,
                                out_stride, bk);
    }
    return;
  }
#endif
  (void)block_k;
  MicroRowsF32(x, w, out, kTileRows, n_cols, k_depth, out_stride);
}

void DenseSymbolicChecked(const float* x, const float* w, float* out,
                          int64_t m, int64_t n, int64_t k) {
  for (int64_t i0 = 0; i0 < m; i0 += kTileRows) {
    int64_t rows = std::min<int64_t>(kTileRows, m - i0);  // boundary check
    if (rows == kTileRows) {
      MicroTile8F32(x + i0 * k, w, out + i0 * n, n, k, n);
    } else {
      MicroTilePartialF32(x + i0 * k, w, out + i0 * n, rows, n, k, n);
    }
  }
}

DenseKernelFn ResidueKernel(int r) {
  switch (r) {
    case 0: return DenseResidue<0>;
    case 1: return DenseResidue<1>;
    case 2: return DenseResidue<2>;
    case 3: return DenseResidue<3>;
    case 4: return DenseResidue<4>;
    case 5: return DenseResidue<5>;
    case 6: return DenseResidue<6>;
    case 7: return DenseResidue<7>;
    default:
      NIMBLE_FATAL() << "residue out of range: " << r;
  }
}

DenseDispatchTable::DenseDispatchTable(int num_variants) {
  Configure(num_variants);
}

void DenseDispatchTable::Configure(int num_variants) {
  NIMBLE_CHECK(num_variants >= 1 && num_variants <= kTileRows &&
               kTileRows % num_variants == 0)
      << "num_variants must divide the tile factor " << kTileRows;
  num_variants_ = num_variants;
  table_.fill(nullptr);
  stats_.Reset();
  if (num_variants == 1) return;  // no dispatch: generic kernel only
  int stride = kTileRows / num_variants;
  for (int v = 0; v < num_variants; ++v) {
    int r = v * stride;
    table_[r] = ResidueKernel(r);
  }
}

void DenseDispatchTable::Run(const float* x, const float* w, float* out,
                             int64_t m, int64_t n, int64_t k) const {
  int r = static_cast<int>(m % kTileRows);
  stats_.per_residue[r].fetch_add(1, std::memory_order_relaxed);
  if (DenseKernelFn fn = table_[r]; fn != nullptr) {
    stats_.specialized_calls.fetch_add(1, std::memory_order_relaxed);
    fn(x, w, out, m, n, k);
  } else {
    stats_.fallback_calls.fetch_add(1, std::memory_order_relaxed);
    DenseSymbolicChecked(x, w, out, m, n, k);
  }
}

void DenseDispatchTable::Run(const float* x, const float* w, float* out,
                             int64_t m, int64_t n, int64_t k,
                             const DenseConfig* config, KernelPool* pool) const {
  // Routing keeps the serving hot path (small tiles, shallow contractions)
  // on exactly the pre-blocked code path; the blocked kernel only enters
  // where it wins: contractions past the lane-depth cliff, shapes big
  // enough to amortize the pool wake-up, or many-tile calls where cache
  // blocking pays on its own.
  int64_t macs = m * n * k;
  bool pool_eligible = pool != nullptr && pool->num_threads() > 1 &&
                       macs >= DenseParallelThreshold();
  bool use_blocked =
      m >= kTileRows &&
      (k > kMicroTileDepthLimit || pool_eligible ||
       (m >= 2 * kTileRows && macs >= kDenseBlockedMinMacs));
  if (!use_blocked) {
    Run(x, w, out, m, n, k);
    return;
  }
  int r = static_cast<int>(m % kTileRows);
  stats_.per_residue[r].fetch_add(1, std::memory_order_relaxed);
  stats_.blocked_calls.fetch_add(1, std::memory_order_relaxed);
  DenseConfig cfg = config != nullptr ? *config : DenseConfig{};
  if (DenseBlockedParallel(x, w, out, m, n, k, cfg,
                           pool_eligible ? pool : nullptr)) {
    stats_.parallel_calls.fetch_add(1, std::memory_order_relaxed);
  }
}

void DenseDispatchTable::Run(const runtime::NDArray& x, const runtime::NDArray& w,
                             const runtime::NDArray& out) const {
  Run(x, w, out, nullptr, nullptr);
}

void DenseDispatchTable::Run(const runtime::NDArray& x, const runtime::NDArray& w,
                             const runtime::NDArray& out,
                             const DenseConfig* config, KernelPool* pool) const {
  NIMBLE_CHECK_EQ(x.ndim(), 2);
  NIMBLE_CHECK_EQ(w.ndim(), 2);
  int64_t m = x.shape()[0], k = x.shape()[1], n = w.shape()[0];
  NIMBLE_CHECK_EQ(w.shape()[1], k) << "dense: contraction mismatch";
  NIMBLE_CHECK_EQ(out.shape()[0], m);
  NIMBLE_CHECK_EQ(out.shape()[1], n);
  Run(x.data<float>(), w.data<float>(), out.data<float>(), m, n, k, config,
      pool);
}

}  // namespace codegen
}  // namespace nimble
