// Shape-based kernel dispatch (§4.5).
//
// A DenseDispatchTable holds up to kTileRows residue-specialized kernel
// entries plus the generic symbolic fallback. At call time the table selects
// by `M mod kTileRows`; a residue without a specialized entry runs the
// checked generic kernel. `num_variants` = 8 is the paper's "full dispatch",
// 1 is "no dispatch" (only the generic kernel). Every configuration computes
// each output row in MicroRow1F32's order, so the table decides speed and
// never bits.
//
// The table also exposes counters so benchmarks and tests can observe which
// path executed — and can route to a "third-party library" kernel when
// profiling has marked it faster (the paper's library-vs-compiled choice).
//
// Ownership contract (docs/ARCHITECTURE.md):
//   Dispatch configuration is *per table owner*. core::Compile writes a
//   table into the vm::Executable it produces, and the VM threads that table
//   into kernels through kernels::KernelContext, so serving model A while
//   compiling model B cannot race on dispatch state. Every other dense-kernel
//   caller (the baselines, the Figure 3 benchmark, kernels::RunKernel) owns
//   a private table the same way; there is no process-global dispatch state.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "src/codegen/dense_kernels.h"
#include "src/runtime/ndarray.h"

namespace nimble {
namespace codegen {

struct DenseConfig;
class KernelPool;

using DenseKernelFn = void (*)(const float* x, const float* w, float* out,
                               int64_t m, int64_t n, int64_t k);

/// Minimum multiply-accumulate count (M*N*K) before the cache-blocked path
/// is worth taking on its own (no pool, contraction within the lane-depth
/// limit): below it the residue-dispatch tile kernels already run at cache
/// speed and blocking only adds loop overhead.
inline constexpr int64_t kDenseBlockedMinMacs = int64_t{1} << 20;

/// Counters are atomic so concurrent VM workers (src/serve/) can share one
/// executable's table; increments use relaxed ordering — they are
/// observability, not synchronization.
struct DispatchStats {
  std::atomic<int64_t> specialized_calls{0};
  std::atomic<int64_t> fallback_calls{0};
  /// Calls routed to the cache-blocked (tiled) dense path, and the subset
  /// of those that actually ran partitioned across the kernel pool.
  std::atomic<int64_t> blocked_calls{0};
  std::atomic<int64_t> parallel_calls{0};
  std::array<std::atomic<int64_t>, kTileRows> per_residue{};
  void Reset() {
    specialized_calls = 0;
    fallback_calls = 0;
    blocked_calls = 0;
    parallel_calls = 0;
    for (auto& r : per_residue) r = 0;
  }
};

class DenseDispatchTable {
 public:
  /// Builds a table with `num_variants` specialized kernels. Variants cover
  /// residues {0, s, 2s, ...} with stride s = kTileRows / num_variants.
  /// num_variants must divide kTileRows; 1 means no specialization.
  explicit DenseDispatchTable(int num_variants = kTileRows);

  /// Rebuilds the kernel table in place (and resets the stats). Not safe to
  /// call while other threads are executing Run — a table is configured once
  /// (by core::Compile or Executable::Load, before the executable is handed
  /// to any VM) and is read-only afterwards.
  void Configure(int num_variants);

  /// Runs x[M,K] · w[N,K]^T -> out[M,N], dispatching on M mod kTileRows.
  void Run(const runtime::NDArray& x, const runtime::NDArray& w,
           const runtime::NDArray& out) const;

  void Run(const float* x, const float* w, float* out, int64_t m, int64_t n,
           int64_t k) const;

  /// Tuned/parallel-aware entry point: shapes past the blocked-path
  /// thresholds run the cache-blocked kernel with `config`'s tile factors
  /// (nullptr -> the default DenseConfig), partitioned across `pool` when
  /// the work is large enough (nullptr -> single-threaded). Everything else
  /// takes exactly the plain Run path above. All routes are bitwise
  /// identical to MicroRow1F32 per output element.
  void Run(const float* x, const float* w, float* out, int64_t m, int64_t n,
           int64_t k, const DenseConfig* config, KernelPool* pool) const;

  void Run(const runtime::NDArray& x, const runtime::NDArray& w,
           const runtime::NDArray& out, const DenseConfig* config,
           KernelPool* pool) const;

  int num_variants() const { return num_variants_; }
  DispatchStats& stats() const { return stats_; }

 private:
  int num_variants_;
  std::array<DenseKernelFn, kTileRows> table_{};  // nullptr => fallback
  mutable DispatchStats stats_;
};

/// Returns the residue-specialized kernel for residue r (r in [0, 8)).
DenseKernelFn ResidueKernel(int r);

}  // namespace codegen
}  // namespace nimble
