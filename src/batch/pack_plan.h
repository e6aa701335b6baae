// PackPlan: pack a bucket of same-model requests into one tensor.
//
// The batch scheduler (src/serve/) groups similar-length requests; this
// layer turns such a group into a single VM invocation. AnalyzeBatch decides
// whether a batch may run packed — the executable must carry a
// vm::BatchedEntrySpec for the requests' entry point, and every request must
// match the spec's calling convention (see the fallback rules in
// docs/ARCHITECTURE.md). Packing is time-major (the convention of
// vm::BatchedEntrySpec):
//   packed  [Lmax, B, D]   packed[t, r, :] = request r's row t, zero rows
//                          beyond its true length
//   max_len i64 scalar     = Lmax
//   lengths [B, 1] i64     true per-request lengths
//   states  [B, W] x k     zero-filled recurrent initial states
//   result  [B, W_out]     row r sliced back out per request
//
// For an executable *variant* specialized to a shape bucket
// (vm::Executable::variant, produced for serve::ExecCache), AnalyzeBatch
// additionally requires every request's length to equal the variant's baked
// length (and the batch size to match a baked batch size), and PackPlan
// packs to exactly the variant's Lmax — by construction such batches carry
// zero padding.
//
// Unpacked results are copies, so a request's result never pins the whole
// batch buffer.
//
// Bit-identity contract: a packed run must reproduce the per-request path
// bit for bit. Every kernel the entry uses computes batch rows
// independently and in the same per-row order for any row count and any
// dense dispatch configuration (true of the repo's dense / elementwise /
// lstm_cell kernels); the batched function itself (e.g. models::BuildLSTM's
// @main_batched) guarantees the rest via exact `where` masking.
//
// Thread-safety: AnalyzeBatch and PackPlan only read the executable and the
// requests; each pool worker builds its own plans with its own allocator.
#pragma once

#include <string>
#include <vector>

#include "src/runtime/allocator.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/object.h"
#include "src/serve/request.h"
#include "src/vm/executable.h"

namespace nimble {
namespace batch {

/// Outcome of AnalyzeBatch: `spec != nullptr` means the batch may run
/// packed; otherwise `reason` names the first fallback rule that fired
/// (surfaced in logs/tests, never an error — the per-request loop handles
/// everything packing cannot).
struct PackCheck {
  const vm::BatchedEntrySpec* spec = nullptr;
  std::string reason;
  bool ok() const { return spec != nullptr; }
};

/// Decides whether `requests` (all for `exec`, all sharing one entry
/// function) can execute as one packed invocation. For a variant executable
/// this includes the exact-shape requirements described above.
PackCheck AnalyzeBatch(const vm::Executable& exec,
                       const std::vector<serve::Request>& requests);

/// The request's sequence tensor per the spec ([len, feature_width]
/// float32 at seq_arg), or nullptr with `reason` set when the argument does
/// not match. Shared with the continuous slot-map runner (step_runner.cc),
/// which validates requests one at a time as it splices them.
const runtime::NDArray* SeqTensor(const vm::BatchedEntrySpec& spec,
                                  const serve::Request& request,
                                  std::string* reason);

/// The request's true sequence length (from len_arg, else the row count of
/// `seq`), validated to [1, rows]; -1 with `reason` set on a violation.
int64_t SeqLength(const vm::BatchedEntrySpec& spec,
                  const serve::Request& request, const runtime::NDArray& seq,
                  std::string* reason);

class PackPlan {
 public:
  /// Builds the plan for a batch AnalyzeBatch accepted. `spec` must outlive
  /// the plan (it lives in the executable, which the batch holds alive).
  /// `forced_max_len` > 0 pins the packed length (a variant's exact Lmax)
  /// instead of the batch's own maximum; it must not be smaller than any
  /// request's length.
  static PackPlan Build(const vm::BatchedEntrySpec& spec,
                        const std::vector<serve::Request>& requests,
                        int64_t forced_max_len = 0);

  /// Packs the requests' sequences time-major and materializes
  /// the batched argument list, allocating every tensor from `alloc` (the
  /// pool worker's PoolingAllocator, so packed buffers recycle across
  /// batches).
  std::vector<runtime::ObjectRef> PackArgs(
      const std::vector<serve::Request>& requests,
      runtime::Allocator* alloc) const;

  /// Slices the batched result back into per-request tensors: row r of
  /// [B, W] as [1, W].
  std::vector<runtime::NDArray> Unpack(const runtime::ObjectRef& result,
                                       runtime::Allocator* alloc) const;

  int64_t batch_size() const { return static_cast<int64_t>(lengths_.size()); }
  int64_t max_len() const { return max_len_; }
  const std::vector<int64_t>& lengths() const { return lengths_; }

  /// Padding-overhead accounting over the packed input, in elements:
  /// total = Lmax * B * D, of which padded are zero rows.
  int64_t total_elements() const;
  int64_t padded_elements() const;

 private:
  const vm::BatchedEntrySpec* spec_ = nullptr;
  std::vector<int64_t> lengths_;
  int64_t max_len_ = 0;
};

}  // namespace batch
}  // namespace nimble
