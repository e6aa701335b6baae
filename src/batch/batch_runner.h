// BatchRunner: execute a serve::Batch on a VM, packed when possible.
//
// The layer between the batch scheduler and the VM. With tensor batching
// enabled, a batch that passes AnalyzeBatch runs as ONE invocation of the
// executable's batched entry point (pad, pack, invoke, unpack — see
// pack_plan.h); anything else falls back to the per-request Invoke loop the
// pool ran before this subsystem existed. Fallback is per batch and
// automatic — a model without a batched entry, a malformed argument, or a
// throwing packed invocation all degrade to the sequential path, never to
// an error for the whole batch.
//
// Promise discipline: RunBatch fulfills every request's promise exactly
// once (value or exception) and calls `on_done(request, ok)` right after
// each fulfillment so the caller can record stats; on the packed path all
// requests complete together. Packing never moves request arguments, which
// is what makes the fall-through after a packed failure safe.
#pragma once

#include <exception>
#include <functional>
#include <string>

#include "src/obs/trace.h"
#include "src/serve/request.h"
#include "src/vm/vm.h"

namespace nimble {
namespace batch {

struct BatchRunResult {
  /// True when the batch executed as one packed invocation.
  bool packed = false;
  /// Why a tensor-batching attempt fell back (empty when packed or when
  /// tensor batching was not requested).
  std::string fallback_reason;
  /// Padding-overhead accounting of the packed input (zero when not packed):
  /// padded zero elements vs total packed elements.
  int64_t padded_elements = 0;
  int64_t total_elements = 0;
};

using RequestDoneFn =
    std::function<void(const serve::Request& request, bool ok)>;

/// Invokes the request's asynchronous completion hook, if any. Runs after
/// the promise is fulfilled, on the worker thread. The hook's contract says
/// it must not throw; a violation is contained here (logged, swallowed) so
/// a broken callback cannot take the worker thread down with it. Shared by
/// the batch path here and the continuous slot-map runner
/// (step_runner.cc) — both must finish requests with the same discipline.
void NotifyComplete(serve::Request& request, runtime::ObjectRef result,
                    std::exception_ptr error);

/// Closes the trace (the write span covers serialization inside the
/// completion hook plus the handoff to the event loop) and commits it.
/// Must run AFTER NotifyComplete, last thing per request. `tracer` may be
/// null (trace still closed, just not committed).
void FinishTrace(obs::Tracer* tracer, serve::Request& request, bool ok);

/// `vm`'s profile counters since `mark` (other = total - kernel). The
/// profile accumulates across every Invoke since the VM's last Reset, so
/// callers take a mark with the default `mark` before an invocation and
/// pass it back afterwards to get exactly that invocation's times. Shared
/// by the batch path here and the continuous slot-map runner.
obs::ExecProfile VMProfileSince(const vm::VirtualMachine& vm,
                                const obs::ExecProfile& mark = {});

/// Runs every request of `batch` on `vm` (which must already be bound to
/// `batch.exec`), fulfilling all promises. `tensor_batching` requests the
/// packed path; `on_done` may be null.
BatchRunResult RunBatch(vm::VirtualMachine& vm, serve::Batch& batch,
                        bool tensor_batching, const RequestDoneFn& on_done);

}  // namespace batch
}  // namespace nimble
