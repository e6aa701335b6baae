// Serving request representation.
//
// A Request is one in-flight inference call: the VM arguments, a length
// hint used by the batch scheduler to bucket variable-length inputs, and a
// promise fulfilled with the VM's result object (or the exception it threw).
// Requests are move-only (they own the promise) and flow
//
//   client -> RequestQueue -> BatchScheduler bucket -> VMPool worker
//          -> promise
//
// without copies (a worker's BatchScheduler::Next does both middle moves).
//
// Two completion paths coexist: every request's promise is always
// fulfilled (the future path), and a request may additionally carry an
// `on_complete` callback — the asynchronous path the HTTP front end
// (src/net/) rides, where a pool worker must hand the result off without
// anyone blocking on a future.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/trace.h"
#include "src/runtime/object.h"
#include "src/vm/executable.h"

namespace nimble {
namespace obs {
class Tracer;  // src/obs/trace.h
}

namespace serve {

class ServeStats;  // src/serve/stats.h (which includes this header)

using Clock = std::chrono::steady_clock;

/// Completion callback for the asynchronous path: exactly one of
/// `result`/`error` is set. Invoked on a pool worker thread, after the
/// request's promise has been fulfilled, exactly once per request. Must not
/// block (workers never wait on downstream consumers — the HTTP handler,
/// for example, just posts the response to its event loop) and must not
/// throw. `trace` is the request's span record with every stage up to
/// unpack stamped (the write span is still open — the callback IS the
/// write); it is only valid for the duration of the call.
using CompletionFn =
    std::function<void(runtime::ObjectRef result, std::exception_ptr error,
                       const obs::TraceContext& trace)>;

struct Request {
  int64_t id = -1;
  /// Entry point to run within the model's executable (stamped from the
  /// model's configuration at admission).
  std::string function = "main";
  std::vector<runtime::ObjectRef> args;
  /// Sequence length (tokens, rows, ...) used for length bucketing. Zero is
  /// valid and lands in the first bucket.
  int64_t length_hint = 0;
  Clock::time_point enqueue_time{};
  /// Stamped by the pool worker when it starts executing the batch; the
  /// enqueue->dispatch gap is the queue-wait half of the latency split
  /// recorded into ServeStats.
  Clock::time_point dispatch_time{};
  std::promise<runtime::ObjectRef> promise;
  /// Optional asynchronous completion hook (see CompletionFn). Null for the
  /// plain future path.
  CompletionFn on_complete;
  /// Per-stage span record (src/obs/trace.h), stamped as the request moves
  /// down the pipeline and committed to the server's Tracer after the
  /// completion hook returns. Dormant (no stamps, no commit) when tracing
  /// is disabled.
  obs::TraceContext trace;
};

/// A group of similar-length requests for one model, formed for one pool
/// worker. The batch carries everything the worker needs — the executable
/// to (re)bind its VM to and the per-model stats sink — so the pool itself
/// holds no model state and one pool can serve any number of models.
struct Batch {
  /// Executable the batch runs on; never null. Shared (read-only) with
  /// every worker serving this model.
  std::shared_ptr<vm::Executable> exec;
  /// Per-model stats sink; may be null. The worker records the batch's
  /// completions and packing here, and nowhere else.
  ServeStats* stats = nullptr;
  /// Stamped from the model's BatchPolicy: ask the worker to run this batch
  /// as one packed tensor invocation (src/batch/) when the executable
  /// supports it; the worker falls back to the per-request loop otherwise.
  bool tensor_batching = false;
  /// Trace sink completed requests commit their spans to; may be null
  /// (standalone use, tracing disabled).
  obs::Tracer* tracer = nullptr;
  std::vector<Request> requests;
};

}  // namespace serve
}  // namespace nimble
