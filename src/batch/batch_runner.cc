#include "src/batch/batch_runner.h"

#include <utility>
#include <vector>

#include "src/batch/pack_plan.h"
#include "src/obs/trace.h"
#include "src/support/logging.h"

namespace nimble {
namespace batch {

// The request's trace (stages through unpack stamped) rides along for the
// X-Nimble-Trace echo.
void NotifyComplete(serve::Request& request, runtime::ObjectRef result,
                    std::exception_ptr error) {
  if (!request.on_complete) return;
  try {
    request.on_complete(std::move(result), std::move(error), request.trace);
  } catch (const std::exception& e) {
    NIMBLE_LOG(WARNING) << "request on_complete callback threw: " << e.what();
  } catch (...) {
    NIMBLE_LOG(WARNING) << "request on_complete callback threw";
  }
}

void FinishTrace(obs::Tracer* tracer, serve::Request& request, bool ok) {
  if (!request.trace.enabled) return;
  request.trace.ok = ok;
  request.trace.write_end = obs::SteadyClock::now();
  if (tracer != nullptr) tracer->Commit(request.trace);
}

obs::ExecProfile VMProfileSince(const vm::VirtualMachine& vm,
                                const obs::ExecProfile& mark) {
  const vm::VMProfile& p = vm.profile();
  obs::ExecProfile delta;
  delta.kernel_nanos = p.kernel_nanos - mark.kernel_nanos;
  delta.shape_func_nanos = p.shape_func_nanos - mark.shape_func_nanos;
  delta.other_nanos = p.other_nanos() - mark.other_nanos;
  delta.instructions = p.instructions - mark.instructions;
  return delta;
}

namespace {

/// The pre-tensor-batching behavior, verbatim: one Invoke per request, each
/// promise fulfilled with the result or the exception it threw. `on_done`
/// (stats) runs BEFORE the async completion hook: a client that receives
/// its response and immediately queries stats must find its own request
/// already counted.
void RunPerRequest(vm::VirtualMachine& vm, serve::Batch& batch,
                   const RequestDoneFn& on_done) {
  for (serve::Request& request : batch.requests) {
    bool traced = request.trace.enabled;
    obs::ExecProfile mark;
    int64_t alloc_mark = 0;
    if (traced) {
      // No pack/unpack on this path: both spans collapse to zero width at
      // the invocation boundaries.
      auto now = obs::SteadyClock::now();
      request.trace.pack_start = now;
      request.trace.pack_end = now;
      mark = VMProfileSince(vm);
      alloc_mark = vm.allocator()->stats().bytes_allocated;
    }
    bool ok = true;
    runtime::ObjectRef result;
    std::exception_ptr error;
    try {
      result = vm.Invoke(request.function, std::move(request.args));
      request.promise.set_value(result);
    } catch (...) {
      ok = false;
      error = std::current_exception();
      request.promise.set_exception(error);
    }
    if (traced) {
      auto now = obs::SteadyClock::now();
      request.trace.exec_end = now;
      request.trace.unpack_end = now;
      request.trace.vm = VMProfileSince(vm, mark);
      // No pack/unpack copies on this path; the exec span still reports
      // the invocation's allocator traffic.
      request.trace.alloc_bytes =
          vm.allocator()->stats().bytes_allocated - alloc_mark;
    }
    if (on_done) on_done(request, ok);
    NotifyComplete(request, std::move(result), std::move(error));
    FinishTrace(batch.tracer, request, ok);
  }
}

}  // namespace

BatchRunResult RunBatch(vm::VirtualMachine& vm, serve::Batch& batch,
                        bool tensor_batching, const RequestDoneFn& on_done) {
  BatchRunResult result;
  if (tensor_batching && batch.exec != nullptr) {
    PackCheck check = AnalyzeBatch(*batch.exec, batch.requests);
    if (check.ok()) {
      // Pack, invoke once, unpack. Request args are only read, so a failure
      // anywhere in the try leaves the batch intact for the per-request
      // loop. The try must NOT extend over promise fulfillment: once any
      // promise is set, falling through to RunPerRequest would set it
      // again and throw out of the worker. A variant executable's plan
      // packs to exactly the variant's baked Lmax.
      PackPlan plan = PackPlan::Build(*check.spec, batch.requests,
                                      batch.exec->variant.specialized_len);
      // Pack/exec/unpack stamps are shared by every request of the batch
      // (they ran as one invocation); one clock read per boundary.
      bool traced = !batch.requests.empty() &&
                    batch.requests.front().trace.enabled;
      obs::SteadyClock::time_point pack_start{}, pack_end{}, exec_end{},
          unpack_end{};
      obs::ExecProfile mark;
      int64_t alloc_mark = 0;
      int64_t alloc_delta = 0;
      std::vector<runtime::NDArray> outs;
      bool packed_ok = false;
      try {
        if (traced) {
          pack_start = obs::SteadyClock::now();
          mark = VMProfileSince(vm);
          alloc_mark = vm.allocator()->stats().bytes_allocated;
        }
        auto args = plan.PackArgs(batch.requests, vm.allocator());
        if (traced) pack_end = obs::SteadyClock::now();
        auto batched =
            vm.Invoke(check.spec->batched_function, std::move(args));
        if (traced) exec_end = obs::SteadyClock::now();
        outs = plan.Unpack(batched, vm.allocator());
        if (traced) {
          unpack_end = obs::SteadyClock::now();
          alloc_delta = vm.allocator()->stats().bytes_allocated - alloc_mark;
        }
        NIMBLE_CHECK_EQ(outs.size(), batch.requests.size());
        packed_ok = true;
      } catch (const std::exception& e) {
        result.fallback_reason = std::string("packed invocation failed: ") +
                                 e.what();
      } catch (...) {
        result.fallback_reason = "packed invocation failed";
      }
      if (packed_ok) {
        for (size_t i = 0; i < batch.requests.size(); ++i) {
          serve::Request& request = batch.requests[i];
          if (request.trace.enabled) {
            request.trace.packed = true;
            // Which (possibly tuner-measured) dense config served this
            // batch — the variant's baked config when the scheduler stamped
            // a cache variant, the generic executable's otherwise.
            request.trace.dense_config =
                batch.exec->dense_config.ToString() +
                (batch.exec->dense_config_tuned ? "*" : "");
            request.trace.pack_start = pack_start;
            request.trace.pack_end = pack_end;
            request.trace.exec_end = exec_end;
            request.trace.unpack_end = unpack_end;
            request.trace.vm = VMProfileSince(vm, mark);
            // The batch's allocator traffic is shared (one invocation);
            // the copied bytes are this request's own pack share plus its
            // unpacked output slice.
            request.trace.alloc_bytes = alloc_delta;
            request.trace.copied_bytes =
                plan.lengths()[i] * check.spec->feature_width *
                    static_cast<int64_t>(sizeof(float)) +
                static_cast<int64_t>(outs[i].nbytes());
          }
          auto result_ref = runtime::MakeTensor(std::move(outs[i]));
          request.promise.set_value(result_ref);
          if (on_done) on_done(request, /*ok=*/true);
          NotifyComplete(request, std::move(result_ref), nullptr);
          FinishTrace(batch.tracer, request, /*ok=*/true);
        }
        result.packed = true;
        result.padded_elements = plan.padded_elements();
        result.total_elements = plan.total_elements();
        return result;
      }
    } else {
      result.fallback_reason = std::move(check.reason);
    }
  }
  RunPerRequest(vm, batch, on_done);
  return result;
}

}  // namespace batch
}  // namespace nimble
