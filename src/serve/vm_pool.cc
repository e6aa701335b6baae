#include "src/serve/vm_pool.h"

#include <mutex>

#include "src/batch/batch_runner.h"
#include "src/support/logging.h"

namespace nimble {
namespace serve {

namespace {

/// Process-lifetime lease registry for worker allocators (see the lifetime
/// note in vm_pool.h). Allocators are created on demand, trimmed and
/// recycled on release, and live until process exit — exactly like the
/// global allocators — so result buffers may outlive the pool that
/// produced them.
class WorkerAllocatorRegistry {
 public:
  static WorkerAllocatorRegistry& Global() {
    static WorkerAllocatorRegistry registry;
    return registry;
  }

  runtime::PoolingAllocator* Lease() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      auto* allocator = free_.back();
      free_.pop_back();
      return allocator;
    }
    owned_.push_back(std::make_unique<runtime::PoolingAllocator>());
    return owned_.back().get();
  }

  void Release(runtime::PoolingAllocator* allocator) {
    allocator->Trim();  // cap idle memory while the allocator sits unused
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(allocator);
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<runtime::PoolingAllocator>> owned_;
  std::vector<runtime::PoolingAllocator*> free_;
};

}  // namespace

runtime::PoolingAllocator* LeaseWorkerAllocator() {
  return WorkerAllocatorRegistry::Global().Lease();
}

void ReleaseWorkerAllocator(runtime::PoolingAllocator* allocator) {
  WorkerAllocatorRegistry::Global().Release(allocator);
}

VMPool::VMPool(int num_workers, BatchScheduler* scheduler)
    : scheduler_(scheduler) {
  NIMBLE_CHECK(scheduler_ != nullptr);
  NIMBLE_CHECK_GE(num_workers, 1);
  // Construct every VM on this thread before any worker starts: the VM
  // constructor populates the kernel/op registries, which become read-only
  // once the threads are running. Workers start unbound — each rebinds to
  // the executable of the first batch it pulls.
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->allocator = WorkerAllocatorRegistry::Global().Lease();
    worker->vm =
        std::make_unique<vm::VirtualMachine>(nullptr, worker->allocator);
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    Worker* w = worker.get();
    w->thread = std::thread([this, w] { WorkerLoop(*w); });
  }
}

VMPool::~VMPool() {
  scheduler_->Close();
  Join();
  for (auto& worker : workers_) {
    WorkerAllocatorRegistry::Global().Release(worker->allocator);
  }
}

void VMPool::Join() {
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

void VMPool::WorkerLoop(Worker& worker) {
  while (auto batch = scheduler_->Next()) {
    // Switch models when the batch demands it. Rebind is a shared_ptr swap
    // plus a frame-stack reset; the scheduler's length-bucketed batching
    // already gives each worker long same-model runs, so switches are rare
    // relative to requests.
    if (worker.vm->executable_ptr() != batch->exec) {
      worker.vm->Rebind(batch->exec);
    }
    // Per-batch VM profiling rides the tracing switch: when traces are
    // being collected, the batch runner folds the per-instruction-category
    // times into each request's exec span; otherwise the VM runs with the
    // profiling branches off. Reset() below clears the profile between
    // batches either way, so a batch never sees its predecessor's nanos.
    bool trace_on = batch->tracer != nullptr && batch->tracer->enabled();
    worker.vm->EnableProfiling(trace_on);
    // Pickup timestamp: everything before this instant is queue wait
    // (admission queue + scheduler bucket), everything after is execution —
    // the split ServeStats reports.
    auto dispatch_time = Clock::now();
    for (Request& request : batch->requests) {
      request.dispatch_time = dispatch_time;
      if (request.trace.enabled) request.trace.dispatch = dispatch_time;
    }
    auto on_done = [&](const Request& request, bool ok) {
      auto now = Clock::now();
      double latency_us =
          std::chrono::duration<double, std::micro>(now - request.enqueue_time)
              .count();
      double queue_wait_us = std::chrono::duration<double, std::micro>(
                                 request.dispatch_time - request.enqueue_time)
                                 .count();
      double exec_us = std::chrono::duration<double, std::micro>(
                           now - request.dispatch_time)
                           .count();
      if (batch->stats != nullptr) {
        batch->stats->RecordCompletion(latency_us, queue_wait_us, exec_us, ok,
                                       now);
      }
    };
    // Packed [Lmax, B, D] execution when the batch asks for it and its
    // executable can; the per-request Invoke loop otherwise (src/batch/).
    batch::BatchRunResult run = batch::RunBatch(
        *worker.vm, *batch, batch->tensor_batching, on_done);
    if (run.packed && batch->stats != nullptr) {
      batch->stats->RecordPackedBatch(run.padded_elements, run.total_elements,
                                      batch->exec->variant.is_variant());
    }
    // Recycle the VM: drops any frames retained by a throwing Invoke and
    // clears the profile, keeping the worker's memory footprint flat.
    worker.vm->Reset();
  }
}

}  // namespace serve
}  // namespace nimble
