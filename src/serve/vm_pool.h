// Thread pool of VirtualMachine workers, shared by every model of a Server.
//
// The pool is model-agnostic: each worker pulls its next Batch (a group of
// similar-length requests for one model) from BatchScheduler::Next, which
// forms it at pickup, and each batch carries the
// std::shared_ptr<vm::Executable> it runs on. A worker rebinds its VM
// (VirtualMachine::Rebind — a shared_ptr swap plus a frame-stack reset)
// whenever the batch it pulls belongs to a different model than the
// previous one, runs the batch — as one packed tensor invocation when the
// batch requests it and its executable supports it, as a per-request Invoke
// loop otherwise (src/batch/batch_runner.h) — and fulfills its promises.
// Executables are immutable (src/vm/executable.h), including their
// per-executable dispatch tables, so any number of workers may serve any
// mix of models with no synchronization beyond the scheduler's.
//
// Each worker runs its VirtualMachine with a private PoolingAllocator, so
// the hot allocation path is uncontended and each worker's free lists stay
// warm with the storage bucket sizes of the sequence lengths it serves (see
// the thread-safety contract in src/runtime/allocator.h).
//
// Allocator lifetime: result tensors handed out through request futures
// reference their source allocator until the last NDArray dies (Buffer's
// destructor frees into it), and clients may legally keep results after the
// pool is gone. Worker allocators are therefore *leased* from a
// process-lifetime registry rather than owned by the pool — like the global
// allocators, they are never destroyed; a released allocator is trimmed
// (cached blocks returned to the OS) and recycled by the next pool.
#pragma once

#include <memory>
#include <thread>
#include <vector>

#include "src/runtime/allocator.h"
#include "src/serve/batch_scheduler.h"
#include "src/vm/vm.h"

namespace nimble {
namespace serve {

/// Leases a worker allocator from the process-lifetime registry described
/// above (created on first lease, recycled thereafter, never destroyed).
/// Besides the pool's own workers, the continuous-batching step runners
/// (src/batch/step_runner.h) lease theirs here too — their retired result
/// rows have exactly the same outlive-the-server property.
runtime::PoolingAllocator* LeaseWorkerAllocator();

/// Returns a leased allocator to the registry (trimmed, then recycled by
/// the next lease). The caller must have dropped every NDArray it still
/// holds from this allocator's VM first — results handed to clients are
/// fine, they keep the allocator alive via their Buffers.
void ReleaseWorkerAllocator(runtime::PoolingAllocator* allocator);

class VMPool {
 public:
  /// Builds `num_workers` unbound VMs and starts their threads; each worker
  /// loops on `scheduler->Next()` until end of stream. Each batch carries
  /// its own stats sink (Batch::stats); the pool keeps none. `scheduler`
  /// must outlive the pool.
  VMPool(int num_workers, BatchScheduler* scheduler);

  /// Closes the scheduler's queues (so teardown cannot hang on a queue left
  /// open) and joins the workers, which exit once every admitted request
  /// has run; then releases their allocators.
  ~VMPool();

  /// Waits for all workers to exit. Close every model queue first, or this
  /// blocks. Must be called from a single owner thread; idempotent.
  void Join();

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Each worker's leased allocator, in worker order, for the per-worker
  /// memory scopes (serve::Server::MemoryScopes / GET /debug/memory). The
  /// worker set is fixed at construction and allocators are process-
  /// lifetime, so the pointers stay valid and their stats() are safe to
  /// sample from any thread.
  std::vector<runtime::PoolingAllocator*> worker_allocators() const {
    std::vector<runtime::PoolingAllocator*> out;
    out.reserve(workers_.size());
    for (const std::unique_ptr<Worker>& worker : workers_) {
      out.push_back(worker->allocator);
    }
    return out;
  }

 private:
  struct Worker {
    runtime::PoolingAllocator* allocator = nullptr;  // leased, never null
    std::unique_ptr<vm::VirtualMachine> vm;
    std::thread thread;
  };

  void WorkerLoop(Worker& worker);

  BatchScheduler* scheduler_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace serve
}  // namespace nimble
