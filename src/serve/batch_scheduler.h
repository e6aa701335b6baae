// Multi-model, length-bucketed batch scheduler with deficit-round-robin
// fairness.
//
// Variable-length workloads (MRPC-like sentence lengths, SST-like trees —
// src/models/workloads.h) make naive FIFO dispatch waste the allocator and
// cache locality Nimble's VM wins from recurring shapes: consecutive
// requests rarely share a storage footprint. The scheduler therefore sorts
// each model's in-flight requests into length buckets and dispatches
// per-bucket batches, so one pool worker runs a run of similar-length,
// same-model requests back-to-back — its PoolingAllocator free lists then
// serve every allocation of the batch from the same few size classes.
//
// Batch formation follows the classic two-knob policy, per model:
//   - max_batch_size: a bucket reaching this many requests flushes at once;
//   - max_wait_micros: an incomplete bucket flushes when its oldest request
//     has waited this long (bounds the latency cost of batching).
//
// Fairness (multi-model): full buckets are dispatched in deficit-round-robin
// order. Each model the DRR cursor visits gains `weight * max_batch_size`
// requests of credit and may dispatch full batches while its credit lasts; a
// model with nothing ready forfeits its credit (classic DRR), so an idle
// model banks nothing but a backlogged one is never crowded out — a model
// flooding its own queue cannot consume more than its weight's share of
// dispatch slots. Expired buckets are served first, oldest front request
// first, and bypass the credit check: the max_wait_micros latency bound
// outranks fairness accounting (and itself guarantees no request waits
// unboundedly, so a stream of full buckets cannot starve a cold one).
//
// Threading: the scheduler is passive — it owns no thread. Each VMPool
// worker calls Next() when it is ready for work, and Next() forms that
// batch at pickup, under one scheduler mutex held only while forming it
// (never while a batch runs). A worker with nothing to take sleeps on a
// ChannelNotifier shared by every model's RequestQueue until the next bucket
// deadline: a push to any queue wakes one sleeping worker, a worker that
// takes a batch and leaves work pending wakes one more, and a Close wakes
// them all.
// Buffering stays bounded: a model's queue is drained into its buckets only
// while its bucketed backlog is below its queue capacity, so a stalled pool
// leaves the admission queue full and admission sheds. A model whose backlog
// sits at that bound hands out its oldest bucket as soon as nothing expired
// or full is ready: with a queue smaller than max_batch_size no bucket could
// ever fill, and every batch would wait out max_wait_micros.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/obs/step_journal.h"
#include "src/serve/channel.h"
#include "src/serve/exec_cache.h"
#include "src/serve/request.h"
#include "src/serve/request_queue.h"
#include "src/serve/stats.h"

namespace nimble {
namespace serve {

struct BatchPolicy {
  /// Flush a bucket as soon as it holds this many requests.
  int max_batch_size = 8;
  /// Flush a bucket once its oldest request has waited this long.
  int64_t max_wait_micros = 2000;
  /// Run each dispatched batch as ONE padded [Lmax, B, D] VM invocation of
  /// the model's batched entry point (src/batch/), instead of looping over
  /// requests on the worker. Requires the executable to carry a
  /// vm::BatchedEntrySpec (e.g. models::BuildLSTM +
  /// CompileOptions::batched_entries); batches the executable cannot pack
  /// fall back to the per-request loop automatically. Off by default.
  bool tensor_batching = false;
  /// Serve this model with continuous (iteration-level) batching instead of
  /// whole-batch scheduling: a dedicated slot-map runner
  /// (src/batch/step_runner.h) drives the model's single-step twin over a
  /// persistent `continuous_slots`-row batch, splicing queued requests into
  /// free slots and retiring each row the step it reaches its own length.
  /// The model bypasses the BatchScheduler and VMPool entirely (its
  /// RequestQueue stays the admission/backpressure boundary); the knobs
  /// above — batch size, waits, buckets, tensor_batching — do not apply.
  /// Requires the executable to carry a step twin
  /// (vm::BatchedEntrySpec::step_function) and forbids an exec_cache
  /// (variants bake an Lmax the persistent batch does not have); both are
  /// enforced at AddModel.
  bool continuous = false;
  /// Rows of the persistent batch when `continuous` is set (the fixed B of
  /// every step invocation — more slots ride out bursts, fewer waste less
  /// idle-row compute under light load).
  int64_t continuous_slots = 8;
  /// Upper bounds (inclusive) of the length buckets; lengths above the last
  /// edge fall into an implicit overflow bucket. Defaults cover the MRPC
  /// length distribution (mean ~40, clipped to 128).
  std::vector<int64_t> bucket_edges = {8, 16, 32, 64, 128};

  int num_buckets() const { return static_cast<int>(bucket_edges.size()) + 1; }

  /// Index of the bucket holding `length` (edges must be sorted ascending).
  int BucketOf(int64_t length) const;
};

/// One registered model: a named executable plus everything the pipeline
/// keeps per model — its own bounded admission queue (so backpressure and
/// load shedding are per model), its batching policy, its DRR weight, and
/// its stats. Owned by the Server; the scheduler borrows stable pointers.
/// The queue is written by client threads and drained inside
/// BatchScheduler::Next; `stats` is written by client threads
/// (enqueues/rejections) and pool workers (batches, completions) — its
/// instruments are lock-free. All other fields are set before Start() and
/// read-only after.
struct ModelState {
  /// `stats` registers the model's series in `registry`, which must
  /// outlive this state.
  ModelState(obs::MetricRegistry& registry, std::string model_name)
      : name(std::move(model_name)), stats(registry, name) {}

  std::string name;
  /// Dense index of this model within its server (stamped by AddModel).
  int index = -1;
  std::shared_ptr<vm::Executable> exec;
  /// Entry point every request of this model runs.
  std::string function = "main";
  /// Deficit-round-robin weight: relative share of full-batch dispatch
  /// slots under contention (2 = twice the share of a weight-1 model).
  int weight = 1;
  BatchPolicy policy;
  /// Optional shape-bucket executable cache (src/serve/exec_cache.h).
  /// When set (requires tensor_batching), the scheduler carves full
  /// same-length batches out of each bucket and stamps Batch::exec with the
  /// cached length-specialized variant when one is ready; everything else
  /// runs on the generic `exec`. Shared so a warmed cache can outlive the
  /// server.
  std::shared_ptr<ExecCache> cache;
  std::unique_ptr<RequestQueue> queue;
  ServeStats stats;
  /// Trace sink for this model's requests (stamped onto every dispatched
  /// Batch); null when the owning server has no tracer (standalone tests).
  obs::Tracer* tracer = nullptr;
  /// Step journal of this model's continuous runner (src/obs/
  /// step_journal.h); created by AddModel for continuous models only, null
  /// otherwise. Written by the runner thread, read by /debug/steps scrapes.
  std::unique_ptr<obs::StepJournal> journal;
};

class BatchScheduler {
 public:
  /// `models` (the pointed-to states) must outlive the scheduler. The
  /// constructor attaches its notifier to every model's queue, so it must
  /// run before any request is admitted.
  explicit BatchScheduler(std::vector<ModelState*> models);

  /// Blocks until a batch is ready and returns it: drains the admission
  /// queues into the buckets, then picks expired buckets first (oldest
  /// front request first, regardless of credit), full buckets in DRR
  /// order after that, and last the oldest bucket of a model whose backlog
  /// sits at its bound. Once every queue is closed, leftover partial buckets
  /// are handed out whatever their size; when nothing is left, returns
  /// nullopt (end of stream). Thread-safe: every pool worker calls it.
  std::optional<Batch> Next();

  /// Closes every model's queue: Next() hands out what is pending, then
  /// reports end of stream. Idempotent.
  void Close();

 private:
  /// Scheduler-private view of one model: its pending buckets (FIFO per
  /// bucket — front() is the oldest, so each bucket's flush deadline is
  /// front().enqueue_time + max_wait) and its DRR credit.
  struct PerModel {
    ModelState* state = nullptr;
    std::vector<std::deque<Request>> pending;
    /// DRR credit, granted when the cursor moves onto this model.
    int64_t deficit = 0;

    /// First bucket holding max_batch_size requests, or -1.
    int FullBucket() const;
    /// Requests across all buckets.
    size_t Backlog() const;
  };

  /// Moves queued requests into the buckets (non-blocking), each model only
  /// while its bucketed backlog is below its queue capacity. Returns whether
  /// a queue was left non-empty by that bound.
  bool Drain();
  /// Flushes, as expired, the bucket whose front request is oldest among
  /// the non-empty buckets `eligible(model, front_enqueue_time)` admits;
  /// nullopt when it admits none.
  template <typename Eligible>
  std::optional<Batch> FlushOldest(Eligible eligible);
  /// The bucket whose front request is oldest among those whose flush
  /// deadline is at or before `now`, flushed regardless of credit (the
  /// latency bound outranks fairness); nullopt when none has expired.
  std::optional<Batch> PickExpired(Clock::time_point now);
  /// One full bucket in deficit-round-robin order: the cursor grants a
  /// model Quantum() requests of credit as it moves onto it, and the model
  /// keeps the cursor while its credit lasts; a model with nothing ready
  /// forfeits its credit. nullopt when no bucket is full.
  std::optional<Batch> PickFull();
  /// The oldest bucket of a model whose bucketed backlog sits at its bound
  /// (Drain's `backlog >= capacity`): no bucket of it can grow until a
  /// batch leaves, so waiting out max_wait_micros would only idle the
  /// worker. Flushed like an expired bucket (its batch takes the front
  /// request); nullopt when no model is at its bound.
  std::optional<Batch> PickCapped();
  /// `weight * max_batch_size`: the credit one DRR visit grants.
  static int64_t Quantum(const PerModel& m);
  /// Forms a batch of up to max_batch_size requests from model `m`'s bucket
  /// `b`. With an executable cache, first tries to carve a full same-length
  /// run out of the bucket (preferring the oldest request's length; an
  /// `expired` bucket carves only that length, so the batch always takes
  /// its front request) and to stamp the batch with that length's cached
  /// variant; a homogeneous leftover batch still consults the cache, and
  /// everything else ships on the generic executable.
  Batch Flush(PerModel& m, int bucket, bool expired);
  Clock::time_point NextDeadline() const;
  bool AnyPending() const;
  bool AllQueuesClosed() const;

  ChannelNotifier notifier_;
  /// Guards per_model_ and rr_; held only while forming a batch.
  std::mutex mu_;
  std::vector<PerModel> per_model_;
  /// DRR cursor: index of the model whose visit is in progress.
  size_t rr_ = 0;
};

}  // namespace serve
}  // namespace nimble
