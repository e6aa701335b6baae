// Concurrent multi-model server: per-model queues -> DRR batch scheduler ->
// shared VM pool.
//
// One Server multiplexes any number of compiled models behind one worker
// pool:
//
//   Submit("m", ...)/TrySubmit            (any number of client threads)
//        |
//   per-model RequestQueue                (bounded; backpressure / load
//        |                                 shedding per model)
//   BatchScheduler::Next                  (no thread of its own: each idle
//        |                                 worker forms its next batch at
//        |                                 pickup — length buckets per
//        |                                 model, deficit-round-robin
//        |                                 across models)
//   VMPool                                (N worker threads, one VM +
//        |                                 private PoolingAllocator each;
//        v                                 workers rebind to the batch's
//   std::future<ObjectRef>                 executable)
//   (or a completion callback: the HTTP front end in src/net/ admits via
//    TrySubmitCallback and finishes responses asynchronously)
//
// A model registered with BatchPolicy::continuous skips the scheduler and
// pool: its RequestQueue feeds a dedicated batch::StepRunner that splices
// requests into a persistent slot-map batch and retires each one the step
// its row finishes (continuous / iteration-level batching). Admission,
// backpressure, stats, and tracing are identical either way.
//
// Lifecycle: construct, AddModel() for each executable, Start(), then
// Submit from any thread. The single-model constructor does all of that in
// one call from a ModelConfig.
//
// Results are identical — bit-for-bit — to running the same requests
// sequentially through a single VirtualMachine: requests never share
// mutable state, only their model's read-only executable; and because each
// executable owns its dispatch table, compiling new models while serving
// does not perturb in-flight results (tests/test_serve.cc).
#pragma once

#include <atomic>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/batch/step_runner.h"
#include "src/obs/memory.h"
#include "src/obs/metrics.h"
#include "src/obs/step_journal.h"
#include "src/obs/trace.h"
#include "src/serve/batch_scheduler.h"
#include "src/serve/request_queue.h"
#include "src/serve/stats.h"
#include "src/serve/vm_pool.h"
#include "src/vm/executable.h"

namespace nimble {
namespace serve {

/// Per-model registration parameters (everything except the name).
struct ModelConfig {
  std::shared_ptr<vm::Executable> exec;
  /// Executable entry point every request of this model runs.
  std::string function = "main";
  /// Capacity of this model's admission queue: bounds how many requests are
  /// buffered ahead of the scheduler before Submit blocks / TrySubmit sheds.
  /// The scheduler's buckets hold at most as many again (see
  /// BatchScheduler::Drain).
  size_t queue_capacity = 256;
  /// Length-bucketing and flush policy for this model's batches.
  BatchPolicy batch;
  /// Deficit-round-robin weight: relative share of dispatch slots under
  /// contention (2 = twice the share of a weight-1 model). Must be >= 1.
  int weight = 1;
  /// Optional shape-bucket executable cache (src/serve/exec_cache.h):
  /// length-specialized variants of `exec` compiled in the background and
  /// dispatched to by the scheduler. Requires `batch.tensor_batching`; a
  /// cache that bakes a batch size must bake this model's max_batch_size.
  /// Shared so callers can keep a warmed cache across server restarts.
  std::shared_ptr<ExecCache> exec_cache;
};

struct ServeConfig {
  int num_workers = 4;
  /// Request-tracing configuration (src/obs/trace.h). Tracing is on by
  /// default: per-request span stamping is a handful of steady_clock reads,
  /// bounded by the bench_http_loadgen --trace-overhead CI gate at <= 3%
  /// of peak req/s.
  obs::TraceConfig trace;
  /// Metrics registry the server exports through (sharded counters,
  /// GET /metrics). Null: the server creates its own. Inject a shared one
  /// to aggregate several servers into a single exposition; the models'
  /// stats live in the registry, so servers sharing one and a model name
  /// also share that model's /stats.
  std::shared_ptr<obs::MetricRegistry> metrics;
  /// Step-journal configuration for continuous models (src/obs/
  /// step_journal.h): one bounded StepRecord ring per continuous model,
  /// written by its runner, served at GET /debug/steps and merged into
  /// GET /debug/trace as slot timelines. On by default, same ≤3% overhead
  /// budget as tracing (the step_journal_overhead arm of the same gate).
  obs::StepJournalConfig step_journal;
  /// Stall-watchdog configuration: one polling thread watching every
  /// continuous runner's health, flipping the per-model
  /// nimble_runner_stalled gauge and WARN-logging (rate-limited) when a
  /// runner holds live rows but completes no step within the deadline.
  obs::StallWatchdogConfig watchdog;
  /// Memory-pressure configuration (src/obs/memory.h). soft_limit_bytes 0
  /// (the default) disables the pressure plane; set it to poll live bytes
  /// across every server allocator scope off the watchdog thread, export
  /// nimble_mem_pressure, and answer queue-full from TrySubmit* at
  /// pressure >= shed_threshold (the HTTP front end's 429) before the
  /// allocators OOM.
  obs::MemoryPressureConfig memory;
};

class Server {
 public:
  /// Multi-model form: construct, AddModel() each executable, Start().
  explicit Server(ServeConfig config = {});

  /// Single-model convenience: registers `model` under the name "default"
  /// and starts immediately. Submit/TrySubmit without a model name route
  /// to it.
  explicit Server(ModelConfig model, ServeConfig config = {});

  /// Drains and stops the pipeline.
  ~Server();

  /// Registers a named executable. Must be called before Start(), from the
  /// owning thread; names must be unique and `model.exec` non-null.
  void AddModel(const std::string& name, ModelConfig model);

  /// Builds the scheduler and launches the worker pool (and any continuous
  /// runners). Call exactly once, after every AddModel. Submissions before
  /// Start() fail.
  void Start();

  /// Submits a request for `model`, blocking while that model's queue is
  /// full (backpressure; other models' admissions are unaffected).
  /// `length_hint` is the input's sequence length, used for bucketing.
  /// Throws nimble::Error after Shutdown() or for an unknown model.
  /// Thread-safe.
  std::future<runtime::ObjectRef> Submit(const std::string& model,
                                         std::vector<runtime::ObjectRef> args,
                                         int64_t length_hint = 0);

  /// Non-blocking admission: returns an empty optional — and counts a
  /// rejection against `model` — when its queue is full or memory pressure
  /// sheds, so callers can shed load per model. After Drain() it also
  /// returns an empty optional, without counting a rejection. Thread-safe.
  std::optional<std::future<runtime::ObjectRef>> TrySubmit(
      const std::string& model, std::vector<runtime::ObjectRef> args,
      int64_t length_hint = 0);

  /// Outcome of a callback-path admission attempt. Never throws for the
  /// conditions a network front end must turn into status codes.
  enum class AdmitStatus {
    kAccepted,      // callback will fire exactly once, on a worker thread
    kQueueFull,     // shed; counted as a rejection against the model
    kUnknownModel,  // no model registered under that name
    kClosed,        // server draining or shut down
  };
  struct AdmitResult {
    AdmitStatus status = AdmitStatus::kClosed;
    /// Queue depth observed under the admission lock (after the push on
    /// success, at rejection otherwise) and the queue's capacity — the
    /// numbers a 429 handler turns into a Retry-After estimate.
    size_t queue_depth = 0;
    size_t queue_capacity = 0;
    bool accepted() const { return status == AdmitStatus::kAccepted; }
  };

  /// Non-blocking admission for the asynchronous completion path
  /// (src/net/): instead of a future, `on_complete` fires on a pool worker
  /// thread once the request finishes (see serve::CompletionFn for its
  /// contract — in particular it must not block or throw). Unknown models
  /// and a draining server are reported in the result, not thrown: this is
  /// the hot path of the HTTP front end, where those outcomes are ordinary
  /// responses (404/503), not programming errors. `received` backdates the
  /// trace's admission span to when the caller first saw the request (body
  /// decode start); default stamps it at submission. Thread-safe.
  AdmitResult TrySubmitCallback(const std::string& model,
                                std::vector<runtime::ObjectRef> args,
                                int64_t length_hint, CompletionFn on_complete,
                                Clock::time_point received = {});

  /// Single-model conveniences: route to the first registered model.
  std::future<runtime::ObjectRef> Submit(std::vector<runtime::ObjectRef> args,
                                         int64_t length_hint = 0);
  std::optional<std::future<runtime::ObjectRef>> TrySubmit(
      std::vector<runtime::ObjectRef> args, int64_t length_hint = 0);

  /// Graceful drain: stops intake on every model (later Submits fail,
  /// TrySubmit* report kClosed), flushes every request already admitted —
  /// workers keep pulling batches until the scheduler has handed out every
  /// pending bucket — and joins all VMPool workers. Every
  /// outstanding future/callback is fulfilled before this returns; no
  /// admitted request is ever dropped. Idempotent and terminal: there is no
  /// restart. Stats remain queryable afterwards.
  void Drain();

  /// True once Drain()/Shutdown() has begun; the HTTP front end turns this
  /// into 503 instead of admitting into closing queues. Thread-safe.
  bool draining() const { return shutdown_.load(); }

  /// Drain() plus resource teardown (detaches any shared exec caches from
  /// this server's stats). Idempotent; also run by the destructor.
  void Shutdown();

  const ServeConfig& config() const { return config_; }
  std::vector<std::string> model_names() const;
  bool HasModel(const std::string& model) const;

  /// Aggregate stats: the sum of every model's stats (each event is
  /// recorded once, into its model). Thread-safe.
  StatsSnapshot stats() const;
  /// Stats for one model. Throws for an unknown name. Thread-safe.
  StatsSnapshot stats(const std::string& model) const;

  /// One scrape of the whole server: every model's snapshot, queue depth,
  /// and capacity, plus the aggregate — the sum of those same per-model
  /// readings (see the consistency contract in stats.h). This is what
  /// GET /stats serializes; prefer it over per-model stats() calls when
  /// reading more than one view.
  struct ModelStatsView {
    std::string name;
    StatsSnapshot stats;
    size_t queue_depth = 0;
    size_t queue_capacity = 0;
    /// Exec-cache snapshot — resident variants with their (possibly tuned)
    /// dense configs — for models serving with one (has_exec_cache);
    /// default-initialized otherwise.
    bool has_exec_cache = false;
    ExecCache::Snapshot exec_cache;
  };
  struct ServerSnapshot {
    StatsSnapshot aggregate;
    std::vector<ModelStatsView> models;
    /// Sum of the per-model depths above (same pass, so it always equals
    /// their total — unlike a separate queue_depth() call).
    size_t queue_depth = 0;
  };
  ServerSnapshot SnapshotAll() const;

  /// The metrics registry this server records into (never null); the HTTP
  /// front end renders it at GET /metrics. Thread-safe.
  const std::shared_ptr<obs::MetricRegistry>& metrics_registry() const {
    return metrics_;
  }
  /// The request tracer (never null); serves GET /debug/trace. Thread-safe.
  const std::shared_ptr<obs::Tracer>& tracer() const { return tracer_; }

  /// The continuous models' step journals (empty when no model is
  /// continuous). Journals live as long as the server, so the views stay
  /// valid across Drain; the HTTP front end serves them at GET /debug/steps
  /// and folds them into GET /debug/trace as slot timelines. Thread-safe
  /// after Start (the list is fixed at registration time).
  struct ContinuousModelView {
    std::string name;
    int64_t num_slots = 0;
    const obs::StepJournal* journal = nullptr;  // may be null when disabled
  };
  std::vector<ContinuousModelView> continuous_models() const;

  /// The stall watchdog (null when there is nothing to watch — no
  /// continuous model and no memory pressure — or the watchdog is
  /// disabled); exposed for tests and health probes.
  const obs::StallWatchdog* watchdog() const { return watchdog_.get(); }

  /// One memory sample per allocator scope: "worker:<i>" for each VMPool
  /// worker, "model:<name>" for each continuous runner, plus the process
  /// "global:pool"/"global:naive" allocators. Sampled fresh on every call
  /// (lock-free counter merges plus one pool-mutex hop per scope for the
  /// size-class table); safe from any thread, before Start and after
  /// Drain. GET /debug/memory and the per-scope /metrics gauges serialize
  /// this.
  std::vector<obs::AllocScopeSample> MemoryScopes() const;

  /// The memory-pressure gauge (null unless config.memory.soft_limit_bytes
  /// > 0 and Start() has run). Thread-safe.
  const obs::MemoryPressure* memory_pressure() const {
    return pressure_.get();
  }

  /// Total requests currently buffered in admission queues (all models).
  size_t queue_depth() const;
  /// Requests buffered for one model. Throws for an unknown name.
  size_t queue_depth(const std::string& model) const;
  /// Admission-queue capacity of one model. Throws for an unknown name.
  size_t queue_capacity(const std::string& model) const;

 private:
  ModelState& Find(const std::string& model) const;
  /// The one admission path behind Submit/TrySubmit/TrySubmitCallback: the
  /// memory-pressure shed (non-blocking callers only), the push (blocking
  /// when `block`), and the accounting — a rejection for a full queue or a
  /// shed, none for a closed one, an enqueue on success. `depth` (may be
  /// null) receives the queue depth observed at the decision.
  AdmitStatus Admit(ModelState& state, Request& request, bool block,
                    size_t* depth);
  Request MakeRequest(const ModelState& model,
                      std::vector<runtime::ObjectRef> args,
                      int64_t length_hint,
                      std::future<runtime::ObjectRef>* future);

  ServeConfig config_;
  std::shared_ptr<obs::MetricRegistry> metrics_;  // never null
  std::shared_ptr<obs::Tracer> tracer_;           // never null
  /// unique_ptr for stable addresses: the scheduler and in-flight batches
  /// hold ModelState pointers. Registration order defines model indices.
  std::vector<std::unique_ptr<ModelState>> models_;
  std::map<std::string, int> model_index_;
  /// Null when every registered model is continuous (no scheduler/pool to
  /// run); Drain() handles either shape. The scheduler is declared first so
  /// it outlives the pool whose workers call it.
  std::unique_ptr<BatchScheduler> scheduler_;
  std::unique_ptr<VMPool> pool_;
  /// One slot-map runner per continuous model (BatchPolicy::continuous);
  /// such models never appear in the scheduler's model list — their queues
  /// are drained by their runner's thread directly.
  std::vector<std::unique_ptr<batch::StepRunner>> runners_;
  /// Model name per runner, parallel to runners_ (the "model:<name>"
  /// memory scopes). Fixed at Start.
  std::vector<std::string> runner_models_;
  /// Soft-limit memory pressure (null unless configured); polled by the
  /// watchdog's aux check. Declared before watchdog_ so the watchdog —
  /// whose aux check points here — is destroyed first.
  std::unique_ptr<obs::MemoryPressure> pressure_;
  /// Polls every continuous runner's health atomics and the memory-pressure
  /// gauge; started after the runners, stopped first in Drain. Null when
  /// there is nothing to watch.
  std::unique_ptr<obs::StallWatchdog> watchdog_;
  std::atomic<int64_t> next_id_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> shutdown_{false};
  std::atomic<bool> caches_detached_{false};
};

}  // namespace serve
}  // namespace nimble
