// Shape-bucket executable cache (§4.5 extended from kernels to whole
// executables).
//
// Nimble's bet is that dynamic shapes are best served by a small set of
// shape-specialized artifacts plus runtime dispatch. PR 3's tensor batching
// still runs every bucket through ONE generic batched entry, padding each
// batch to its own Lmax and paying the full dynamic-shape machinery
// (runtime shape functions, dynamic allocation) on every step. This cache
// closes the loop by modeling the observed workload: it maps a length
// bucket — keyed by the *exact* packed sequence length the scheduler
// dispatches — to a vm::Executable variant compiled with that length (and
// the batch size) baked in (core::CompileOptions::specialize_length), and
// the scheduler stamps Batch::exec with the variant at dispatch time.
// VMPool workers rebind per batch exactly as they already do for
// multi-model serving, so a variant is indistinguishable from "yet another
// model" downstream.
//
// Lifecycle of a bucket:
//   1. Lookup(length, batch) misses; the miss is counted as an observation.
//   2. After `min_observations` misses, the length is queued for the
//      background compile thread; batches keep running on the generic
//      executable in the meantime, so tail latency NEVER blocks on
//      compilation.
//   3. The compile thread calls the user-supplied CompileVariantFn and
//      publishes the variant; subsequent Lookups hit and the scheduler
//      dispatches full same-length batches to it (zero padding by
//      construction, fully static dataflow).
//   4. The cache is bounded: inserting beyond `capacity` evicts the least
//      recently hit variant. In-flight batches keep evicted variants alive
//      through their shared_ptr.
//
// Ownership & threading: one ExecCache per model, shared by Server
// instances via shared_ptr (a warmed cache survives server restarts —
// variants are expensive, the cache is the asset). Lookup is called by pool
// workers forming batches in BatchScheduler::Next (and tests); the compile
// thread only touches the map under the same mutex. The compile callback
// itself runs WITHOUT the lock held — it may take milliseconds — and must
// be thread-safe against the serving path (core::Compile is: it builds a
// fresh module and never touches process state). Stats sinks may be null
// and are recorded outside the lock.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/codegen/tuner.h"
#include "src/serve/stats.h"
#include "src/vm/executable.h"

namespace nimble {
namespace serve {

/// Compiles a variant specialized to `max_len` (exact packed sequence
/// length) and `batch_size` (0 = leave the batch dimension symbolic), with
/// `dense_config` as the cache-blocking config to bake into the variant
/// (forward it to core::CompileOptions::dense_config; when the cache tunes
/// — ExecCacheConfig::tune_n/tune_k — it is the measured-best config for
/// the variant's exact dense shape, otherwise the cache's default).
/// Typically rebuilds the model's module and calls core::Compile with
/// specialize_length/specialize_batch set; must return a variant whose
/// weights match the generic executable (same builder seed), or null to
/// mark the length uncompilable (it is then never retried). Any
/// dense_dispatch_variants count computes the same bits, so the variant's
/// dispatch table need not match the generic one. With tuning enabled the
/// returned executable must be freshly built (not shared with serving):
/// the cache stamps the chosen config on it before publishing. Runs on the
/// cache's compile thread.
using CompileVariantFn = std::function<std::shared_ptr<vm::Executable>(
    int64_t max_len, int64_t batch_size,
    const codegen::DenseConfig& dense_config)>;

struct ExecCacheConfig {
  /// Maximum resident variants; beyond it the least recently hit variant is
  /// evicted (LRU).
  size_t capacity = 8;
  /// Lookup misses of one length before its variant is queued for
  /// compilation: 1 compiles eagerly on first sight, higher values keep
  /// one-off lengths from churning the cache.
  int64_t min_observations = 2;
  /// Batch size baked into each variant (fully static dataflow; the
  /// variant then serves only full batches of exactly this size — the
  /// scheduler's carved same-length batches — and Lookups for any other
  /// size miss without counting an observation). 0 keeps the batch
  /// dimension symbolic, so variants serve any batch size at the cost of
  /// dynamic shape machinery along that dim. Set it to the model's
  /// max_batch_size for the full win; Server::AddModel rejects any other
  /// nonzero value.
  int64_t specialize_batch = 0;
  /// The model's dominant dense shape ([N, K] weight extents, e.g. an LSTM
  /// cell's stacked gate matmul). When both are > 0 the compile thread
  /// tunes each variant before compiling it: the measured-best DenseConfig
  /// for (rows = the baked batch size, or the tile factor when the batch
  /// dim stays symbolic) x [tune_n, tune_k] — memoized process-wide in
  /// codegen::TuneCache, so one shape is measured once no matter how many
  /// variants or caches bake it — is handed to CompileVariantFn and
  /// stamped on the variant. 0 disables tuning; variants then bake the
  /// generic `codegen::DenseConfig{}`.
  int64_t tune_n = 0;
  int64_t tune_k = 0;
  /// Timed repetitions per tuning measurement (min-of-N).
  int tune_repeats = 3;
};

class ExecCache {
 public:
  /// `compile` must be valid. `stats` (the owning model's) may be null;
  /// cache events are recorded there. It must outlive the cache or be
  /// detached with set_stats(nullptr) first.
  ExecCache(CompileVariantFn compile, ExecCacheConfig config,
            ServeStats* stats = nullptr);

  /// Stops the compile thread; queued-but-uncompiled lengths are dropped.
  ~ExecCache();

  ExecCache(const ExecCache&) = delete;
  ExecCache& operator=(const ExecCache&) = delete;

  /// The scheduler's dispatch-time call: the variant serving batches of
  /// exactly (`length` x `batch_size`), or null when the caller must fall
  /// back to the generic executable. A non-null return counts a hit and
  /// refreshes the variant's LRU position. A null return counts a miss,
  /// and — only when a variant of this cache COULD serve this batch size
  /// (it matches config().specialize_batch, or variants are
  /// symbolic-batch) — an observation of `length`, possibly queueing its
  /// compile. Unservable sizes (e.g. an expiry-flushed partial batch)
  /// never count observations: compiling for them would churn the compile
  /// thread and LRU with variants their traffic cannot use. Thread-safe.
  std::shared_ptr<vm::Executable> Lookup(int64_t length, int64_t batch_size);

  /// Re-points the stats sink (used when a cache outlives the Server that
  /// created its previous sink). Thread-safe.
  void set_stats(ServeStats* stats);

  /// Blocks until the compile queue is empty and the compile thread is
  /// idle — for tests and benchmarks that want a warm cache before
  /// measuring. Serving never calls this.
  void WaitIdle();

  struct Snapshot {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    int64_t compiles = 0;
    int64_t failed_compiles = 0;
    /// Fresh tuning measurements run by this cache's compile thread
    /// (TuneCache hits served from the memo do not count).
    int64_t tune_events = 0;
    /// Lengths with a resident variant, most recently used first.
    std::vector<int64_t> resident;
    /// Per-resident-variant detail, same order as `resident`.
    struct VariantDetail {
      int64_t length = 0;
      std::string dense_config;  // DenseConfig::ToString form
      bool tuned = false;
    };
    std::vector<VariantDetail> variants;
  };
  Snapshot snapshot() const;

  const ExecCacheConfig& config() const { return config_; }

 private:
  struct Entry {
    std::shared_ptr<vm::Executable> exec;  // null until compiled
    int64_t observations = 0;
    bool queued = false;  // in compile_queue_ or being compiled
    bool failed = false;  // compile returned null / threw; never retried
    std::list<int64_t>::iterator lru_it;  // valid iff exec != nullptr
  };

  void CompileLoop();
  /// Publishes a compiled variant and applies the LRU bound. Returns the
  /// number of evictions (recorded by the caller outside the lock).
  int PublishLocked(int64_t length, std::shared_ptr<vm::Executable> exec);

  CompileVariantFn compile_;
  ExecCacheConfig config_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // compile thread waits here
  std::condition_variable idle_cv_;   // WaitIdle waits here
  std::map<int64_t, Entry> entries_;
  std::list<int64_t> lru_;  // front = most recently used resident variant
  std::deque<int64_t> compile_queue_;
  bool compiling_ = false;
  bool stop_ = false;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
  int64_t compiles_ = 0;
  int64_t failed_compiles_ = 0;
  int64_t tune_events_ = 0;
  ServeStats* stats_ = nullptr;
  std::thread compiler_;
};

}  // namespace serve
}  // namespace nimble
