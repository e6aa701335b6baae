#include "src/serve/exec_cache.h"

#include <utility>

#include "src/support/logging.h"

namespace nimble {
namespace serve {

ExecCache::ExecCache(CompileVariantFn compile, ExecCacheConfig config,
                     ServeStats* stats)
    : compile_(std::move(compile)), config_(config), stats_(stats) {
  NIMBLE_CHECK(compile_ != nullptr) << "ExecCache needs a compile function";
  NIMBLE_CHECK_GE(config_.capacity, 1u);
  NIMBLE_CHECK_GE(config_.min_observations, 1);
  compiler_ = std::thread([this] { CompileLoop(); });
}

ExecCache::~ExecCache() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  compiler_.join();
}

void ExecCache::set_stats(ServeStats* stats) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = stats;
}

std::shared_ptr<vm::Executable> ExecCache::Lookup(int64_t length,
                                                  int64_t batch_size) {
  std::shared_ptr<vm::Executable> result;
  bool queue_compile = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // `batch_size` can only ever run on a variant when it matches what
    // variants of this cache are baked with (0 = symbolic batch serves
    // any size).
    bool servable = config_.specialize_batch == 0 ||
                    config_.specialize_batch == batch_size;
    Entry& entry = entries_[length];
    if (entry.exec != nullptr && servable) {
      result = entry.exec;
      hits_++;
      lru_.splice(lru_.begin(), lru_, entry.lru_it);  // refresh
    } else if (!servable || entry.exec != nullptr) {
      // A batch no variant of this cache can serve (wrong size, e.g. an
      // expiry-flushed partial batch): a miss, but NOT an observation —
      // compiling for this length would produce a variant such batches
      // still cannot use, churning the compile thread and the LRU.
      misses_++;
    } else {
      misses_++;
      if (!entry.queued && !entry.failed &&
          ++entry.observations >= config_.min_observations) {
        entry.queued = true;
        compile_queue_.push_back(length);
        queue_compile = true;
      }
    }
    // Stats under mu_: set_stats (how Server::Shutdown detaches a shared
    // cache before the Server's stats die) swaps the pointers under the
    // same mutex, so a detach cannot race an in-flight recording.
    if (stats_ != nullptr) {
      if (result != nullptr) {
        stats_->RecordCacheHit();
      } else {
        stats_->RecordCacheMiss();
      }
    }
  }
  if (queue_compile) work_cv_.notify_one();
  return result;
}

int ExecCache::PublishLocked(int64_t length,
                             std::shared_ptr<vm::Executable> exec) {
  Entry& entry = entries_[length];
  entry.exec = std::move(exec);
  entry.queued = false;
  lru_.push_front(length);
  entry.lru_it = lru_.begin();
  int evicted = 0;
  while (lru_.size() > config_.capacity) {
    int64_t victim = lru_.back();
    lru_.pop_back();
    // Keep the observation history (a re-hot length recompiles after
    // min_observations more misses) but drop the artifact.
    Entry& v = entries_[victim];
    v.exec = nullptr;
    v.observations = 0;
    evictions_++;
    ++evicted;
  }
  return evicted;
}

void ExecCache::CompileLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !compile_queue_.empty(); });
    if (stop_) return;
    int64_t length = compile_queue_.front();
    compile_queue_.pop_front();
    compiling_ = true;
    int64_t batch = config_.specialize_batch;
    lock.unlock();

    // Tune before compiling, off the serving path like the compile itself.
    // The variant's dense calls see `rows` rows (the baked batch size on
    // the packed path; the tile factor stands in when the batch dimension
    // stays symbolic), so that is the M the tuner measures. TuneCache
    // memoizes per exact shape: the first variant of a shape pays for the
    // measurement, every later one — any length, any cache — reuses it.
    codegen::DenseConfig dense_config;
    bool tuned = false;
    bool fresh_tune = false;
    if (config_.tune_n > 0 && config_.tune_k > 0) {
      int64_t rows = batch > 0 ? batch : codegen::kTileRows;
      codegen::TunedDense result = codegen::TuneCache::Global()->GetOrTune(
          rows, config_.tune_n, config_.tune_k, config_.tune_repeats);
      dense_config = result.config;
      tuned = true;
      fresh_tune = result.fresh;
    }

    std::shared_ptr<vm::Executable> exec;
    try {
      exec = compile_(length, batch, dense_config);
    } catch (...) {
      exec = nullptr;
    }
    if (exec != nullptr && tuned) {
      // Stamp pre-publish: the executable is not visible to any VM yet
      // (CompileVariantFn's freshness contract), so this is the last write
      // before immutability.
      exec->dense_config = dense_config;
      exec->dense_config_tuned = true;
    }

    bool ok = exec != nullptr;
    lock.lock();
    if (fresh_tune) {
      tune_events_++;
      if (stats_ != nullptr) stats_->RecordTuneEvent();
    }
    if (ok) {
      compiles_++;
      int evicted = PublishLocked(length, std::move(exec));
      // Stats under mu_, like Lookup: a set_stats detach (Server teardown)
      // cannot race an in-flight recording.
      if (stats_ != nullptr) {
        stats_->RecordVariantCompile();
        for (int i = 0; i < evicted; ++i) stats_->RecordCacheEviction();
      }
    } else {
      failed_compiles_++;
      Entry& entry = entries_[length];
      entry.queued = false;
      entry.failed = true;
    }
    compiling_ = false;
    if (compile_queue_.empty()) idle_cv_.notify_all();
  }
}

void ExecCache::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock,
                [this] { return compile_queue_.empty() && !compiling_; });
}

ExecCache::Snapshot ExecCache::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  snap.hits = hits_;
  snap.misses = misses_;
  snap.evictions = evictions_;
  snap.compiles = compiles_;
  snap.failed_compiles = failed_compiles_;
  snap.tune_events = tune_events_;
  snap.resident.assign(lru_.begin(), lru_.end());
  for (int64_t length : lru_) {
    auto it = entries_.find(length);
    Snapshot::VariantDetail detail;
    detail.length = length;
    if (it != entries_.end() && it->second.exec != nullptr) {
      detail.dense_config = it->second.exec->dense_config.ToString();
      detail.tuned = it->second.exec->dense_config_tuned;
    }
    snap.variants.push_back(std::move(detail));
  }
  return snap;
}

}  // namespace serve
}  // namespace nimble
