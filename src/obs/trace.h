// End-to-end request tracing: per-stage spans riding each serve::Request.
//
// A TraceContext is a flat struct of monotonic stage timestamps stamped in
// order as the request moves down the pipeline:
//
//   admit      handler received the request (body decode starts)
//   enqueue    admitted into the model's RequestQueue
//   dispatch   a pool worker picked the batch up
//   pack_start / pack_end     PackPlan pack (equal on the per-request path)
//   exec_end   batched VM invocation returned; the exec span additionally
//              folds the VM's per-instruction-category profile (kernel /
//              shape-function / other nanos) captured for the batch
//   unpack_end results scattered back per request
//   write_end  response serialized and handed to the event loop (or, for
//              the in-process future path, promise observed fulfilled)
//
// Every stage is stamped by exactly one thread, and each handoff between
// stages is already sequenced by a queue mutex, so the struct needs no
// synchronization of its own — same discipline as Request::enqueue_time.
//
// Completed traces are committed into the Tracer's per-thread ring buffers:
// each committing thread owns one shard, so the hot path never contends
// with other writers — the only contention a worker can see is a
// /debug/trace scrape walking the rings. Buffers are bounded (old traces
// are overwritten), so tracing is always-on with flat memory.
//
// Slow-request sampling: a committed trace whose end-to-end latency
// exceeds TraceConfig::slow_request_us is logged at WARN with its full
// span breakdown, rate-limited to one log per slow_log_interval_ms so a
// pathological burst cannot flood stderr.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace nimble {
namespace obs {

using SteadyClock = std::chrono::steady_clock;

/// VM execution profile folded into the exec span (from vm::VMProfile,
/// captured per batch while tracing keeps profiling enabled).
struct ExecProfile {
  int64_t kernel_nanos = 0;
  int64_t shape_func_nanos = 0;
  int64_t other_nanos = 0;  // total - kernel (dispatch, shape, control)
  int64_t instructions = 0;
};

struct TraceContext {
  int64_t id = -1;
  /// Stamping and committing are skipped entirely when false (the
  /// tracing-off configuration measured by --trace-overhead).
  bool enabled = false;
  bool ok = true;
  /// Whether the request ran on the packed tensor-batching path (pack and
  /// unpack spans are zero-width otherwise).
  bool packed = false;
  /// Whether the request was served by the continuous slot-map runner. The
  /// span taxonomy is unchanged (dispatch is stamped at splice, so the
  /// queue span is exactly the queued-behind-splice wait and exec covers
  /// the resident steps); the step-level detail below rides as extra
  /// fields, exported via chrome-trace args and the X-Nimble-Trace echo.
  bool continuous = false;
  /// Slot index of the persistent batch this request occupied (-1 off the
  /// continuous path).
  int64_t slot = -1;
  /// Step sequence numbers of the request's first and last computed steps
  /// (-1 off the continuous path). retire_step - splice_step + 1 is the
  /// number of steps the request was resident, which equals its sequence
  /// length (asserted by the sched harness).
  int64_t splice_step = -1;
  int64_t retire_step = -1;
  std::string model;
  /// Dense cache-blocking config of the executable the batch ran on
  /// ("bn32_bk64" form, "*" suffix when tuner-measured; empty when the
  /// runner did not stamp one). Exported as an exec-span arg so a trace
  /// shows which tuned variant served the request.
  std::string dense_config;
  /// Memory-plane detail for the exec span (see src/obs/memory.h):
  /// alloc_bytes is this request's share of allocator traffic during its
  /// batch invocation (packed path: the batch's allocator delta, stamped
  /// once per batch member; continuous path: the per-step deltas
  /// accumulated while the row was resident), copied_bytes the data-path
  /// bytes copied for this request inside the runner (pack + unpack share,
  /// or step-state gather + retire). Exported as exec-span args.
  int64_t alloc_bytes = 0;
  int64_t copied_bytes = 0;

  int64_t steps_resident() const {
    return (splice_step >= 0 && retire_step >= splice_step)
               ? retire_step - splice_step + 1
               : 0;
  }
  SteadyClock::time_point admit{};
  SteadyClock::time_point enqueue{};
  SteadyClock::time_point dispatch{};
  SteadyClock::time_point pack_start{};
  SteadyClock::time_point pack_end{};
  SteadyClock::time_point exec_end{};
  SteadyClock::time_point unpack_end{};
  SteadyClock::time_point write_end{};
  ExecProfile vm{};

  int64_t e2e_us() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(write_end -
                                                                 admit)
        .count();
  }
};

/// One committed trace plus its commit sequence number (global order).
struct TraceRecord {
  uint64_t seq = 0;
  TraceContext ctx;
};

struct TraceConfig {
  /// Master switch: off skips every stamp and commit.
  bool enabled = true;
  /// Total completed traces retained across all ring shards; older traces
  /// are overwritten. Bounds tracing memory regardless of uptime.
  size_t ring_capacity = 512;
  /// A completed request slower than this (end to end, microseconds) gets
  /// its span breakdown logged at WARN. 0 disables slow-request sampling.
  int64_t slow_request_us = 0;
  /// Rate limit for slow-request logs: at most one per this interval.
  int64_t slow_log_interval_ms = 1000;
};

class Tracer {
 public:
  explicit Tracer(TraceConfig config = {});

  bool enabled() const { return config_.enabled; }
  const TraceConfig& config() const { return config_; }

  /// Records a completed trace into the committing thread's ring shard and
  /// runs the slow-request sampler. Called once per request, after the
  /// final (write) stamp. Thread-safe; the shard mutex is only ever
  /// contended by a concurrent /debug/trace scrape.
  void Commit(const TraceContext& ctx);

  /// The most recent `n` committed traces in commit order (oldest first).
  /// Thread-safe.
  std::vector<TraceRecord> Recent(size_t n) const;

  /// Total traces committed since construction.
  int64_t committed() const {
    return static_cast<int64_t>(seq_.load(std::memory_order_relaxed));
  }

  /// Slow-request sampling decision, exposed for tests: true when `e2e_us`
  /// exceeds the configured threshold AND the rate limiter grants a log
  /// slot at `now`. Updates the limiter on success.
  bool ShouldLogSlow(int64_t e2e_us, SteadyClock::time_point now);

 private:
  static constexpr size_t kShards = 8;
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::vector<TraceRecord> ring;  // fixed capacity, overwritten in place
    size_t next = 0;
  };

  TraceConfig config_;
  size_t per_shard_capacity_;
  std::atomic<uint64_t> seq_{0};
  /// Steady-clock nanos of the last slow-request log (0 = never).
  std::atomic<int64_t> last_slow_log_ns_{0};
  std::array<Shard, kShards> shards_;
};

}  // namespace obs
}  // namespace nimble
