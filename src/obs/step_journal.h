// Step-granular observability for continuous batching: the step journal
// and the stall watchdog.
//
// The continuous path (batch::StepRunner) serves a request across hundreds
// of recurrence steps that the per-request TraceContext collapses into one
// exec span, and slot occupancy/splice/retire dynamics are invisible
// except as end-of-run counters. The StepJournal makes the step the unit
// of record: one StepRecord per step-twin invocation — step sequence
// number, wall-clock start and duration, active-row count, the splice and
// retire events that happened at that step boundary (request ids, slot
// indices, lengths), and the step's folded VM profile — pushed into a
// bounded per-model ring by the runner at most once per step.
//
// Concurrency model: each journal has exactly ONE writer, its model's
// StepRunner thread (the per-model journals are the shards of this plane —
// runners never share a ring, so writers never contend with each other).
// Push/Tail synchronize on a mutex that is uncontended except while a
// /debug/steps or /debug/trace scrape walks the ring; a push is a handful
// of word moves under an uncontended lock, which keeps the hot loop within
// the same ≤3% overhead budget as request tracing (CI-guarded via the
// step_journal_overhead A/B of bench/http_loadgen.cc --trace-overhead,
// checked by scripts/check_metrics.sh) while staying TSan-clean
// — the nightly sched-harness smoke runs with the journal enabled under
// ThreadSanitizer.
//
// The stall watchdog closes the loop from recording to alerting: a runner
// that holds live rows but has not completed a step within the configured
// deadline is wedged (a stuck kernel, a deadlocked allocator), not idle.
// The watchdog polls a health source — per-runner live-row counts and
// last-progress timestamps published by the runners as relaxed atomics —
// flips the model's `nimble_runner_stalled` gauge, and WARN-logs with a
// rate limit so a wedged runner cannot flood stderr. The health source is
// a plain function so tests can provoke and clear a stall without wedging
// a real VM step.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace nimble {
namespace obs {

/// One splice or retire at a step boundary.
struct StepEvent {
  enum class Kind { kSplice, kRetire };
  Kind kind = Kind::kSplice;
  /// The request's trace/request id (serve::Request::id).
  int64_t request_id = -1;
  /// Slot index of the persistent batch the request occupies.
  int64_t slot = -1;
  /// The request's sequence length (steps it holds the slot for).
  int64_t length = 0;
};

/// One step-twin invocation over the persistent batch.
struct StepRecord {
  /// Step sequence number, 0-based per runner, strictly increasing.
  int64_t step = -1;
  /// Wall-clock start of the step (gather begins).
  SteadyClock::time_point start{};
  /// Gather + invoke + retire-scan, microseconds.
  int64_t duration_us = 0;
  /// Slots holding live requests during this step.
  int64_t active_rows = 0;
  /// Total slots of the persistent batch (the fixed B).
  int64_t num_slots = 0;
  /// False when the step-twin invocation threw (every live row failed).
  bool ok = true;
  /// Splices admitted at this step's boundary, then retires of rows whose
  /// final step this was.
  std::vector<StepEvent> events;
  /// This step's VM profile delta (zero when profiling is off).
  ExecProfile vm{};
};

struct StepJournalConfig {
  /// Off: Push and event accumulation are skipped entirely (the journal-off
  /// half of the step_journal_overhead A/B).
  bool enabled = true;
  /// StepRecords retained per model; older steps are overwritten. Bounds
  /// journal memory regardless of uptime.
  size_t ring_capacity = 1024;
};

/// Bounded per-model ring of StepRecords. Single writer (the model's
/// runner thread); any thread may read. See the file comment for the
/// concurrency model.
class StepJournal {
 public:
  explicit StepJournal(StepJournalConfig config = {});

  bool enabled() const { return config_.enabled; }
  const StepJournalConfig& config() const { return config_; }

  /// Records one step. Called by the runner thread only, at most once per
  /// step-twin invocation. No-op when disabled.
  void Push(StepRecord record);

  /// The newest `n` records in step order (oldest first). Thread-safe.
  std::vector<StepRecord> Tail(size_t n) const;

  /// Total steps pushed since construction (monotone; exceeds the ring
  /// capacity once old steps have been overwritten). Thread-safe.
  int64_t steps_recorded() const {
    return steps_recorded_.load(std::memory_order_relaxed);
  }

 private:
  StepJournalConfig config_;
  std::atomic<int64_t> steps_recorded_{0};
  mutable std::mutex mu_;
  std::vector<StepRecord> ring_;  // fixed capacity, overwritten in place
  size_t next_ = 0;
  size_t size_ = 0;
};

/// One runner's health as sampled by the watchdog's health source.
struct RunnerHealth {
  std::string model;
  /// Slots currently holding live requests (0 = idle, never a stall).
  int64_t live_rows = 0;
  /// Steps completed so far (diagnostic, echoed in the stall log).
  int64_t steps = 0;
  /// Steady-clock nanos of the runner's last progress (step completed or
  /// request spliced). 0 = the runner has not started serving yet.
  int64_t last_progress_ns = 0;
  /// Per-model `nimble_runner_stalled` gauge; may be null (not exported).
  Gauge* stalled_gauge = nullptr;
};

struct StallWatchdogConfig {
  /// A runner with live rows but no step completed within this deadline is
  /// declared stalled.
  int64_t stall_deadline_ms = 2000;
  /// How often the watchdog polls the health source.
  int64_t poll_interval_ms = 200;
};

/// Watches continuous runners for wedged steps. Owns one polling thread
/// (Start/Stop); CheckOnce is the pure evaluation step, exposed so tests
/// can provoke and clear a stall with fake health data.
class StallWatchdog {
 public:
  using HealthSource = std::function<std::vector<RunnerHealth>()>;

  /// `source` is polled from the watchdog thread (and CheckOnce callers);
  /// it must stay valid until Stop() returns.
  StallWatchdog(StallWatchdogConfig config, HealthSource source);
  ~StallWatchdog();

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  /// Starts the polling thread. Call at most once.
  void Start();
  /// Stops and joins the polling thread. Idempotent.
  void Stop();

  /// One poll pass at time `now`: samples the health source, updates every
  /// runner's stalled gauge (1 = stalled, 0 = healthy), WARN-logs new
  /// stalls at most once per 5 s (the gauge still flips immediately), runs
  /// the auxiliary check (if set), and returns how many runners are
  /// stalled. Thread-safe.
  int CheckOnce(SteadyClock::time_point now);

  /// Hangs an extra periodic check off this watchdog's polling thread
  /// (e.g. the memory-pressure poll — one observability thread, not one
  /// per concern). Called at the end of every CheckOnce with the same
  /// `now`. Set before Start(); not synchronized against a running loop.
  void SetAuxCheck(std::function<void(SteadyClock::time_point)> check) {
    aux_check_ = std::move(check);
  }

  /// Stalled-runner count of the most recent check. Thread-safe.
  int stalled_count() const {
    return stalled_count_.load(std::memory_order_relaxed);
  }

  const StallWatchdogConfig& config() const { return config_; }

 private:
  void Loop();

  StallWatchdogConfig config_;
  HealthSource source_;
  std::function<void(SteadyClock::time_point)> aux_check_;
  std::atomic<int> stalled_count_{0};
  /// Steady-clock nanos of the last stall WARN (0 = never). CAS-guarded so
  /// concurrent CheckOnce calls cannot double-log within one interval.
  std::atomic<int64_t> last_warn_ns_{0};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace obs
}  // namespace nimble
