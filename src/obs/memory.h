// Memory observability: allocator telemetry, copy accounting, and the
// soft-limit pressure gauge.
//
// This is the bottom-layer counterpart to the request-tracing plane
// (src/obs/trace.h): where tracing answers "where did this request's time
// go", this plane answers "where do its bytes live and how many times were
// they copied". Three pieces:
//
//  - Allocator accounting lives in runtime::Allocator itself (sharded
//    relaxed-atomic counters plus an exact live/peak atomic pair — see
//    src/runtime/allocator.h). This header supplies the process-global
//    aggregation: every PoolingAllocator additionally records its pool
//    events (hit/miss/refill/free) into one global sharded ledger, so
//    /metrics can export nimble_pool_events_total{event=...} without
//    walking allocators at scrape time.
//
//  - The copy ledger: one tagged byte counter per data-path copy site
//    (socket->tensor decode, PackPlan gather, batched-output unpack, the
//    step runner's per-step state gather/retire, response serialize).
//    RecordCopy is one relaxed fetch_add on the calling thread's cell —
//    the same 16-cell alignas(64) sharding as obs::Counter — so the hot
//    path never contends. The ledger is process-global (not per registry):
//    copy sites sit in layers (runtime, batch, net) that have no registry
//    pointer to thread through, and counters merged at scrape time lose
//    nothing by being global.
//
//  - MemoryPressure: a soft-limit gauge polled off the stall-watchdog
//    thread (obs::StallWatchdog::SetAuxCheck). CheckOnce is pure given a
//    clock reading, so tests can trip and clear it by hand; admission
//    (serve::Server::TrySubmit*) consults should_shed() to answer 429
//    before the allocators OOM.
//
// Kill switch: SetMemoryTelemetryEnabled(false) turns every global-ledger
// record into one relaxed load-and-branch (the telemetry-off half of the
// --trace-overhead A/B in bench/http_loadgen.cc). Per-allocator counters
// are not gated — they back AllocStats, which predates this plane.
//
// Layering: like the rest of obs/, this header depends only on support/-
// level facilities, so runtime/ (the allocators) may record into it
// without a cycle. The AllocScopeSample structs below are plain data the
// serving layer fills from runtime::AllocStats; obs itself never sees an
// allocator.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace nimble {
namespace obs {

using SteadyClock = std::chrono::steady_clock;

/// The data path's copy sites, in pipeline order. One request on the
/// packed binary-protocol path touches http_decode, pack, unpack, and
/// serialize; the continuous path replaces pack/unpack with step_state
/// (per-step x_t gather + retired-row slice). The taxonomy is closed on
/// purpose: a bounded label set keeps the exposition's cardinality fixed,
/// and a new copy site should be a reviewed decision, not a stray string.
enum class CopySite : int {
  kHttpDecode = 0,  // HTTP body -> NDArray (src/net/inference_handler.cc)
  kPack,            // request rows -> packed batch tensor (PackPlan)
  kUnpack,          // batched output -> per-request slices (PackPlan)
  kStepState,       // step runner x_t gather + retired-row copy
  kSerialize,       // result tensor -> response body bytes
};
constexpr size_t kNumCopySites = 5;

/// Stable label value for the site ("http_decode", "pack", ...).
const char* CopySiteName(CopySite site);

/// Pool events recorded by every PoolingAllocator into the global ledger.
enum class PoolEvent : int {
  kHit = 0,  // allocation served from a free list
  kMiss,     // no cached block; fell through to the OS allocator
  kRefill,   // freed block returned to a free list (the pool refills)
  kFree,     // block released to the OS (cache cap exceeded, or Trim)
};
constexpr size_t kNumPoolEvents = 4;

const char* PoolEventName(PoolEvent event);

/// Global kill switch for the ledgers below. On by default; flipping it
/// off reduces RecordCopy/RecordPoolEvent to a relaxed load. Used by the
/// telemetry-overhead A/B; not meant as a runtime tuning knob.
bool MemoryTelemetryEnabled();
void SetMemoryTelemetryEnabled(bool enabled);

/// Records `bytes` copied at `site` (plus one copy event). One relaxed
/// add per call — callers batch per invocation (e.g. one call per packed
/// gather), not per row.
void RecordCopy(CopySite site, int64_t bytes);

/// Records `count` pool events of `kind` into the global ledger.
void RecordPoolEvent(PoolEvent event, int64_t count = 1);

struct CopySiteSnapshot {
  const char* site = nullptr;
  int64_t bytes = 0;
  int64_t copies = 0;
};
/// Merged snapshot of all kNumCopySites sites, in enum order (sites with
/// no traffic report zeros — the exposition always shows the full
/// taxonomy).
std::vector<CopySiteSnapshot> CopyLedgerSnapshot();

struct PoolEventSnapshot {
  const char* event = nullptr;
  int64_t count = 0;
};
/// Merged snapshot of all pool events, in enum order.
std::vector<PoolEventSnapshot> PoolEventsSnapshot();

/// Prometheus text for the two global counter families
/// (nimble_pool_events_total{event}, nimble_copied_bytes_total{site}),
/// appended by the /metrics handler after MetricRegistry::
/// RenderPrometheus() — distinct family names keep the combined
/// exposition valid. The per-scope live/peak gauges are registry gauges
/// sampled at scrape time instead (see InferenceHandler::MetricsText).
std::string MemoryCountersText();

/// One allocator's occupancy in one (device, bucket-size) class.
struct PoolClassOccupancy {
  int64_t bucket_bytes = 0;
  int64_t blocks = 0;  // cached (free) blocks in this class
  int64_t bytes = 0;   // bucket_bytes * blocks
};

/// One allocator scope as exported at /debug/memory and the per-scope
/// gauges: "worker:<i>" (a VMPool worker's leased allocator),
/// "model:<name>" (a continuous StepRunner's), or "global:pool" /
/// "global:naive". Filled by serve::Server::MemoryScopes from
/// runtime::AllocStats.
struct AllocScopeSample {
  std::string scope;
  int64_t alloc_calls = 0;
  int64_t system_allocs = 0;
  int64_t bytes_allocated = 0;
  int64_t live_bytes = 0;
  int64_t peak_bytes = 0;
  int64_t cached_bytes = 0;
  int64_t pool_hits = 0;
  int64_t pool_refills = 0;
  int64_t pool_frees = 0;
  std::vector<PoolClassOccupancy> classes;
};

struct MemoryPressureConfig {
  /// Soft limit on live bytes across the server's allocator scopes;
  /// 0 disables the pressure plane entirely (no poll, never sheds).
  int64_t soft_limit_bytes = 0;
  /// Admission consults the gauge: at pressure >= shed_threshold,
  /// Server::TrySubmit* answer queue-full (the HTTP front end's 429)
  /// instead of admitting.
  double shed_threshold = 1.0;
};

/// The soft-limit gauge. CheckOnce samples the live-byte source, publishes
/// live/soft_limit to the gauge, and WARN-logs (at most once per 5 s, same
/// CAS discipline as the stall watchdog) while over the limit. It owns no
/// thread: the server hangs it off the StallWatchdog's poll loop.
class MemoryPressure {
 public:
  /// Returns total live bytes to judge against the soft limit. Polled from
  /// the watchdog thread and from tests; must stay valid for the
  /// MemoryPressure's lifetime and be safe to call from any thread.
  using LiveSource = std::function<int64_t()>;

  /// `config.soft_limit_bytes` must be > 0 (CHECKed: a disabled pressure
  /// plane is expressed by not constructing one). `gauge` (nullable) is
  /// the registry's nimble_mem_pressure instrument.
  MemoryPressure(MemoryPressureConfig config, LiveSource source,
                 Gauge* gauge = nullptr);

  /// One poll pass at time `now`: returns the fresh pressure value
  /// (live / soft_limit). Thread-safe.
  double CheckOnce(SteadyClock::time_point now);

  /// Pressure as of the most recent CheckOnce (0 before the first).
  /// Thread-safe, relaxed.
  double pressure() const {
    return pressure_.load(std::memory_order_relaxed);
  }

  /// True when the last poll was at or over the shed threshold. Admission
  /// hot path: two relaxed loads, no sampling — staleness is bounded by
  /// the watchdog poll interval.
  bool should_shed() const {
    return pressure() >= config_.shed_threshold;
  }

  const MemoryPressureConfig& config() const { return config_; }

 private:
  MemoryPressureConfig config_;
  LiveSource source_;
  Gauge* gauge_;
  std::atomic<double> pressure_{0.0};
  /// Steady-clock nanos of the last over-limit WARN (0 = never).
  std::atomic<int64_t> last_warn_ns_{0};
};

}  // namespace obs
}  // namespace nimble
