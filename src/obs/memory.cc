#include "src/obs/memory.h"

#include <cstdio>

#include "src/support/logging.h"

namespace nimble {
namespace obs {

namespace {

const char* kCopySiteNames[kNumCopySites] = {
    "http_decode", "pack", "unpack", "step_state", "serialize",
};

const char* kPoolEventNames[kNumPoolEvents] = {
    "hit", "miss", "refill", "free",
};

/// Rate limit for over-limit WARN logs (the gauge itself updates every
/// poll).
constexpr int64_t kPressureWarnIntervalNs = 5'000'000'000;

// On by default; constant-initialized and trivially destructible, so it is
// safe to consult from allocator teardown during static destruction.
std::atomic<bool> g_telemetry_enabled{true};

// The global ledgers. Heap-allocated behind function-local static pointers
// so they are immortal: process-lifetime allocators (the global allocators,
// the worker-allocator registry) free buffers during static destruction,
// and those frees must still have a ledger to record into. The blocks stay
// reachable from the static pointers, so LeakSanitizer does not flag them.
struct CopyLedger {
  Counter bytes[kNumCopySites];
  Counter copies[kNumCopySites];
};

CopyLedger& GlobalCopyLedger() {
  static CopyLedger* ledger = new CopyLedger();
  return *ledger;
}

struct PoolEventLedger {
  Counter events[kNumPoolEvents];
};

PoolEventLedger& GlobalPoolEventLedger() {
  static PoolEventLedger* ledger = new PoolEventLedger();
  return *ledger;
}

}  // namespace

const char* CopySiteName(CopySite site) {
  return kCopySiteNames[static_cast<int>(site)];
}

const char* PoolEventName(PoolEvent event) {
  return kPoolEventNames[static_cast<int>(event)];
}

bool MemoryTelemetryEnabled() {
  return g_telemetry_enabled.load(std::memory_order_relaxed);
}

void SetMemoryTelemetryEnabled(bool enabled) {
  g_telemetry_enabled.store(enabled, std::memory_order_relaxed);
}

void RecordCopy(CopySite site, int64_t bytes) {
  if (!MemoryTelemetryEnabled()) return;
  CopyLedger& ledger = GlobalCopyLedger();
  ledger.bytes[static_cast<int>(site)].Increment(bytes);
  ledger.copies[static_cast<int>(site)].Increment(1);
}

void RecordPoolEvent(PoolEvent event, int64_t count) {
  if (!MemoryTelemetryEnabled()) return;
  GlobalPoolEventLedger().events[static_cast<int>(event)].Increment(count);
}

std::vector<CopySiteSnapshot> CopyLedgerSnapshot() {
  CopyLedger& ledger = GlobalCopyLedger();
  std::vector<CopySiteSnapshot> out(kNumCopySites);
  for (size_t i = 0; i < kNumCopySites; ++i) {
    out[i].site = kCopySiteNames[i];
    out[i].bytes = ledger.bytes[i].Value();
    out[i].copies = ledger.copies[i].Value();
  }
  return out;
}

std::vector<PoolEventSnapshot> PoolEventsSnapshot() {
  PoolEventLedger& ledger = GlobalPoolEventLedger();
  std::vector<PoolEventSnapshot> out(kNumPoolEvents);
  for (size_t i = 0; i < kNumPoolEvents; ++i) {
    out[i].event = kPoolEventNames[i];
    out[i].count = ledger.events[i].Value();
  }
  return out;
}

std::string MemoryCountersText() {
  std::string out;
  out.reserve(1024);
  char line[160];

  out += "# HELP nimble_pool_events_total Pooling-allocator events "
         "(hit/miss/refill/free) across all pools.\n";
  out += "# TYPE nimble_pool_events_total counter\n";
  for (const PoolEventSnapshot& snapshot : PoolEventsSnapshot()) {
    std::snprintf(line, sizeof(line),
                  "nimble_pool_events_total{event=\"%s\"} %lld\n",
                  snapshot.event, static_cast<long long>(snapshot.count));
    out += line;
  }

  out += "# HELP nimble_copied_bytes_total Bytes copied on the data path, "
         "by copy site.\n";
  out += "# TYPE nimble_copied_bytes_total counter\n";
  for (const CopySiteSnapshot& snapshot : CopyLedgerSnapshot()) {
    std::snprintf(line, sizeof(line),
                  "nimble_copied_bytes_total{site=\"%s\"} %lld\n",
                  snapshot.site, static_cast<long long>(snapshot.bytes));
    out += line;
  }
  return out;
}

MemoryPressure::MemoryPressure(MemoryPressureConfig config, LiveSource source,
                               Gauge* gauge)
    : config_(config), source_(std::move(source)), gauge_(gauge) {
  NIMBLE_CHECK(config_.soft_limit_bytes > 0)
      << "MemoryPressure requires a positive soft limit (got "
      << config_.soft_limit_bytes << ")";
  NIMBLE_CHECK(source_ != nullptr) << "MemoryPressure requires a live-byte source";
}

double MemoryPressure::CheckOnce(SteadyClock::time_point now) {
  int64_t live = source_();
  double pressure =
      static_cast<double>(live) / static_cast<double>(config_.soft_limit_bytes);
  pressure_.store(pressure, std::memory_order_relaxed);
  if (gauge_ != nullptr) gauge_->Set(pressure);

  if (live > config_.soft_limit_bytes) {
    // Rate-limit the WARN with the same CAS discipline as the stall
    // watchdog: whoever wins the exchange owns this interval's log line.
    int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         now.time_since_epoch())
                         .count();
    int64_t last = last_warn_ns_.load(std::memory_order_relaxed);
    if ((last == 0 || now_ns - last >= kPressureWarnIntervalNs) &&
        last_warn_ns_.compare_exchange_strong(last, now_ns,
                                              std::memory_order_relaxed)) {
      NIMBLE_LOG(WARNING) << "memory pressure " << pressure << ": " << live
                   << " live bytes over soft limit "
                   << config_.soft_limit_bytes
                   << (should_shed() ? " (shedding new requests)" : "");
    }
  }
  return pressure;
}

}  // namespace obs
}  // namespace nimble
