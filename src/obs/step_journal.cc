#include "src/obs/step_journal.h"

#include <utility>

#include "src/support/logging.h"

namespace nimble {
namespace obs {

StepJournal::StepJournal(StepJournalConfig config)
    : config_(std::move(config)) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  if (config_.enabled) ring_.resize(config_.ring_capacity);
}

void StepJournal::Push(StepRecord record) {
  if (!config_.enabled) return;
  steps_recorded_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  ring_[next_] = std::move(record);
  next_ = (next_ + 1) % ring_.size();
  if (size_ < ring_.size()) size_++;
}

std::vector<StepRecord> StepJournal::Tail(size_t n) const {
  std::vector<StepRecord> out;
  if (!config_.enabled) return out;
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = n < size_ ? n : size_;
  out.reserve(count);
  // next_ points one past the newest record; walk back `count` records and
  // copy forward so the tail comes out oldest first.
  size_t start = (next_ + ring_.size() - count) % ring_.size();
  for (size_t i = 0; i < count; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

namespace {

/// Rate limit for stall WARN logs: at most one per interval.
constexpr int64_t kStallWarnIntervalNs = 5'000'000'000;

}  // namespace

StallWatchdog::StallWatchdog(StallWatchdogConfig config, HealthSource source)
    : config_(std::move(config)), source_(std::move(source)) {
  NIMBLE_CHECK(source_ != nullptr);
}

StallWatchdog::~StallWatchdog() { Stop(); }

void StallWatchdog::Start() {
  NIMBLE_CHECK(!thread_.joinable()) << "StallWatchdog started twice";
  thread_ = std::thread([this] { Loop(); });
}

void StallWatchdog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void StallWatchdog::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    cv_.wait_for(lock, std::chrono::milliseconds(config_.poll_interval_ms));
    if (stop_) break;
    lock.unlock();
    CheckOnce(SteadyClock::now());
    lock.lock();
  }
}

int StallWatchdog::CheckOnce(SteadyClock::time_point now) {
  const int64_t now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             now.time_since_epoch())
                             .count();
  const int64_t deadline_ns = config_.stall_deadline_ms * 1'000'000;
  int stalled = 0;
  for (const RunnerHealth& h : source_()) {
    // A runner with no live rows is idle, not stuck: it is parked on its
    // queue, and last_progress legitimately goes stale. Only live rows
    // with no step completing within the deadline indicate a wedge.
    bool is_stalled = h.live_rows > 0 && h.last_progress_ns > 0 &&
                      now_ns - h.last_progress_ns > deadline_ns;
    if (h.stalled_gauge != nullptr) {
      h.stalled_gauge->Set(is_stalled ? 1.0 : 0.0);
    }
    if (!is_stalled) continue;
    stalled++;
    // Rate-limited WARN: CAS the last-log stamp forward so a wedged runner
    // logs once per warn interval, not once per poll.
    int64_t last = last_warn_ns_.load(std::memory_order_relaxed);
    if (now_ns - last >= kStallWarnIntervalNs &&
        last_warn_ns_.compare_exchange_strong(last, now_ns,
                                              std::memory_order_relaxed)) {
      NIMBLE_LOG(WARNING)
          << "continuous runner stalled: model '" << h.model << "' holds "
          << h.live_rows << " live row(s) but completed no step in "
          << (now_ns - h.last_progress_ns) / 1'000'000 << " ms (deadline "
          << config_.stall_deadline_ms << " ms, " << h.steps
          << " steps so far)";
    }
  }
  stalled_count_.store(stalled, std::memory_order_relaxed);
  if (aux_check_) aux_check_(now);
  return stalled;
}

}  // namespace obs
}  // namespace nimble
