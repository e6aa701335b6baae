// Bounded, closeable MPMC channel behind every RequestQueue — the admission
// boundary of the serving pipeline.
//
// Semantics:
//  - Push blocks while the channel is full: backpressure propagates into
//    the producer. TryPush fails fast instead, so producers can shed load.
//  - Close() drains gracefully: pending items can still be popped, further
//    pushes fail, poppers see "empty + closed" as end of stream.
//
// Thread-safe: any number of producers and consumers.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "src/support/logging.h"

namespace nimble {
namespace serve {

/// Wake-up fan-in for consumers multiplexing several channels (every pool
/// worker idle in BatchScheduler::Next waits on the N per-model request
/// queues through one notifier). Producers bump a version on every
/// Push/Close; a consumer records the version it last acted on and sleeps
/// until the version moves — so a notification arriving between its drain
/// pass and its wait is never lost. A push wakes one sleeper (one item is
/// work for one consumer; a consumer that leaves work behind passes the
/// wake-up on), a close wakes them all. Thread-safe for any number of
/// producers and consumers.
class ChannelNotifier {
 public:
  uint64_t version() const {
    std::lock_guard<std::mutex> lock(mu_);
    return version_;
  }

  /// Bumps the version and wakes one sleeper.
  void Notify() {
    Bump();
    cv_.notify_one();
  }

  /// Bumps the version and wakes every sleeper.
  void NotifyAll() {
    Bump();
    cv_.notify_all();
  }

  /// Blocks until version() != seen or `deadline` passes; returns the
  /// version observed on wake-up (== seen means timeout).
  uint64_t WaitUntil(uint64_t seen,
                     std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait_until(lock, deadline, [&] { return version_ != seen; });
    return version_;
  }

 private:
  void Bump() {
    std::lock_guard<std::mutex> lock(mu_);
    ++version_;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t version_ = 0;
};

template <typename T>
class Channel {
 public:
  explicit Channel(size_t capacity) : capacity_(capacity) {
    NIMBLE_CHECK_GE(capacity, 1u) << "channel capacity must be positive";
  }

  /// Attaches a shared notifier signalled on every successful Push and on
  /// Close, so one consumer can sleep on many channels at once. Must be set
  /// before producers start (it is read without the channel lock).
  void set_notifier(ChannelNotifier* notifier) { notifier_ = notifier; }

  /// Blocks while the channel is full. Returns false (without consuming the
  /// item) if the channel is closed.
  bool Push(T& item) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    if (notifier_ != nullptr) notifier_->Notify();
    return true;
  }

  /// Non-blocking. Returns false — leaving `item` untouched so the caller
  /// can retry or reject it — when the channel is full or closed.
  bool TryPush(T& item) { return TryPush(item, nullptr); }

  /// TryPush with a depth snapshot: `*depth` (when non-null) receives the
  /// queue depth observed under the same lock as the admission decision —
  /// the depth *after* the push on success, the full depth at rejection on
  /// failure. Callers surfacing backpressure (the HTTP 429 path computes
  /// Retry-After from it) get a number consistent with the decision instead
  /// of a racy size() read a moment later.
  bool TryPush(T& item, size_t* depth) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) {
        if (depth != nullptr) *depth = items_.size();
        return false;
      }
      items_.push_back(std::move(item));
      if (depth != nullptr) *depth = items_.size();
    }
    not_empty_.notify_one();
    if (notifier_ != nullptr) notifier_->Notify();
    return true;
  }

  /// Non-blocking pop: empty optional when nothing is queued (the consumer
  /// distinguishes "momentarily empty" from end-of-stream via closed()).
  std::optional<T> TryPop() {
    std::unique_lock<std::mutex> lock(mu_);
    return PopLocked(std::move(lock));
  }

  /// Blocks until an item is available or the channel is closed and drained
  /// (returns nullopt — end of stream).
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !items_.empty() || closed_; });
    return PopLocked(std::move(lock));
  }

  /// Stops admissions and wakes all waiters. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
    if (notifier_ != nullptr) notifier_->NotifyAll();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }
  bool empty() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.empty();
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  size_t capacity() const { return capacity_; }

 private:
  std::optional<T> PopLocked(std::unique_lock<std::mutex> lock) {
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
  ChannelNotifier* notifier_ = nullptr;  // set once, before producers start
};

}  // namespace serve
}  // namespace nimble
