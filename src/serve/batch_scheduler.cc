#include "src/serve/batch_scheduler.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/support/logging.h"

namespace nimble {
namespace serve {

int BatchPolicy::BucketOf(int64_t length) const {
  auto it =
      std::lower_bound(bucket_edges.begin(), bucket_edges.end(), length);
  return static_cast<int>(it - bucket_edges.begin());
}

int BatchScheduler::PerModel::FullBucket() const {
  auto full = static_cast<size_t>(state->policy.max_batch_size);
  for (size_t b = 0; b < pending.size(); ++b) {
    if (pending[b].size() >= full) return static_cast<int>(b);
  }
  return -1;
}

size_t BatchScheduler::PerModel::Backlog() const {
  size_t backlog = 0;
  for (const auto& bucket : pending) backlog += bucket.size();
  return backlog;
}

BatchScheduler::BatchScheduler(std::vector<ModelState*> models) {
  NIMBLE_CHECK(!models.empty()) << "scheduler needs at least one model";
  per_model_.reserve(models.size());
  for (ModelState* state : models) {
    NIMBLE_CHECK(state != nullptr && state->queue != nullptr &&
                 state->exec != nullptr)
        << "model state incomplete";
    NIMBLE_CHECK_GE(state->policy.max_batch_size, 1);
    NIMBLE_CHECK_GE(state->policy.max_wait_micros, 0);
    NIMBLE_CHECK_GE(state->weight, 1);
    NIMBLE_CHECK(std::is_sorted(state->policy.bucket_edges.begin(),
                                state->policy.bucket_edges.end()))
        << "bucket edges must be ascending";
    PerModel pm;
    pm.state = state;
    pm.pending.resize(static_cast<size_t>(state->policy.num_buckets()));
    per_model_.push_back(std::move(pm));
    state->queue->set_notifier(&notifier_);
  }
  // The DRR cursor starts its first visit on model 0.
  per_model_[0].deficit = Quantum(per_model_[0]);
}

int64_t BatchScheduler::Quantum(const PerModel& m) {
  return static_cast<int64_t>(m.state->weight) * m.state->policy.max_batch_size;
}

Clock::time_point BatchScheduler::NextDeadline() const {
  auto deadline = Clock::time_point::max();
  for (const PerModel& m : per_model_) {
    auto max_wait = std::chrono::microseconds(m.state->policy.max_wait_micros);
    for (const auto& bucket : m.pending) {
      if (bucket.empty()) continue;
      deadline = std::min(deadline, bucket.front().enqueue_time + max_wait);
    }
  }
  if (deadline == Clock::time_point::max()) {
    // Nothing pending: sleep until a queue wakes us. A bounded horizon
    // avoids the overflow pitfalls of wait_until(time_point::max()).
    deadline = Clock::now() + std::chrono::hours(1);
  }
  return deadline;
}

bool BatchScheduler::AnyPending() const {
  for (const PerModel& m : per_model_) {
    for (const auto& bucket : m.pending) {
      if (!bucket.empty()) return true;
    }
  }
  return false;
}

void BatchScheduler::Close() {
  for (PerModel& m : per_model_) m.state->queue->Close();
}

bool BatchScheduler::AllQueuesClosed() const {
  for (const PerModel& m : per_model_) {
    if (!m.state->queue->closed()) return false;
  }
  return true;
}

bool BatchScheduler::Drain() {
  bool capped = false;
  for (PerModel& m : per_model_) {
    size_t backlog = m.Backlog();
    size_t cap = m.state->queue->capacity();
    for (; backlog < cap; ++backlog) {
      auto request = m.state->queue->TryPop();
      if (!request) break;
      int bucket = m.state->policy.BucketOf(request->length_hint);
      m.pending[static_cast<size_t>(bucket)].push_back(std::move(*request));
    }
    if (backlog >= cap && !m.state->queue->empty()) capped = true;
  }
  return capped;
}

Batch BatchScheduler::Flush(PerModel& m, int bucket, bool expired) {
  auto& pending = m.pending[static_cast<size_t>(bucket)];
  Batch batch;
  batch.exec = m.state->exec;
  batch.stats = &m.state->stats;
  batch.tensor_batching = m.state->policy.tensor_batching;
  batch.tracer = m.state->tracer;
  size_t cap = static_cast<size_t>(m.state->policy.max_batch_size);
  ExecCache* cache = m.state->cache.get();

  // Shape-bucket carving: a full run of one exact length packs with zero
  // padding and can run on that length's specialized variant, so prefer it
  // over a mixed front slice. The oldest request's length wins ties (its
  // expiry deadline governs this bucket), relative order within the carved
  // length is preserved, and a bucket with no full same-length run
  // dispatches mixed — on a diffuse workload this path degenerates to plain
  // bucketed batching. An expired bucket carves only the oldest request's
  // length, so its batch always takes the expired front request: carving
  // another length would leave the front waiting for as long as that
  // length keeps refilling.
  if (cache != nullptr && batch.tensor_batching && pending.size() >= 2) {
    std::map<int64_t, size_t> counts;
    for (const Request& request : pending) counts[request.length_hint]++;
    int64_t carve = -1;
    if (counts[pending.front().length_hint] >= cap) {
      carve = pending.front().length_hint;
    } else if (!expired) {
      for (const auto& [length, count] : counts) {
        if (count >= cap) {
          carve = length;
          break;
        }
      }
    }
    if (carve >= 0) {
      batch.requests.reserve(cap);
      for (auto it = pending.begin();
           it != pending.end() && batch.requests.size() < cap;) {
        if (it->length_hint == carve) {
          batch.requests.push_back(std::move(*it));
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  if (batch.requests.empty()) {
    size_t take = std::min(pending.size(), cap);
    batch.requests.reserve(take);
    for (size_t i = 0; i < take; ++i) {
      batch.requests.push_back(std::move(pending.front()));
      pending.pop_front();
    }
  }

  // Any homogeneous batch — carved or a same-length leftover — may run on a
  // cached variant; the lookup also counts the observation that drives
  // background compilation, so the generic executable serves the bucket
  // until its variant is ready.
  if (cache != nullptr && batch.tensor_batching) {
    int64_t length = batch.requests.front().length_hint;
    bool homogeneous = true;
    for (const Request& request : batch.requests) {
      if (request.length_hint != length) {
        homogeneous = false;
        break;
      }
    }
    if (homogeneous) {
      auto variant =
          cache->Lookup(length, static_cast<int64_t>(batch.requests.size()));
      if (variant != nullptr) batch.exec = std::move(variant);
    }
  }

  m.state->stats.RecordBatch(batch.requests.size());
  return batch;
}

template <typename Eligible>
std::optional<Batch> BatchScheduler::FlushOldest(Eligible eligible) {
  PerModel* pick = nullptr;
  int pick_bucket = -1;
  auto oldest = Clock::time_point::max();
  for (PerModel& m : per_model_) {
    for (size_t b = 0; b < m.pending.size(); ++b) {
      if (m.pending[b].empty()) continue;
      Clock::time_point front = m.pending[b].front().enqueue_time;
      if (front < oldest && eligible(m, front)) {
        oldest = front;
        pick = &m;
        pick_bucket = static_cast<int>(b);
      }
    }
  }
  if (pick == nullptr) return std::nullopt;
  return Flush(*pick, pick_bucket, /*expired=*/true);
}

std::optional<Batch> BatchScheduler::PickExpired(Clock::time_point now) {
  return FlushOldest([now](const PerModel& m, Clock::time_point front) {
    return front + std::chrono::microseconds(m.state->policy.max_wait_micros) <=
           now;
  });
}

std::optional<Batch> BatchScheduler::PickCapped() {
  return FlushOldest([](const PerModel& m, Clock::time_point) {
    return m.Backlog() >= m.state->queue->capacity();
  });
}

std::optional<Batch> BatchScheduler::PickFull() {
  // One fresh visit per model suffices: a model with a full bucket always
  // dispatches on a fresh visit, so n + 1 steps cover the cursor's
  // possibly-spent current visit plus every model once.
  const size_t n = per_model_.size();
  for (size_t k = 0; k <= n; ++k) {
    PerModel& m = per_model_[rr_];
    int full = m.FullBucket();
    if (full < 0) {
      m.deficit = 0;  // classic DRR: nothing ready forfeits the credit
    } else if (m.deficit > 0) {
      Batch batch = Flush(m, full, /*expired=*/false);
      m.deficit -= static_cast<int64_t>(batch.requests.size());
      return batch;
    }
    rr_ = (rr_ + 1) % n;
    per_model_[rr_].deficit += Quantum(per_model_[rr_]);
  }
  return std::nullopt;
}

std::optional<Batch> BatchScheduler::Next() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    // Capture the notifier version BEFORE draining: a push that lands after
    // this line bumps the version, so the wait below returns immediately
    // instead of losing the wakeup. Closed queues cannot refill, so reading
    // closed() before the drain makes "drained empty" final.
    uint64_t seen = notifier_.version();
    bool closed = AllQueuesClosed();
    bool capped = Drain();
    // After Close every pending bucket counts as expired: leftovers are
    // handed out whatever their size, oldest first.
    auto now = closed ? Clock::time_point::max() : Clock::now();
    std::optional<Batch> batch = PickExpired(now);
    if (!batch) batch = PickFull();
    if (!batch) batch = PickCapped();
    if (batch) {
      bool left = capped || AnyPending();
      lock.unlock();
      // A push wakes one sleeper, so pass the wake-up on when work is left:
      // the next worker takes it or sleeps until its deadline.
      if (left) notifier_.Notify();
      return batch;
    }
    // Closed and nothing picked means nothing is pending, so the drain
    // emptied every queue (the backlog bound cannot bind on an empty
    // backlog): end of stream.
    if (closed) return std::nullopt;
    Clock::time_point deadline = NextDeadline();
    lock.unlock();
    notifier_.WaitUntil(seen, deadline);
    lock.lock();
  }
}

}  // namespace serve
}  // namespace nimble
