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

bool BatchScheduler::PerModel::HasFullBucket() const {
  auto full = static_cast<size_t>(state->policy.max_batch_size);
  for (const auto& bucket : pending) {
    if (bucket.size() >= full) return true;
  }
  return false;
}

BatchScheduler::BatchScheduler(std::vector<ModelState*> models, VMPool* pool)
    : pool_(pool) {
  NIMBLE_CHECK(pool_ != nullptr);
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
}

BatchScheduler::~BatchScheduler() {
  // The loop only exits once every queue is closed and drained; close here
  // so destroying a started scheduler never deadlocks in Join (idempotent —
  // Server::Shutdown has usually closed the queues already).
  for (PerModel& m : per_model_) m.state->queue->Close();
  Join();
}

void BatchScheduler::Start() {
  NIMBLE_CHECK(!thread_.joinable()) << "scheduler already started";
  thread_ = std::thread([this] { Loop(); });
}

void BatchScheduler::Join() {
  if (thread_.joinable()) thread_.join();
}

int64_t BatchScheduler::Quantum(const PerModel& m) const {
  return static_cast<int64_t>(m.state->weight) *
         static_cast<int64_t>(m.state->policy.max_batch_size);
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

bool BatchScheduler::AllQueuesClosed() const {
  for (const PerModel& m : per_model_) {
    if (!m.state->queue->closed()) return false;
  }
  return true;
}

void BatchScheduler::Drain() {
  for (PerModel& m : per_model_) {
    while (auto request = m.state->queue->TryPop()) {
      int bucket = m.state->policy.BucketOf(request->length_hint);
      m.pending[static_cast<size_t>(bucket)].push_back(std::move(*request));
    }
  }
}

int64_t BatchScheduler::Flush(PerModel& m, int bucket) {
  auto& pending = m.pending[static_cast<size_t>(bucket)];
  if (pending.empty()) return 0;
  Batch batch;
  batch.model = m.state->index;
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
  // dispatches mixed exactly as before — on a diffuse workload this path
  // degenerates to PR 3 behavior.
  if (cache != nullptr && batch.tensor_batching && pending.size() >= 2) {
    std::map<int64_t, size_t> counts;
    for (const Request& request : pending) counts[request.length_hint]++;
    int64_t carve = -1;
    if (counts[pending.front().length_hint] >= cap) {
      carve = pending.front().length_hint;
    } else {
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

  // Scheduler-dispatch stamp: splits each trace's queue span into
  // admission-queue time (enqueue -> sched) and pool-queue time (sched ->
  // worker pickup) for anyone reading raw records; one clock read covers
  // the whole batch.
  if (batch.tracer != nullptr && batch.tracer->enabled()) {
    auto now = Clock::now();
    for (Request& request : batch.requests) {
      if (request.trace.enabled) request.trace.sched = now;
    }
  }

  int64_t take = static_cast<int64_t>(batch.requests.size());
  m.state->stats.RecordBatch(batch.requests.size());
  pool_->Submit(std::move(batch));  // blocks under pool backpressure
  return take;
}

bool BatchScheduler::DispatchRound() {
  const size_t n = per_model_.size();
  bool dispatched = false;
  for (size_t k = 0; k < n; ++k) {
    PerModel& m = per_model_[(rr_ + k) % n];
    if (!m.HasFullBucket()) {
      m.deficit = 0;  // classic DRR: nothing ready forfeits the credit
      continue;
    }
    m.deficit += Quantum(m);
    while (m.deficit > 0 && m.HasFullBucket()) {
      auto full = static_cast<size_t>(m.state->policy.max_batch_size);
      for (size_t b = 0; b < m.pending.size(); ++b) {
        if (m.pending[b].size() >= full) {
          m.deficit -= Flush(m, static_cast<int>(b));
          dispatched = true;
          break;
        }
      }
    }
  }
  rr_ = (rr_ + 1) % n;
  return dispatched;
}

bool BatchScheduler::FlushExpired(Clock::time_point now) {
  const size_t n = per_model_.size();
  bool dispatched = false;
  for (size_t k = 0; k < n; ++k) {
    PerModel& m = per_model_[(rr_ + k) % n];
    auto max_wait = std::chrono::microseconds(m.state->policy.max_wait_micros);
    for (size_t b = 0; b < m.pending.size(); ++b) {
      while (!m.pending[b].empty() &&
             m.pending[b].front().enqueue_time + max_wait <= now) {
        Flush(m, static_cast<int>(b));
        dispatched = true;
      }
    }
  }
  return dispatched;
}

void BatchScheduler::FlushAll() {
  for (PerModel& m : per_model_) {
    for (size_t b = 0; b < m.pending.size(); ++b) {
      while (!m.pending[b].empty()) Flush(m, static_cast<int>(b));
    }
  }
}

void BatchScheduler::Loop() {
  while (true) {
    // Capture the notifier version BEFORE draining: a push that lands after
    // this line bumps the version, so the wait below returns immediately
    // instead of losing the wakeup.
    uint64_t seen = notifier_.version();
    // Keep rotating DRR rounds while work is dispatchable, re-draining
    // between rounds: flushes block under pool backpressure, and requests
    // admitted meanwhile must join the rotation, not wait out a backlog.
    bool progress = true;
    while (progress) {
      Drain();
      progress = DispatchRound();
      if (FlushExpired(Clock::now())) progress = true;
    }
    if (AllQueuesClosed()) {
      // Closed queues cannot refill; one final drain empties them for good,
      // then everything still pending is flushed regardless of batch size.
      Drain();
      while (DispatchRound()) {
      }
      FlushAll();
      return;
    }
    notifier_.WaitUntil(seen, NextDeadline());
  }
}

}  // namespace serve
}  // namespace nimble
