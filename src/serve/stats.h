// Serving metrics: throughput and latency percentiles.
//
// Workers record end-to-end request latency (enqueue -> result ready); the
// scheduler records batch sizes; the server records rejections. Snapshot()
// folds everything into the numbers an operator dashboards: requests/sec,
// p50/p95/p99 latency, mean batch occupancy.
//
// Consistency contract (the /stats and /metrics scrapes):
//   - One store. A ServeStats is a bundle of pointers to its model's
//     series in an obs::MetricRegistry ({model="<name>"}); every Record*
//     is a lock-free update of those instruments and nothing else, so
//     /stats (Snapshot) is a view of exactly the numbers /metrics renders.
//     The only state kept beside the registry is the first-enqueue and
//     last-completion instants (one atomic each, so no Record* takes a
//     lock), which bound elapsed_seconds.
//   - Exactness. Counters, means (histogram sum / count) and maxima
//     (per-cell max) are exact. Percentiles are estimates from the latency
//     histogram's log-linear buckets: never below the exact nearest-rank
//     value and at most 12.5% above it.
//   - The fleet view is a sum. A multi-model Server records each event
//     once, into its model's ServeStats; Server::stats() and
//     SnapshotAll().aggregate are SnapshotSum() over the models — counters
//     and histogram buckets add exactly, so the aggregate equals the sum
//     of the per-model snapshots taken in the same pass, field by field.
//   - While recording continues, each field is monotone but fields are
//     read one instrument at a time, so two fields of one snapshot may
//     disagree by events in flight (e.g. completed momentarily ahead of
//     arrivals). Once serving has drained, every identity holds exactly.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/serve/request.h"

namespace nimble {
namespace serve {

struct StatsSnapshot {
  int64_t completed = 0;
  int64_t failed = 0;    // promise fulfilled with an exception
  int64_t rejected = 0;  // shed at admission (full queue, memory pressure)
  /// Requests admitted (RecordEnqueue calls); the arrival rate is the
  /// rate of nimble_arrivals_total.
  int64_t arrivals = 0;
  int64_t batches = 0;
  double mean_batch_size = 0.0;
  /// Batch-size histogram: dispatched batches bucketed by request count
  /// (bucket labels via ServeStats::BatchHistLabel). Sums to `batches`.
  std::vector<int64_t> batch_size_hist;
  /// Tensor-batching accounting (src/batch/): batches that ran as one packed
  /// invocation, and the padding-waste ratio of their packed inputs
  /// (padded zero elements / total packed elements).
  int64_t packed_batches = 0;
  int64_t padded_elements = 0;
  int64_t packed_total_elements = 0;
  double padding_waste = 0.0;  // padded_elements / packed_total_elements
  /// Executable-cache accounting (src/serve/exec_cache.h): packed batches
  /// that ran on a bucket-specialized variant, their padding (zero by
  /// construction — asserted by CI), and the cache's hit/miss/evict/compile
  /// counters.
  int64_t variant_batches = 0;
  int64_t variant_padded_elements = 0;
  int64_t variant_total_elements = 0;
  double variant_padding_waste = 0.0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t cache_evictions = 0;
  int64_t variant_compiles = 0;
  /// Fresh dense-tuning measurements run by the background compile thread
  /// (memoized TuneCache hits do not count — §4.5 tune-once-per-shape).
  int64_t tune_events = 0;
  double cache_hit_rate = 0.0;  // hits / (hits + misses)
  /// Continuous (iteration-level) batching accounting (src/batch/
  /// step_runner.h). A "row step" is one slot for one step of the
  /// persistent batch; idle row steps are slots that computed while holding
  /// no request — the ONLY waste on this path, reported separately from
  /// padding_waste because structural packing padding is zero by
  /// construction (no slot ever pads to another slot's length).
  int64_t splices = 0;            // requests spliced into a slot
  int64_t continuous_steps = 0;   // step-function invocations
  int64_t continuous_row_steps = 0;       // steps * slots
  int64_t continuous_idle_row_steps = 0;  // row steps with no live request
  int64_t slot_count = 0;      // configured slots (0 = model not continuous)
  int64_t slot_occupancy = 0;  // live slots now (after the latest retires)
  double mean_slot_occupancy = 0.0;  // live row steps / steps
  double idle_slot_fraction = 0.0;   // idle row steps / row steps
  /// Step-level timing (recorded by the runner per step / per splice):
  /// mean wall-clock duration of a step-twin invocation, and the mean
  /// queued-behind-splice wait (enqueue -> splice) of spliced requests.
  double mean_step_duration_us = 0.0;
  double mean_splice_wait_us = 0.0;
  double elapsed_seconds = 0.0;   // first enqueue -> last completion
  double throughput_rps = 0.0;    // completed / elapsed_seconds
  double mean_latency_us = 0.0;
  double p50_latency_us = 0.0;
  double p95_latency_us = 0.0;
  double p99_latency_us = 0.0;
  double max_latency_us = 0.0;
  /// End-to-end latency split: queue wait (admission -> a pool worker picks
  /// the batch up; includes scheduler bucketing and pool-queue time) vs
  /// execution (worker pickup -> promise fulfilled). The two means sum to
  /// mean_latency_us.
  double mean_queue_wait_us = 0.0;
  double max_queue_wait_us = 0.0;
  double mean_exec_us = 0.0;

  std::string ToString() const;
};

class ServeStats {
 public:
  /// Registers `model`'s series in `registry` — or finds them, when the
  /// registry already holds them (two servers sharing a registry and a
  /// model name share its stats). `registry` must outlive this object.
  ServeStats(obs::MetricRegistry& registry, const std::string& model);

  /// Called by the queue producer side; counts the arrival and pins the
  /// start of the measurement window at the first enqueue. Lock-free.
  void RecordEnqueue(Clock::time_point when);

  void RecordRejected() { counters_[kRejected]->Increment(); }

  /// One batch dispatched to the pool with `size` requests.
  void RecordBatch(size_t size) {
    histograms_[kBatchSize]->Observe(static_cast<double>(size));
  }

  /// One batch executed as a single packed tensor invocation; `padded` of
  /// the `total` packed input elements were zero padding. `on_variant`:
  /// the batch ran on a bucket-specialized executable variant.
  void RecordPackedBatch(int64_t padded, int64_t total,
                         bool on_variant = false);

  // Executable-cache events (recorded by serve::ExecCache).
  void RecordCacheHit() { counters_[kCacheHits]->Increment(); }
  void RecordCacheMiss() { counters_[kCacheMisses]->Increment(); }
  void RecordCacheEviction() { counters_[kCacheEvictions]->Increment(); }
  void RecordVariantCompile() { counters_[kVariantCompiles]->Increment(); }
  void RecordTuneEvent() { counters_[kTuneEvents]->Increment(); }

  // Continuous-batching events (recorded by batch::StepRunner).
  /// One request spliced into a slot of the persistent batch. `wait_us` is
  /// the queued-behind-splice wait (enqueue -> splice); 0 when unknown.
  void RecordSplice(double wait_us = 0.0);
  /// One step-function invocation over `num_slots` slots of which
  /// `occupied` held live requests, taking `duration_us` wall-clock
  /// (gather + invoke + retire scan; 0 when unmeasured).
  void RecordStep(int64_t occupied, int64_t num_slots,
                  double duration_us = 0.0);
  /// The persistent batch now holds `live` requests (after a splice or a
  /// step's retires), so a drained runner reads 0.
  void SetSlotOccupancy(int64_t live) {
    slot_occupancy_->Set(static_cast<double>(live));
  }

  /// One request finished (promise fulfilled): `latency_us` end to end,
  /// split into `queue_wait_us` (admission -> worker pickup) + `exec_us`
  /// (pickup -> fulfilled). `ok` is false when the VM threw.
  void RecordCompletion(double latency_us, double queue_wait_us,
                        double exec_us, bool ok, Clock::time_point when);

  /// Reads every instrument once; safe at any time from any thread.
  StatsSnapshot Snapshot() const;

  /// The sum of `parts`, each read exactly once: counters, histogram
  /// buckets, slots and occupied slots add; maxima and the measurement
  /// window take the widest. When `each` is non-null it receives every
  /// part's own snapshot from the same reading, so the sum matches them
  /// field for field.
  static StatsSnapshot SnapshotSum(const std::vector<const ServeStats*>& parts,
                                   std::vector<StatsSnapshot>* each = nullptr);

  /// Batch-size histogram buckets: 1, 2, 3-4, 5-8, 9-16, 17-32, 33+ (the
  /// power-of-two nimble_batch_size buckets, with 33-64 and +Inf folded).
  static constexpr size_t kBatchHistBuckets = 7;
  /// Label of histogram bucket `i` (e.g. "3-4"); for dashboards/tests.
  static const char* BatchHistLabel(size_t i);

  /// Instruments, indexed for the registration table and the reading in
  /// stats.cc.
  enum CounterId : size_t {
    kArrivals,
    kCompleted,
    kFailed,
    kRejected,
    kPackedBatches,
    kPaddedElements,
    kPackedElements,
    kVariantBatches,
    kVariantPaddedElements,
    kVariantElements,
    kCacheHits,
    kCacheMisses,
    kCacheEvictions,
    kVariantCompiles,
    kTuneEvents,
    kSplices,
    kSteps,
    kIdleRowSteps,
    kNumCounters
  };
  enum HistogramId : size_t {
    kE2eLatency,
    kQueueWait,
    kExec,
    kBatchSize,
    kStepDuration,
    kSpliceWait,
    kActiveRows,
    kNumHistograms
  };

 private:
  struct Reading;
  Reading Read() const;

  std::array<obs::Counter*, kNumCounters> counters_{};
  std::array<obs::Histogram*, kNumHistograms> histograms_{};
  obs::Gauge* slots_ = nullptr;
  obs::Gauge* slot_occupancy_ = nullptr;

  /// First enqueue instant (Clock ticks; 0 until the first arrival), set
  /// once by a relaxed CAS.
  std::atomic<Clock::rep> first_enqueue_{0};
  /// Latest completion instant (Clock ticks), raised by a relaxed CAS.
  std::atomic<Clock::rep> last_completion_{0};
};

}  // namespace serve
}  // namespace nimble
