#include "src/serve/stats.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/support/logging.h"

namespace nimble {
namespace serve {

std::string StatsSnapshot::ToString() const {
  std::ostringstream os;
  os << completed << " completed";
  if (failed > 0) os << ", " << failed << " failed";
  if (rejected > 0) os << ", " << rejected << " rejected";
  os << " in " << elapsed_seconds << " s (" << throughput_rps << " req/s); "
     << "latency us mean " << mean_latency_us << " p50 " << p50_latency_us
     << " p95 " << p95_latency_us << " p99 " << p99_latency_us << " max "
     << max_latency_us << "; mean batch " << mean_batch_size;
  if (mean_queue_wait_us > 0.0 || mean_exec_us > 0.0) {
    os << "; queue-wait mean " << mean_queue_wait_us << " us, exec mean "
       << mean_exec_us << " us";
  }
  if (packed_batches > 0) {
    os << "; packed " << packed_batches << "/" << batches
       << " batches, padding waste " << padding_waste * 100.0 << "%";
  }
  if (variant_batches > 0) {
    os << "; " << variant_batches << " on cached variants (waste "
       << variant_padding_waste * 100.0 << "%)";
  }
  if (cache_hits + cache_misses > 0) {
    os << "; exec cache " << cache_hits << "/" << (cache_hits + cache_misses)
       << " hits, " << cache_evictions << " evictions, " << variant_compiles
       << " compiles";
  }
  if (continuous_steps > 0) {
    os << "; continuous " << splices << " splices over " << continuous_steps
       << " steps, mean occupancy " << mean_slot_occupancy << "/"
       << slot_count << " (idle " << idle_slot_fraction * 100.0 << "%)";
  }
  return os.str();
}

namespace {

/// One counter series of a model: its family, an optional second label
/// beside {model=...}, and the family's help text.
struct CounterSeries {
  const char* family;
  const char* label;
  const char* value;
  const char* help;
};

constexpr const char* kRequestsHelp = "Finished requests by outcome";
constexpr const char* kCacheHelp = "Shape-bucket executable cache events";

// Indexed by ServeStats::CounterId.
constexpr CounterSeries kCounterSeries[ServeStats::kNumCounters] = {
    {"nimble_arrivals_total", nullptr, nullptr,
     "Requests admitted into the queue"},
    {"nimble_requests_total", "outcome", "completed", kRequestsHelp},
    {"nimble_requests_total", "outcome", "failed", kRequestsHelp},
    {"nimble_requests_total", "outcome", "rejected", kRequestsHelp},
    {"nimble_packed_batches_total", nullptr, nullptr,
     "Batches run as one packed tensor invocation"},
    {"nimble_padded_elements_total", nullptr, nullptr,
     "Zero-padding elements in packed batch inputs (padding waste)"},
    {"nimble_packed_elements_total", nullptr, nullptr,
     "Total packed batch input elements"},
    {"nimble_variant_batches_total", nullptr, nullptr,
     "Packed batches run on a length-specialized cached variant"},
    {"nimble_variant_padded_elements_total", nullptr, nullptr,
     "Zero-padding elements in variant batch inputs"},
    {"nimble_variant_elements_total", nullptr, nullptr,
     "Total variant batch input elements"},
    {"nimble_exec_cache_events_total", "event", "hit", kCacheHelp},
    {"nimble_exec_cache_events_total", "event", "miss", kCacheHelp},
    {"nimble_exec_cache_events_total", "event", "evict", kCacheHelp},
    {"nimble_exec_cache_events_total", "event", "compile", kCacheHelp},
    {"nimble_tune_events_total", nullptr, nullptr,
     "Fresh dense-config tuning measurements (tune-once-per-shape)"},
    {"nimble_splices_total", nullptr, nullptr,
     "Requests spliced into the persistent batch (continuous batching)"},
    {"nimble_steps_total", nullptr, nullptr,
     "Step-twin invocations over the persistent batch"},
    {"nimble_idle_row_steps_total", nullptr, nullptr,
     "Row-steps computed by slots holding no request (continuous waste)"},
};

struct HistogramSeries {
  const char* family;
  bool latency;  // LatencyBoundsUs; BatchSizeBounds otherwise
  const char* help;
};

// Indexed by ServeStats::HistogramId.
constexpr HistogramSeries kHistogramSeries[ServeStats::kNumHistograms] = {
    {"nimble_e2e_latency_us", true,
     "End-to-end request latency (admission to result), microseconds"},
    {"nimble_queue_wait_us", true,
     "Queue-wait half of the latency split, microseconds"},
    {"nimble_exec_us", true,
     "Execution half of the latency split, microseconds"},
    {"nimble_batch_size", false, "Requests per dispatched batch (occupancy)"},
    {"nimble_step_duration_us", true,
     "Wall-clock duration of one step-twin invocation, microseconds"},
    {"nimble_splice_wait_us", true,
     "Queued-behind-splice wait (enqueue to splice), microseconds"},
    {"nimble_active_rows", false,
     "Live rows per step of the persistent batch (occupancy)"},
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

ServeStats::ServeStats(obs::MetricRegistry& registry,
                       const std::string& model) {
  const obs::LabelSet m = {{"model", model}};
  for (size_t i = 0; i < kNumCounters; ++i) {
    const CounterSeries& series = kCounterSeries[i];
    obs::LabelSet labels = m;
    if (series.label != nullptr) labels.emplace_back(series.label, series.value);
    counters_[i] = registry.GetCounter(series.family, labels, series.help);
  }
  for (size_t i = 0; i < kNumHistograms; ++i) {
    const HistogramSeries& series = kHistogramSeries[i];
    histograms_[i] = registry.GetHistogram(
        series.family, m,
        series.latency ? obs::Histogram::LatencyBoundsUs()
                       : obs::Histogram::BatchSizeBounds(),
        series.help);
  }
  slots_ = registry.GetGauge(
      "nimble_slots", m,
      "Rows of the persistent batch (0 when the model is not continuous)");
  slot_occupancy_ = registry.GetGauge(
      "nimble_slot_occupancy", m,
      "Live slots of the persistent batch (0 once drained)");
}

void ServeStats::RecordEnqueue(Clock::time_point when) {
  counters_[kArrivals]->Increment();
  // Only the first arrival pins the window; later ones skip the CAS.
  if (first_enqueue_.load(std::memory_order_relaxed) != 0) return;
  Clock::rep unset = 0;
  first_enqueue_.compare_exchange_strong(unset,
                                         when.time_since_epoch().count(),
                                         std::memory_order_relaxed);
}

const char* ServeStats::BatchHistLabel(size_t i) {
  static const char* kLabels[kBatchHistBuckets] = {"1",    "2",     "3-4",
                                                   "5-8",  "9-16",  "17-32",
                                                   "33+"};
  NIMBLE_CHECK_LT(i, kBatchHistBuckets);
  return kLabels[i];
}

void ServeStats::RecordPackedBatch(int64_t padded, int64_t total,
                                   bool on_variant) {
  counters_[kPackedBatches]->Increment();
  counters_[kPaddedElements]->Increment(padded);
  counters_[kPackedElements]->Increment(total);
  if (on_variant) {
    counters_[kVariantBatches]->Increment();
    counters_[kVariantPaddedElements]->Increment(padded);
    counters_[kVariantElements]->Increment(total);
  }
}

void ServeStats::RecordSplice(double wait_us) {
  counters_[kSplices]->Increment();
  histograms_[kSpliceWait]->Observe(wait_us);
}

void ServeStats::RecordStep(int64_t occupied, int64_t num_slots,
                            double duration_us) {
  counters_[kSteps]->Increment();
  if (num_slots > occupied) counters_[kIdleRowSteps]->Increment(num_slots - occupied);
  slots_->Set(static_cast<double>(num_slots));
  histograms_[kStepDuration]->Observe(duration_us);
  histograms_[kActiveRows]->Observe(static_cast<double>(occupied));
}

void ServeStats::RecordCompletion(double latency_us, double queue_wait_us,
                                  double exec_us, bool ok,
                                  Clock::time_point when) {
  counters_[ok ? kCompleted : kFailed]->Increment();
  histograms_[kE2eLatency]->Observe(latency_us);
  histograms_[kQueueWait]->Observe(queue_wait_us);
  histograms_[kExec]->Observe(exec_us);
  Clock::rep now = when.time_since_epoch().count();
  Clock::rep last = last_completion_.load(std::memory_order_relaxed);
  while (now > last && !last_completion_.compare_exchange_weak(
                           last, now, std::memory_order_relaxed)) {
  }
}

/// Raw values of one or more ServeStats' instruments, read once. Add()
/// folds another reading in exactly; ToSnapshot() derives the ratios,
/// means and percentiles.
struct ServeStats::Reading {
  std::array<int64_t, kNumCounters> counters{};
  std::array<obs::HistogramSnapshot, kNumHistograms> histograms;
  int64_t slots = 0;
  int64_t slot_occupancy = 0;
  Clock::time_point first_enqueue{};  // {} when nothing arrived
  Clock::time_point last_completion{};

  void Add(const Reading& other);
  StatsSnapshot ToSnapshot() const;
};

ServeStats::Reading ServeStats::Read() const {
  Reading r;
  for (size_t i = 0; i < kNumCounters; ++i) {
    r.counters[i] = counters_[i]->Value();
  }
  for (size_t i = 0; i < kNumHistograms; ++i) {
    r.histograms[i] = histograms_[i]->Snapshot();
  }
  r.slots = std::llround(slots_->Value());
  r.slot_occupancy = std::llround(slot_occupancy_->Value());
  r.first_enqueue = Clock::time_point(
      Clock::duration(first_enqueue_.load(std::memory_order_relaxed)));
  r.last_completion = Clock::time_point(
      Clock::duration(last_completion_.load(std::memory_order_relaxed)));
  return r;
}

void ServeStats::Reading::Add(const Reading& other) {
  for (size_t i = 0; i < kNumCounters; ++i) counters[i] += other.counters[i];
  for (size_t i = 0; i < kNumHistograms; ++i) {
    histograms[i].Merge(other.histograms[i]);
  }
  slots += other.slots;
  slot_occupancy += other.slot_occupancy;
  if (other.first_enqueue != Clock::time_point{} &&
      (first_enqueue == Clock::time_point{} ||
       other.first_enqueue < first_enqueue)) {
    first_enqueue = other.first_enqueue;
  }
  last_completion = std::max(last_completion, other.last_completion);
}

StatsSnapshot ServeStats::Reading::ToSnapshot() const {
  const obs::HistogramSnapshot& e2e = histograms[kE2eLatency];
  const obs::HistogramSnapshot& batch = histograms[kBatchSize];
  StatsSnapshot s;
  s.completed = counters[kCompleted];
  s.failed = counters[kFailed];
  s.rejected = counters[kRejected];
  s.arrivals = counters[kArrivals];
  s.batches = batch.count;
  s.mean_batch_size = batch.Mean();
  // nimble_batch_size buckets are le 1, 2, 4, ..., 64, +Inf; the last two
  // fold into "33+".
  s.batch_size_hist.assign(ServeStats::kBatchHistBuckets, 0);
  for (size_t i = 0; i < batch.counts.size(); ++i) {
    s.batch_size_hist[std::min(i, ServeStats::kBatchHistBuckets - 1)] +=
        batch.counts[i];
  }
  s.packed_batches = counters[kPackedBatches];
  s.padded_elements = counters[kPaddedElements];
  s.packed_total_elements = counters[kPackedElements];
  s.padding_waste = Ratio(s.padded_elements, s.packed_total_elements);
  s.variant_batches = counters[kVariantBatches];
  s.variant_padded_elements = counters[kVariantPaddedElements];
  s.variant_total_elements = counters[kVariantElements];
  s.variant_padding_waste =
      Ratio(s.variant_padded_elements, s.variant_total_elements);
  s.cache_hits = counters[kCacheHits];
  s.cache_misses = counters[kCacheMisses];
  s.cache_evictions = counters[kCacheEvictions];
  s.variant_compiles = counters[kVariantCompiles];
  s.tune_events = counters[kTuneEvents];
  s.cache_hit_rate = Ratio(s.cache_hits, s.cache_hits + s.cache_misses);
  s.splices = counters[kSplices];
  s.continuous_steps = counters[kSteps];
  s.continuous_idle_row_steps = counters[kIdleRowSteps];
  // Live row steps are the active-row histogram's (integer) sum.
  int64_t live_row_steps = std::llround(histograms[kActiveRows].sum);
  s.continuous_row_steps = live_row_steps + s.continuous_idle_row_steps;
  s.slot_count = slots;
  s.slot_occupancy = slot_occupancy;
  s.mean_slot_occupancy = Ratio(live_row_steps, s.continuous_steps);
  s.idle_slot_fraction =
      Ratio(s.continuous_idle_row_steps, s.continuous_row_steps);
  s.mean_step_duration_us = histograms[kStepDuration].Mean();
  s.mean_splice_wait_us = histograms[kSpliceWait].Mean();
  if (first_enqueue != Clock::time_point{} && last_completion > first_enqueue) {
    s.elapsed_seconds =
        std::chrono::duration<double>(last_completion - first_enqueue).count();
    s.throughput_rps = Ratio(s.completed, s.elapsed_seconds);
  }
  s.mean_latency_us = e2e.Mean();
  s.p50_latency_us = e2e.Quantile(50.0);
  s.p95_latency_us = e2e.Quantile(95.0);
  s.p99_latency_us = e2e.Quantile(99.0);
  s.max_latency_us = e2e.max;
  s.mean_queue_wait_us = histograms[kQueueWait].Mean();
  s.max_queue_wait_us = histograms[kQueueWait].max;
  s.mean_exec_us = histograms[kExec].Mean();
  return s;
}

StatsSnapshot ServeStats::Snapshot() const { return Read().ToSnapshot(); }

StatsSnapshot ServeStats::SnapshotSum(
    const std::vector<const ServeStats*>& parts,
    std::vector<StatsSnapshot>* each) {
  Reading total;
  for (const ServeStats* part : parts) {
    Reading reading = part->Read();
    if (each != nullptr) each->push_back(reading.ToSnapshot());
    total.Add(reading);
  }
  return total.ToSnapshot();
}

}  // namespace serve
}  // namespace nimble
