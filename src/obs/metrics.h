// Low-overhead metrics plane: sharded counters, gauges, and log-bucketed
// histograms behind a Prometheus-rendering registry.
//
// The serving hot path (admission, scheduler, pool workers) records into
// instruments that shard their state across cache-line-padded per-thread
// cells: an increment is one relaxed atomic add on the calling thread's
// cell, so recording never takes a mutex and concurrent recorders never
// bounce a shared cache line (the ROADMAP's "shard counters per worker
// with merge-on-read" item). Reads — the /metrics scrape — merge the cells
// on demand; they are monotone but may miss increments that land while the
// merge is in flight, which is exactly the consistency Prometheus expects
// of a scrape.
//
// Layering: obs sits below serve/ and net/ (it depends only on support/),
// so every subsystem can record without cycles. A MetricRegistry owns its
// instruments; Get* returns a stable pointer that lives as long as the
// registry, and returns the SAME instrument for the same (name, labels)
// pair — callers cache the pointer at setup time and record through it
// lock-free ever after. Registration takes the registry mutex and is meant
// for startup, not the hot path.
//
// Naming scheme (rendered at GET /metrics): families are prefixed
// `nimble_`, counters end in `_total`, and latency histograms carry a
// `_us` unit suffix. Latency histograms use a log-linear layout: every
// power-of-two octave from 1 us to 2^26 us (~67 s) is split into 8 equal
// sub-buckets, so a bucket's upper bound overstates any value in it by at
// most 12.5%, and the bucket of a value is computed from its binary
// exponent instead of searched. Histograms with identical bounds merge
// exactly. See docs/ARCHITECTURE.md §Observability.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace nimble {
namespace obs {

/// Number of per-thread cells each instrument shards across. Threads are
/// assigned cells round-robin at first use; more threads than cells simply
/// share (the atomics stay correct, only the anti-contention property
/// degrades gracefully).
constexpr size_t kMetricShards = 16;

/// Stable per-thread shard index in [0, kMetricShards).
size_t ThreadShardIndex();

/// Monotone counter. Increment is one relaxed fetch_add on the calling
/// thread's cell; Value() merges all cells (monotone snapshot).
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    cells_[ThreadShardIndex()].v.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const {
    int64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Cell {
    std::atomic<int64_t> v{0};
  };
  std::array<Cell, kMetricShards> cells_{};
};

/// Last-writer-wins gauge (queue depth, memory pressure). Not sharded: gauges
/// are set, not accumulated, and the writers are cold paths.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Nearest-rank percentile of an unsorted sample (p in [0, 100]): the
/// smallest value with at least p% of the sample at or below it; 0 on an
/// empty sample. Histogram::Quantile estimates this same rank from buckets.
double NearestRankPercentile(std::vector<double> sample, double p);

/// A histogram's cells merged at one instant, as plain values. Snapshots of
/// histograms with identical bounds merge exactly: bucket counts, counts
/// and sums add, maxima take the larger.
struct HistogramSnapshot {
  std::vector<double> bounds;
  /// Per-bucket (not cumulative) counts, size bounds.size() + 1; the last
  /// entry is the +Inf bucket.
  std::vector<int64_t> counts;
  int64_t count = 0;  // sum of `counts`
  double sum = 0.0;
  double max = 0.0;  // exact; 0 when empty

  double Mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// Estimate of the nearest-rank p-th percentile: the upper bound of the
  /// bucket holding that rank, capped at the exact max. It never
  /// understates the exact value and overstates it by at most one bucket
  /// width (12.5% on the latency layout). 0 when empty.
  double Quantile(double p) const;
  /// Adds `other` in; an empty-bounds (default) snapshot adopts its
  /// layout. Bounds must otherwise match (checked).
  void Merge(const HistogramSnapshot& other);
};

/// Fixed-bucket histogram with sharded cells. Observe() is a relaxed add
/// into the calling thread's cell (bucket count and sum, plus a max that
/// only moves when a new maximum arrives); reads merge on demand. Bucket
/// upper bounds are fixed at construction and shared by every cell; the
/// merged per-bucket counts render as the cumulative `le` series
/// Prometheus expects.
class Histogram {
 public:
  /// `bounds` must be a LogLinearBounds layout (checked).
  explicit Histogram(std::vector<double> bounds);

  void Observe(double v);

  int64_t Count() const;
  double Sum() const;
  double Quantile(double p) const { return Snapshot().Quantile(p); }
  HistogramSnapshot Snapshot() const;
  /// Merged per-bucket counts, cumulative, size bounds().size() + 1 (the
  /// last entry is the +Inf bucket and equals Count()).
  std::vector<int64_t> CumulativeBuckets() const;
  const std::vector<double>& bounds() const { return bounds_; }

  /// 1, then `sub_buckets` equal steps through each of `octaves`
  /// power-of-two octaves: 2^k * (1 + j / sub_buckets) for j = 1..sub_buckets.
  /// `sub_buckets` must be a power of two, which keeps every bound exact
  /// and lets Observe find a value's bucket from its binary exponent.
  static std::vector<double> LogLinearBounds(size_t sub_buckets,
                                             size_t octaves);
  /// Default latency layout: LogLinearBounds(8, 26), 1us..~67s in 209
  /// bounds (plus +Inf), at most 12.5% relative bucket width.
  static std::vector<double> LatencyBoundsUs();
  /// Batch-occupancy layout: LogLinearBounds(1, 6), 1..64 in power-of-two
  /// buckets.
  static std::vector<double> BatchSizeBounds();

 private:
  struct alignas(64) Cell {
    /// One count per bound plus the +Inf overflow bucket.
    std::unique_ptr<std::atomic<int64_t>[]> counts;
    std::atomic<double> sum{0.0};
    std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  };

  size_t BucketOf(double v) const;

  std::vector<double> bounds_;
  size_t sub_buckets_ = 0;  // per octave, of the LogLinearBounds layout
  std::array<Cell, kMetricShards> cells_;
};

/// Label set of one series, e.g. {{"model", "lstm"}}. Keys are sorted at
/// registration so label order never splits a series.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

class MetricRegistry {
 public:
  /// Returns the counter registered under (name, labels), creating it on
  /// first use. The pointer is stable for the registry's lifetime. `help`
  /// is kept from the first registration of the family. Thread-safe (takes
  /// the registry mutex — cache the pointer, don't call per event).
  Counter* GetCounter(const std::string& name, const LabelSet& labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {},
                  const std::string& help = "");
  /// `bounds` must match the family's on every call (checked).
  Histogram* GetHistogram(const std::string& name, const LabelSet& labels,
                          std::vector<double> bounds,
                          const std::string& help = "");

  /// Prometheus text exposition (version 0.0.4) of every registered
  /// instrument: # HELP / # TYPE per family, merged values per series,
  /// cumulative `le` buckets plus _sum/_count for histograms.
  std::string RenderPrometheus() const;

  /// Escapes `\`, `"`, and newline for use inside a quoted label value.
  static std::string EscapeLabelValue(const std::string& value);

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Series {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::vector<double> bounds;  // histograms only
    /// Keyed by the rendered `{k="v",...}` label block (canonical: keys
    /// sorted), which doubles as the exposition output.
    std::map<std::string, Series> series;
  };

  Family& FindFamily(const std::string& name, Kind kind,
                     const std::string& help);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace obs
}  // namespace nimble
