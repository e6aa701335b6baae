#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "src/support/logging.h"

namespace nimble {
namespace obs {

size_t ThreadShardIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return shard;
}

double NearestRankPercentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  if (p <= 0.0) return sample.front();
  if (p >= 100.0) return sample.back();
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sample.size())));
  return sample[std::max<size_t>(rank, 1) - 1];
}

double HistogramSnapshot::Quantile(double p) const {
  if (count == 0) return 0.0;
  // Same rank as NearestRankPercentile; the answer is the rank's bucket.
  int64_t rank = static_cast<int64_t>(
      std::ceil(std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count)));
  rank = std::max<int64_t>(rank, 1);
  int64_t seen = 0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) return std::min(bounds[i], max);
  }
  return max;  // the +Inf bucket
}

void HistogramSnapshot::Merge(const HistogramSnapshot& other) {
  if (bounds.empty()) {
    *this = other;
    return;
  }
  NIMBLE_CHECK(bounds == other.bounds)
      << "merging histograms with different bucket layouts";
  for (size_t i = 0; i < counts.size(); ++i) counts[i] += other.counts[i];
  if (other.count > 0) max = count > 0 ? std::max(max, other.max) : other.max;
  count += other.count;
  sum += other.sum;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  // The layout's sub-bucket count is the number of bounds in (1, 2];
  // confirm the whole layout before trusting the exponent math.
  size_t sub = static_cast<size_t>(
      std::count_if(bounds_.begin(), bounds_.end(),
                    [](double b) { return b > 1.0 && b <= 2.0; }));
  NIMBLE_CHECK(sub > 0 && (sub & (sub - 1)) == 0 &&
               (bounds_.size() - 1) % sub == 0 &&
               bounds_ == LogLinearBounds(sub, (bounds_.size() - 1) / sub))
      << "histogram bounds must be a LogLinearBounds layout";
  sub_buckets_ = sub;
  for (Cell& cell : cells_) {
    cell.counts =
        std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      cell.counts[i].store(0, std::memory_order_relaxed);
    }
  }
}

size_t Histogram::BucketOf(double v) const {
  // First bound >= v; everything above the last bound lands in +Inf.
  if (!(v > 1.0)) return 0;
  if (v > bounds_.back()) return bounds_.size();
  // v = mantissa * 2^exp with mantissa in [0.5, 1): v lies in octave
  // exp - 1, at fraction 2 * mantissa - 1 of its width. Scaling by a power
  // of two is exact, so the ceiling is the first bound >= v.
  int exp = 0;
  double mantissa = std::frexp(v, &exp);
  double sub = static_cast<double>(sub_buckets_);
  return static_cast<size_t>(exp - 1) * sub_buckets_ +
         static_cast<size_t>(std::ceil((2.0 * mantissa - 1.0) * sub));
}

void Histogram::Observe(double v) {
  Cell& cell = cells_[ThreadShardIndex()];
  cell.counts[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
  // C++17 has no atomic<double>::fetch_add; the CAS loops below are
  // effectively free because each thread owns its cell.
  double sum = cell.sum.load(std::memory_order_relaxed);
  while (!cell.sum.compare_exchange_weak(sum, sum + v,
                                         std::memory_order_relaxed)) {
  }
  double max = cell.max.load(std::memory_order_relaxed);
  while (v > max && !cell.max.compare_exchange_weak(
                        max, v, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  double max = -std::numeric_limits<double>::infinity();
  for (const Cell& cell : cells_) {
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      snap.counts[i] += cell.counts[i].load(std::memory_order_relaxed);
    }
    snap.sum += cell.sum.load(std::memory_order_relaxed);
    max = std::max(max, cell.max.load(std::memory_order_relaxed));
  }
  for (int64_t c : snap.counts) snap.count += c;
  if (snap.count > 0) snap.max = max;
  return snap;
}

int64_t Histogram::Count() const { return CumulativeBuckets().back(); }

double Histogram::Sum() const {
  double total = 0.0;
  for (const Cell& cell : cells_) {
    total += cell.sum.load(std::memory_order_relaxed);
  }
  return total;
}

std::vector<int64_t> Histogram::CumulativeBuckets() const {
  std::vector<int64_t> merged(bounds_.size() + 1, 0);
  for (const Cell& cell : cells_) {
    for (size_t i = 0; i <= bounds_.size(); ++i) {
      merged[i] += cell.counts[i].load(std::memory_order_relaxed);
    }
  }
  for (size_t i = 1; i < merged.size(); ++i) merged[i] += merged[i - 1];
  return merged;
}

std::vector<double> Histogram::LogLinearBounds(size_t sub_buckets,
                                               size_t octaves) {
  NIMBLE_CHECK(sub_buckets > 0 && (sub_buckets & (sub_buckets - 1)) == 0)
      << "sub-buckets per octave must be a power of two";
  std::vector<double> bounds = {1.0};
  bounds.reserve(1 + sub_buckets * octaves);
  for (size_t k = 0; k < octaves; ++k) {
    for (size_t j = 1; j <= sub_buckets; ++j) {
      bounds.push_back(std::ldexp(
          1.0 + static_cast<double>(j) / static_cast<double>(sub_buckets),
          static_cast<int>(k)));
    }
  }
  return bounds;
}

std::vector<double> Histogram::LatencyBoundsUs() {
  return LogLinearBounds(8, 26);  // 1us .. ~67s
}

std::vector<double> Histogram::BatchSizeBounds() {
  return LogLinearBounds(1, 6);  // 1 .. 64
}

std::string MetricRegistry::EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {

/// Canonical `{k="v",...}` label block (keys sorted, values escaped);
/// empty labels render as the empty string.
std::string RenderLabels(const LabelSet& labels) {
  if (labels.empty()) return "";
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ",";
    out += sorted[i].first;
    out += "=\"";
    out += MetricRegistry::EscapeLabelValue(sorted[i].second);
    out += "\"";
  }
  out += "}";
  return out;
}

/// Inserts `extra` (e.g. `le="4"`) into a rendered label block.
std::string WithExtraLabel(const std::string& rendered,
                           const std::string& extra) {
  if (rendered.empty()) return "{" + extra + "}";
  std::string out = rendered;
  out.insert(out.size() - 1, "," + extra);
  return out;
}

/// Prometheus value formatting: integers print exactly, everything else
/// with enough digits to round-trip.
std::string FormatValue(double v) {
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

MetricRegistry::Family& MetricRegistry::FindFamily(const std::string& name,
                                                   Kind kind,
                                                   const std::string& help) {
  auto [it, inserted] = families_.try_emplace(name);
  Family& family = it->second;
  if (inserted) {
    family.kind = kind;
    family.help = help;
  } else {
    NIMBLE_CHECK(family.kind == kind)
        << "metric family '" << name << "' registered with two kinds";
    if (family.help.empty()) family.help = help;
  }
  return family;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const LabelSet& labels,
                                    const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FindFamily(name, Kind::kCounter, help);
  Series& series = family.series[RenderLabels(labels)];
  if (series.counter == nullptr) series.counter = std::make_unique<Counter>();
  return series.counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const LabelSet& labels,
                                const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FindFamily(name, Kind::kGauge, help);
  Series& series = family.series[RenderLabels(labels)];
  if (series.gauge == nullptr) series.gauge = std::make_unique<Gauge>();
  return series.gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const LabelSet& labels,
                                        std::vector<double> bounds,
                                        const std::string& help) {
  for (const auto& [key, value] : labels) {
    NIMBLE_CHECK(key != "le") << "'le' is reserved for histogram buckets";
  }
  std::lock_guard<std::mutex> lock(mu_);
  Family& family = FindFamily(name, Kind::kHistogram, help);
  if (family.bounds.empty()) {
    family.bounds = bounds;
  } else {
    NIMBLE_CHECK(family.bounds == bounds)
        << "metric family '" << name << "' registered with two bucket layouts";
  }
  Series& series = family.series[RenderLabels(labels)];
  if (series.histogram == nullptr) {
    series.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return series.histogram.get();
}

std::string MetricRegistry::RenderPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [name, family] : families_) {
    if (!family.help.empty()) {
      out += "# HELP " + name + " " + family.help + "\n";
    }
    out += "# TYPE " + name + " ";
    switch (family.kind) {
      case Kind::kCounter:
        out += "counter\n";
        break;
      case Kind::kGauge:
        out += "gauge\n";
        break;
      case Kind::kHistogram:
        out += "histogram\n";
        break;
    }
    for (const auto& [labels, series] : family.series) {
      switch (family.kind) {
        case Kind::kCounter:
          out += name + labels + " " +
                 std::to_string(series.counter->Value()) + "\n";
          break;
        case Kind::kGauge:
          out += name + labels + " " + FormatValue(series.gauge->Value()) +
                 "\n";
          break;
        case Kind::kHistogram: {
          const Histogram& h = *series.histogram;
          std::vector<int64_t> buckets = h.CumulativeBuckets();
          for (size_t i = 0; i < h.bounds().size(); ++i) {
            out += name + "_bucket" +
                   WithExtraLabel(labels,
                                  "le=\"" + FormatValue(h.bounds()[i]) +
                                      "\"") +
                   " " + std::to_string(buckets[i]) + "\n";
          }
          out += name + "_bucket" + WithExtraLabel(labels, "le=\"+Inf\"") +
                 " " + std::to_string(buckets.back()) + "\n";
          out += name + "_sum" + labels + " " + FormatValue(h.Sum()) + "\n";
          // _count from the same merge as the +Inf bucket would need a
          // single pass; rendering the +Inf value keeps the exposition
          // self-consistent (count == cumulative +Inf) under concurrent
          // recording.
          out += name + "_count" + labels + " " +
                 std::to_string(buckets.back()) + "\n";
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace nimble
