#include "perfbench/src/common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/models/workloads.h"

namespace perfbench {

const std::vector<const char*>& EndToEndMetrics() {
  static const std::vector<const char*> names = {
      "setup_s", "tok_per_s", "p50_ms", "p90_ms", "peak_rss_mb"};
  return names;
}

const std::vector<const char*>& PerLayerMetrics() {
  static const std::vector<const char*> names = {
      // core / pass
      "compile.ms",
      "compile.instructions",
      // vm
      "vm.instr_per_req",
      "vm.interp_us_per_req",
      "vm.kernel_us_per_req",
      "vm.shape_func_us_per_req",
      // codegen / kernels
      "dense.specialized_per_req",
      "dense.fallback_per_req",
      "dense.blocked_per_req",
      "dense.parallel_per_req",
      // runtime
      "alloc.calls_per_req",
      "alloc.pool_miss_per_req",
      "alloc.peak_mb",
      // serve + net request spans
      "span.admission_us",
      "span.queue_us",
      "span.pack_us",
      "span.exec_us",
      "span.unpack_us",
      "span.write_us",
      // bucketed batch
      "batch.mean_size",
      "batch.padding_pct",
      "exec_cache.hit_pct",
      "copy.pack_bytes_per_req",
      "copy.unpack_bytes_per_req",
      // continuous batch
      "step.mean_us",
      "step.active_rows_mean",
      "step.splice_wait_us",
      "copy.step_state_bytes_per_req",
      // net
      "net.overhead_us",
      "copy.http_decode_bytes_per_req",
      "copy.serialize_bytes_per_req",
      // obs
      "obs.telemetry_overhead_pct",
  };
  return names;
}

void RunResult::Set(const std::string& name, double value) {
  for (auto& [key, slot] : metrics) {
    if (key == name) {
      slot = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: metric %s is not declared\n", name.c_str());
  std::abort();
}

RunResult EmptyResult(bool trace) {
  RunResult result;
  for (const char* name : trace ? PerLayerMetrics() : EndToEndMetrics()) {
    result.metrics.emplace_back(name, 0.0);
  }
  return result;
}

void PrintResult(const RunResult& result) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  const char* separator = "";
  for (const auto& [name, measured] : result.metrics) {
    double value = std::isfinite(measured) ? measured : 0.0;
    std::printf("%s\"%s\": %.17g", separator, name.c_str(), value);
    separator = ", ";
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double Percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  auto rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sample.size())));
  rank = std::clamp<size_t>(rank, 1, sample.size());
  return sample[rank - 1];
}

double Median(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  size_t n = sample.size();
  return n % 2 == 1 ? sample[n / 2]
                    : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

RoundDispenser::RoundDispenser(int64_t pool_size, Clock::time_point deadline)
    : pool_size_(pool_size), deadline_(deadline) {}

int64_t RoundDispenser::Next() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_at_ < 0 && Clock::now() >= deadline_) {
    stop_at_ = (issued_ + pool_size_ - 1) / pool_size_ * pool_size_;
  }
  if (stop_at_ >= 0 && issued_ >= stop_at_) return -1;
  return issued_++;
}

void Phase::Record(Clock::time_point done, double latency_ms,
                   int64_t tokens) {
  attempted++;
  if (tokens == 0) failed++;
  samples.push_back(Sample{done, latency_ms, tokens});
}

Clock::time_point Phase::end() const {
  Clock::time_point last = start;
  for (const Sample& sample : samples) last = std::max(last, sample.done);
  return last;
}

int64_t Phase::tokens() const {
  int64_t total = 0;
  for (const Sample& sample : samples) total += sample.tokens;
  return total;
}

WindowedRates Windowed(const Phase& phase) {
  auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWindowSeconds));
  auto count = static_cast<size_t>((phase.end() - phase.start) / window);
  std::vector<double> tokens(count, 0.0);
  std::vector<std::vector<double>> latencies(count);
  for (const Sample& sample : phase.samples) {
    auto k = static_cast<size_t>((sample.done - phase.start) / window);
    if (k >= count) continue;
    tokens[k] += static_cast<double>(sample.tokens);
    latencies[k].push_back(sample.latency_ms);
  }
  std::vector<double> rates, p50, p90;
  for (size_t k = 0; k < count; ++k) {
    rates.push_back(tokens[k] / kWindowSeconds);
    p50.push_back(Percentile(latencies[k], 50.0));
    p90.push_back(Percentile(latencies[k], 90.0));
  }
  WindowedRates out;
  out.tok_per_s = Median(rates);
  out.p50_ms = Median(p50);
  out.p90_ms = Median(p90);
  if (!rates.empty()) {
    std::sort(rates.begin(), rates.end());
    std::fprintf(stderr, "  %zu windows of %.1f s: tokens/s min %.0f, median "
                         "%.0f, max %.0f\n", count, kWindowSeconds,
                 rates.front(), out.tok_per_s, rates.back());
  }
  return out;
}

void SetEndToEnd(const Phase& phase, RunResult* result) {
  WindowedRates rates = Windowed(phase);
  result->attempted = phase.attempted;
  result->failed = phase.failed;
  if (phase.failed > 0) result->correct = false;
  result->Set("tok_per_s", rates.tok_per_s);
  result->Set("p50_ms", rates.p50_ms);
  result->Set("p90_ms", rates.p90_ms);
  result->Set("peak_rss_mb", PeakRssMb());
}

void AddTallies(const Phase& phase, RunResult* result) {
  result->attempted += phase.attempted;
  result->failed += phase.failed;
  if (phase.failed > 0) result->correct = false;
}

double OverheadPct(const std::vector<Phase>& on,
                   const std::vector<Phase>& off) {
  auto rate = [](const std::vector<Phase>& phases) {
    double tokens = 0.0, seconds = 0.0;
    for (const Phase& phase : phases) {
      tokens += static_cast<double>(phase.tokens());
      seconds += Seconds(phase.end() - phase.start);
    }
    return tokens / seconds;
  };
  return (rate(off) - rate(on)) / rate(off) * 100.0;
}

namespace {

void Shuffle(std::vector<int64_t>& values, nimble::support::Rng& rng) {
  for (size_t i = values.size(); i > 1; --i) {
    std::swap(values[i - 1], values[rng.Next() % i]);
  }
}

}  // namespace

std::vector<int64_t> StratifiedMRPCLengths(int count,
                                           nimble::support::Rng& rng) {
  constexpr int kOversample = 64;
  constexpr uint64_t kLengthSeed = 17;
  nimble::support::Rng length_rng(kLengthSeed);
  std::vector<int64_t> draws =
      nimble::models::SampleMRPCLengths(count * kOversample, length_rng);
  std::sort(draws.begin(), draws.end());
  std::vector<int64_t> lengths;
  for (int i = 0; i < count; ++i) {
    lengths.push_back(
        draws[static_cast<size_t>(i * kOversample + kOversample / 2)]);
  }
  Shuffle(lengths, rng);
  return lengths;
}

std::vector<int64_t> SampleServingMix(int count, nimble::support::Rng& rng) {
  std::vector<int64_t> lengths;
  for (int j = 0; j < 8; ++j) {
    int n = count * kHotPercent * kHotWeights[j] / 10000;
    lengths.insert(lengths.end(), static_cast<size_t>(n), kHotLengths[j]);
  }
  std::vector<int64_t> tail =
      StratifiedMRPCLengths(count - static_cast<int>(lengths.size()), rng);
  lengths.insert(lengths.end(), tail.begin(), tail.end());
  Shuffle(lengths, rng);
  return lengths;
}

bool BitIdentical(const nimble::runtime::NDArray& a,
                  const nimble::runtime::NDArray& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw_data(), b.raw_data(), a.nbytes()) == 0;
}

bool WithinTolerance(const nimble::runtime::NDArray& got,
                     const nimble::runtime::NDArray& want, float tol) {
  if (got.shape() != want.shape()) return false;
  const float* g = got.data<float>();
  const float* w = want.data<float>();
  for (int64_t i = 0; i < got.num_elements(); ++i) {
    // Written so that a NaN fails the check.
    if (!(std::fabs(g[i] - w[i]) <= tol)) return false;
  }
  return true;
}

}  // namespace perfbench
