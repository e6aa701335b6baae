// Shared pieces of the end-to-end benchmark: run options, the metric
// report, input generation, correctness checks and small statistics.
//
// Every workload follows the same shape:
//   1. prepare (untimed): build the model, draw the inputs from --seed,
//      compute the expected outputs with a sequential VM and check them
//      against the plain-C++ reference implementation;
//   2. set up repeatedly (timed), keeping the last set-up for the timed
//      phase;
//   3. run whole rounds of the request pool for --seconds (timed), then
//      set up repeatedly again; setup_s is the median of both halves;
//   4. with --trace 1, read the program's telemetry and the benchmark's
//      own timers into the per-layer metrics instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/runtime/ndarray.h"
#include "src/support/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// What one run reports: the operation tallies and the metrics of its mode
/// (end-to-end without --trace, per-layer with it), in a fixed order.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  /// Sets a metric named in EndToEndMetrics()/PerLayerMetrics(); aborts
  /// on any other name.
  void Set(const std::string& name, double value);
};

/// The metric names, in output order. run.py checks them against
/// BENCHMARK.json and attaches the units declared there.
const std::vector<const char*>& EndToEndMetrics();
const std::vector<const char*>& PerLayerMetrics();

/// A RunResult holding every metric of the mode, each at 0 until set.
/// Per-layer metrics of a layer the workload does not use stay 0.
RunResult EmptyResult(bool trace);

/// Prints the result as one JSON line on stdout.
void PrintResult(const RunResult& result);

// ---- timing and statistics ------------------------------------------------

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
inline double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> sample, double p);
double Median(std::vector<double> sample);

/// Peak resident set size of this process, MiB.
double PeakRssMb();

/// Size of the process-wide kernel pool (codegen::KernelPool). One thread:
/// on a shared host the parallel dense path makes the figures follow the
/// other tenants' load.
constexpr int kKernelThreads = 1;

/// Set-ups are timed in two halves, one before the timed phase and one
/// after it. Each half repeats them back to back for at least
/// kSetupSeconds / 2, and at least kMinSetups times. The host's speed flips
/// between states that last seconds, and set-ups taken in one burst sit in
/// one state; taking them at both ends of the run samples two (README.md).
inline constexpr double kSetupSeconds = 2.0;
inline constexpr int kMinSetups = 5;

/// Times the set-ups of one run; setup_s is median_s().
template <typename T>
class SetupTimer {
 public:
  explicit SetupTimer(std::function<std::unique_ptr<T>()> setup)
      : setup_(std::move(setup)) {}

  /// Times one half of the set-ups (the previous instance is destroyed
  /// before the next is timed, outside the timing) and returns the last
  /// instance.
  std::unique_ptr<T> Repeat() {
    std::unique_ptr<T> current;
    auto start = Clock::now();
    for (int n = 0;
         n < kMinSetups || Seconds(Clock::now() - start) < kSetupSeconds / 2;
         ++n) {
      current.reset();
      auto t0 = Clock::now();
      current = setup_();
      durations_.push_back(Seconds(Clock::now() - t0));
    }
    return current;
  }

  /// Median duration in seconds of every set-up timed so far.
  double median_s() const { return Median(durations_); }

 private:
  std::function<std::unique_ptr<T>()> setup_;
  std::vector<double> durations_;
};

/// Hands out positions in a request pool of `pool_size`, round after
/// round, until `deadline` has passed; then it finishes the round in
/// progress and stops. Every run therefore attempts whole rounds of the
/// same requests. Thread-safe.
class RoundDispenser {
 public:
  RoundDispenser(int64_t pool_size, Clock::time_point deadline);
  /// The next operation's sequence number (its pool index is
  /// `seq % pool_size`), or -1 once the last round is handed out.
  int64_t Next();
  int64_t pool_size() const { return pool_size_; }

 private:
  const int64_t pool_size_;
  const Clock::time_point deadline_;
  std::mutex mu_;
  int64_t issued_ = 0;
  int64_t stop_at_ = -1;
};

/// One finished operation of a timed phase.
struct Sample {
  Clock::time_point done;  // on the phase's clock (see Phase)
  double latency_ms = 0.0;
  int64_t tokens = 0;  // the request's length; 0 when it failed
};

/// The operations of one timed phase. Its clock runs from `start` to the
/// last sample; on vm_bert_mrpc it advances only while an Invoke runs, so
/// the checks between Invokes stay outside it.
struct Phase {
  int64_t attempted = 0;
  int64_t failed = 0;
  Clock::time_point start{};
  std::vector<Sample> samples;

  void Record(Clock::time_point done, double latency_ms, int64_t tokens);
  Clock::time_point end() const;
  int64_t tokens() const;
};

/// The end-to-end rates of a phase as medians over its whole kWindowSeconds
/// windows (by completion time; the partial last window is left out). A
/// median over windows is steadier on a host whose speed drifts from
/// second to second than one figure over the whole run.
inline constexpr double kWindowSeconds = 2.0;
struct WindowedRates {
  double tok_per_s = 0.0;  // median of the windows' tokens per second
  double p50_ms = 0.0;     // median of the windows' median latencies
  double p90_ms = 0.0;     // median of the windows' 90th percentiles
};
WindowedRates Windowed(const Phase& phase);

/// Sets tok_per_s, p50_ms, p90_ms and peak_rss_mb, and the operation
/// tallies, from the timed phase. The caller sets setup_s.
void SetEndToEnd(const Phase& phase, RunResult* result);

/// Adds a phase's operation tallies to a traced run's result.
void AddTallies(const Phase& phase, RunResult* result);

/// Telemetry A/B of a traced run: tokens per second over the `on` phases
/// (the program's telemetry at its defaults) against the `off` phases
/// (switched off), as the percentage by which `on` is slower.
double OverheadPct(const std::vector<Phase>& on, const std::vector<Phase>& off);

// ---- inputs and checks ----------------------------------------------------

/// `count` MRPC-like lengths (4-128) as a stratified sample: the
/// count-quantiles of a large draw of models::SampleMRPCLengths made with a
/// fixed seed, in an order shuffled with `rng`. Every seed gets the same
/// lengths, and so the same work per round; the order and the token
/// contents follow the seed.
std::vector<int64_t> StratifiedMRPCLengths(int count,
                                           nimble::support::Rng& rng);

/// Length of the one warm-up request of vm_bert_mrpc and http_lstm_online.
/// It is fixed, so set-up does the same work whatever the seed.
inline constexpr int64_t kWarmupLength = 32;

/// Serving traffic mix: eight recurring hot lengths carry kHotPercent of
/// the requests in fixed shares (kHotWeights), the rest is a stratified
/// MRPC-like tail; in seeded random order.
inline constexpr int64_t kHotLengths[8] = {18, 22, 27, 30, 35, 38, 59, 62};
inline constexpr int kHotWeights[8] = {22, 18, 15, 12, 11, 9, 7, 6};
inline constexpr int kHotPercent = 80;
std::vector<int64_t> SampleServingMix(int count, nimble::support::Rng& rng);

bool BitIdentical(const nimble::runtime::NDArray& a,
                  const nimble::runtime::NDArray& b);
/// Same shape and every element within `tol` of the reference (the
/// absolute tolerance tests/test_e2e_models.cc uses).
bool WithinTolerance(const nimble::runtime::NDArray& got,
                     const nimble::runtime::NDArray& want, float tol);

// ---- workloads ------------------------------------------------------------

RunResult RunVmBert(const Options& options);
RunResult RunServeOffline(const Options& options);
RunResult RunHttpOnline(const Options& options);

}  // namespace perfbench
