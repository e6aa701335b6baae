// Observability tests: sharded metric instruments (merge-on-read equals
// the sum of every shard), Prometheus exposition (label escaping,
// cumulative histogram buckets), the trace ring (wraparound, concurrent
// committers), span derivation, chrome-trace export validity, and the
// end-to-end lifecycle — one served request yields one committed trace
// with six ordered spans and a folded VM profile.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/compiler.h"
#include "src/models/lstm.h"
#include "src/models/workloads.h"
#include "src/net/inference_handler.h"
#include "src/net/json.h"
#include "src/obs/export.h"
#include "src/obs/memory.h"
#include "src/obs/metrics.h"
#include "src/obs/step_journal.h"
#include "src/obs/trace.h"
#include "src/runtime/allocator.h"
#include "src/serve/server.h"
#include "src/support/rng.h"
#include "src/vm/vm.h"

namespace nimble {
namespace {

using runtime::MakeTensor;
using runtime::NDArray;

// ---- sharded instruments ------------------------------------------------------

TEST(Metrics, CounterMergeEqualsSumOfAllWriters) {
  obs::Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), int64_t{kThreads} * kPerThread)
      << "merge-on-read must equal the sum of every thread's shard";
}

TEST(Metrics, GaugeIsLastWriterWins) {
  obs::Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0.0);
  gauge.Set(17.5);
  gauge.Set(3.0);
  EXPECT_EQ(gauge.Value(), 3.0);
}

TEST(Metrics, HistogramCumulativeBucketsMonotoneAndConsistent) {
  obs::Histogram hist(obs::Histogram::LogLinearBounds(1, 7));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist.Observe(static_cast<double>((t * kPerThread + i) % 300));
      }
    });
  }
  for (auto& t : threads) t.join();

  std::vector<int64_t> buckets = hist.CumulativeBuckets();
  ASSERT_EQ(buckets.size(), hist.bounds().size() + 1) << "+Inf bucket";
  for (size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GE(buckets[i], buckets[i - 1]) << "cumulative must be monotone";
  }
  EXPECT_EQ(buckets.back(), int64_t{kThreads} * kPerThread)
      << "+Inf bucket holds every observation";
  EXPECT_EQ(hist.Count(), int64_t{kThreads} * kPerThread);
  EXPECT_GT(hist.Sum(), 0.0);
}

TEST(Metrics, HistogramBucketBoundsAreInclusive) {
  obs::Histogram hist({1.0, 2.0, 4.0});
  hist.Observe(1.0);  // lands in le="1"
  hist.Observe(1.5);  // le="2"
  hist.Observe(100);  // +Inf
  std::vector<int64_t> buckets = hist.CumulativeBuckets();
  EXPECT_EQ(buckets[0], 1);
  EXPECT_EQ(buckets[1], 2);
  EXPECT_EQ(buckets[2], 2);
  EXPECT_EQ(buckets[3], 3);
}

TEST(Metrics, NearestRankPercentiles) {
  std::vector<double> sample;
  for (int i = 1; i <= 100; ++i) sample.push_back(static_cast<double>(i));
  EXPECT_EQ(obs::NearestRankPercentile(sample, 50.0), 50.0);
  EXPECT_EQ(obs::NearestRankPercentile(sample, 95.0), 95.0);
  EXPECT_EQ(obs::NearestRankPercentile(sample, 99.0), 99.0);
  EXPECT_EQ(obs::NearestRankPercentile(sample, 0.0), 1.0);
  EXPECT_EQ(obs::NearestRankPercentile(sample, 100.0), 100.0);
  EXPECT_EQ(obs::NearestRankPercentile({42.0}, 99.0), 42.0);
  EXPECT_EQ(obs::NearestRankPercentile({}, 50.0), 0.0);
  // Unsorted input is sorted internally.
  EXPECT_EQ(obs::NearestRankPercentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Metrics, LogLinearLayoutFindsBucketsByExponent) {
  std::vector<double> bounds = obs::Histogram::LatencyBoundsUs();
  ASSERT_EQ(bounds.size(), 1u + 8u * 26u);
  EXPECT_EQ(bounds.front(), 1.0);
  EXPECT_EQ(bounds.back(), 67108864.0) << "2^26 us, ~67 s";
  EXPECT_EQ(obs::Histogram::BatchSizeBounds(),
            (std::vector<double>{1, 2, 4, 8, 16, 32, 64}));
  EXPECT_THROW(obs::Histogram({1.0, 3.0}), Error) << "not a layout";
  // The exponent-computed bucket is the first bound >= v, exactly as a
  // search would place it: on every bound, just above and just below it.
  obs::Histogram hist(bounds);
  std::vector<double> probes = {0.0, 0.5, 1e300};
  for (double b : bounds) {
    probes.push_back(b);
    probes.push_back(std::nextafter(b, 0.0));
    probes.push_back(std::nextafter(b, 1e300));
  }
  for (double v : probes) hist.Observe(v);
  std::vector<int64_t> want(bounds.size() + 1, 0);
  for (double v : probes) {
    want[static_cast<size_t>(std::lower_bound(bounds.begin(), bounds.end(), v) -
                             bounds.begin())]++;
  }
  for (size_t i = 1; i < want.size(); ++i) want[i] += want[i - 1];
  EXPECT_EQ(hist.CumulativeBuckets(), want);
}

TEST(Metrics, HistogramQuantileWithinOneBucketOfNearestRank) {
  // Log-uniform latencies from 1 us to 10 s, seeded.
  support::Rng rng(2026);
  std::vector<double> sample;
  obs::Histogram hist(obs::Histogram::LatencyBoundsUs());
  for (int i = 0; i < 20000; ++i) {
    double v = std::pow(10.0, rng.Uniform(0.0, 7.0));
    sample.push_back(v);
    hist.Observe(v);
  }
  for (double p : {50.0, 95.0, 99.0}) {
    double exact = obs::NearestRankPercentile(sample, p);
    double estimate = hist.Quantile(p);
    EXPECT_GE(estimate, exact) << "p" << p;
    EXPECT_LE(estimate, exact * 1.125) << "p" << p;
  }
  double max = *std::max_element(sample.begin(), sample.end());
  EXPECT_EQ(hist.Snapshot().max, max) << "the max is exact";
  EXPECT_EQ(hist.Quantile(100.0), max);
  EXPECT_EQ(hist.Count(), 20000);
}

TEST(Metrics, MergedHistogramsEqualOneFedBothStreams) {
  std::vector<double> bounds = obs::Histogram::LatencyBoundsUs();
  obs::Histogram a(bounds), b(bounds), both(bounds);
  support::Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    // Integer-valued samples keep the sums exact in any order.
    double v = std::floor(std::pow(10.0, rng.Uniform(0.0, 6.0)));
    (i % 3 == 0 ? a : b).Observe(v);
    both.Observe(v);
  }
  obs::HistogramSnapshot merged;  // empty: adopts the first layout
  merged.Merge(a.Snapshot());
  merged.Merge(b.Snapshot());
  obs::HistogramSnapshot want = both.Snapshot();
  EXPECT_EQ(merged.counts, want.counts);
  EXPECT_EQ(merged.count, want.count);
  EXPECT_EQ(merged.sum, want.sum);
  EXPECT_EQ(merged.max, want.max);
  for (double p : {50.0, 95.0, 99.0}) {
    EXPECT_EQ(merged.Quantile(p), want.Quantile(p)) << "p" << p;
  }
  obs::HistogramSnapshot other_layout =
      obs::Histogram(obs::Histogram::BatchSizeBounds()).Snapshot();
  EXPECT_THROW(merged.Merge(other_layout), Error);
}

TEST(Metrics, HistogramMaxIsExactAcrossThreads) {
  obs::Histogram hist(obs::Histogram::LatencyBoundsUs());
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (int i = 0; i < 1000; ++i) hist.Observe(t * 1000.0 + i + 0.25);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.Snapshot().max, (kThreads - 1) * 1000.0 + 999.25);
  EXPECT_EQ(obs::Histogram(obs::Histogram::LatencyBoundsUs()).Snapshot().max,
            0.0)
      << "empty histogram";
}

// ---- registry -----------------------------------------------------------------

TEST(Metrics, RegistryReturnsSameInstrumentForSameSeries) {
  obs::MetricRegistry registry;
  obs::Counter* a = registry.GetCounter("nimble_test_total",
                                        {{"model", "m"}, {"path", "p"}});
  obs::Counter* b = registry.GetCounter("nimble_test_total",
                                        {{"path", "p"}, {"model", "m"}});
  EXPECT_EQ(a, b) << "label order must not split a series";
  obs::Counter* c = registry.GetCounter("nimble_test_total",
                                        {{"model", "other"}, {"path", "p"}});
  EXPECT_NE(a, c);
  a->Increment(5);
  EXPECT_EQ(b->Value(), 5);
  EXPECT_EQ(c->Value(), 0);
}

TEST(Metrics, PrometheusEscapesLabelValues) {
  EXPECT_EQ(obs::MetricRegistry::EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(obs::MetricRegistry::EscapeLabelValue("a\"b\\c\nd"),
            "a\\\"b\\\\c\\nd");

  obs::MetricRegistry registry;
  registry.GetCounter("nimble_escape_total", {{"model", "we\"ird\\name\n"}})
      ->Increment();
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("model=\"we\\\"ird\\\\name\\n\""), std::string::npos)
      << text;
  EXPECT_EQ(text.find('\n', text.find("model=")),
            text.find("} 1", text.find("model=")) + 3)
      << "raw newline inside a label value would split the sample line";
}

TEST(Metrics, PrometheusRenderHasFamiliesAndHistogramSeries) {
  obs::MetricRegistry registry;
  registry.GetCounter("nimble_reqs_total", {{"model", "m"}}, "Requests.")
      ->Increment(3);
  registry.GetGauge("nimble_depth", {{"model", "m"}}, "Depth.")->Set(2);
  obs::Histogram* hist = registry.GetHistogram(
      "nimble_lat_us", {{"model", "m"}}, {1.0, 2.0}, "Latency.");
  hist->Observe(1.0);
  hist->Observe(5.0);

  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# HELP nimble_reqs_total Requests."),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE nimble_reqs_total counter"), std::string::npos);
  EXPECT_NE(text.find("nimble_reqs_total{model=\"m\"} 3"), std::string::npos);
  EXPECT_NE(text.find("# TYPE nimble_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("nimble_depth{model=\"m\"} 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE nimble_lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("nimble_lat_us_bucket{model=\"m\",le=\"1\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("nimble_lat_us_bucket{model=\"m\",le=\"+Inf\"} 2"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("nimble_lat_us_count{model=\"m\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("nimble_lat_us_sum{model=\"m\"} 6"), std::string::npos);
}

// ---- tracer rings -------------------------------------------------------------

obs::TraceContext MakeTrace(int64_t id) {
  obs::TraceContext ctx;
  ctx.enabled = true;
  ctx.id = id;
  ctx.model = "m";
  auto t = obs::SteadyClock::now();
  ctx.admit = t;
  ctx.enqueue = t + std::chrono::microseconds(10);
  ctx.dispatch = t + std::chrono::microseconds(30);
  ctx.pack_start = t + std::chrono::microseconds(30);
  ctx.pack_end = t + std::chrono::microseconds(40);
  ctx.exec_end = t + std::chrono::microseconds(140);
  ctx.unpack_end = t + std::chrono::microseconds(150);
  ctx.write_end = t + std::chrono::microseconds(160);
  return ctx;
}

TEST(Trace, RingWraparoundKeepsNewestBoundedByCapacity) {
  obs::TraceConfig config;
  config.ring_capacity = 16;
  obs::Tracer tracer(config);
  for (int64_t i = 0; i < 100; ++i) tracer.Commit(MakeTrace(i));
  EXPECT_EQ(tracer.committed(), 100);

  std::vector<obs::TraceRecord> recent = tracer.Recent(1000);
  ASSERT_FALSE(recent.empty());
  EXPECT_LE(recent.size(), 16u) << "ring memory is bounded";
  for (size_t i = 1; i < recent.size(); ++i) {
    EXPECT_GT(recent[i].seq, recent[i - 1].seq) << "commit order";
  }
  EXPECT_EQ(recent.back().seq, 100u) << "the newest trace survives wraparound";
  // Recent(n) trims from the old end.
  std::vector<obs::TraceRecord> one = tracer.Recent(1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one.back().seq, 100u);
}

TEST(Trace, DisabledTracerCommitsNothing) {
  obs::TraceConfig config;
  config.enabled = false;
  obs::Tracer tracer(config);
  tracer.Commit(MakeTrace(1));
  EXPECT_EQ(tracer.committed(), 0);
  EXPECT_TRUE(tracer.Recent(10).empty());
}

TEST(Trace, ConcurrentCommittersAndScrapers) {
  obs::TraceConfig config;
  config.ring_capacity = 64;
  obs::Tracer tracer(config);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::atomic<bool> stop{false};
  // A scraper walking the rings while every writer hammers them: the TSan
  // job proves the shard locking sound.
  std::thread scraper([&] {
    while (!stop.load()) {
      auto records = tracer.Recent(64);
      for (size_t i = 1; i < records.size(); ++i) {
        if (records[i].seq <= records[i - 1].seq) {
          ADD_FAILURE() << "scrape saw out-of-order seqs";
          return;
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.Commit(MakeTrace(t * kPerThread + i));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop = true;
  scraper.join();
  EXPECT_EQ(tracer.committed(), int64_t{kThreads} * kPerThread);
}

TEST(Trace, SlowLogRespectsThresholdAndRateLimit) {
  obs::TraceConfig config;
  config.slow_request_us = 1000;
  config.slow_log_interval_ms = 1000;
  obs::Tracer tracer(config);
  auto now = obs::SteadyClock::now();
  EXPECT_FALSE(tracer.ShouldLogSlow(500, now)) << "under threshold";
  EXPECT_TRUE(tracer.ShouldLogSlow(2000, now)) << "first slow request logs";
  EXPECT_FALSE(tracer.ShouldLogSlow(2000, now)) << "rate-limited";
  EXPECT_FALSE(tracer.ShouldLogSlow(
      2000, now + std::chrono::milliseconds(500)));
  EXPECT_TRUE(tracer.ShouldLogSlow(2000, now + std::chrono::seconds(2)))
      << "limiter window elapsed";
}

TEST(Trace, SlowLogDisabledByZeroThreshold) {
  obs::Tracer tracer;  // slow_request_us = 0
  EXPECT_FALSE(tracer.ShouldLogSlow(int64_t{1} << 40,
                                    obs::SteadyClock::now()));
}

// ---- span derivation and export -----------------------------------------------

TEST(Trace, SpansAreOrderedAndContiguous) {
  obs::TraceContext ctx = MakeTrace(7);
  std::vector<obs::SpanView> spans = obs::TraceSpans(ctx);
  ASSERT_EQ(spans.size(), 6u);
  const char* expected_names[] = {"admission", "queue",  "pack",
                                  "exec",      "unpack", "write"};
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_STREQ(spans[i].name, expected_names[i]);
    EXPECT_LE(spans[i].begin, spans[i].end) << spans[i].name;
    if (i > 0) {
      EXPECT_EQ(spans[i].begin, spans[i - 1].end)
          << "spans tile the request end to end";
    }
  }
  EXPECT_EQ(spans[1].duration_us(), 20) << "queue = enqueue..dispatch";
  EXPECT_EQ(spans[3].duration_us(), 100) << "exec = pack_end..exec_end";
}

TEST(Trace, SpansClampUnstampedStagesToZeroWidth) {
  // Only admit and write_end stamped (a request that died early): no span
  // may invert, and the middle ones collapse to zero width.
  obs::TraceContext ctx;
  ctx.enabled = true;
  ctx.admit = obs::SteadyClock::now();
  ctx.enqueue = ctx.admit + std::chrono::microseconds(5);
  ctx.write_end = ctx.admit + std::chrono::microseconds(50);
  std::vector<obs::SpanView> spans = obs::TraceSpans(ctx);
  ASSERT_EQ(spans.size(), 6u);
  for (const obs::SpanView& span : spans) {
    EXPECT_LE(span.begin, span.end) << span.name << " inverted";
  }
  EXPECT_EQ(spans[2].duration_us(), 0);
  EXPECT_EQ(spans[3].duration_us(), 0);
  EXPECT_GT(spans[5].duration_us(), 0) << "write span absorbs the tail";
}

TEST(Trace, ChromeTraceJsonIsValidAndCarriesExecArgs) {
  obs::TraceConfig config;
  obs::Tracer tracer(config);
  obs::TraceContext ctx = MakeTrace(3);
  ctx.model = "lstm\"quoted";  // exercises the JSON escaping
  ctx.packed = true;
  ctx.vm.kernel_nanos = 123000;
  ctx.vm.shape_func_nanos = 45000;
  ctx.vm.other_nanos = 6000;
  ctx.vm.instructions = 42;
  tracer.Commit(ctx);
  tracer.Commit(MakeTrace(4));

  std::string json = obs::ChromeTraceJson(tracer.Recent(10));
  std::string parse_error;
  net::Json doc = net::Json::Parse(json, &parse_error);
  ASSERT_TRUE(doc.is_object()) << parse_error << "\n" << json;
  const net::Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->items().size(), 12u) << "6 spans per trace";

  size_t exec_events = 0;
  for (const net::Json& event : events->items()) {
    ASSERT_TRUE(event.is_object());
    const net::Json* name = event.Find("name");
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(event.Find("ph")->str(), "X") << "complete events";
    EXPECT_GE(event.Find("dur")->number(), 0.0);
    EXPECT_GE(event.Find("ts")->number(), 0.0);
    ASSERT_NE(event.Find("tid"), nullptr) << "tid = request id = track";
    if (name->str() == "exec") {
      exec_events++;
      const net::Json* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      if (event.Find("tid")->integer() == 3) {
        EXPECT_EQ(args->Find("kernel_us")->integer(), 123);
        EXPECT_EQ(args->Find("shape_func_us")->integer(), 45);
        EXPECT_EQ(args->Find("instructions")->integer(), 42);
        EXPECT_EQ(args->Find("model")->str(), "lstm\"quoted");
      }
    }
  }
  EXPECT_EQ(exec_events, 2u);

  EXPECT_NE(obs::ChromeTraceJson({}).find("\"traceEvents\":[]"),
            std::string::npos)
      << "zero records still render a valid document";
}

TEST(Trace, HeaderValueCarriesStageTimings) {
  obs::TraceContext ctx = MakeTrace(9);
  ctx.vm.kernel_nanos = 88000;
  std::string header = obs::TraceHeaderValue(ctx);
  EXPECT_NE(header.find("id=9"), std::string::npos) << header;
  EXPECT_NE(header.find("queue_us="), std::string::npos) << header;
  EXPECT_NE(header.find("exec_us="), std::string::npos) << header;
  EXPECT_NE(header.find("kernel_us=88"), std::string::npos) << header;
  EXPECT_EQ(header.find("write_us="), std::string::npos)
      << "the write span cannot be inside its own header";
  EXPECT_EQ(header.find('\n'), std::string::npos)
      << "header values must be single-line";
}

// ---- step journal -------------------------------------------------------------

obs::StepRecord MakeStep(int64_t step, int64_t active = 2,
                         int64_t slots = 4) {
  obs::StepRecord record;
  record.step = step;
  record.start = obs::SteadyClock::now();
  record.duration_us = 100 + step;
  record.active_rows = active;
  record.num_slots = slots;
  return record;
}

TEST(StepJournal, TailIsNewestRecordsOldestFirstBoundedByCapacity) {
  obs::StepJournalConfig config;
  config.ring_capacity = 16;
  obs::StepJournal journal(config);
  for (int64_t i = 0; i < 100; ++i) journal.Push(MakeStep(i));
  EXPECT_EQ(journal.steps_recorded(), 100)
      << "the push count is monotone, not capped by the ring";

  std::vector<obs::StepRecord> tail = journal.Tail(1000);
  ASSERT_EQ(tail.size(), 16u) << "ring memory is bounded";
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].step, 84 + static_cast<int64_t>(i))
        << "oldest-first, newest 16 survive wraparound";
  }
  std::vector<obs::StepRecord> four = journal.Tail(4);
  ASSERT_EQ(four.size(), 4u);
  EXPECT_EQ(four.front().step, 96) << "Tail(n) trims from the old end";
  EXPECT_EQ(four.back().step, 99);
}

TEST(StepJournal, ShortRunReturnsExactlyWhatWasPushed) {
  obs::StepJournal journal;  // default capacity far above 3
  obs::StepRecord r = MakeStep(0);
  r.events.push_back(obs::StepEvent{obs::StepEvent::Kind::kSplice, 7, 2, 5});
  journal.Push(std::move(r));
  journal.Push(MakeStep(1));
  std::vector<obs::StepRecord> tail = journal.Tail(10);
  ASSERT_EQ(tail.size(), 2u);
  ASSERT_EQ(tail[0].events.size(), 1u);
  EXPECT_EQ(tail[0].events[0].request_id, 7);
  EXPECT_EQ(tail[0].events[0].slot, 2);
  EXPECT_EQ(tail[0].events[0].length, 5);
  EXPECT_TRUE(tail[1].events.empty());
}

TEST(StepJournal, DisabledJournalRecordsNothing) {
  obs::StepJournalConfig config;
  config.enabled = false;
  obs::StepJournal journal(config);
  journal.Push(MakeStep(0));
  EXPECT_EQ(journal.steps_recorded(), 0);
  EXPECT_TRUE(journal.Tail(10).empty());
}

TEST(StepJournal, ScrapesWhileTheWriterPushes) {
  // The journal's contract is ONE writer (the runner thread) and any
  // number of concurrent readers; the TSan job proves the locking sound.
  obs::StepJournalConfig config;
  config.ring_capacity = 32;
  obs::StepJournal journal(config);
  std::atomic<bool> stop{false};
  std::vector<std::thread> scrapers;
  for (int s = 0; s < 3; ++s) {
    scrapers.emplace_back([&] {
      while (!stop.load()) {
        std::vector<obs::StepRecord> tail = journal.Tail(32);
        for (size_t i = 1; i < tail.size(); ++i) {
          if (tail[i].step != tail[i - 1].step + 1) {
            ADD_FAILURE() << "scrape saw a torn tail";
            return;
          }
        }
      }
    });
  }
  for (int64_t i = 0; i < 5000; ++i) journal.Push(MakeStep(i));
  stop = true;
  for (auto& t : scrapers) t.join();
  EXPECT_EQ(journal.steps_recorded(), 5000);
}

// ---- stall watchdog -----------------------------------------------------------

TEST(StallWatchdog, CheckOnceProvokesAndClearsStall) {
  obs::Gauge gauge;
  // Mutable health the test steers: the same shape the server's source
  // builds from runner atomics.
  obs::RunnerHealth health;
  health.model = "m";
  health.stalled_gauge = &gauge;
  obs::StallWatchdogConfig config;
  // Never started (no thread): CheckOnce drives the clock by hand.
  config.stall_deadline_ms = 100;
  obs::StallWatchdog watchdog(
      config, [&health] { return std::vector<obs::RunnerHealth>{health}; });

  auto t0 = obs::SteadyClock::now();
  auto ns = [&](obs::SteadyClock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };

  // Idle runner (no live rows): stale progress is legitimate, never a stall.
  health.live_rows = 0;
  health.last_progress_ns = ns(t0);
  EXPECT_EQ(watchdog.CheckOnce(t0 + std::chrono::seconds(10)), 0);
  EXPECT_EQ(gauge.Value(), 0.0);

  // Not yet started (no progress stamp): not a stall either.
  health.live_rows = 3;
  health.last_progress_ns = 0;
  EXPECT_EQ(watchdog.CheckOnce(t0 + std::chrono::seconds(10)), 0);

  // Live rows within the deadline: healthy.
  health.last_progress_ns = ns(t0);
  EXPECT_EQ(watchdog.CheckOnce(t0 + std::chrono::milliseconds(50)), 0);
  EXPECT_EQ(gauge.Value(), 0.0);

  // Deadline blown: stalled, gauge flips.
  EXPECT_EQ(watchdog.CheckOnce(t0 + std::chrono::milliseconds(500)), 1);
  EXPECT_EQ(gauge.Value(), 1.0);
  EXPECT_EQ(watchdog.stalled_count(), 1);

  // Progress resumes: the stall clears and the gauge drops back.
  health.last_progress_ns = ns(t0 + std::chrono::milliseconds(490));
  EXPECT_EQ(watchdog.CheckOnce(t0 + std::chrono::milliseconds(500)), 0);
  EXPECT_EQ(gauge.Value(), 0.0);
  EXPECT_EQ(watchdog.stalled_count(), 0);
}

TEST(StallWatchdog, PollingThreadStartsAndStopsCleanly) {
  obs::StallWatchdogConfig config;
  config.poll_interval_ms = 5;
  config.stall_deadline_ms = 1;
  obs::Gauge gauge;
  std::atomic<int64_t> progress_ns{1};  // ancient progress, rows live
  obs::StallWatchdog watchdog(config, [&] {
    obs::RunnerHealth h;
    h.model = "m";
    h.live_rows = 1;
    h.last_progress_ns = progress_ns.load();
    h.stalled_gauge = &gauge;
    return std::vector<obs::RunnerHealth>{h};
  });
  watchdog.Start();
  // The poll loop must notice the wedge on its own within a few intervals.
  for (int i = 0; i < 200 && gauge.Value() != 1.0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(gauge.Value(), 1.0) << "polling thread never flagged the stall";
  watchdog.Stop();
  watchdog.Stop();  // idempotent
}

// ---- step-journal export ------------------------------------------------------

TEST(StepJournal, JournalJsonIsValidAndCarriesEvents) {
  obs::StepRecord r0 = MakeStep(0, /*active=*/1, /*slots=*/2);
  r0.events.push_back(obs::StepEvent{obs::StepEvent::Kind::kSplice, 5, 0, 3});
  r0.vm.kernel_nanos = 9000;
  r0.vm.instructions = 4;
  obs::StepRecord r1 = MakeStep(1, 1, 2);
  r1.ok = false;
  r1.events.push_back(obs::StepEvent{obs::StepEvent::Kind::kRetire, 5, 0, 3});

  std::string json = obs::StepJournalJson("m\"q", 2, 17, {r0, r1});
  std::string parse_error;
  net::Json doc = net::Json::Parse(json, &parse_error);
  ASSERT_TRUE(doc.is_object()) << parse_error << "\n" << json;
  EXPECT_EQ(doc.Find("model")->str(), "m\"q");
  EXPECT_EQ(doc.Find("num_slots")->integer(), 2);
  EXPECT_EQ(doc.Find("steps_recorded")->integer(), 17);
  const net::Json* steps = doc.Find("steps");
  ASSERT_NE(steps, nullptr);
  ASSERT_EQ(steps->items().size(), 2u);
  const net::Json& s0 = steps->items()[0];
  EXPECT_EQ(s0.Find("step")->integer(), 0);
  EXPECT_EQ(s0.Find("active_rows")->integer(), 1);
  EXPECT_EQ(s0.Find("ok"), nullptr) << "ok elided when true";
  ASSERT_EQ(s0.Find("events")->items().size(), 1u);
  EXPECT_EQ(s0.Find("events")->items()[0].Find("kind")->str(), "splice");
  EXPECT_EQ(s0.Find("events")->items()[0].Find("request")->integer(), 5);
  EXPECT_EQ(s0.Find("vm")->Find("kernel_us")->integer(), 9);
  const net::Json& s1 = steps->items()[1];
  ASSERT_NE(s1.Find("ok"), nullptr);
  EXPECT_FALSE(s1.Find("ok")->boolean());
  EXPECT_EQ(s1.Find("events")->items()[0].Find("kind")->str(), "retire");
}

TEST(StepJournal, SlotTimelinesRenderPerSlotTracksAndCounters) {
  // Two slots: request 1 occupies slot 0 for steps 0..1, request 2 slot 1
  // for step 1 only and is still live at the window's end (clamped).
  obs::SlotTimeline timeline;
  timeline.model = "m";
  timeline.num_slots = 2;
  obs::StepRecord r0 = MakeStep(0, 1, 2);
  r0.events.push_back(obs::StepEvent{obs::StepEvent::Kind::kSplice, 1, 0, 2});
  obs::StepRecord r1 = MakeStep(1, 2, 2);
  r1.events.push_back(obs::StepEvent{obs::StepEvent::Kind::kSplice, 2, 1, 9});
  r1.events.push_back(obs::StepEvent{obs::StepEvent::Kind::kRetire, 1, 0, 2});
  timeline.records = {r0, r1};

  std::string json = obs::ChromeTraceJson({}, {timeline});
  std::string parse_error;
  net::Json doc = net::Json::Parse(json, &parse_error);
  ASSERT_TRUE(doc.is_object()) << parse_error << "\n" << json;
  const net::Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);

  bool saw_process_name = false, saw_slot0_thread = false;
  size_t tenancies = 0, occupancy_samples = 0, latency_samples = 0;
  for (const net::Json& event : events->items()) {
    const std::string& name = event.Find("name")->str();
    const std::string& ph = event.Find("ph")->str();
    if (ph == "M" && name == "process_name") {
      saw_process_name = true;
      EXPECT_EQ(event.Find("args")->Find("name")->str(), "slots:m");
      EXPECT_GE(event.Find("pid")->integer(), 2) << "pid 1 is requests";
    }
    if (ph == "M" && name == "thread_name" &&
        event.Find("tid")->integer() == 0) {
      saw_slot0_thread = true;
      EXPECT_EQ(event.Find("args")->Find("name")->str(), "slot 0");
    }
    if (ph == "X") {
      tenancies++;
      EXPECT_EQ(name.compare(0, 4, "req "), 0) << name;
      EXPECT_GE(event.Find("dur")->number(), 0.0);
    }
    if (ph == "C" && name == "occupancy") occupancy_samples++;
    if (ph == "C" && name == "step_latency_us") latency_samples++;
  }
  EXPECT_TRUE(saw_process_name);
  EXPECT_TRUE(saw_slot0_thread);
  EXPECT_EQ(tenancies, 2u)
      << "one closed tenancy plus one clamped to the window end";
  EXPECT_EQ(occupancy_samples, 2u) << "one occupancy sample per step";
  EXPECT_EQ(latency_samples, 2u);
}

// ---- VM profiling (the EnableProfiling wiring) --------------------------------

std::shared_ptr<vm::Executable> BuildSmallLSTM(bool batched = false) {
  models::LSTMConfig config;
  config.input_size = 8;
  config.hidden_size = 12;
  config.emit_batched = batched;
  models::LSTMModel model = models::BuildLSTM(config);
  core::CompileOptions opts;
  if (batched) opts.batched_entries = {model.batched_spec};
  return core::Compile(model.module, opts).executable;
}

TEST(Obs, VMProfileAccumulatesWhenEnabledAndResetClears) {
  auto exec = BuildSmallLSTM();
  vm::VirtualMachine vm(exec);
  support::Rng rng(11);
  NDArray x = models::RandomSequence(6, 8, rng);

  vm.EnableProfiling(true);
  vm.Invoke("main", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(6))});
  EXPECT_GT(vm.profile().instructions, 0);
  EXPECT_GT(vm.profile().total_nanos, 0);
  EXPECT_GT(vm.profile().kernel_nanos, 0);

  // Reset() must clear the profile, so one batch never inherits its
  // predecessor's nanos (the pool calls Reset between batches).
  vm.Reset();
  EXPECT_EQ(vm.profile().instructions, 0);
  EXPECT_EQ(vm.profile().total_nanos, 0);
  EXPECT_EQ(vm.profile().kernel_nanos, 0);

  // Profiling off: instructions still run, nothing accumulates.
  vm.EnableProfiling(false);
  vm.Invoke("main", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(6))});
  EXPECT_EQ(vm.profile().instructions, 0);
}

// ---- end-to-end lifecycle -----------------------------------------------------

TEST(Obs, ServedRequestYieldsOrderedTraceWithExecProfile) {
  auto exec = BuildSmallLSTM(/*batched=*/true);
  serve::ServeConfig config;
  config.num_workers = 2;
  serve::ModelConfig model;
  model.exec = exec;
  model.batch.max_batch_size = 4;
  model.batch.max_wait_micros = 500;
  model.batch.tensor_batching = true;
  serve::Server server(std::move(model), config);

  support::Rng rng(5);
  constexpr int kRequests = 8;
  std::vector<std::future<runtime::ObjectRef>> futures;
  for (int i = 0; i < kRequests; ++i) {
    int64_t len = 3 + (i * 7) % 11;
    NDArray x = models::RandomSequence(len, 8, rng);
    futures.push_back(server.Submit(
        {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))}, len));
  }
  for (auto& future : futures) future.get();
  server.Drain();

  obs::Tracer& tracer = *server.tracer();
  EXPECT_EQ(tracer.committed(), kRequests)
      << "every completed request commits exactly one trace";
  std::vector<obs::TraceRecord> records = tracer.Recent(kRequests);
  ASSERT_EQ(records.size(), static_cast<size_t>(kRequests));
  std::set<int64_t> ids;
  for (const obs::TraceRecord& record : records) {
    const obs::TraceContext& ctx = record.ctx;
    EXPECT_TRUE(ctx.ok);
    EXPECT_EQ(ctx.model, "default");
    ids.insert(ctx.id);
    std::vector<obs::SpanView> spans = obs::TraceSpans(ctx);
    ASSERT_EQ(spans.size(), 6u);
    for (size_t i = 0; i < spans.size(); ++i) {
      EXPECT_LE(spans[i].begin, spans[i].end) << spans[i].name;
      if (i > 0) EXPECT_EQ(spans[i].begin, spans[i - 1].end);
    }
    EXPECT_GT(ctx.e2e_us(), 0);
    EXPECT_GT(spans[3].duration_us() + spans[1].duration_us(), 0)
        << "queue + exec dominate a real request";
    EXPECT_GT(ctx.vm.instructions, 0)
        << "tracing must enable VM profiling on the worker";
    EXPECT_GE(ctx.vm.kernel_nanos, 0);
  }
  EXPECT_EQ(ids.size(), static_cast<size_t>(kRequests))
      << "distinct requests, distinct trace ids";
}

TEST(Obs, TracingOffServesWithoutCommittingTraces) {
  auto exec = BuildSmallLSTM();
  serve::ServeConfig config;
  config.num_workers = 1;
  config.trace.enabled = false;
  serve::Server server(serve::ModelConfig{exec}, config);

  support::Rng rng(6);
  NDArray x = models::RandomSequence(5, 8, rng);
  server.Submit({MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(5))}, 5)
      .get();
  server.Drain();
  EXPECT_EQ(server.tracer()->committed(), 0);
  EXPECT_EQ(server.stats().completed, 1);
}

// ---- metrics through the server -----------------------------------------------

TEST(Obs, ServerMetricsCountersMatchServeStats) {
  auto exec = BuildSmallLSTM();
  serve::ServeConfig config;
  config.num_workers = 1;
  serve::Server server(serve::ModelConfig{exec}, config);

  support::Rng rng(8);
  constexpr int kRequests = 5;
  std::vector<std::future<runtime::ObjectRef>> futures;
  for (int i = 0; i < kRequests; ++i) {
    NDArray x = models::RandomSequence(4, 8, rng);
    futures.push_back(server.Submit(
        {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(4))}, 4));
  }
  for (auto& future : futures) future.get();
  server.Drain();

  obs::MetricRegistry& registry = *server.metrics_registry();
  EXPECT_EQ(registry
                .GetCounter("nimble_requests_total",
                            {{"model", "default"}, {"outcome", "completed"}})
                ->Value(),
            kRequests);
  EXPECT_EQ(registry
                .GetCounter("nimble_arrivals_total", {{"model", "default"}})
                ->Value(),
            kRequests);
  std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("nimble_requests_total{model=\"default\","
                      "outcome=\"completed\"} 5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE nimble_e2e_latency_us histogram"),
            std::string::npos);
}

// ---- memory observability -----------------------------------------------------

// The global copy ledger is process-lifetime (tests share it), so every
// assertion here is on before/after deltas, never absolute values.
int64_t LedgerBytes(obs::CopySite site) {
  for (const obs::CopySiteSnapshot& s : obs::CopyLedgerSnapshot()) {
    if (s.site == std::string(obs::CopySiteName(site))) return s.bytes;
  }
  ADD_FAILURE() << "site missing from snapshot";
  return 0;
}

TEST(Memory, CopyLedgerMergesAcrossThreadsAndTagsSites) {
  int64_t pack_before = LedgerBytes(obs::CopySite::kPack);
  int64_t unpack_before = LedgerBytes(obs::CopySite::kUnpack);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::RecordCopy(obs::CopySite::kPack, 3);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(LedgerBytes(obs::CopySite::kPack) - pack_before,
            int64_t{3} * kThreads * kPerThread)
      << "merged shards must equal the sum of every thread's adds";
  EXPECT_EQ(LedgerBytes(obs::CopySite::kUnpack), unpack_before)
      << "records must land on their own site only";
}

TEST(Memory, KillSwitchStopsLedgerRecording) {
  int64_t before = LedgerBytes(obs::CopySite::kSerialize);
  obs::SetMemoryTelemetryEnabled(false);
  obs::RecordCopy(obs::CopySite::kSerialize, 1 << 20);
  obs::RecordPoolEvent(obs::PoolEvent::kHit, 1000);
  obs::SetMemoryTelemetryEnabled(true);
  EXPECT_EQ(LedgerBytes(obs::CopySite::kSerialize), before);
  obs::RecordCopy(obs::CopySite::kSerialize, 7);
  EXPECT_EQ(LedgerBytes(obs::CopySite::kSerialize), before + 7)
      << "re-enabling must restore recording";
}

TEST(Memory, AllocatorTracksLivePeakAndPoolCounters) {
  runtime::PoolingAllocator alloc;
  auto stats0 = alloc.stats();
  EXPECT_EQ(stats0.live_bytes, 0);

  auto a = alloc.Alloc(1000, 64, runtime::Device::CPU());
  auto b = alloc.Alloc(5000, 64, runtime::Device::CPU());
  auto mid = alloc.stats();
  EXPECT_EQ(mid.alloc_calls, 2);
  EXPECT_EQ(mid.system_allocs, 2) << "cold pool: every alloc misses";
  EXPECT_GE(mid.live_bytes, 6000) << "bucket rounding may only add";
  EXPECT_EQ(mid.peak_bytes, mid.live_bytes);
  int64_t peak_at_two = mid.peak_bytes;

  a.reset();  // refills the pool
  b.reset();
  auto drained = alloc.stats();
  EXPECT_EQ(drained.live_bytes, 0) << "every byte freed must leave live";
  EXPECT_EQ(drained.peak_bytes, peak_at_two) << "peak is a high-water mark";
  EXPECT_EQ(drained.free_calls, 2);
  EXPECT_EQ(drained.bytes_freed, drained.bytes_allocated);
  EXPECT_EQ(drained.pool_refills, 2);

  // Same sizes again: served from the free lists, and the class table
  // shows the cached blocks while they are free, not while they are out.
  auto c = alloc.Alloc(1000, 64, runtime::Device::CPU());
  auto after_hit = alloc.stats();
  EXPECT_EQ(after_hit.pool_hits, 1);
  EXPECT_EQ(after_hit.system_allocs, 2) << "no new OS allocation";
  std::vector<obs::PoolClassOccupancy> classes = alloc.PoolClasses();
  int64_t cached_blocks = 0;
  for (const obs::PoolClassOccupancy& cls : classes) {
    EXPECT_EQ(cls.bytes, cls.bucket_bytes * cls.blocks);
    cached_blocks += cls.blocks;
  }
  EXPECT_EQ(cached_blocks, 1) << "one block cached (the 5000-byte class)";

  // ResetStats zeroes the counter view and the live/peak pair.
  c.reset();
  alloc.ResetStats();
  auto reset = alloc.stats();
  EXPECT_EQ(reset.alloc_calls, 0);
  EXPECT_EQ(reset.live_bytes, 0);
  EXPECT_EQ(reset.peak_bytes, 0);
}

TEST(Memory, ConcurrentAllocatorsAndScrapersStayConsistent) {
  runtime::PoolingAllocator alloc;
  std::atomic<bool> stop{false};
  constexpr int kWriters = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&alloc] {
      for (int i = 0; i < 3000; ++i) {
        auto buf = alloc.Alloc(256 + 64 * (i % 7), 64,
                               runtime::Device::CPU());
        obs::RecordCopy(obs::CopySite::kStepState, 64);
      }
    });
  }
  std::thread scraper([&] {
    while (!stop.load()) {
      auto stats = alloc.stats();
      EXPECT_GE(stats.live_bytes, 0);
      EXPECT_GE(stats.peak_bytes, stats.live_bytes);
      alloc.PoolClasses();
      obs::CopyLedgerSnapshot();
      obs::PoolEventsSnapshot();
    }
  });
  for (auto& t : writers) t.join();
  stop = true;
  scraper.join();
  auto end = alloc.stats();
  EXPECT_EQ(end.alloc_calls, kWriters * 3000);
  EXPECT_EQ(end.live_bytes, 0);
  EXPECT_EQ(end.bytes_freed, end.bytes_allocated);
}

TEST(Memory, PressureCheckOnceTripsAndClears) {
  obs::Gauge gauge;
  std::atomic<int64_t> live{0};
  obs::MemoryPressureConfig config;
  config.soft_limit_bytes = 1000;
  config.shed_threshold = 1.0;
  obs::MemoryPressure pressure(
      config, [&live] { return live.load(); }, &gauge);
  EXPECT_EQ(pressure.pressure(), 0.0) << "no poll yet";
  EXPECT_FALSE(pressure.should_shed());

  auto t0 = obs::SteadyClock::now();
  live = 500;
  EXPECT_DOUBLE_EQ(pressure.CheckOnce(t0), 0.5);
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.5);
  EXPECT_FALSE(pressure.should_shed());

  live = 2000;
  EXPECT_DOUBLE_EQ(pressure.CheckOnce(t0 + std::chrono::seconds(1)), 2.0);
  EXPECT_TRUE(pressure.should_shed()) << "over the limit must shed";

  live = 100;
  EXPECT_DOUBLE_EQ(pressure.CheckOnce(t0 + std::chrono::seconds(2)), 0.1);
  EXPECT_FALSE(pressure.should_shed()) << "pressure clears when live drops";
  EXPECT_DOUBLE_EQ(gauge.Value(), 0.1);
}

TEST(Memory, DebugMemoryJsonIsValidAndMetricsCarryFamilies) {
  auto exec = BuildSmallLSTM();
  serve::ServeConfig config;
  config.num_workers = 1;
  serve::Server server(serve::ModelConfig{exec}, config);
  net::InferenceHandler handler(&server);

  support::Rng rng(21);
  NDArray x = models::RandomSequence(4, 8, rng);
  server.Submit({MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(4))}, 4)
      .get();
  server.Drain();

  std::string body = handler.MemoryJson(/*n=*/256).Dump();
  std::string error;
  net::Json doc = net::Json::Parse(body, &error);
  ASSERT_TRUE(doc.is_object()) << error;
  ASSERT_NE(doc.Find("scopes"), nullptr);
  // worker:0 plus the two global scopes (no continuous model here).
  EXPECT_EQ(doc.Find("scopes")->items().size(), 3u);
  std::set<std::string> scope_names;
  for (const net::Json& scope : doc.Find("scopes")->items()) {
    scope_names.insert(scope.Find("scope")->str());
    EXPECT_GE(scope.Find("bytes_allocated")->integer(), 0);
    EXPECT_GE(scope.Find("peak_bytes")->integer(),
              scope.Find("live_bytes")->integer());
    EXPECT_TRUE(scope.Find("classes")->is_array());
  }
  EXPECT_TRUE(scope_names.count("worker:0"));
  EXPECT_TRUE(scope_names.count("global:pool"));
  EXPECT_TRUE(scope_names.count("global:naive"));
  const net::Json* sites = doc.Find("copy_sites");
  ASSERT_NE(sites, nullptr);
  EXPECT_EQ(sites->items().size(), obs::kNumCopySites)
      << "the full closed taxonomy, zeros included";
  ASSERT_NE(doc.Find("pressure"), nullptr);
  EXPECT_FALSE(doc.Find("pressure")->Find("configured")->boolean())
      << "no soft limit configured in this server";

  // ?n= caps the per-scope class tables.
  net::Json capped = net::Json::Parse(handler.MemoryJson(/*n=*/1).Dump());
  for (const net::Json& scope : capped.Find("scopes")->items()) {
    EXPECT_LE(scope.Find("classes")->items().size(), 1u);
  }

  // The route itself answers 200 with the same document shape.
  net::HttpRequest request;
  request.method = "GET";
  request.target = "/debug/memory?n=8";
  net::InferenceHandler::Outcome outcome =
      handler.Handle(request, [](std::string) {});
  EXPECT_FALSE(outcome.async);
  EXPECT_NE(outcome.response.find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(outcome.response.find("\"copy_sites\""), std::string::npos);

  // /metrics exports all five families in one valid exposition.
  std::string metrics = handler.MetricsText();
  for (const char* needle :
       {"# TYPE nimble_mem_live_bytes gauge",
        "# TYPE nimble_mem_peak_bytes gauge",
        "# TYPE nimble_mem_pressure gauge",
        "# TYPE nimble_pool_events_total counter",
        "# TYPE nimble_copied_bytes_total counter",
        "nimble_mem_live_bytes{scope=\"total\"}",
        "nimble_pool_events_total{event=\"hit\"}",
        "nimble_copied_bytes_total{site=\"serialize\"}"}) {
    EXPECT_NE(metrics.find(needle), std::string::npos) << needle;
  }
  // /stats carries the memory digest.
  net::Json stats = handler.StatsJson();
  const net::Json* memory = stats.Find("memory");
  ASSERT_NE(memory, nullptr);
  EXPECT_GE(memory->Find("peak_bytes")->integer(), 0);
  ASSERT_NE(memory->Find("copied_bytes"), nullptr);
  EXPECT_NE(memory->Find("copied_bytes")->Find("step_state"), nullptr);
}

}  // namespace
}  // namespace nimble
