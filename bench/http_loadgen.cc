// Closed-loop HTTP load generator: the whole stack over loopback.
//
// Measures requests flowing socket -> epoll loop -> codec -> RequestQueue
// -> batch scheduler -> packed VM execution -> response, and compares the
// sustained req/s against the same pipeline driven in-process (packed
// tensor batching at batch 8, same executable and config), so the front
// end's overhead is a number, not a hope.
//
// Three phases, each validated against sequential single-VM execution
// (bit-identical bytes — throughput with wrong answers is not throughput):
//   1. in-process baseline: repeated burst submission straight into
//      serve::Server, packed tensor batching at batch 8;
//   2. HTTP closed-loop: N keep-alive client threads over loopback, each
//      sending the binary protocol (raw float32 + X-Nimble-Shape) by
//      default, --json-body for the JSON protocol. The phase-2 server also
//      registers the same executable as a continuous model "c" (4 slots)
//      and every 8th request routes there, so the step-level observability
//      plane is exercised by real wire traffic;
//   3. overload: a deliberately tiny pipeline (queue 4, 1 worker; the
//      scheduler's buckets hold at most 4 more) hammered by extra clients —
//      backpressure must be 429s on the wire, never 5xx, hangs, or drops.
//
// --json writes BENCH_http.json with all three phases' numbers for CI,
// plus five observability artifacts scraped from the phase-2 server
// after it drains (so every counter and step record has settled):
// METRICS.txt (the GET /metrics Prometheus exposition — counters must
// match the loadgen's own counts, checked by scripts/check_metrics.sh),
// STATS.json (the GET /stats document — a view of the same registry, so
// its per-model and aggregate counters must equal METRICS.txt exactly),
// TRACE.json (GET /debug/trace chrome-trace export, must be nonempty),
// STEPS.json (GET /debug/steps?model=c step-journal tail — splices,
// retires, and active-row counts are cross-checked against the loadgen's
// own continuous tallies), and MEMORY.json (GET /debug/memory allocator
// telemetry — post-drain live bytes, pool counters, and the per-site copy
// ledger, cross-checked against METRICS.txt). The phase-2 server also
// configures a generous memory soft limit (1 GiB — never trips at this
// scale) so the pressure plane polls and exports for real.
//
// --trace-overhead additionally A/B-measures two observability costs,
// each as alternating on/off runs keeping the best of 2 per configuration
// (so scheduler noise can't masquerade as overhead):
//   - telemetry: closed-loop HTTP runs with tracing AND the memory ledgers
//     enabled vs both disabled ("trace_overhead" in BENCH_http.json);
//   - step journal: unpaced in-process bursts of a 70/30 short/long mix
//     into a continuous model (hidden 128, 8 slots) with tracing AND the
//     per-step journal enabled vs both disabled, so the runner is
//     step-bound — the worst case for a per-step Push
//     ("step_journal_overhead").
// scripts/check_metrics.sh holds both to 3% of peak req/s.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/compiler.h"
#include "src/models/lstm.h"
#include "src/models/workloads.h"
#include "src/net/http_client.h"
#include "src/net/http_server.h"
#include "src/net/json.h"
#include "src/obs/memory.h"
#include "src/obs/metrics.h"
#include "src/serve/server.h"
#include "src/vm/vm.h"

using namespace nimble;  // NOLINT

namespace {

using Clock = std::chrono::steady_clock;

/// Production-mix lengths: traffic concentrated on recurring exact lengths,
/// several sharing one scheduler bucket.
std::vector<int64_t> SampleProductionMixLengths(int count, support::Rng& rng) {
  const int64_t hot[] = {18, 22, 27, 30, 35, 38, 59, 62};
  const int weight[] = {22, 18, 15, 12, 11, 9, 7, 6};  // percent
  std::vector<int64_t> lengths;
  lengths.reserve(count);
  for (int i = 0; i < count; ++i) {
    int pick = static_cast<int>(rng.Next() % 100);
    int acc = 0;
    int64_t len = hot[7];
    for (int j = 0; j < 8; ++j) {
      acc += weight[j];
      if (pick < acc) {
        len = hot[j];
        break;
      }
    }
    lengths.push_back(len);
  }
  return lengths;
}

/// Short/long mix for the step-journal arm: 70% short (4-8 steps), 30%
/// long (48-64 steps), so rows retire and splice at uneven steps.
std::vector<int64_t> SampleShortLongMixLengths(int count, support::Rng& rng) {
  std::vector<int64_t> lengths;
  lengths.reserve(count);
  for (int i = 0; i < count; ++i) {
    bool is_short = rng.Next() % 10 < 7;
    lengths.push_back(is_short ? rng.UniformInt(4, 8)
                               : rng.UniformInt(48, 64));
  }
  return lengths;
}

struct Workload {
  std::shared_ptr<vm::Executable> exec;
  int64_t input_size = 0;
  std::vector<int64_t> lengths;
  std::vector<runtime::NDArray> inputs;
  std::vector<runtime::NDArray> expected;  // sequential single-VM results
  /// Pre-serialized request bodies (the client threads' send cost is a
  /// write, not a serialization).
  std::vector<std::string> binary_bodies;
  std::vector<std::string> json_bodies;
};

/// Compiles the LSTM (batched and step twins stamped) and draws one input
/// per length from `rng`.
Workload MakeWorkload(std::vector<int64_t> lengths, int64_t input_size,
                      int64_t hidden_size, support::Rng& rng) {
  Workload w;
  w.input_size = input_size;
  models::LSTMConfig config;
  config.input_size = input_size;
  config.hidden_size = hidden_size;
  config.emit_batched = true;
  auto model = models::BuildLSTM(config);
  core::CompileOptions opts;
  opts.batched_entries = {model.batched_spec};
  w.exec = core::Compile(model.module, opts).executable;

  w.lengths = std::move(lengths);
  vm::VirtualMachine sequential(w.exec);
  for (int64_t len : w.lengths) {
    runtime::NDArray x = models::RandomSequence(len, config.input_size, rng);
    w.inputs.push_back(x);
    w.expected.push_back(runtime::AsTensor(sequential.Invoke(
        "main", {runtime::MakeTensor(x),
                 runtime::MakeTensor(runtime::NDArray::Scalar<int64_t>(len))})));

    w.binary_bodies.emplace_back(static_cast<const char*>(x.raw_data()),
                                 x.nbytes());

    net::Json tensor = net::Json::Object();
    net::Json shape = net::Json::Array();
    shape.Append(len);
    shape.Append(w.input_size);
    tensor.Set("shape", std::move(shape));
    net::Json data = net::Json::Array();
    const float* src = x.data<float>();
    for (int64_t i = 0; i < x.num_elements(); ++i) {
      data.Append(static_cast<double>(src[i]));
    }
    tensor.Set("data", std::move(data));
    net::Json scalar = net::Json::Object();
    scalar.Set("scalar", len);
    net::Json inputs_json = net::Json::Array();
    inputs_json.Append(std::move(tensor));
    inputs_json.Append(std::move(scalar));
    net::Json body = net::Json::Object();
    body.Set("inputs", std::move(inputs_json));
    body.Set("length", len);
    w.json_bodies.push_back(body.Dump());
  }
  return w;
}

serve::ModelConfig MakeModelConfig(const Workload& w, size_t queue_capacity,
                                   int max_batch) {
  serve::ModelConfig model;
  model.exec = w.exec;
  model.queue_capacity = queue_capacity;
  model.batch.max_batch_size = max_batch;
  model.batch.max_wait_micros = 100000;
  model.batch.tensor_batching = true;
  model.batch.bucket_edges = {16, 24, 32, 40, 48, 56, 64, 96, 128};
  return model;
}

/// Burst submission of every request straight into a server serving
/// `model`, repeated until `seconds` have passed (at least one burst). Phase
/// 1 runs it on the packed path (deep queue, batch 8); the step-journal arm
/// runs single bursts on a continuous model.
struct InprocResult {
  double rps = 0.0;
  double p99_us = 0.0;
  bool correct = true;
};

InprocResult RunInprocess(const Workload& w, const serve::ServeConfig& config,
                          serve::ModelConfig model, double seconds) {
  serve::Server server(config);
  server.AddModel("m", std::move(model));
  server.Start();

  InprocResult result;
  int64_t completed = 0;
  auto t0 = Clock::now();
  auto deadline = t0 + std::chrono::duration<double>(seconds);
  do {
    std::vector<std::future<runtime::ObjectRef>> futures;
    futures.reserve(w.inputs.size());
    for (size_t i = 0; i < w.inputs.size(); ++i) {
      futures.push_back(server.Submit(
          "m",
          {runtime::MakeTensor(w.inputs[i]),
           runtime::MakeTensor(
               runtime::NDArray::Scalar<int64_t>(w.lengths[i]))},
          w.lengths[i]));
    }
    for (size_t i = 0; i < futures.size(); ++i) {
      runtime::ObjectRef out = futures[i].get();  // keep the result alive
      const runtime::NDArray& got = runtime::AsTensor(out);
      if (got.shape() != w.expected[i].shape() ||
          std::memcmp(got.raw_data(), w.expected[i].raw_data(),
                      got.nbytes()) != 0) {
        result.correct = false;
      }
      completed++;
    }
  } while (Clock::now() < deadline);
  double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  server.Drain();
  result.rps = static_cast<double>(completed) / elapsed;
  result.p99_us = server.stats().p99_latency_us;
  return result;
}

/// Phase 2/3: closed-loop HTTP clients against a running front end.
struct HttpResult {
  int64_t ok200 = 0;
  int64_t shed429 = 0;
  int64_t server_5xx = 0;
  int64_t transport_errors = 0;
  int64_t mismatched = 0;
  /// The subset of ok200/shed429 that went to the continuous model "c",
  /// plus the total sequence length it served (== the live row steps its
  /// slot map must account for — cross-checked against /metrics and
  /// STEPS.json by scripts/check_metrics.sh).
  int64_t ok200_c = 0;
  int64_t shed429_c = 0;
  int64_t rows_c = 0;
  double elapsed_seconds = 0.0;
  double rps = 0.0;  // completed (200) per second
  double p50_us = 0.0, p99_us = 0.0;
};

/// `continuous_every` > 0 routes every Nth request of each client to the
/// continuous model "c" (same executable, same expected bytes); 0 sends
/// everything to the packed model "m".
HttpResult RunHttpClosedLoop(const Workload& w, uint16_t port, int clients,
                             double seconds, bool json_body,
                             int continuous_every = 0) {
  std::vector<std::vector<double>> latencies(clients);
  std::vector<HttpResult> per_thread(clients);
  auto t0 = Clock::now();
  auto deadline = t0 + std::chrono::duration<double>(seconds);

  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      net::BlockingHttpClient client("127.0.0.1", port);
      HttpResult& r = per_thread[c];
      size_t i = static_cast<size_t>(c) % w.inputs.size();
      int64_t iteration = 0;
      while (Clock::now() < deadline) {
        bool to_c =
            continuous_every > 0 && iteration % continuous_every == 0;
        iteration++;
        const char* target =
            to_c ? "/v1/models/c:predict" : "/v1/models/m:predict";
        auto sent = Clock::now();
        net::BlockingHttpClient::Response response;
        if (json_body) {
          response = client.Post(target, w.json_bodies[i]);
        } else {
          std::string shape = std::to_string(w.lengths[i]) + "," +
                              std::to_string(w.input_size);
          response = client.Request(
              "POST", target, w.binary_bodies[i],
              {{"Content-Type", "application/octet-stream"},
               {"Accept", "application/octet-stream"},
               {"X-Nimble-Shape", shape},
               {"X-Nimble-Length", std::to_string(w.lengths[i])}});
        }
        double us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                              sent)
                        .count();
        if (!response.ok) {
          r.transport_errors++;
        } else if (response.status == 200) {
          r.ok200++;
          if (to_c) {
            r.ok200_c++;
            r.rows_c += w.lengths[i];
          }
          latencies[c].push_back(us);
          // Validate the payload (binary: exact bytes; JSON: exact floats
          // after the 9-digit round-trip).
          if (json_body) {
            net::Json doc = net::Json::Parse(response.body);
            const net::Json* data = doc.is_object() ? doc.Find("data")
                                                    : nullptr;
            const float* want = w.expected[i].data<float>();
            int64_t n = w.expected[i].num_elements();
            if (data == nullptr ||
                static_cast<int64_t>(data->items().size()) != n) {
              r.mismatched++;
            } else {
              for (int64_t j = 0; j < n; ++j) {
                if (static_cast<float>(data->items()[j].number()) !=
                    want[j]) {
                  r.mismatched++;
                  break;
                }
              }
            }
          } else if (response.body.size() != w.expected[i].nbytes() ||
                     std::memcmp(response.body.data(),
                                 w.expected[i].raw_data(),
                                 response.body.size()) != 0) {
            r.mismatched++;
          }
        } else if (response.status == 429) {
          r.shed429++;
          if (to_c) r.shed429_c++;
          // A shed client backs off briefly (far shorter than the server's
          // conservative Retry-After hint, so overload pressure persists
          // and the phase still measures shedding, not sleeping).
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        } else if (response.status >= 500) {
          r.server_5xx++;
        }
        i = (i + static_cast<size_t>(clients)) % w.inputs.size();
      }
    });
  }
  for (auto& t : threads) t.join();

  HttpResult total;
  total.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  std::vector<double> all_latencies;
  for (int c = 0; c < clients; ++c) {
    total.ok200 += per_thread[c].ok200;
    total.shed429 += per_thread[c].shed429;
    total.server_5xx += per_thread[c].server_5xx;
    total.transport_errors += per_thread[c].transport_errors;
    total.mismatched += per_thread[c].mismatched;
    total.ok200_c += per_thread[c].ok200_c;
    total.shed429_c += per_thread[c].shed429_c;
    total.rows_c += per_thread[c].rows_c;
    all_latencies.insert(all_latencies.end(), latencies[c].begin(),
                         latencies[c].end());
  }
  total.rps = static_cast<double>(total.ok200) / total.elapsed_seconds;
  total.p50_us = obs::NearestRankPercentile(all_latencies, 50.0);
  total.p99_us = obs::NearestRankPercentile(all_latencies, 99.0);
  return total;
}

/// Scrapes one observability endpoint off the live front end into a file.
/// Returns false (and says why) when the scrape failed or came back empty.
bool DumpEndpoint(uint16_t port, const std::string& target,
                  const char* path) {
  net::BlockingHttpClient client("127.0.0.1", port);
  auto response = client.Get(target);
  if (!response.ok || response.status != 200 || response.body.empty()) {
    std::fprintf(stderr, "scrape of %s failed (status %d)\n", target.c_str(),
                 response.status);
    return false;
  }
  FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::fwrite(response.body.data(), 1, response.body.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu bytes from %s)\n", path, response.body.size(),
              target.c_str());
  return true;
}

/// --trace-overhead: peak req/s with an observability feature on vs off.
struct OverheadResult {
  double rps_on = 0.0;
  double rps_off = 0.0;
  double overhead_pct = 0.0;
};

constexpr int kOverheadRounds = 2;

/// Alternates `run(true)` / `run(false)` for kOverheadRounds rounds and
/// keeps each configuration's best req/s, so one noisy run can't fake (or
/// hide) an overhead.
template <typename Run>
OverheadResult AlternateBestOf(Run run) {
  OverheadResult result;
  for (int round = 0; round < kOverheadRounds; ++round) {
    for (bool on : {true, false}) {
      double& best = on ? result.rps_on : result.rps_off;
      best = std::max(best, run(on));
    }
  }
  if (result.rps_off > 0.0) {
    result.overhead_pct = std::max(
        0.0, (result.rps_off - result.rps_on) / result.rps_off * 100.0);
  }
  return result;
}

/// Telemetry arm: closed-loop HTTP req/s with tracing and the memory
/// ledgers on vs off.
OverheadResult MeasureTraceOverhead(const Workload& w, int workers,
                                    int max_batch, int clients,
                                    double seconds, bool json_body) {
  double per_run = seconds / (2 * kOverheadRounds);
  OverheadResult result = AlternateBestOf([&](bool tracing) {
    serve::ServeConfig config;
    config.num_workers = workers;
    config.trace.enabled = tracing;
    // The memory ledgers toggle with tracing, so the A/B prices the whole
    // telemetry plane (copy ledger + pool events), not tracing alone.
    obs::SetMemoryTelemetryEnabled(tracing);
    serve::Server server(config);
    server.AddModel("m", MakeModelConfig(w, 256, max_batch));
    server.Start();
    net::HttpServer front(&server);
    front.Start();
    HttpResult run =
        RunHttpClosedLoop(w, front.port(), clients, per_run, json_body);
    front.Stop();
    server.Drain();
    return run.rps;
  });
  obs::SetMemoryTelemetryEnabled(true);
  return result;
}

/// Step-journal arm: one unpaced in-process burst of `mix` per run into an
/// 8-slot continuous model, with tracing and the step journal on vs off.
/// Clears `correct` if any burst's results diverge from sequential.
OverheadResult MeasureStepJournalOverhead(const Workload& mix,
                                          bool* correct) {
  return AlternateBestOf([&](bool obs_on) {
    serve::ServeConfig config;
    config.num_workers = 2;
    config.trace.enabled = obs_on;
    config.step_journal.enabled = obs_on;
    serve::ModelConfig model;
    model.exec = mix.exec;
    model.queue_capacity = mix.inputs.size() + 1;
    model.batch.continuous = true;
    model.batch.continuous_slots = 8;
    InprocResult run = RunInprocess(mix, config, std::move(model), 0.0);
    *correct = *correct && run.correct;
    return run.rps;
  });
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 192;
  int clients = 32;
  int workers = 1;
  double seconds = 3.0;
  bool write_json = false;
  bool json_body = false;
  bool trace_overhead = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      write_json = true;
    } else if (arg == "--json-body") {
      json_body = true;
    } else if (arg == "--trace-overhead") {
      trace_overhead = true;
    } else if (arg == "--clients" && i + 1 < argc) {
      clients = std::atoi(argv[++i]);
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::atof(argv[++i]);
    } else {
      requests = std::atoi(argv[i]);
    }
  }
  const int kBatch = 8;

  unsigned cores = std::thread::hardware_concurrency();
  std::printf("host: %u hardware thread(s)\n", cores);
  if (cores <= 1) {
    std::printf(
        "NOTE: single-core host — clients, event loop, and workers share "
        "one CPU;\n      the HTTP-vs-in-process ratio is the honest "
        "front-end overhead.\n");
  }

  bench::PrintHeader(
      "HTTP loadgen: LSTM (in 128, hidden 256), production-mix lengths, " +
      std::to_string(requests) + " distinct requests, batch " +
      std::to_string(kBatch) + ", " + std::to_string(workers) +
      " worker(s), " + std::to_string(clients) + " closed-loop clients, " +
      (json_body ? "JSON" : "binary") + " bodies");
  support::Rng rng(29);
  Workload w = MakeWorkload(SampleProductionMixLengths(requests, rng),
                            /*input_size=*/128, /*hidden_size=*/256, rng);

  // Phase 1: in-process packed baseline.
  serve::ServeConfig inproc_config;
  inproc_config.num_workers = workers;
  InprocResult inproc = RunInprocess(w, inproc_config,
                                     MakeModelConfig(w, 256, kBatch), seconds);
  std::printf("in-process packed: %9.1f req/s   p99 %7.0f us   %s\n",
              inproc.rps, inproc.p99_us,
              inproc.correct ? "bit-identical" : "WRONG RESULTS");

  // Phase 2: the same pipeline behind the HTTP front end, plus the same
  // executable as a continuous model — every 8th request exercises the
  // slot map, the step journal, and the splice/retire metrics over the
  // wire.
  const int kContinuousSlots = 4;
  const int kContinuousEvery = 8;
  HttpResult http;
  serve::StatsSnapshot snap_c;
  int64_t mem_peak_bytes = 0;
  int64_t mem_copied_bytes = 0;
  {
    serve::ServeConfig config;
    config.num_workers = workers;
    // A soft limit far above what this workload can reach: the pressure
    // plane polls, gauges, and exports for real without ever shedding
    // (scripts/check_metrics.sh asserts pressure == 0 after the run).
    config.memory.soft_limit_bytes = int64_t{1} << 30;
    serve::Server server(config);
    server.AddModel("m", MakeModelConfig(w, 256, kBatch));
    serve::ModelConfig continuous;
    continuous.exec = w.exec;
    continuous.queue_capacity = 256;
    continuous.batch.continuous = true;
    continuous.batch.continuous_slots = kContinuousSlots;
    server.AddModel("c", std::move(continuous));
    server.Start();
    net::HttpServer front(&server);
    front.Start();
    http = RunHttpClosedLoop(w, front.port(), clients, seconds, json_body,
                             kContinuousEvery);
    // Drain BEFORE scraping: the packed path records every completion
    // before its response leaves the worker, but the continuous runner
    // pushes a step's journal record (and its retire tallies) after the
    // completion callbacks, so the last response can beat the last record.
    // After Drain the runners have joined and every counter has settled,
    // making the client-tally cross-checks in scripts/check_metrics.sh
    // exact. The GET endpoints stay up — only admission is closed.
    server.Drain();
    if (write_json) {
      DumpEndpoint(front.port(), "/metrics", "METRICS.txt");
      DumpEndpoint(front.port(), "/stats", "STATS.json");
      DumpEndpoint(front.port(), "/debug/trace?n=64", "TRACE.json");
      DumpEndpoint(front.port(), "/debug/steps?model=c", "STEPS.json");
      DumpEndpoint(front.port(), "/debug/memory", "MEMORY.json");
    }
    front.Stop();
    auto snap = server.stats();
    snap_c = server.stats("c");
    for (const obs::AllocScopeSample& scope : server.MemoryScopes()) {
      mem_peak_bytes += scope.peak_bytes;
    }
    for (const obs::CopySiteSnapshot& site : obs::CopyLedgerSnapshot()) {
      mem_copied_bytes += site.bytes;
    }
    std::printf("http closed-loop:  %9.1f req/s   p50 %7.0f us   p99 %7.0f "
                "us\n",
                http.rps, http.p50_us, http.p99_us);
    std::printf(
        "                   server-side queue-wait mean %.0f us, exec mean "
        "%.0f us, %lld batches (mean size %.2f), padding waste %.1f%%\n",
        snap.mean_queue_wait_us, snap.mean_exec_us,
        static_cast<long long>(snap.batches), snap.mean_batch_size,
        snap.padding_waste * 100.0);
    std::printf(
        "continuous \"c\":   %lld of the 200s (every %dth request), %lld "
        "rows over %lld steps (%lld splices), mean step %.0f us, mean "
        "occupancy %.2f/%d\n",
        static_cast<long long>(http.ok200_c), kContinuousEvery,
        static_cast<long long>(http.rows_c),
        static_cast<long long>(snap_c.continuous_steps),
        static_cast<long long>(snap_c.splices),
        snap_c.mean_step_duration_us, snap_c.mean_slot_occupancy,
        kContinuousSlots);
  }
  double ratio = inproc.rps > 0.0 ? http.rps / inproc.rps : 0.0;
  bench::PrintRule();
  std::printf(
      "HTTP vs in-process: %.1f vs %.1f req/s (%.1f%% of the packed path), "
      "results %s\n",
      http.rps, inproc.rps, ratio * 100.0,
      (http.mismatched == 0 && http.transport_errors == 0 &&
       http.server_5xx == 0)
          ? "bit-identical, no errors"
          : "WRONG");

  // Phase 3: overload against a deliberately tiny pipeline. Offered load
  // (extra clients, zero think time) far exceeds queue capacity 4; every
  // excess request must surface as a 429, never a 5xx or a hang.
  bench::PrintHeader("overload: queue 4, 1 worker, " +
                     std::to_string(clients * 2) + " clients");
  HttpResult overload;
  {
    serve::ServeConfig config;
    config.num_workers = 1;
    serve::Server server(config);
    server.AddModel("m", MakeModelConfig(w, 4, kBatch));
    server.Start();
    net::HttpServer front(&server);
    front.Start();
    overload = RunHttpClosedLoop(w, front.port(), clients * 2,
                                 std::min(seconds, 2.0), json_body);
    front.Stop();
    server.Drain();
  }
  std::printf(
      "200s %lld (%.1f req/s), 429s %lld (clients back off and retry), "
      "5xx %lld, transport errors %lld, mismatches %lld\n",
      static_cast<long long>(overload.ok200), overload.rps,
      static_cast<long long>(overload.shed429),
      static_cast<long long>(overload.server_5xx),
      static_cast<long long>(overload.transport_errors),
      static_cast<long long>(overload.mismatched));
  bool overload_clean = overload.server_5xx == 0 &&
                        overload.transport_errors == 0 &&
                        overload.mismatched == 0 && overload.shed429 > 0;
  std::printf("backpressure on the wire: %s\n",
              overload_clean ? "OK (shed as 429, zero 5xx/drops)"
                             : "FAILED");

  // Optional phase 4: what do always-on telemetry and the step journal
  // cost?
  OverheadResult overhead;
  OverheadResult journal_overhead;
  bool journal_correct = true;
  if (trace_overhead) {
    bench::PrintHeader("telemetry overhead: alternating tracing+memory "
                       "ledgers on/off, best of 2 runs each");
    overhead = MeasureTraceOverhead(w, workers, kBatch, clients, seconds,
                                    json_body);
    std::printf(
        "telemetry on %.1f req/s, off %.1f req/s -> overhead %.2f%% "
        "(budget 3%%)\n",
        overhead.rps_on, overhead.rps_off, overhead.overhead_pct);

    const int kMixRequests = 96;
    bench::PrintHeader(
        "step-journal overhead: continuous burst of " +
        std::to_string(kMixRequests) +
        " requests (70% short / 30% long, in 64, hidden 128, 8 slots), "
        "tracing+journal on/off, best of 2 runs each");
    support::Rng mix_rng(43);
    Workload mix = MakeWorkload(
        SampleShortLongMixLengths(kMixRequests, mix_rng),
        /*input_size=*/64, /*hidden_size=*/128, mix_rng);
    journal_overhead = MeasureStepJournalOverhead(mix, &journal_correct);
    std::printf(
        "step journal on %.1f req/s, off %.1f req/s -> overhead %.2f%% "
        "(budget 3%%), results %s\n",
        journal_overhead.rps_on, journal_overhead.rps_off,
        journal_overhead.overhead_pct,
        journal_correct ? "bit-identical" : "WRONG");
  }

  bool correct = inproc.correct && journal_correct && http.mismatched == 0 &&
                 http.transport_errors == 0 && http.server_5xx == 0;
  if (write_json) {
    FILE* f = std::fopen("BENCH_http.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_http.json\n");
      return 1;
    }
    std::fprintf(
        f,
        "{\n"
        "  \"requests\": %d,\n"
        "  \"clients\": %d,\n"
        "  \"workers\": %d,\n"
        "  \"body_format\": \"%s\",\n"
        "  \"correct\": %s,\n"
        "  \"inprocess_packed\": {\"rps\": %.1f, \"p99_us\": %.0f},\n"
        "  \"http\": {\"rps\": %.1f, \"p50_us\": %.0f, \"p99_us\": %.0f,\n"
        "           \"completed\": %lld, \"rejected_429\": %lld,\n"
        "           \"server_5xx\": %lld, \"transport_errors\": %lld},\n"
        "  \"http_vs_inprocess_ratio\": %.3f,\n"
        "  \"continuous\": {\"slots\": %d, \"every\": %d,\n"
        "                 \"completed\": %lld, \"rejected_429\": %lld,\n"
        "                 \"rows\": %lld, \"splices\": %lld, "
        "\"steps\": %lld},\n"
        "  \"overload\": {\"completed\": %lld, \"rejected_429\": %lld,\n"
        "               \"server_5xx\": %lld, \"transport_errors\": %lld,\n"
        "               \"clean\": %s},\n"
        "  \"memory\": {\"peak_bytes\": %lld, \"copied_bytes\": %lld}",
        requests, clients, workers, json_body ? "json" : "binary",
        correct ? "true" : "false", inproc.rps, inproc.p99_us, http.rps,
        http.p50_us, http.p99_us, static_cast<long long>(http.ok200),
        static_cast<long long>(http.shed429),
        static_cast<long long>(http.server_5xx),
        static_cast<long long>(http.transport_errors), ratio,
        kContinuousSlots, kContinuousEvery,
        static_cast<long long>(http.ok200_c),
        static_cast<long long>(http.shed429_c),
        static_cast<long long>(http.rows_c),
        static_cast<long long>(snap_c.splices),
        static_cast<long long>(snap_c.continuous_steps),
        static_cast<long long>(overload.ok200),
        static_cast<long long>(overload.shed429),
        static_cast<long long>(overload.server_5xx),
        static_cast<long long>(overload.transport_errors),
        overload_clean ? "true" : "false",
        static_cast<long long>(mem_peak_bytes),
        static_cast<long long>(mem_copied_bytes));
    if (trace_overhead) {
      std::fprintf(
          f,
          ",\n  \"trace_overhead\": {\"rps_on\": %.1f, \"rps_off\": %.1f,\n"
          "                     \"overhead_pct\": %.2f},\n"
          "  \"step_journal_overhead\": {\"rps_on\": %.1f, "
          "\"rps_off\": %.1f,\n"
          "                            \"overhead_pct\": %.2f}",
          overhead.rps_on, overhead.rps_off, overhead.overhead_pct,
          journal_overhead.rps_on, journal_overhead.rps_off,
          journal_overhead.overhead_pct);
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_http.json\n");
  }
  return (correct && overload_clean) ? 0 : 1;
}
