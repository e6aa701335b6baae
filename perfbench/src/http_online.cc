// Workload http_lstm_online: a net::HttpServer over loopback in front of a
// continuous-batching LSTM (input 128, hidden 64, kConnections slots).
// kConnections keep-alive connections run a closed loop with the binary
// protocol and MRPC-like lengths. The model is small, so per-request and
// per-step overheads dominate: the front end, admission, StepRunner
// orchestration and the VM interpreter.
#include <cstring>
#include <stdexcept>
#include <thread>

#include "perfbench/src/common.h"
#include "perfbench/src/serving.h"
#include "src/models/lstm.h"
#include "src/net/http_client.h"
#include "src/net/http_server.h"
#include "src/serve/server.h"

namespace perfbench {
namespace {

namespace serve = nimble::serve;
using nimble::runtime::ObjectRef;

constexpr int kPoolSize = 64;     // distinct requests, one round
constexpr int kConnections = 4;   // closed-loop clients
constexpr int kSlots = kConnections;
constexpr size_t kQueueCapacity = 64;
// Step-journal ring for the traced run. Should the measured phase take
// more steps, the step metrics cover its latest kTracedJournal steps.
constexpr size_t kTracedJournal = size_t{1} << 17;
const char kTarget[] = "/v1/models/m:predict";

nimble::models::LSTMConfig ModelConfig() {
  nimble::models::LSTMConfig config;
  config.input_size = 128;
  config.hidden_size = 64;
  config.emit_batched = true;
  return config;
}

struct Request : LstmCase {
  std::string body;  // raw float32 [length, 128]
  std::vector<std::pair<std::string, std::string>> headers;
};

struct Setup {
  std::shared_ptr<nimble::vm::Executable> exec;
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<nimble::net::HttpServer> front;  // destroyed first
  double compile_ms = 0.0;
};

bool Matches(const nimble::net::BlockingHttpClient::Response& response,
             const Request& request) {
  return response.ok && response.status == 200 &&
         response.body.size() == request.expected.nbytes() &&
         std::memcmp(response.body.data(), request.expected.raw_data(),
                     response.body.size()) == 0;
}

/// Compile, start the server and the front end, send one warm-up request.
/// The continuous path has one executable path, the step, so one request
/// runs all of it.
std::unique_ptr<Setup> MakeSetup(const nimble::models::LSTMModel& model,
                                 const Request& warmup,
                                 const serve::ServeConfig& serve_config) {
  auto s = std::make_unique<Setup>();
  s->exec = CompileLstm(model, &s->compile_ms);

  s->server = std::make_unique<serve::Server>(serve_config);
  serve::ModelConfig m;
  m.exec = s->exec;
  m.queue_capacity = kQueueCapacity;
  m.batch.continuous = true;
  m.batch.continuous_slots = kSlots;
  s->server->AddModel("m", std::move(m));
  s->server->Start();
  s->front = std::make_unique<nimble::net::HttpServer>(s->server.get());
  s->front->Start();

  nimble::net::BlockingHttpClient client("127.0.0.1", s->front->port());
  auto response = client.Request("POST", kTarget, warmup.body, warmup.headers);
  if (!Matches(response, warmup)) {
    throw std::runtime_error("http_lstm_online: warm-up request failed");
  }
  return s;
}

/// kConnections closed-loop clients share whole rounds of the pool for at
/// least `seconds`. Latency is send to full response; the response bytes
/// are compared with the sequential result after the latency stamp.
Phase RunClients(uint16_t port, const std::vector<Request>& pool,
                 double seconds) {
  Phase phase;
  phase.start = Clock::now();
  RoundDispenser dispenser(
      static_cast<int64_t>(pool.size()),
      phase.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds)));
  std::vector<Phase> parts(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      nimble::net::BlockingHttpClient client("127.0.0.1", port);
      Phase& part = parts[static_cast<size_t>(c)];
      for (int64_t seq = dispenser.Next(); seq >= 0; seq = dispenser.Next()) {
        const Request& request = pool[static_cast<size_t>(seq) % pool.size()];
        auto sent = Clock::now();
        auto response =
            client.Request("POST", kTarget, request.body, request.headers);
        auto received = Clock::now();
        bool ok = request.reference_ok && Matches(response, request);
        part.Record(received, Seconds(received - sent) * 1e3,
                    ok ? request.length : 0);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const Phase& part : parts) {
    phase.attempted += part.attempted;
    phase.failed += part.failed;
    phase.samples.insert(phase.samples.end(), part.samples.begin(),
                         part.samples.end());
  }
  return phase;
}

}  // namespace

RunResult RunHttpOnline(const Options& options) {
  RunResult result = EmptyResult(options.trace);

  // Prepare (untimed): model, request bodies, sequential and reference
  // outputs.
  nimble::models::LSTMModel model = nimble::models::BuildLSTM(ModelConfig());
  const int64_t width = model.config.input_size;
  nimble::support::Rng rng(options.seed);
  std::vector<int64_t> lengths =
      StratifiedMRPCLengths(kPoolSize, rng);
  auto make_request = [width](LstmCase c) {
    Request request;
    static_cast<LstmCase&>(request) = std::move(c);
    request.body.assign(static_cast<const char*>(request.x.raw_data()),
                        request.x.nbytes());
    request.headers = {
        {"Content-Type", "application/octet-stream"},
        {"Accept", "application/octet-stream"},
        {"X-Nimble-Shape",
         std::to_string(request.length) + "," + std::to_string(width)},
        {"X-Nimble-Length", std::to_string(request.length)}};
    return request;
  };
  std::vector<Request> pool;
  for (LstmCase& c : PrepareLstmCases(model, lengths, rng, "http_lstm_online")) {
    if (!c.reference_ok) result.correct = false;
    pool.push_back(make_request(std::move(c)));
  }
  const Request warmup = make_request(std::move(
      PrepareLstmCases(model, {kWarmupLength}, rng, "http_lstm_online")
          .front()));

  serve::ServeConfig serve_config;
  if (options.trace) {
    serve_config.trace.ring_capacity = kTracedRing;
    serve_config.step_journal.ring_capacity = kTracedJournal;
  }
  std::vector<double> compile_ms;
  SetupTimer<Setup> setups([&] {
    auto s = MakeSetup(model, warmup, serve_config);
    compile_ms.push_back(s->compile_ms);
    return s;
  });
  std::unique_ptr<Setup> setup = setups.Repeat();
  serve::Server& server = *setup->server;
  const uint16_t port = setup->front->port();

  if (!options.trace) {
    Phase phase = RunClients(port, pool, options.seconds);
    setup->front->Stop();
    server.Drain();
    SetEndToEnd(phase, &result);
    setup.reset();
    setups.Repeat();
    result.Set("setup_s", setups.median_s());
    return result;
  }

  // Traced run, first half: attribution from the server's telemetry.
  setup->exec->dispatch_table.stats().Reset();
  serve::StatsSnapshot stats0 = server.stats("m");
  ScopeTotals scopes0 = SumScopes(server.MemoryScopes(), "model:");
  std::map<std::string, int64_t> copies0 = CopyBytesBySite();
  auto traced_start = Clock::now();
  Phase traced = RunClients(port, pool, options.seconds / 2);
  auto traced_end = Clock::now();
  serve::StatsSnapshot stats1 = server.stats("m");
  ScopeTotals scopes1 = SumScopes(server.MemoryScopes(), "model:");
  std::map<std::string, int64_t> copies1 = CopyBytesBySite();
  AddTallies(traced, &result);
  const double n = static_cast<double>(traced.attempted);

  std::vector<nimble::obs::TraceRecord> records =
      RecordsSince(server.tracer()->Recent(kTracedRing), traced_start);
  result.Set("compile.ms", Median(compile_ms));
  result.Set("compile.instructions",
             static_cast<double>(setup->exec->NumInstructions()));
  double server_e2e_us = SetSpanMetrics(records, &result);
  double client_us = 0.0;
  for (const Sample& sample : traced.samples) {
    client_us += sample.latency_ms * 1e3;
  }
  result.Set("net.overhead_us", client_us / n - server_e2e_us);

  // Steps of the measured phase from the step journal: step time, rows,
  // and the VM profile, divided over the requests retired in those steps.
  // Its last records can land a moment after the last response, so it is
  // read after the A/B below, filtered by time.
  const nimble::codegen::DispatchStats& dense =
      setup->exec->dispatch_table.stats();
  result.Set("dense.specialized_per_req", dense.specialized_calls.load() / n);
  result.Set("dense.fallback_per_req", dense.fallback_calls.load() / n);
  result.Set("dense.blocked_per_req", dense.blocked_calls.load() / n);
  result.Set("dense.parallel_per_req", dense.parallel_calls.load() / n);
  result.Set("alloc.calls_per_req",
             (scopes1.alloc_calls - scopes0.alloc_calls) / n);
  result.Set("alloc.pool_miss_per_req",
             (scopes1.system_allocs - scopes0.system_allocs) / n);
  result.Set("alloc.peak_mb", scopes1.peak_bytes / 1048576.0);
  result.Set("copy.step_state_bytes_per_req",
             (copies1["step_state"] - copies0["step_state"]) / n);
  result.Set("copy.http_decode_bytes_per_req",
             (copies1["http_decode"] - copies0["http_decode"]) / n);
  result.Set("copy.serialize_bytes_per_req",
             (copies1["serialize"] - copies0["serialize"]) / n);
  double splices = static_cast<double>(stats1.splices - stats0.splices);
  if (splices > 0) {
    result.Set("step.splice_wait_us",
               (stats1.mean_splice_wait_us * stats1.splices -
                stats0.mean_splice_wait_us * stats0.splices) /
                   splices);
  }

  // Second half: the telemetry A/B. A second server and front end with
  // tracing and the step journal off, and the memory ledgers switched off
  // while it runs, alternating with the first, two rounds each.
  serve::ServeConfig off_config;
  off_config.trace.enabled = false;
  off_config.step_journal.enabled = false;
  std::unique_ptr<Setup> off_setup = MakeSetup(model, warmup, off_config);
  std::vector<Phase> on, off;
  for (int round = 0; round < 2; ++round) {
    for (bool telemetry : {true, false}) {
      nimble::obs::SetMemoryTelemetryEnabled(telemetry);
      Phase part = RunClients(telemetry ? port : off_setup->front->port(),
                              pool, options.seconds / 8);
      AddTallies(part, &result);
      (telemetry ? on : off).push_back(std::move(part));
    }
  }
  nimble::obs::SetMemoryTelemetryEnabled(true);
  for (Setup* s : {off_setup.get(), setup.get()}) {
    s->front->Stop();
    s->server->Drain();
  }
  result.Set("obs.telemetry_overhead_pct", OverheadPct(on, off));

  const nimble::obs::StepJournal* journal =
      server.continuous_models().front().journal;
  double steps = 0, step_us = 0, rows = 0, retired = 0;
  nimble::obs::ExecProfile vm;
  for (const nimble::obs::StepRecord& step : journal->Tail(kTracedJournal)) {
    if (step.start < traced_start || step.start > traced_end) continue;
    steps += 1;
    step_us += static_cast<double>(step.duration_us);
    rows += static_cast<double>(step.active_rows);
    vm.instructions += step.vm.instructions;
    vm.kernel_nanos += step.vm.kernel_nanos;
    vm.shape_func_nanos += step.vm.shape_func_nanos;
    vm.other_nanos += step.vm.other_nanos;
    for (const nimble::obs::StepEvent& event : step.events) {
      if (event.kind == nimble::obs::StepEvent::Kind::kRetire) retired += 1;
    }
  }
  if (steps > 0 && retired > 0) {
    result.Set("step.mean_us", step_us / steps);
    result.Set("step.active_rows_mean", rows / steps);
    result.Set("vm.instr_per_req", vm.instructions / retired);
    result.Set("vm.kernel_us_per_req", vm.kernel_nanos / retired / 1e3);
    result.Set("vm.shape_func_us_per_req",
               vm.shape_func_nanos / retired / 1e3);
    result.Set("vm.interp_us_per_req",
               (vm.other_nanos - vm.shape_func_nanos) / retired / 1e3);
  }

  return result;
}

}  // namespace perfbench
