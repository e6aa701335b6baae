// Workload serve_lstm_offline: an in-process serve::Server runs an LSTM
// (input 128, hidden 256) with tensor batching at batch 8 and an ExecCache
// that bakes batch 8. One generator thread keeps kWindow requests
// outstanding, so the queue stays deep and buckets fill: the work sits in
// serve scheduling, batch pack/unpack, the cache variants and the batched
// kernels, with no network and no per-step interpreter loop.
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>

#include "perfbench/src/common.h"
#include "perfbench/src/serving.h"
#include "src/core/compiler.h"
#include "src/models/lstm.h"
#include "src/models/workloads.h"
#include "src/serve/exec_cache.h"
#include "src/serve/server.h"

namespace perfbench {
namespace {

namespace serve = nimble::serve;
using nimble::runtime::NDArray;
using nimble::runtime::ObjectRef;

constexpr int kPoolSize = 128;  // distinct requests, one round
constexpr int kWindow = 96;     // requests the generator keeps outstanding
constexpr int kBatch = 8;
constexpr int kWorkers = 1;
constexpr int64_t kMaxWaitMicros = 2000;
constexpr size_t kQueueCapacity = 256;

nimble::models::LSTMConfig ModelConfig() {
  nimble::models::LSTMConfig config;
  config.input_size = 128;
  config.hidden_size = 256;
  config.emit_batched = true;
  return config;
}

struct Request : LstmCase {
  std::vector<ObjectRef> args;
};

std::vector<ObjectRef> Args(const NDArray& x, int64_t length) {
  return {nimble::runtime::MakeTensor(x),
          nimble::runtime::MakeTensor(NDArray::Scalar<int64_t>(length))};
}

/// Executables the cache compiled, so the traced run can read their
/// dispatch counters.
struct VariantLog {
  std::mutex mu;
  std::vector<std::shared_ptr<nimble::vm::Executable>> execs;
};

struct Setup {
  std::shared_ptr<nimble::vm::Executable> exec;
  std::shared_ptr<VariantLog> variants = std::make_shared<VariantLog>();
  std::shared_ptr<serve::ExecCache> cache;
  std::unique_ptr<serve::Server> server;  // destroyed before the cache
  double compile_ms = 0.0;
};

/// Compile, start the server with its cache, push one full batch of every
/// hot length through it, and wait until the cache has compiled them.
std::unique_ptr<Setup> MakeSetup(const nimble::models::LSTMModel& model,
                                 const std::vector<Request>& warmup,
                                 const serve::ServeConfig& serve_config) {
  auto s = std::make_unique<Setup>();
  s->exec = CompileLstm(model, &s->compile_ms);

  serve::ExecCacheConfig cache_config;
  cache_config.capacity = 16;
  cache_config.min_observations = 1;
  cache_config.specialize_batch = kBatch;
  std::shared_ptr<VariantLog> log = s->variants;
  nimble::models::LSTMConfig lstm = model.config;
  s->cache = std::make_shared<serve::ExecCache>(
      [lstm, log](int64_t max_len, int64_t batch,
                  const nimble::codegen::DenseConfig& dense_config) {
        nimble::models::LSTMModel variant = nimble::models::BuildLSTM(lstm);
        nimble::core::CompileOptions opts;
        opts.batched_entries = {variant.batched_spec};
        opts.specialize_length = max_len;
        opts.specialize_batch = batch;
        opts.dense_config = dense_config;
        auto exec = nimble::core::Compile(variant.module, opts).executable;
        std::lock_guard<std::mutex> lock(log->mu);
        log->execs.push_back(exec);
        return exec;
      },
      cache_config);

  s->server = std::make_unique<serve::Server>(serve_config);
  serve::ModelConfig m;
  m.exec = s->exec;
  m.queue_capacity = kQueueCapacity;
  m.batch.max_batch_size = kBatch;
  m.batch.max_wait_micros = kMaxWaitMicros;
  m.batch.tensor_batching = true;
  m.batch.bucket_edges = {16, 24, 32, 40, 48, 56, 64, 96, 128};
  m.exec_cache = s->cache;
  s->server->AddModel("m", std::move(m));
  s->server->Start();

  for (const Request& request : warmup) {
    std::vector<std::future<ObjectRef>> futures;
    for (int i = 0; i < kBatch; ++i) {
      futures.push_back(s->server->Submit("m", request.args, request.length));
    }
    for (auto& future : futures) future.get();
  }
  s->cache->WaitIdle();
  return s;
}

/// Whole rounds of the pool for at least `seconds`, kWindow outstanding.
/// Completions come back on the workers through TrySubmitCallback, which
/// stamp their completion time; this thread then compares each result with
/// the sequential one.
Phase RunWindow(serve::Server& server, const std::vector<Request>& pool,
                double seconds) {
  struct Done {
    int64_t seq;
    Clock::time_point sent, done;
    ObjectRef result;
    bool ok;
  };
  // Shared with the callbacks: a worker may still be inside one after this
  // function has taken the last result and returned.
  struct Inbox {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Done> done;
  };
  auto inbox = std::make_shared<Inbox>();

  Phase phase;
  phase.start = Clock::now();
  RoundDispenser dispenser(
      static_cast<int64_t>(pool.size()),
      phase.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds)));
  int outstanding = 0;
  bool exhausted = false;
  std::vector<Done> ready;
  while (true) {
    while (!exhausted && outstanding < kWindow) {
      int64_t seq = dispenser.Next();
      if (seq < 0) {
        exhausted = true;
        break;
      }
      const Request& request = pool[static_cast<size_t>(seq) % pool.size()];
      auto sent = Clock::now();
      auto admit = server.TrySubmitCallback(
          "m", request.args, request.length,
          [inbox, seq, sent](ObjectRef result, std::exception_ptr error,
                             const nimble::obs::TraceContext&) {
            Done d{seq, sent, Clock::now(), std::move(result),
                   error == nullptr};
            std::lock_guard<std::mutex> lock(inbox->mu);
            inbox->done.push_back(std::move(d));
            inbox->cv.notify_one();
          });
      if (admit.accepted()) {
        outstanding++;
      } else {
        phase.Record(Clock::now(), 0.0, 0);
      }
    }
    if (outstanding == 0) break;
    {
      std::unique_lock<std::mutex> lock(inbox->mu);
      inbox->cv.wait(lock, [&] { return !inbox->done.empty(); });
      ready.swap(inbox->done);
    }
    for (Done& d : ready) {
      outstanding--;
      const Request& request = pool[static_cast<size_t>(d.seq) % pool.size()];
      bool ok = d.ok && request.reference_ok &&
                BitIdentical(nimble::runtime::AsTensor(d.result),
                             request.expected);
      phase.Record(d.done, Seconds(d.done - d.sent) * 1e3,
                   ok ? request.length : 0);
    }
    ready.clear();
  }
  return phase;
}

}  // namespace

RunResult RunServeOffline(const Options& options) {
  RunResult result = EmptyResult(options.trace);

  // Prepare (untimed): model, inputs, sequential and reference outputs.
  nimble::models::LSTMModel model = nimble::models::BuildLSTM(ModelConfig());
  const int64_t width = model.config.input_size;
  nimble::support::Rng rng(options.seed);
  std::vector<int64_t> lengths = SampleServingMix(kPoolSize, rng);
  std::vector<Request> pool;
  for (LstmCase& c :
       PrepareLstmCases(model, lengths, rng, "serve_lstm_offline")) {
    if (!c.reference_ok) result.correct = false;
    Request request;
    static_cast<LstmCase&>(request) = std::move(c);
    request.args = Args(request.x, request.length);
    pool.push_back(std::move(request));
  }
  // One warm-up request per hot length (sent as a full batch in set-up).
  std::vector<Request> warmup;
  for (int64_t length : kHotLengths) {
    Request request;
    request.length = length;
    request.args =
        Args(nimble::models::RandomSequence(length, width, rng), length);
    warmup.push_back(std::move(request));
  }

  serve::ServeConfig serve_config;
  serve_config.num_workers = kWorkers;
  std::vector<double> compile_ms;
  if (options.trace) serve_config.trace.ring_capacity = kTracedRing;
  SetupTimer<Setup> setups([&] {
    auto s = MakeSetup(model, warmup, serve_config);
    compile_ms.push_back(s->compile_ms);
    return s;
  });
  std::unique_ptr<Setup> setup = setups.Repeat();
  serve::Server& server = *setup->server;

  if (!options.trace) {
    Phase phase = RunWindow(server, pool, options.seconds);
    server.Drain();
    SetEndToEnd(phase, &result);
    setup.reset();
    setups.Repeat();
    result.Set("setup_s", setups.median_s());
    return result;
  }

  // Traced run, first half: attribution from the server's telemetry.
  auto all_execs = [&] {
    std::vector<std::shared_ptr<nimble::vm::Executable>> execs = {setup->exec};
    std::lock_guard<std::mutex> lock(setup->variants->mu);
    execs.insert(execs.end(), setup->variants->execs.begin(),
                 setup->variants->execs.end());
    return execs;
  };
  for (const auto& exec : all_execs()) exec->dispatch_table.stats().Reset();
  serve::StatsSnapshot stats0 = server.stats("m");
  ScopeTotals scopes0 = SumScopes(server.MemoryScopes(), "worker:");
  std::map<std::string, int64_t> copies0 = CopyBytesBySite();
  auto traced_start = Clock::now();
  Phase traced = RunWindow(server, pool, options.seconds / 2);
  serve::StatsSnapshot stats1 = server.stats("m");
  ScopeTotals scopes1 = SumScopes(server.MemoryScopes(), "worker:");
  std::map<std::string, int64_t> copies1 = CopyBytesBySite();

  AddTallies(traced, &result);
  const double n = static_cast<double>(traced.attempted);
  std::vector<nimble::obs::TraceRecord> records =
      RecordsSince(server.tracer()->Recent(kTracedRing), traced_start);
  if (static_cast<int64_t>(records.size()) < traced.attempted) {
    std::fprintf(stderr, "serve_lstm_offline: trace ring kept %zu of %lld "
                         "requests\n", records.size(),
                 static_cast<long long>(traced.attempted));
  }
  result.Set("compile.ms", Median(compile_ms));
  result.Set("compile.instructions",
             static_cast<double>(setup->exec->NumInstructions()));
  SetBatchedVmMetrics(records, &result);
  SetSpanMetrics(records, &result);
  SetBatchMetrics(stats0, stats1, &result);
  int64_t specialized = 0, fallback = 0, blocked = 0, parallel = 0;
  for (const auto& exec : all_execs()) {
    const nimble::codegen::DispatchStats& dense = exec->dispatch_table.stats();
    specialized += dense.specialized_calls.load();
    fallback += dense.fallback_calls.load();
    blocked += dense.blocked_calls.load();
    parallel += dense.parallel_calls.load();
  }
  result.Set("dense.specialized_per_req", specialized / n);
  result.Set("dense.fallback_per_req", fallback / n);
  result.Set("dense.blocked_per_req", blocked / n);
  result.Set("dense.parallel_per_req", parallel / n);
  result.Set("alloc.calls_per_req",
             (scopes1.alloc_calls - scopes0.alloc_calls) / n);
  result.Set("alloc.pool_miss_per_req",
             (scopes1.system_allocs - scopes0.system_allocs) / n);
  result.Set("alloc.peak_mb", scopes1.peak_bytes / 1048576.0);
  result.Set("copy.pack_bytes_per_req",
             (copies1["pack"] - copies0["pack"]) / n);
  result.Set("copy.unpack_bytes_per_req",
             (copies1["unpack"] - copies0["unpack"]) / n);

  // Second half: the telemetry A/B. A second server with tracing off and
  // the memory ledgers switched off while it runs, alternating with the
  // first (tracing at its default, on), two rounds each.
  serve::ServeConfig off_config;
  off_config.num_workers = kWorkers;
  off_config.trace.enabled = false;
  std::unique_ptr<Setup> off_setup = MakeSetup(model, warmup, off_config);
  std::vector<Phase> on, off;
  for (int round = 0; round < 2; ++round) {
    for (bool telemetry : {true, false}) {
      nimble::obs::SetMemoryTelemetryEnabled(telemetry);
      Phase part = RunWindow(telemetry ? server : *off_setup->server, pool,
                             options.seconds / 8);
      AddTallies(part, &result);
      (telemetry ? on : off).push_back(std::move(part));
    }
  }
  nimble::obs::SetMemoryTelemetryEnabled(true);
  off_setup->server->Drain();
  server.Drain();
  result.Set("obs.telemetry_overhead_pct", OverheadPct(on, off));
  return result;
}

}  // namespace perfbench
