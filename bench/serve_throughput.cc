// Serving throughput: VM pool + length-bucketed batching under an
// MRPC-like variable-length request stream.
//
// Sweeps worker count x batch policy on the LSTM and BERT workloads and
// reports aggregate throughput (req/s) plus end-to-end latency percentiles
// from the ServeStats collector. The interesting comparisons:
//   - workers 1 vs N: parallel VM workers sharing one immutable executable;
//   - batch=1 (pure FIFO) vs bucketed batching: same-length runs keep each
//     worker's PoolingAllocator free lists warm;
//   - tensor batching vs per-request loop (PR 3), and the shape-bucket
//     executable cache on top of it (length-specialized variants);
//   - continuous (iteration-level) batching vs the bucketed packed path on
//     a short/long request mix: per-population client-side latency
//     percentiles, zero padding by construction on the slot-map path.
// Every configuration is validated against sequential single-VM execution
// before it is timed — throughput with wrong answers is not throughput.
//
// --json additionally writes BENCH_serve.json (req/s, p99, padding waste,
// cache hit rate) so the perf trajectory is machine-readable across PRs; CI
// fails the bench-smoke job when cached buckets report nonzero padding.
//
// --trace-overhead A/B-measures what the step-level observability plane
// (request tracing + the per-step journal) costs the continuous hot loop:
// alternating unpaced bursts with both enabled vs both disabled, best-of-2
// per configuration, reported as step_journal_overhead in BENCH_serve.json.
// CI holds the result to <= 3% of burst req/s.
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
#include "src/models/bert.h"
#include "src/models/lstm.h"
#include "src/models/workloads.h"
#include "src/obs/metrics.h"
#include "src/serve/exec_cache.h"
#include "src/serve/server.h"
#include "src/vm/vm.h"

using namespace nimble;  // NOLINT

namespace {

struct ServingWorkload {
  std::string name;
  std::shared_ptr<vm::Executable> exec;
  models::LSTMConfig lstm_config;  // to recompile variants (same seed)
  std::vector<std::vector<runtime::ObjectRef>> args;  // per request
  std::vector<int64_t> lengths;
  std::vector<runtime::NDArray> expected;  // sequential single-VM results
};

std::vector<runtime::ObjectRef> CopyArgs(
    const std::vector<runtime::ObjectRef>& args) {
  return args;  // ObjectRefs are shared_ptrs; requests only read them
}

ServingWorkload MakeLSTMWorkloadWithLengths(std::vector<int64_t> lengths,
                                            int64_t input_size,
                                            int64_t hidden_size) {
  ServingWorkload w;
  w.name = "LSTM (in " + std::to_string(input_size) + ", hidden " +
           std::to_string(hidden_size) + ")";
  models::LSTMConfig config;
  config.input_size = input_size;
  config.hidden_size = hidden_size;
  // Emit and ship the @main_batched calling convention with the executable
  // so the tensor-batching sweep below can run packed batches.
  config.emit_batched = true;
  w.lstm_config = config;
  auto model = models::BuildLSTM(config);
  ir::Module mod = model.module;
  core::CompileOptions opts;
  opts.batched_entries = {model.batched_spec};
  w.exec = core::Compile(mod, opts).executable;

  support::Rng rng(17);
  w.lengths = std::move(lengths);
  vm::VirtualMachine sequential(w.exec);
  for (int64_t len : w.lengths) {
    runtime::NDArray x = models::RandomSequence(len, config.input_size, rng);
    w.args.push_back(
        {runtime::MakeTensor(x),
         runtime::MakeTensor(runtime::NDArray::Scalar<int64_t>(len))});
    w.expected.push_back(
        runtime::AsTensor(sequential.Invoke("main", CopyArgs(w.args.back()))));
  }
  return w;
}

ServingWorkload MakeLSTMWorkload(int requests, int64_t input_size = 64,
                                 int64_t hidden_size = 128) {
  support::Rng rng(17);
  return MakeLSTMWorkloadWithLengths(
      models::SampleMRPCLengths(requests, rng, 128), input_size, hidden_size);
}

/// Production-mix lengths: traffic concentrated on a handful of recurring
/// exact lengths (tokenizer buckets, recurring prompts — the "recurring
/// shapes" Nimble's dispatch bets on), several of them sharing one
/// scheduler bucket so the generic packed path must pad across them. This
/// is the workload the executable cache models: hot lengths earn
/// specialized variants, carved same-length batches pack with zero padding.
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

/// Variant compiler for the cache runs: rebuilds the identical model (same
/// deterministic seed) with the bucket shape baked in.
serve::CompileVariantFn MakeVariantCompiler(models::LSTMConfig config) {
  return [config](int64_t max_len, int64_t batch,
                  const codegen::DenseConfig& dense_config)
             -> std::shared_ptr<vm::Executable> {
    auto model = models::BuildLSTM(config);
    core::CompileOptions opts;
    opts.batched_entries = {model.batched_spec};
    opts.specialize_length = max_len;
    opts.specialize_batch = batch;
    opts.dense_config = dense_config;
    return core::Compile(model.module, opts).executable;
  };
}

ServingWorkload MakeBERTWorkload(int requests) {
  ServingWorkload w;
  w.name = "BERT (2 layers, hidden 64)";
  models::BERTConfig config;
  config.num_layers = 2;
  config.hidden = 64;
  config.num_heads = 4;
  config.ffn_hidden = 128;
  config.vocab = 1000;
  auto model = models::BuildBERT(config);
  ir::Module mod = model.module;
  w.exec = core::Compile(mod).executable;

  support::Rng rng(23);
  w.lengths = models::SampleMRPCLengths(requests, rng, 64);
  vm::VirtualMachine sequential(w.exec);
  for (int64_t len : w.lengths) {
    auto ids = models::RandomTokenIds(len, config.vocab, rng);
    w.args.push_back(
        {runtime::MakeTensor(runtime::NDArray::FromVector(ids, {len}))});
    w.expected.push_back(
        runtime::AsTensor(sequential.Invoke("main", CopyArgs(w.args.back()))));
  }
  return w;
}

bool BitIdentical(const runtime::NDArray& a, const runtime::NDArray& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.raw_data(), b.raw_data(), a.nbytes()) == 0;
}

struct RunResult {
  serve::StatsSnapshot stats;
  bool correct = true;
};

RunResult RunConfiguration(const ServingWorkload& w, int workers,
                           int max_batch, int64_t max_wait_us,
                           bool tensor_batching = false,
                           std::vector<int64_t> bucket_edges = {},
                           size_t queue_capacity = 64,
                           std::shared_ptr<serve::ExecCache> cache = nullptr) {
  serve::ServeConfig config;
  config.num_workers = workers;
  serve::Server server(config);
  serve::ModelConfig model;
  model.exec = w.exec;
  model.queue_capacity = queue_capacity;
  model.batch.max_batch_size = max_batch;
  model.batch.max_wait_micros = max_wait_us;
  model.batch.tensor_batching = tensor_batching;
  if (!bucket_edges.empty()) model.batch.bucket_edges = std::move(bucket_edges);
  model.exec_cache = std::move(cache);
  server.AddModel("m", std::move(model));
  server.Start();

  std::vector<std::future<runtime::ObjectRef>> futures;
  futures.reserve(w.args.size());
  for (size_t i = 0; i < w.args.size(); ++i) {
    futures.push_back(server.Submit("m", CopyArgs(w.args[i]), w.lengths[i]));
  }
  RunResult result;
  for (size_t i = 0; i < futures.size(); ++i) {
    if (!BitIdentical(runtime::AsTensor(futures[i].get()), w.expected[i])) {
      result.correct = false;
    }
  }
  server.Shutdown();
  result.stats = server.stats();
  return result;
}

void Sweep(const ServingWorkload& w) {
  bench::PrintHeader("serving throughput: " + w.name + ", " +
                     std::to_string(w.args.size()) +
                     " requests, MRPC-like lengths");
  std::printf("%8s %7s %9s %10s %9s %9s %9s %6s\n", "workers", "batch",
              "wait_us", "req/s", "p50_us", "p95_us", "p99_us", "ok");
  for (int workers : {1, 2, 4, 8}) {
    for (auto [max_batch, max_wait_us] :
         std::vector<std::pair<int, int64_t>>{{1, 0}, {4, 1000}, {8, 2000}}) {
      RunResult r = RunConfiguration(w, workers, max_batch, max_wait_us);
      std::printf("%8d %7d %9lld %10.1f %9.0f %9.0f %9.0f %6s\n", workers,
                  max_batch, static_cast<long long>(max_wait_us),
                  r.stats.throughput_rps, r.stats.p50_latency_us,
                  r.stats.p95_latency_us, r.stats.p99_latency_us,
                  r.correct ? "yes" : "NO");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  int requests = 64;
  bool write_json = false;
  bool trace_overhead = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") {
      write_json = true;
    } else if (std::string(argv[i]) == "--trace-overhead") {
      trace_overhead = true;
    } else {
      requests = std::atoi(argv[i]);
    }
  }

  unsigned cores = std::thread::hardware_concurrency();
  std::printf("host: %u hardware thread(s)\n", cores);
  if (cores <= 1) {
    std::printf(
        "NOTE: single-core host — worker scaling is serialized by the CPU;\n"
        "      expect pool speedups only where hardware threads exist.\n");
  }

  ServingWorkload lstm = MakeLSTMWorkload(requests);
  Sweep(lstm);
  if (requests <= 0) return 0;  // nothing to compare below

  // Headline comparison for the LSTM workload: 1 worker FIFO vs 4 workers
  // with bucketed batching. Interleaved best-of-3 per configuration, for
  // the same load-drift robustness as bench_util's MeasureInterleaved.
  RunResult single, pooled;
  double single_best = 0.0, pooled_best = 0.0;
  for (int round = 0; round < 3; ++round) {
    RunResult s = RunConfiguration(lstm, 1, 1, 0);
    RunResult p = RunConfiguration(lstm, 4, 8, 2000);
    single.correct = single.correct && s.correct;
    pooled.correct = pooled.correct && p.correct;
    if (s.stats.throughput_rps > single_best) {
      single_best = s.stats.throughput_rps;
      single.stats = s.stats;
    }
    if (p.stats.throughput_rps > pooled_best) {
      pooled_best = p.stats.throughput_rps;
      pooled.stats = p.stats;
    }
  }
  bench::PrintRule();
  std::printf(
      "LSTM: 4 workers + batching vs 1 worker FIFO: %.1f vs %.1f req/s "
      "(%.2fx), outputs %s\n",
      pooled.stats.throughput_rps, single.stats.throughput_rps,
      pooled.stats.throughput_rps / single.stats.throughput_rps,
      (single.correct && pooled.correct) ? "bit-identical to sequential"
                                         : "WRONG");

  // Tensor batching (src/batch/): each dispatched bucket runs as ONE padded
  // [Lmax, B, D] invocation of @main_batched instead of B separate Invokes.
  // The win is per-step: the VM interprets each timestep once for the whole
  // batch, the dense kernels run rows-in-lanes with the weights streamed
  // once instead of B times, and the per-step bookkeeping amortizes over B.
  // A loaded server is the honest setting for the comparison — batching is
  // a throughput optimization, so the queue must be deep enough for buckets
  // to actually fill — and the buckets are a width-8 ladder to keep padding
  // waste low. Same bit-identical-to-sequential validation as every sweep.
  // Serving-scale model: at in 128 / hidden 256 the dense layers dominate
  // the per-step profile, which is where the rows-in-lanes tile kernel pays
  // off (the cell's per-element work can only shrink, never amortize).
  int tb_requests = std::max(requests, 192);
  ServingWorkload tb = MakeLSTMWorkload(tb_requests, 128, 256);
  std::vector<int64_t> tb_buckets = {16, 24, 32, 40, 48, 56, 64, 96, 128};
  bench::PrintHeader(
      "tensor batching: packed [Lmax, B, D] execution vs per-request loop\n"
      "(" + std::to_string(tb_requests) +
      " queued requests, 1 worker isolates the packing win from pool "
      "parallelism)");
  std::printf("%8s %7s %12s %10s %9s %9s %8s %6s\n", "mode", "batch",
              "packed/batch", "req/s", "p50_us", "p99_us", "waste%", "ok");
  auto print_mode = [](const char* mode, int batch,
                       const serve::StatsSnapshot& s, bool correct) {
    std::printf("%8s %7d %7lld/%-4lld %10.1f %9.0f %9.0f %7.1f%% %6s\n", mode,
                batch, static_cast<long long>(s.packed_batches),
                static_cast<long long>(s.batches), s.throughput_rps,
                s.p50_latency_us, s.p99_latency_us, s.padding_waste * 100.0,
                correct ? "yes" : "NO");
  };
  double headline_ratio = 0.0;
  bool tb_correct = true;
  for (int batch : {8, 16}) {
    double loop_best = 0.0, packed_best = 0.0;
    serve::StatsSnapshot loop_stats, packed_stats;
    for (int round = 0; round < 3; ++round) {
      // Deep admission queue (the tensor-batching runs only): the whole
      // burst must buffer so buckets actually fill.
      RunResult loop =
          RunConfiguration(tb, 1, batch, 100000, false, tb_buckets, 256);
      RunResult packed =
          RunConfiguration(tb, 1, batch, 100000, true, tb_buckets, 256);
      tb_correct = tb_correct && loop.correct && packed.correct;
      if (loop.stats.throughput_rps > loop_best) {
        loop_best = loop.stats.throughput_rps;
        loop_stats = loop.stats;
      }
      if (packed.stats.throughput_rps > packed_best) {
        packed_best = packed.stats.throughput_rps;
        packed_stats = packed.stats;
      }
    }
    print_mode("loop", batch, loop_stats, tb_correct);
    print_mode("packed", batch, packed_stats, tb_correct);
    headline_ratio = packed_best / loop_best;
  }
  bench::PrintRule();
  std::printf(
      "LSTM: tensor batching vs per-request loop at batch 16: %.2fx "
      "requests/sec, outputs %s\n",
      headline_ratio,
      tb_correct ? "bit-identical to sequential" : "WRONG");

  // Shape-bucket executable cache (src/serve/exec_cache.h): a production
  // mix of recurring exact lengths, several sharing each width-8 bucket.
  // Baseline = the PR 3 packed path (generic executable, padded to each
  // batch's Lmax). Cached = same policy plus an ExecCache: hot lengths get
  // background-compiled variants with (Lmax, B) baked in, the scheduler
  // carves full same-length batches onto them — zero padding, fully static
  // dataflow. The cache is shared across runs (the
  // warmed cache is the asset; round 0 below is the cold warm-up), so the
  // measured rounds show the steady state a long-running server reaches.
  int cm_requests = std::max(requests * 3, 256);
  support::Rng cm_rng(29);
  ServingWorkload mix = MakeLSTMWorkloadWithLengths(
      SampleProductionMixLengths(cm_requests, cm_rng), 128, 256);
  const int cm_batch = 8;
  bench::PrintHeader(
      "shape-bucket executable cache: length-specialized variants vs the\n"
      "generic packed path (" + std::to_string(cm_requests) +
      " requests, production mix of 8 hot lengths, batch " +
      std::to_string(cm_batch) + ", 1 worker)");

  serve::ExecCacheConfig cache_config;
  cache_config.capacity = 16;
  cache_config.min_observations = 1;
  cache_config.specialize_batch = cm_batch;
  auto cache = std::make_shared<serve::ExecCache>(
      MakeVariantCompiler(mix.lstm_config), cache_config);

  bool cm_correct = true;
  serve::StatsSnapshot packed_stats, cached_stats;
  double packed_best = 0.0, cached_best = 0.0;
  std::vector<double> round_ratios;
  {
    // Cold pass: observes the hot lengths and kicks off the background
    // compiles; serving stays on the generic executable meanwhile.
    RunResult cold = RunConfiguration(mix, 1, cm_batch, 100000, true,
                                      tb_buckets, 256, cache);
    cm_correct = cm_correct && cold.correct;
    std::printf("cold pass: %.1f req/s, hit rate %.0f%%, %lld compiles "
                "in flight\n",
                cold.stats.throughput_rps, cold.stats.cache_hit_rate * 100.0,
                static_cast<long long>(cache->snapshot().compiles));
    cache->WaitIdle();
  }
  for (int round = 0; round < 5; ++round) {
    RunResult packed = RunConfiguration(mix, 1, cm_batch, 100000, true,
                                        tb_buckets, 256);
    RunResult cached = RunConfiguration(mix, 1, cm_batch, 100000, true,
                                        tb_buckets, 256, cache);
    cm_correct = cm_correct && packed.correct && cached.correct;
    if (packed.stats.throughput_rps > 0.0) {
      round_ratios.push_back(cached.stats.throughput_rps /
                             packed.stats.throughput_rps);
    }
    if (packed.stats.throughput_rps > packed_best) {
      packed_best = packed.stats.throughput_rps;
      packed_stats = packed.stats;
    }
    if (cached.stats.throughput_rps > cached_best) {
      cached_best = cached.stats.throughput_rps;
      cached_stats = cached.stats;
    }
  }
  std::printf("%8s %10s %9s %9s %8s %8s %9s %6s\n", "mode", "req/s", "p50_us",
              "p99_us", "waste%", "cached%", "hit-rate", "ok");
  std::printf("%8s %10.1f %9.0f %9.0f %7.1f%% %8s %9s %6s\n", "packed",
              packed_stats.throughput_rps, packed_stats.p50_latency_us,
              packed_stats.p99_latency_us, packed_stats.padding_waste * 100.0,
              "-", "-", cm_correct ? "yes" : "NO");
  std::printf("%8s %10.1f %9.0f %9.0f %7.1f%% %7.1f%% %8.0f%% %6s\n", "cached",
              cached_stats.throughput_rps, cached_stats.p50_latency_us,
              cached_stats.p99_latency_us,
              cached_stats.padding_waste * 100.0,
              cached_stats.variant_padding_waste * 100.0,
              cached_stats.cache_hit_rate * 100.0, cm_correct ? "yes" : "NO");
  auto cache_snap = cache->snapshot();
  // Median per-round ratio: each round interleaves baseline and cached, so
  // machine-load drift hits both sides of a ratio equally — far more stable
  // than comparing bests across rounds.
  double cache_speedup = 0.0;
  if (!round_ratios.empty()) {
    std::sort(round_ratios.begin(), round_ratios.end());
    cache_speedup = round_ratios[round_ratios.size() / 2];
  }
  bench::PrintRule();
  std::printf(
      "LSTM: executable cache vs generic packed: %.2fx requests/sec; "
      "cached-bucket padding waste %.2f%% across %lld variant batches "
      "(%lld variants resident, %lld evictions); outputs %s\n",
      cache_speedup, cached_stats.variant_padding_waste * 100.0,
      static_cast<long long>(cached_stats.variant_batches),
      static_cast<long long>(cache_snap.resident.size()),
      static_cast<long long>(cache_snap.evictions),
      cm_correct ? "bit-identical to sequential" : "WRONG");

  // Continuous (iteration-level) batching vs the bucketed packed path on
  // the workload padding hurts most: short requests mixed with long ones.
  // Bucketed serving pads every batch to its Lmax and a short request can
  // wait behind a whole long flight; the slot-map runner retires each row
  // the step it finishes and splices the next request in, so padding is
  // zero by construction and short-request latency stops being hostage to
  // long neighbors. Latencies are measured client-side per request (the
  // aggregate percentiles would mix the two populations).
  int ct_requests = std::max(requests, 96);
  support::Rng ct_rng(43);
  std::vector<int64_t> ct_lengths;
  std::vector<bool> ct_short;
  for (int i = 0; i < ct_requests; ++i) {
    bool is_short = ct_rng.Next() % 10 < 7;  // 70% short, 30% long
    ct_lengths.push_back(is_short ? ct_rng.UniformInt(4, 8)
                                  : ct_rng.UniformInt(48, 64));
    ct_short.push_back(is_short);
  }
  ServingWorkload ct = MakeLSTMWorkloadWithLengths(ct_lengths, 64, 128);
  bench::PrintHeader(
      "continuous batching: persistent slot map vs bucketed packed path\n(" +
      std::to_string(ct_requests) +
      " requests, 70% short / 30% long, paced arrivals)");

  struct LatencyRun {
    serve::StatsSnapshot stats;
    bool correct = true;
    double rps = 0.0;
    double short_p50_us = 0.0;
    double short_p99_us = 0.0;
    double all_p99_us = 0.0;
  };
  auto run_latency_mode = [&](bool continuous) {
    serve::ServeConfig sc;
    sc.num_workers = 2;
    serve::Server server(sc);
    serve::ModelConfig m;
    m.exec = ct.exec;
    m.queue_capacity = 256;
    if (continuous) {
      m.batch.continuous = true;
      m.batch.continuous_slots = 8;
    } else {
      m.batch.tensor_batching = true;
      m.batch.max_batch_size = 8;
      m.batch.max_wait_micros = 2000;
      m.batch.bucket_edges = {8, 16, 24, 32, 40, 48, 56, 64};
    }
    server.AddModel("m", std::move(m));
    server.Start();

    struct Done {
      std::atomic<bool> done{false};
      runtime::ObjectRef result;
      double latency_us = 0.0;
      std::chrono::steady_clock::time_point submit;
    };
    const size_t n = ct.args.size();
    std::vector<Done> dones(n);
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < n; ++i) {
      // Light pacing so splice/retire actually interleaves with arrivals
      // (identical for both modes, so the comparison stays fair).
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      Done* d = &dones[i];
      d->submit = std::chrono::steady_clock::now();
      while (true) {
        auto admit = server.TrySubmitCallback(
            "m", CopyArgs(ct.args[i]), ct.lengths[i],
            [d](runtime::ObjectRef result, std::exception_ptr,
                const obs::TraceContext&) {
              d->latency_us =
                  std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - d->submit)
                      .count();
              d->result = std::move(result);
              d->done.store(true, std::memory_order_release);
            });
        if (admit.accepted()) break;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    server.Drain();
    double elapsed_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
    LatencyRun run;
    run.stats = server.stats();
    run.rps = elapsed_s > 0.0 ? static_cast<double>(n) / elapsed_s : 0.0;
    std::vector<double> short_lat, all_lat;
    for (size_t i = 0; i < n; ++i) {
      if (!dones[i].done.load(std::memory_order_acquire) ||
          !BitIdentical(runtime::AsTensor(dones[i].result), ct.expected[i])) {
        run.correct = false;
        continue;
      }
      all_lat.push_back(dones[i].latency_us);
      if (ct_short[i]) short_lat.push_back(dones[i].latency_us);
    }
    run.short_p50_us = obs::NearestRankPercentile(short_lat, 50.0);
    run.short_p99_us = obs::NearestRankPercentile(short_lat, 99.0);
    run.all_p99_us = obs::NearestRankPercentile(all_lat, 99.0);
    return run;
  };
  // Interleaved best-of-3 on short-request p99, the headline number here.
  LatencyRun bucketed_run, continuous_run;
  bool first_round = true;
  for (int round = 0; round < 3; ++round) {
    LatencyRun b = run_latency_mode(false);
    LatencyRun c = run_latency_mode(true);
    bool keep_b = first_round || b.short_p99_us < bucketed_run.short_p99_us;
    bool keep_c = first_round || c.short_p99_us < continuous_run.short_p99_us;
    bool b_ok = bucketed_run.correct && b.correct;
    bool c_ok = continuous_run.correct && c.correct;
    if (keep_b) bucketed_run = b;
    if (keep_c) continuous_run = c;
    bucketed_run.correct = b_ok;
    continuous_run.correct = c_ok;
    first_round = false;
  }
  std::printf("%12s %10s %12s %12s %10s %8s %6s\n", "mode", "req/s",
              "short_p50", "short_p99", "all_p99", "waste%", "ok");
  std::printf("%12s %10.1f %11.0fus %11.0fus %9.0fus %7.1f%% %6s\n",
              "bucketed", bucketed_run.rps, bucketed_run.short_p50_us,
              bucketed_run.short_p99_us, bucketed_run.all_p99_us,
              bucketed_run.stats.padding_waste * 100.0,
              bucketed_run.correct ? "yes" : "NO");
  std::printf("%12s %10.1f %11.0fus %11.0fus %9.0fus %7.1f%% %6s\n",
              "continuous", continuous_run.rps, continuous_run.short_p50_us,
              continuous_run.short_p99_us, continuous_run.all_p99_us,
              continuous_run.stats.padding_waste * 100.0,
              continuous_run.correct ? "yes" : "NO");
  bench::PrintRule();
  std::printf(
      "LSTM: continuous vs bucketed short-request p99 under long-request "
      "mix: %.0fus vs %.0fus (%.2fx); continuous padding %.2f%%, mean "
      "occupancy %.1f/8 (idle %.1f%%); outputs %s\n",
      continuous_run.short_p99_us, bucketed_run.short_p99_us,
      continuous_run.short_p99_us > 0.0
          ? bucketed_run.short_p99_us / continuous_run.short_p99_us
          : 0.0,
      continuous_run.stats.padding_waste * 100.0,
      continuous_run.stats.mean_slot_occupancy,
      continuous_run.stats.idle_slot_fraction * 100.0,
      (bucketed_run.correct && continuous_run.correct)
          ? "bit-identical to sequential"
          : "WRONG");

  // Optional: what does the per-step observability plane (request tracing
  // + the step journal) cost on the continuous hot loop? Unpaced burst so
  // the runner is step-bound, not arrival-bound — the worst case for a
  // per-step Push. Alternating best-of-2 per configuration so one noisy
  // run can't fake (or hide) an overhead; CI holds the result to <= 3%.
  struct ObsOverhead {
    double rps_on = 0.0;
    double rps_off = 0.0;
    double overhead_pct = 0.0;
  };
  ObsOverhead journal_overhead;
  if (trace_overhead) {
    bench::PrintHeader(
        "step-journal overhead: continuous burst, obs on vs off, best of 2");
    auto run_burst = [&](bool obs_on) {
      serve::ServeConfig sc;
      sc.num_workers = 2;
      sc.trace.enabled = obs_on;
      sc.step_journal.enabled = obs_on;
      serve::Server server(sc);
      serve::ModelConfig m;
      m.exec = ct.exec;
      m.queue_capacity = ct.args.size() + 1;
      m.batch.continuous = true;
      m.batch.continuous_slots = 8;
      server.AddModel("m", std::move(m));
      server.Start();
      const size_t n = ct.args.size();
      std::vector<std::future<runtime::ObjectRef>> futures;
      futures.reserve(n);
      auto t0 = std::chrono::steady_clock::now();
      for (size_t i = 0; i < n; ++i) {
        futures.push_back(
            server.Submit("m", CopyArgs(ct.args[i]), ct.lengths[i]));
      }
      bool ok = true;
      for (size_t i = 0; i < n; ++i) {
        if (!BitIdentical(runtime::AsTensor(futures[i].get()),
                          ct.expected[i])) {
          ok = false;
        }
      }
      double elapsed_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
      server.Drain();
      if (!ok) {
        std::fprintf(stderr, "step-journal A/B produced wrong results\n");
        std::exit(1);
      }
      return elapsed_s > 0.0 ? static_cast<double>(n) / elapsed_s : 0.0;
    };
    for (int round = 0; round < 2; ++round) {
      for (bool obs_on : {true, false}) {
        double rps = run_burst(obs_on);
        double& best =
            obs_on ? journal_overhead.rps_on : journal_overhead.rps_off;
        best = std::max(best, rps);
      }
    }
    if (journal_overhead.rps_off > 0.0) {
      journal_overhead.overhead_pct = std::max(
          0.0, (journal_overhead.rps_off - journal_overhead.rps_on) /
                   journal_overhead.rps_off * 100.0);
    }
    std::printf(
        "obs on %.1f req/s, off %.1f req/s -> overhead %.2f%% (budget "
        "3%%)\n",
        journal_overhead.rps_on, journal_overhead.rps_off,
        journal_overhead.overhead_pct);
  }

  if (write_json) {
    FILE* f = std::fopen("BENCH_serve.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_serve.json\n");
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"requests\": %d,\n"
                 "  \"correct\": %s,\n"
                 "  \"tensor_batching_speedup_vs_loop\": %.3f,\n"
                 "  \"packed_baseline\": {\"rps\": %.1f, \"p99_us\": %.0f, "
                 "\"padding_waste_pct\": %.2f},\n"
                 "  \"exec_cache\": {\"rps\": %.1f, \"p99_us\": %.0f, "
                 "\"padding_waste_pct\": %.2f, "
                 "\"cached_padding_waste_pct\": %.4f, "
                 "\"variant_batches\": %lld, \"cache_hit_rate\": %.3f, "
                 "\"compiles\": %lld, \"evictions\": %lld},\n"
                 "  \"exec_cache_speedup_vs_packed\": %.3f,\n"
                 "  \"bucketed_short_mix\": {\"rps\": %.1f, "
                 "\"short_p50_us\": %.0f, \"short_p99_us\": %.0f, "
                 "\"padding_waste_pct\": %.2f},\n"
                 "  \"continuous\": {\"rps\": %.1f, "
                 "\"short_p50_us\": %.0f, \"short_p99_us\": %.0f, "
                 "\"padding_waste_pct\": %.4f, \"splices\": %lld, "
                 "\"steps\": %lld, \"mean_slot_occupancy\": %.2f, "
                 "\"idle_slot_pct\": %.2f, \"correct\": %s}",
                 cm_requests, (cm_correct && tb_correct) ? "true" : "false",
                 headline_ratio, packed_stats.throughput_rps,
                 packed_stats.p99_latency_us,
                 packed_stats.padding_waste * 100.0,
                 cached_stats.throughput_rps, cached_stats.p99_latency_us,
                 cached_stats.padding_waste * 100.0,
                 cached_stats.variant_padding_waste * 100.0,
                 static_cast<long long>(cached_stats.variant_batches),
                 cached_stats.cache_hit_rate,
                 static_cast<long long>(cache_snap.compiles),
                 static_cast<long long>(cache_snap.evictions), cache_speedup,
                 bucketed_run.rps, bucketed_run.short_p50_us,
                 bucketed_run.short_p99_us,
                 bucketed_run.stats.padding_waste * 100.0,
                 continuous_run.rps, continuous_run.short_p50_us,
                 continuous_run.short_p99_us,
                 continuous_run.stats.padding_waste * 100.0,
                 static_cast<long long>(continuous_run.stats.splices),
                 static_cast<long long>(continuous_run.stats.continuous_steps),
                 continuous_run.stats.mean_slot_occupancy,
                 continuous_run.stats.idle_slot_fraction * 100.0,
                 (bucketed_run.correct && continuous_run.correct) ? "true"
                                                                  : "false");
    if (trace_overhead) {
      std::fprintf(f,
                   ",\n  \"step_journal_overhead\": {\"rps_on\": %.1f, "
                   "\"rps_off\": %.1f, \"overhead_pct\": %.2f}",
                   journal_overhead.rps_on, journal_overhead.rps_off,
                   journal_overhead.overhead_pct);
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_serve.json\n");
  }

  Sweep(MakeBERTWorkload(requests));
  return 0;
}
