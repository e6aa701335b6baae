// Serving demo: compile the LSTM once, then serve a burst of
// variable-length requests through the concurrent pipeline
//
//   Submit -> RequestQueue -> VMPool worker (pulls BatchScheduler::Next)
//          -> future
//
// and print the stats the server collected (throughput, latency
// percentiles, batch occupancy).
#include <cstdio>
#include <future>
#include <utility>
#include <vector>

#include "src/core/compiler.h"
#include "src/models/lstm.h"
#include "src/models/workloads.h"
#include "src/serve/server.h"

using namespace nimble;  // NOLINT

int main() {
  // 1. Build and compile the model once. The executable is immutable and
  //    shared by every pool worker.
  models::LSTMConfig config;
  config.input_size = 32;
  config.hidden_size = 64;
  // Emit and ship the @main_batched calling convention with the executable
  // so the server can run whole buckets as single packed invocations.
  config.emit_batched = true;
  auto model = models::BuildLSTM(config);
  core::CompileOptions compile_opts;
  compile_opts.batched_entries = {model.batched_spec};
  core::CompileResult compiled = core::Compile(model.module, compile_opts);
  std::printf("compiled LSTM: %zu bytecode instructions\n",
              compiled.executable->NumInstructions());

  // 2. Stand up the server: 4 VM workers, bounded queue, length-bucketed
  //    batching tuned for the MRPC-like length distribution, and tensor
  //    batching on — each dispatched bucket runs as ONE padded [Lmax, B, D]
  //    invocation (src/batch/) with results bit-identical to per-request
  //    execution.
  serve::ModelConfig model_config;
  model_config.exec = compiled.executable;
  model_config.queue_capacity = 32;
  model_config.batch.max_batch_size = 4;
  model_config.batch.max_wait_micros = 1000;
  model_config.batch.tensor_batching = true;
  serve::ServeConfig serve_config;
  serve_config.num_workers = 4;
  serve::Server server(std::move(model_config), serve_config);

  // 3. Submit a burst of variable-length requests and collect the futures.
  support::Rng rng(99);
  const int kRequests = 40;
  auto lengths = models::SampleMRPCLengths(kRequests, rng, 96);
  std::vector<std::future<runtime::ObjectRef>> futures;
  for (int64_t len : lengths) {
    runtime::NDArray x = models::RandomSequence(len, config.input_size, rng);
    futures.push_back(server.Submit(
        {runtime::MakeTensor(x),
         runtime::MakeTensor(runtime::NDArray::Scalar<int64_t>(len))},
        len));
  }

  // 4. Wait for every result; each future holds the final hidden state.
  for (size_t i = 0; i < futures.size(); ++i) {
    runtime::ObjectRef out = futures[i].get();  // keep the result object alive
    const runtime::NDArray& h = runtime::AsTensor(out);
    if (i < 3) {
      std::printf("request %zu (len %lld) -> hidden %s\n", i,
                  static_cast<long long>(lengths[i]),
                  runtime::ShapeToString(h.shape()).c_str());
    }
  }
  std::printf("... %d requests served\n", kRequests);

  server.Shutdown();
  auto snap = server.stats();
  std::printf("stats: %s\n", snap.ToString().c_str());

  // 5. Batching effectiveness: how full the dispatched batches were, how
  //    many ran packed, and how much of the packed input was padding.
  std::printf("batch-size histogram:");
  for (size_t i = 0; i < snap.batch_size_hist.size(); ++i) {
    if (snap.batch_size_hist[i] == 0) continue;
    std::printf("  [%s]=%lld", serve::ServeStats::BatchHistLabel(i),
                static_cast<long long>(snap.batch_size_hist[i]));
  }
  std::printf("\npacked batches: %lld/%lld, padding waste %.1f%% (%lld of "
              "%lld packed elements)\n",
              static_cast<long long>(snap.packed_batches),
              static_cast<long long>(snap.batches),
              snap.padding_waste * 100.0,
              static_cast<long long>(snap.padded_elements),
              static_cast<long long>(snap.packed_total_elements));
  return 0;
}
