// HTTP serving demo: the full stack from socket to executable.
//
//   curl -> net::HttpServer (epoll loop) -> serve::Server (queues,
//   length-bucketed batching, VM pool) -> response JSON
//
// Default mode is a self-contained demo: it stands the server up on an
// ephemeral loopback port, drives a handful of requests through a real
// socket client — a prediction, a malformed body (400), an unknown model
// (404), /stats — and shuts down gracefully. Run with --serve [port] to
// keep serving until stdin closes (or forever when stdin is not a tty),
// then try:
//
//   curl -s localhost:8080/v1/models/lstm:predict -d '{
//     "inputs": [{"shape": [3, 32],
//                 "data": [0.1, 0.2, ... 96 floats ...]},
//                {"scalar": 3}],
//     "length": 3}'
//   curl -s localhost:8080/stats
#include <cstdio>
#include <cstring>
#include <string>

#include "src/core/compiler.h"
#include "src/models/lstm.h"
#include "src/models/workloads.h"
#include "src/net/http_client.h"
#include "src/net/http_server.h"
#include "src/serve/server.h"

using namespace nimble;  // NOLINT

namespace {

/// JSON prediction body for a random [len, input_size] sequence plus the
/// LSTM's scalar-length argument.
std::string MakeBody(int64_t len, int64_t input_size, support::Rng& rng) {
  runtime::NDArray x = models::RandomSequence(len, input_size, rng);
  net::Json tensor = net::Json::Object();
  net::Json shape = net::Json::Array();
  shape.Append(len);
  shape.Append(input_size);
  tensor.Set("shape", std::move(shape));
  net::Json data = net::Json::Array();
  const float* src = x.data<float>();
  for (int64_t i = 0; i < x.num_elements(); ++i) {
    data.Append(static_cast<double>(src[i]));
  }
  tensor.Set("data", std::move(data));
  net::Json scalar = net::Json::Object();
  scalar.Set("scalar", len);
  net::Json inputs = net::Json::Array();
  inputs.Append(std::move(tensor));
  inputs.Append(std::move(scalar));
  net::Json body = net::Json::Object();
  body.Set("inputs", std::move(inputs));
  body.Set("length", len);
  return body.Dump();
}

}  // namespace

int main(int argc, char** argv) {
  bool serve_forever = false;
  uint16_t port = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0) {
      serve_forever = true;
      port = 8080;
    } else {
      port = static_cast<uint16_t>(std::atoi(argv[i]));
    }
  }

  // 1. Compile the model (batched entry included, so whole buckets run as
  //    single packed invocations).
  models::LSTMConfig config;
  config.input_size = 32;
  config.hidden_size = 64;
  config.emit_batched = true;
  auto model = models::BuildLSTM(config);
  core::CompileOptions compile_opts;
  compile_opts.batched_entries = {model.batched_spec};
  auto compiled = core::Compile(model.module, compile_opts);

  // 2. Serving pipeline: 2 workers, bounded queue, tensor batching; a
  //    partial batch flushes once its oldest request has waited
  //    max_wait_micros.
  serve::ServeConfig serve_config;
  serve_config.num_workers = 2;
  serve::Server server(serve_config);
  serve::ModelConfig model_config;
  model_config.exec = compiled.executable;
  model_config.queue_capacity = 64;
  model_config.batch.max_batch_size = 4;
  model_config.batch.tensor_batching = true;
  server.AddModel("lstm", std::move(model_config));
  server.Start();

  // 3. HTTP front end on top.
  net::HttpServerConfig http_config;
  http_config.port = port;
  net::HttpServer http(&server, http_config);
  http.Start();
  std::printf("serving model 'lstm' on http://127.0.0.1:%u\n", http.port());

  if (serve_forever) {
    std::printf("POST /v1/models/lstm:predict | GET /stats | GET /healthz\n");
    std::printf("press Ctrl-D (EOF) to stop\n");
    while (std::getchar() != EOF) {
    }
  } else {
    // Demo: drive the server through a real loopback socket.
    support::Rng rng(7);
    net::BlockingHttpClient client("127.0.0.1", http.port());
    for (int64_t len : {5, 9, 3}) {
      auto r = client.Post("/v1/models/lstm:predict",
                           MakeBody(len, config.input_size, rng));
      net::Json doc = net::Json::Parse(r.body);
      const net::Json* shape = doc.Find("shape");
      std::printf("predict len %lld -> %d, result shape %s\n",
                  static_cast<long long>(len), r.status,
                  shape != nullptr ? shape->Dump().c_str() : "?");
    }
    auto bad = client.Post("/v1/models/lstm:predict", "{\"oops\": true}");
    std::printf("malformed body -> %d\n", bad.status);
    auto missing = client.Post("/v1/models/nope:predict", "{}");
    std::printf("unknown model -> %d\n", missing.status);
    auto stats = client.Get("/stats");
    net::Json doc = net::Json::Parse(stats.body);
    const net::Json* lstm = doc.Find("models") != nullptr
                                ? doc.Find("models")->Find("lstm")
                                : nullptr;
    if (lstm != nullptr) {
      std::printf(
          "stats: completed %lld, mean queue-wait %.0f us, mean exec %.0f "
          "us\n",
          static_cast<long long>(lstm->Find("completed")->integer()),
          lstm->Find("mean_queue_wait_us")->number(),
          lstm->Find("mean_exec_us")->number());
    }
  }

  // 4. Graceful teardown: stop the front end (flushes in-flight
  //    responses), then drain the pipeline (fulfills everything admitted).
  http.Stop();
  server.Drain();
  std::printf("drained; aggregate: %s\n", server.stats().ToString().c_str());
  return 0;
}
