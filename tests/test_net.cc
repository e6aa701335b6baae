// Network front-end tests: JSON codec, incremental HTTP parsing, and the
// loopback end-to-end contract — requests over a real socket produce
// results bit-identical to sequential VirtualMachine::Invoke, and
// backpressure is protocol-visible (429 on a full queue, 404 unknown
// model, 400 malformed body, graceful drain without dropped requests).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/compiler.h"
#include "src/models/lstm.h"
#include "src/models/workloads.h"
#include "src/net/http_client.h"
#include "src/net/http_codec.h"
#include "src/net/http_server.h"
#include "src/net/json.h"
#include "src/obs/step_journal.h"
#include "src/serve/server.h"
#include "src/vm/vm.h"

namespace nimble {
namespace {

using net::HttpCodec;
using net::HttpRequest;
using net::Json;
using runtime::AsTensor;
using runtime::MakeTensor;
using runtime::NDArray;

// ---- JSON -------------------------------------------------------------------

TEST(Json, ParsesScalarsArraysObjects) {
  std::string error;
  Json doc = Json::Parse(
      R"({"a": 1.5, "b": [1, 2, 3], "c": {"d": "x\ny"}, "e": true, "f": null})",
      &error);
  ASSERT_TRUE(doc.is_object()) << error;
  EXPECT_DOUBLE_EQ(doc.Find("a")->number(), 1.5);
  ASSERT_TRUE(doc.Find("b")->is_array());
  EXPECT_EQ(doc.Find("b")->items().size(), 3u);
  EXPECT_EQ(doc.Find("b")->items()[2].integer(), 3);
  EXPECT_EQ(doc.Find("c")->Find("d")->str(), "x\ny");
  EXPECT_TRUE(doc.Find("e")->boolean());
  EXPECT_TRUE(doc.Find("f")->is_null());
  EXPECT_EQ(doc.Find("missing"), nullptr);
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"{", "[1,", "{\"a\" 1}", "tru", "{\"a\":1} extra", "\"unterminated",
        "{'single': 1}"}) {
    std::string error;
    Json doc = Json::Parse(bad, &error);
    EXPECT_TRUE(doc.is_null()) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(Json, RejectsExcessiveNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  std::string error;
  EXPECT_TRUE(Json::Parse(deep, &error).is_null());
  EXPECT_NE(error.find("deep"), std::string::npos);
}

TEST(Json, DumpParseRoundTripsFloat32Exactly) {
  // 9 significant digits round-trip any float32 through decimal text.
  support::Rng rng(11);
  Json array = Json::Array();
  std::vector<float> values;
  for (int i = 0; i < 256; ++i) {
    float v = static_cast<float>(rng.Uniform(-100.0, 100.0));
    if (i % 7 == 0) v *= 1e-6f;
    if (i % 11 == 0) v *= 1e6f;
    values.push_back(v);
    array.Append(static_cast<double>(v));
  }
  Json parsed = Json::Parse(array.Dump());
  ASSERT_TRUE(parsed.is_array());
  ASSERT_EQ(parsed.items().size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(static_cast<float>(parsed.items()[i].number()), values[i])
        << "index " << i;
  }
}

TEST(Json, DumpEscapesAndOrdersMembers) {
  Json doc = Json::Object();
  doc.Set("b", "quote\" backslash\\ newline\n");
  doc.Set("a", 3);
  EXPECT_EQ(doc.Dump(),
            "{\"b\":\"quote\\\" backslash\\\\ newline\\n\",\"a\":3}")
      << "insertion order preserved, specials escaped";
}

TEST(Json, RejectsSurrogateEscapesLoneAndPaired) {
  // json.h promises BMP-only \uXXXX with NO surrogate handling: encoding a
  // surrogate half as UTF-8 would emit ill-formed (CESU-8) bytes, so the
  // whole D800-DFFF range must be a parse error — including a well-formed
  // high/low pair, which this codec deliberately does not decode.
  for (const char* bad : {
           R"("\ud800")",        // lone high surrogate
           R"("\udc00")",        // lone low surrogate
           R"("\udfff")",        // top of the range
           "\"\\ud83d\\ude00\"",    // valid pair (astral emoji) — unsupported
           R"({"k": "a\ud800b"})",  // embedded mid-string
       }) {
    std::string error;
    Json doc = Json::Parse(bad, &error);
    EXPECT_TRUE(doc.is_null()) << bad;
    EXPECT_NE(error.find("surrogate"), std::string::npos) << bad << ": "
                                                          << error;
  }
  // Non-surrogate BMP escapes still decode to UTF-8.
  Json ok = Json::Parse("\"caf\\u00e9 \\u4e2d\"");
  ASSERT_TRUE(ok.is_string());
  EXPECT_EQ(ok.str(), "caf\xc3\xa9 \xe4\xb8\xad");
}

// ---- HTTP codec -------------------------------------------------------------

TEST(HttpCodec, ParsesRequestFedByteByByte) {
  std::string wire =
      "POST /v1/models/m:predict HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 7\r\n"
      "\r\n"
      "{\"x\":1}";
  HttpCodec codec;
  HttpRequest request;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    codec.Feed(&wire[i], 1);
    ASSERT_EQ(codec.Next(&request), HttpCodec::Status::kNeedMore)
        << "byte " << i;
  }
  codec.Feed(&wire[wire.size() - 1], 1);
  ASSERT_EQ(codec.Next(&request), HttpCodec::Status::kRequest);
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/models/m:predict");
  EXPECT_EQ(request.body, "{\"x\":1}");
  ASSERT_NE(request.FindHeader("content-type"), nullptr) << "lowercased";
  EXPECT_EQ(*request.FindHeader("content-type"), "application/json");
  EXPECT_TRUE(request.keep_alive) << "HTTP/1.1 default";
}

TEST(HttpCodec, ParsesPipelinedRequestsFromOneFeed) {
  std::string wire =
      "GET /stats HTTP/1.1\r\n\r\n"
      "POST /x HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi"
      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
  HttpCodec codec;
  codec.Feed(wire.data(), wire.size());
  HttpRequest r1, r2, r3;
  ASSERT_EQ(codec.Next(&r1), HttpCodec::Status::kRequest);
  ASSERT_EQ(codec.Next(&r2), HttpCodec::Status::kRequest);
  ASSERT_EQ(codec.Next(&r3), HttpCodec::Status::kRequest);
  EXPECT_EQ(r1.target, "/stats");
  EXPECT_EQ(r2.body, "hi");
  EXPECT_EQ(r3.target, "/healthz");
  EXPECT_FALSE(r3.keep_alive) << "Connection: close honored";
  HttpRequest r4;
  EXPECT_EQ(codec.Next(&r4), HttpCodec::Status::kNeedMore);
}

TEST(HttpCodec, RejectsProtocolViolations) {
  struct Case {
    const char* wire;
    int status;
  };
  for (const Case& c : {
           Case{"garbage\r\n\r\n", 400},
           Case{"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400},
           Case{"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
       }) {
    HttpCodec codec;
    codec.Feed(c.wire, std::strlen(c.wire));
    HttpRequest request;
    ASSERT_EQ(codec.Next(&request), HttpCodec::Status::kError) << c.wire;
    EXPECT_EQ(codec.error_status(), c.status) << c.wire;
    // Poisoned: stays an error.
    EXPECT_EQ(codec.Next(&request), HttpCodec::Status::kError);
  }
}

TEST(HttpCodec, EnforcesHeaderAndBodyLimits) {
  HttpCodec::Limits limits;
  limits.max_header_bytes = 128;
  limits.max_body_bytes = 64;
  {
    HttpCodec codec(limits);
    std::string wire = "GET / HTTP/1.1\r\nX-Big: " + std::string(256, 'a');
    codec.Feed(wire.data(), wire.size());
    HttpRequest request;
    EXPECT_EQ(codec.Next(&request), HttpCodec::Status::kError);
    EXPECT_EQ(codec.error_status(), 400);
  }
  {
    HttpCodec codec(limits);
    std::string wire = "POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
    codec.Feed(wire.data(), wire.size());
    HttpRequest request;
    EXPECT_EQ(codec.Next(&request), HttpCodec::Status::kError);
    EXPECT_EQ(codec.error_status(), 413);
  }
}

TEST(HttpCodec, FlagsExpectContinueOnce) {
  HttpCodec codec;
  std::string head =
      "POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\n";
  codec.Feed(head.data(), head.size());
  HttpRequest request;
  ASSERT_EQ(codec.Next(&request), HttpCodec::Status::kNeedMore);
  EXPECT_TRUE(codec.ClaimExpectContinue());
  EXPECT_FALSE(codec.ClaimExpectContinue()) << "claimed exactly once";
  codec.Feed("abcd", 4);
  ASSERT_EQ(codec.Next(&request), HttpCodec::Status::kRequest);
  EXPECT_EQ(request.body, "abcd");
}

TEST(HttpCodec, WritesResponsesWithFraming) {
  std::string response = HttpCodec::WriteResponse(
      429, "{\"error\":\"queue full\"}", "application/json",
      /*keep_alive=*/true, {{"Retry-After", "1"}});
  EXPECT_NE(response.find("HTTP/1.1 429 Too Many Requests\r\n"),
            std::string::npos);
  EXPECT_NE(response.find("Content-Length: 22\r\n"), std::string::npos);
  EXPECT_NE(response.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(response.find("Connection: keep-alive\r\n"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\n{\"error\":\"queue full\"}"),
            std::string::npos);
}

// Byte-split fuzz: the same wire bytes must produce the same outcome no
// matter how the kernel fragments them across reads. Each corpus entry has
// one expected terminal outcome (N parsed requests, an error status, or
// still-waiting); fixed seeds drive random split points so failures
// reproduce exactly.
TEST(HttpCodec, ByteSplitFuzzOutcomeInvariantAcrossFragmentation) {
  struct Case {
    std::string wire;
    int requests;      // complete requests the bytes contain
    int error_status;  // 0 = no error
    bool need_more;    // true when the bytes end mid-request
  };
  const std::string valid_post =
      "POST /v1/models/m:predict HTTP/1.1\r\nContent-Length: 7\r\n\r\n"
      "{\"x\":1}";
  std::vector<Case> corpus = {
      {valid_post, 1, 0, false},
      {valid_post + valid_post + "GET /stats HTTP/1.1\r\n\r\n", 3, 0, false},
      // Truncations at every interesting boundary: request line, header,
      // blank line, mid-body.
      {"POST /x HT", 0, 0, true},
      {"POST /x HTTP/1.1\r\nContent-Le", 0, 0, true},
      {"POST /x HTTP/1.1\r\nContent-Length: 7\r\n", 0, 0, true},
      {"POST /x HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"x\"", 0, 0, true},
      // Malformed: framing garbage, bad length, unimplemented transfer
      // coding — and a valid request pipelined BEHIND the poison pill must
      // never be parsed.
      {"garbage\r\n\r\n" + valid_post, 0, 400, false},
      {"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 0, 400, false},
      {"POST /x HTTP/1.1\r\nContent-Length: -4\r\n\r\n", 0, 400, false},
      {"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nx", 0, 501,
       false},
      {valid_post + "garbage\r\n\r\n", 1, 400, false},
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    support::Rng rng(seed);
    for (const Case& c : corpus) {
      HttpCodec codec;
      int requests = 0;
      int error_status = 0;
      bool need_more = false;
      size_t pos = 0;
      while (pos < c.wire.size() && error_status == 0) {
        size_t chunk = static_cast<size_t>(rng.UniformInt(
            1, static_cast<int64_t>(
                   std::min<size_t>(7, c.wire.size() - pos))));
        codec.Feed(c.wire.data() + pos, chunk);
        pos += chunk;
        while (true) {
          HttpRequest request;
          HttpCodec::Status status = codec.Next(&request);
          if (status == HttpCodec::Status::kRequest) {
            ++requests;
            continue;
          }
          if (status == HttpCodec::Status::kError) {
            error_status = codec.error_status();
          } else {
            need_more = true;
          }
          break;
        }
      }
      EXPECT_EQ(requests, c.requests) << c.wire << " seed " << seed;
      EXPECT_EQ(error_status, c.error_status) << c.wire << " seed " << seed;
      if (c.need_more) {
        EXPECT_TRUE(need_more) << c.wire << " seed " << seed;
      }
    }
  }
  // Size limits are fragmentation-invariant too: an oversized declared
  // body must map to 413 whether the head arrives whole or byte by byte.
  HttpCodec::Limits limits;
  limits.max_body_bytes = 64;
  const std::string big =
      "POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    support::Rng rng(seed * 31);
    HttpCodec codec(limits);
    int error_status = 0;
    size_t pos = 0;
    while (pos < big.size() && error_status == 0) {
      size_t chunk = static_cast<size_t>(rng.UniformInt(
          1, static_cast<int64_t>(std::min<size_t>(5, big.size() - pos))));
      codec.Feed(big.data() + pos, chunk);
      pos += chunk;
      HttpRequest request;
      if (codec.Next(&request) == HttpCodec::Status::kError) {
        error_status = codec.error_status();
      }
    }
    EXPECT_EQ(error_status, 413) << "seed " << seed;
  }
}

// Mutation fuzz: random single-byte corruptions of a valid request head
// must never crash the codec (ASan job) and every error must map to one of
// the statuses the front end actually speaks: 400, 413, 501.
TEST(HttpCodec, MutationFuzzNeverCrashesAndMapsToKnownStatuses) {
  const std::string base =
      "POST /v1/models/m:predict HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 7\r\n"
      "\r\n"
      "{\"x\":1}";
  const size_t head_len = base.find("\r\n\r\n") + 4;
  int errors = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    support::Rng rng(seed * 7919);
    std::string wire = base;
    int flips = static_cast<int>(rng.UniformInt(1, 3));
    for (int f = 0; f < flips; ++f) {
      size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(head_len) - 1));
      wire[at] = static_cast<char>(rng.UniformInt(0, 255));
    }
    HttpCodec codec;
    codec.Feed(wire.data(), wire.size());
    while (true) {
      HttpRequest request;
      HttpCodec::Status status = codec.Next(&request);
      if (status == HttpCodec::Status::kRequest) continue;
      if (status == HttpCodec::Status::kError) {
        ++errors;
        int s = codec.error_status();
        EXPECT_TRUE(s == 400 || s == 413 || s == 501)
            << "unmapped status " << s << " for seed " << seed;
      }
      break;  // kNeedMore (mutated Content-Length may want more bytes)
    }
  }
  EXPECT_GT(errors, 0) << "corpus never hit the error path — fuzz is inert";
}

// ---- loopback end-to-end ----------------------------------------------------

/// Compiled LSTM + expected sequential results + JSON/binary body builders.
struct HttpFixture {
  models::LSTMModel model;
  std::shared_ptr<vm::Executable> exec;
  std::vector<int64_t> lengths;
  std::vector<NDArray> inputs;
  std::vector<NDArray> expected;

  explicit HttpFixture(std::vector<int64_t> request_lengths,
                       uint64_t seed = 21) {
    models::LSTMConfig config;
    config.input_size = 8;
    config.hidden_size = 16;
    config.emit_batched = true;
    model = models::BuildLSTM(config);
    ir::Module mod = model.module;
    core::CompileOptions opts;
    opts.batched_entries = {model.batched_spec};
    exec = core::Compile(mod, opts).executable;

    support::Rng rng(seed);
    lengths = std::move(request_lengths);
    vm::VirtualMachine sequential(exec);
    for (int64_t len : lengths) {
      NDArray x = models::RandomSequence(len, config.input_size, rng);
      inputs.push_back(x);
      auto out = sequential.Invoke(
          "main", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))});
      expected.push_back(AsTensor(out));
    }
  }

  std::string JsonBody(size_t i) const {
    Json tensor = Json::Object();
    Json shape = Json::Array();
    for (int64_t dim : inputs[i].shape()) shape.Append(dim);
    tensor.Set("shape", std::move(shape));
    Json data = Json::Array();
    const float* src = inputs[i].data<float>();
    for (int64_t j = 0; j < inputs[i].num_elements(); ++j) {
      data.Append(static_cast<double>(src[j]));
    }
    tensor.Set("data", std::move(data));
    Json scalar = Json::Object();
    scalar.Set("scalar", lengths[i]);
    Json inputs_json = Json::Array();
    inputs_json.Append(std::move(tensor));
    inputs_json.Append(std::move(scalar));
    Json body = Json::Object();
    body.Set("inputs", std::move(inputs_json));
    body.Set("length", lengths[i]);
    return body.Dump();
  }

  /// Asserts a 200 predict response matches the sequential result exactly.
  void ExpectResponseBitIdentical(
      const net::BlockingHttpClient::Response& response, size_t i) const {
    ASSERT_TRUE(response.ok) << response.error;
    ASSERT_EQ(response.status, 200) << response.body;
    Json doc = Json::Parse(response.body);
    ASSERT_TRUE(doc.is_object());
    const Json* data = doc.Find("data");
    ASSERT_NE(data, nullptr);
    ASSERT_EQ(static_cast<int64_t>(data->items().size()),
              expected[i].num_elements());
    const float* want = expected[i].data<float>();
    for (size_t j = 0; j < data->items().size(); ++j) {
      ASSERT_EQ(static_cast<float>(data->items()[j].number()), want[j])
          << "request " << i << " flat index " << j;
    }
  }
};

struct RunningServer {
  serve::Server server;
  net::HttpServer http;

  RunningServer(const HttpFixture& fixture, serve::ModelConfig model_config,
                serve::ServeConfig serve_config = MakeServeConfig())
      : server(serve_config), http(&server, MakeHttpConfig()) {
    model_config.exec = fixture.exec;
    server.AddModel("lstm", std::move(model_config));
    server.Start();
    http.Start();
  }

  static serve::ServeConfig MakeServeConfig() {
    serve::ServeConfig config;
    config.num_workers = 2;
    return config;
  }

  static net::HttpServerConfig MakeHttpConfig() {
    net::HttpServerConfig config;
    config.port = 0;  // ephemeral
    return config;
  }
};

TEST(HttpServe, PredictOverLoopbackBitIdenticalToSequential) {
  HttpFixture fixture({5, 12, 3, 9, 7, 5, 20, 11});
  serve::ModelConfig model;
  model.batch.max_batch_size = 4;
  model.batch.max_wait_micros = 500;
  model.batch.tensor_batching = true;
  RunningServer rig(fixture, std::move(model));

  net::BlockingHttpClient client("127.0.0.1", rig.http.port());
  for (size_t i = 0; i < fixture.lengths.size(); ++i) {
    auto response =
        client.Post("/v1/models/lstm:predict", fixture.JsonBody(i));
    fixture.ExpectResponseBitIdentical(response, i);
  }
  rig.http.Stop();
  rig.server.Drain();
  EXPECT_EQ(rig.server.stats().completed,
            static_cast<int64_t>(fixture.lengths.size()));
  EXPECT_EQ(rig.server.stats().failed, 0);
}

TEST(HttpServe, ConcurrentKeepAliveClientsAllBitIdentical) {
  const int kClients = 4;
  std::vector<int64_t> lengths;
  for (int i = 0; i < 32; ++i) lengths.push_back(3 + (i * 5) % 17);
  HttpFixture fixture(lengths);
  serve::ModelConfig model;
  model.batch.max_batch_size = 4;
  model.batch.max_wait_micros = 1000;
  model.batch.tensor_batching = true;
  RunningServer rig(fixture, std::move(model));

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      net::BlockingHttpClient client("127.0.0.1", rig.http.port());
      for (size_t i = static_cast<size_t>(c); i < fixture.lengths.size();
           i += kClients) {
        auto response =
            client.Post("/v1/models/lstm:predict", fixture.JsonBody(i));
        if (!response.ok || response.status != 200) {
          failures.fetch_add(1);
          continue;
        }
        Json doc = Json::Parse(response.body);
        const Json* data = doc.Find("data");
        const float* want = fixture.expected[i].data<float>();
        for (size_t j = 0; j < data->items().size(); ++j) {
          if (static_cast<float>(data->items()[j].number()) != want[j]) {
            failures.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  rig.http.Stop();
  rig.server.Drain();
  EXPECT_EQ(rig.server.stats().completed,
            static_cast<int64_t>(fixture.lengths.size()));
}

TEST(HttpServe, BinaryBodyRoundTripsBitIdentical) {
  HttpFixture fixture({6, 4});
  serve::ModelConfig model;
  model.batch.max_batch_size = 2;
  RunningServer rig(fixture, std::move(model));

  net::BlockingHttpClient client("127.0.0.1", rig.http.port());
  for (size_t i = 0; i < fixture.lengths.size(); ++i) {
    std::string shape = std::to_string(fixture.inputs[i].shape()[0]) + "," +
                        std::to_string(fixture.inputs[i].shape()[1]);
    std::string body(static_cast<const char*>(fixture.inputs[i].raw_data()),
                     fixture.inputs[i].nbytes());
    auto response = client.Request(
        "POST", "/v1/models/lstm:predict", body,
        {{"Content-Type", "application/octet-stream"},
         {"Accept", "application/octet-stream"},
         {"X-Nimble-Shape", shape},
         {"X-Nimble-Length", std::to_string(fixture.lengths[i])}});
    ASSERT_TRUE(response.ok) << response.error;
    ASSERT_EQ(response.status, 200);
    ASSERT_EQ(response.body.size(), fixture.expected[i].nbytes());
    EXPECT_EQ(std::memcmp(response.body.data(),
                          fixture.expected[i].raw_data(),
                          response.body.size()),
              0)
        << "binary response must be the exact float32 bytes";
    const std::string* shape_header = response.FindHeader("x-nimble-shape");
    ASSERT_NE(shape_header, nullptr);
    EXPECT_EQ(*shape_header, "1," + std::to_string(
                                        fixture.expected[i].shape()[1]));
  }
}

TEST(HttpServe, ErrorStatusCodes) {
  HttpFixture fixture({4});
  serve::ModelConfig model;
  RunningServer rig(fixture, std::move(model));

  net::BlockingHttpClient client("127.0.0.1", rig.http.port());
  EXPECT_EQ(client.Post("/v1/models/nope:predict", "{}").status, 404)
      << "unknown model";
  EXPECT_EQ(client.Post("/v1/models/lstm:predict", "not json").status, 400)
      << "malformed body";
  EXPECT_EQ(client.Post("/v1/models/lstm:predict",
                        "{\"inputs\": [{\"shape\": [2, 8], \"data\": [1]}]}")
                .status,
            400)
      << "shape/data mismatch";
  // Overflow bomb: 2^32 * 2^32 wraps a naive int64 product to 0, which
  // would "match" an empty data array and build a tensor whose shape lies
  // about its allocation. Must be a clean 400, for both protocols.
  EXPECT_EQ(client.Post("/v1/models/lstm:predict",
                        "{\"inputs\": [{\"shape\": [4294967296, 4294967296], "
                        "\"data\": []}]}")
                .status,
            400)
      << "shape-product overflow (JSON)";
  EXPECT_EQ(client
                .Request("POST", "/v1/models/lstm:predict", "",
                         {{"Content-Type", "application/octet-stream"},
                          {"X-Nimble-Shape", "4294967296,4294967296"}})
                .status,
            400)
      << "shape-product overflow (binary)";
  EXPECT_EQ(client.Get("/v1/models/lstm:predict").status, 405)
      << "GET predict";
  EXPECT_EQ(client.Get("/nowhere").status, 404) << "unrouted target";
  EXPECT_EQ(client.Get("/healthz").status, 200);

  auto models = client.Get("/v1/models");
  ASSERT_EQ(models.status, 200);
  Json doc = Json::Parse(models.body);
  ASSERT_TRUE(doc.Find("models")->is_array());
  EXPECT_EQ(doc.Find("models")->items()[0].str(), "lstm");
}

TEST(HttpServe, OverloadShedsWith429NeverHangsNever5xx) {
  // Deliberately tiny pipeline: 1 worker, queue of 2 (the scheduler's
  // buckets hold at most 2 more), batch size 1. A burst from 6 threads must
  // split into 200s and 429s — no 5xx, no hangs, and every 200 still
  // bit-identical.
  std::vector<int64_t> lengths;
  for (int i = 0; i < 36; ++i) lengths.push_back(16);
  HttpFixture fixture(lengths);
  serve::ModelConfig model;
  model.queue_capacity = 2;
  model.batch.max_batch_size = 1;
  model.batch.max_wait_micros = 0;
  serve::ServeConfig serve_config;
  serve_config.num_workers = 1;
  RunningServer rig(fixture, std::move(model), serve_config);

  const int kThreads = 6;
  std::atomic<int> ok200{0}, shed429{0}, server_error{0}, transport_error{0};
  std::atomic<int> mismatched{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c] {
      net::BlockingHttpClient client("127.0.0.1", rig.http.port());
      for (size_t i = static_cast<size_t>(c); i < fixture.lengths.size();
           i += kThreads) {
        auto response =
            client.Post("/v1/models/lstm:predict", fixture.JsonBody(i));
        if (!response.ok) {
          transport_error.fetch_add(1);
          continue;
        }
        if (response.status == 200) {
          ok200.fetch_add(1);
          Json doc = Json::Parse(response.body);
          const Json* data = doc.Find("data");
          const float* want = fixture.expected[i].data<float>();
          for (size_t j = 0; j < data->items().size(); ++j) {
            if (static_cast<float>(data->items()[j].number()) != want[j]) {
              mismatched.fetch_add(1);
              break;
            }
          }
        } else if (response.status == 429) {
          shed429.fetch_add(1);
          EXPECT_NE(response.FindHeader("retry-after"), nullptr);
        } else if (response.status >= 500) {
          server_error.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(server_error.load(), 0) << "overload must shed, not error";
  EXPECT_EQ(transport_error.load(), 0) << "overload must shed, not hang/drop";
  EXPECT_EQ(mismatched.load(), 0);
  EXPECT_GT(shed429.load(), 0) << "a 2-deep queue under 6 threads must shed";
  EXPECT_GT(ok200.load(), 0);
  EXPECT_EQ(ok200.load() + shed429.load(),
            static_cast<int>(fixture.lengths.size()));

  rig.http.Stop();
  rig.server.Drain();
  auto snap = rig.server.stats();
  EXPECT_EQ(snap.completed, ok200.load());
  EXPECT_EQ(snap.rejected, shed429.load()) << "shed accounting matches wire";
}

TEST(HttpServe, StatsEndpointReportsPipelineAndHttpCounters) {
  HttpFixture fixture({5, 9, 7, 3});
  serve::ModelConfig model;
  model.batch.max_batch_size = 2;
  model.batch.max_wait_micros = 500;
  RunningServer rig(fixture, std::move(model));

  net::BlockingHttpClient client("127.0.0.1", rig.http.port());
  for (size_t i = 0; i < fixture.lengths.size(); ++i) {
    ASSERT_EQ(client.Post("/v1/models/lstm:predict", fixture.JsonBody(i))
                  .status,
              200);
  }
  ASSERT_EQ(client.Post("/v1/models/nope:predict", "{}").status, 404);

  auto stats = client.Get("/stats");
  ASSERT_EQ(stats.status, 200);
  Json doc = Json::Parse(stats.body);
  ASSERT_TRUE(doc.is_object()) << stats.body;

  const Json* lstm = doc.Find("models")->Find("lstm");
  ASSERT_NE(lstm, nullptr);
  EXPECT_EQ(lstm->Find("completed")->integer(), 4);
  EXPECT_GT(lstm->Find("throughput_rps")->number(), 0.0);
  EXPECT_GT(lstm->Find("p99_latency_us")->number(), 0.0);
  EXPECT_GE(lstm->Find("mean_queue_wait_us")->number(), 0.0);
  EXPECT_GT(lstm->Find("mean_exec_us")->number(), 0.0);
  EXPECT_NE(lstm->Find("queue_depth"), nullptr);
  EXPECT_EQ(lstm->Find("queue_capacity")->integer(), 256);
  ASSERT_TRUE(lstm->Find("batch_size_hist")->is_object());

  const Json* http = doc.Find("http");
  ASSERT_NE(http, nullptr);
  EXPECT_GE(http->Find("by_endpoint")->Find("predict")->integer(), 5);
  EXPECT_GE(http->Find("by_status")->Find("200")->integer(), 4);
  EXPECT_GE(http->Find("by_status")->Find("404")->integer(), 1);

  // The latency split accounted over HTTP must add up.
  auto snap = rig.server.stats("lstm");
  EXPECT_NEAR(snap.mean_queue_wait_us + snap.mean_exec_us,
              snap.mean_latency_us, snap.mean_latency_us * 0.01 + 1.0);
}

TEST(HttpServe, MetricsEndpointExposesCountersMatchingTraffic) {
  HttpFixture fixture({5, 9, 7, 3});
  serve::ModelConfig model;
  model.batch.max_batch_size = 2;
  model.batch.max_wait_micros = 500;
  model.batch.tensor_batching = true;
  RunningServer rig(fixture, std::move(model));

  net::BlockingHttpClient client("127.0.0.1", rig.http.port());
  for (size_t i = 0; i < fixture.lengths.size(); ++i) {
    ASSERT_EQ(client.Post("/v1/models/lstm:predict", fixture.JsonBody(i))
                  .status,
              200);
  }
  ASSERT_EQ(client.Post("/v1/models/nope:predict", "{}").status, 404);

  auto metrics = client.Get("/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  ASSERT_EQ(metrics.status, 200);
  const std::string* content_type = metrics.FindHeader("content-type");
  ASSERT_NE(content_type, nullptr);
  EXPECT_NE(content_type->find("text/plain"), std::string::npos);
  EXPECT_NE(content_type->find("version=0.0.4"), std::string::npos);

  const std::string& text = metrics.body;
  // Pipeline counters match the traffic exactly.
  EXPECT_NE(text.find("nimble_requests_total{model=\"lstm\","
                      "outcome=\"completed\"} 4"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("nimble_arrivals_total{model=\"lstm\"} 4"),
            std::string::npos)
      << text;
  // HTTP plane counters: 5 predicts routed (4 ok + 1 unknown model).
  EXPECT_NE(text.find("nimble_http_requests_total{endpoint=\"predict\"} 5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("nimble_http_responses_total{code=\"404\"} 1"),
            std::string::npos)
      << text;
  // Histogram families render with their unit suffix and TYPE headers.
  EXPECT_NE(text.find("# TYPE nimble_e2e_latency_us histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE nimble_batch_size histogram"),
            std::string::npos);
  EXPECT_NE(text.find("nimble_queue_depth{model=\"lstm\"}"),
            std::string::npos)
      << "queue-depth gauge sampled at scrape time";
  EXPECT_NE(text.find("nimble_e2e_latency_us_count{model=\"lstm\"} 4"),
            std::string::npos)
      << text;
  // The scrape records itself before rendering, so its own body counts it.
  EXPECT_NE(text.find("nimble_http_requests_total{endpoint=\"metrics\"} 1"),
            std::string::npos)
      << text;
  auto again = client.Get("/metrics");
  ASSERT_EQ(again.status, 200);
  EXPECT_NE(
      again.body.find("nimble_http_requests_total{endpoint=\"metrics\"} 2"),
      std::string::npos)
      << again.body;
}

TEST(HttpServe, TraceHeaderEchoAndDebugTraceExport) {
  HttpFixture fixture({6, 11, 4});
  serve::ModelConfig model;
  model.batch.max_batch_size = 2;
  model.batch.max_wait_micros = 500;
  model.batch.tensor_batching = true;
  RunningServer rig(fixture, std::move(model));

  net::BlockingHttpClient client("127.0.0.1", rig.http.port());
  // X-Nimble-Trace: 1 gets the request's own stage timings echoed back.
  auto traced = client.Request("POST", "/v1/models/lstm:predict",
                               fixture.JsonBody(0),
                               {{"Content-Type", "application/json"},
                                {"X-Nimble-Trace", "1"}});
  fixture.ExpectResponseBitIdentical(traced, 0);
  const std::string* echo = traced.FindHeader("x-nimble-trace");
  ASSERT_NE(echo, nullptr) << "traced request must echo its spans";
  EXPECT_NE(echo->find("queue_us="), std::string::npos) << *echo;
  EXPECT_NE(echo->find("exec_us="), std::string::npos) << *echo;
  EXPECT_NE(echo->find("kernel_us="), std::string::npos) << *echo;

  // Without the header (or with "0"): no echo.
  auto untraced = client.Post("/v1/models/lstm:predict", fixture.JsonBody(1));
  fixture.ExpectResponseBitIdentical(untraced, 1);
  EXPECT_EQ(untraced.FindHeader("x-nimble-trace"), nullptr);
  auto opted_out = client.Request("POST", "/v1/models/lstm:predict",
                                  fixture.JsonBody(2),
                                  {{"Content-Type", "application/json"},
                                   {"X-Nimble-Trace", "0"}});
  fixture.ExpectResponseBitIdentical(opted_out, 2);
  EXPECT_EQ(opted_out.FindHeader("x-nimble-trace"), nullptr);

  // Every request committed a trace regardless of echo. The commit runs on
  // the pool worker AFTER the response bytes are handed off, so the client
  // can observe its response before the trace lands — wait for all three.
  for (int i = 0; i < 2000 && rig.server.tracer()->committed() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // The export is valid chrome-trace JSON with six spans per request.
  auto trace = client.Get("/debug/trace?n=2");
  ASSERT_EQ(trace.status, 200);
  Json doc = Json::Parse(trace.body);
  ASSERT_TRUE(doc.is_object()) << trace.body;
  const Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_EQ(events->items().size(), 12u) << "?n=2 caps at 2 traces x 6 spans";
  std::set<std::string> names;
  for (const Json& event : events->items()) {
    names.insert(event.Find("name")->str());
    EXPECT_EQ(event.Find("ph")->str(), "X");
  }
  EXPECT_EQ(names.size(), 6u) << "admission/queue/pack/exec/unpack/write";
  EXPECT_EQ(rig.server.tracer()->committed(), 3);

  // Unbounded n: all three traces.
  auto all = client.Get("/debug/trace");
  Json all_doc = Json::Parse(all.body);
  EXPECT_EQ(all_doc.Find("traceEvents")->items().size(), 18u);
}

TEST(HttpServe, DebugStepsEndpointAndSlotTimelinesOverTheWire) {
  HttpFixture fixture({6, 3, 9, 4});
  serve::ModelConfig model;
  model.batch.continuous = true;
  model.batch.continuous_slots = 2;
  RunningServer rig(fixture, std::move(model));

  net::BlockingHttpClient client("127.0.0.1", rig.http.port());
  // First request traced: the echo must carry the continuous detail.
  auto traced = client.Request("POST", "/v1/models/lstm:predict",
                               fixture.JsonBody(0),
                               {{"Content-Type", "application/json"},
                                {"X-Nimble-Trace", "1"}});
  fixture.ExpectResponseBitIdentical(traced, 0);
  const std::string* echo = traced.FindHeader("x-nimble-trace");
  ASSERT_NE(echo, nullptr);
  EXPECT_NE(echo->find("slot="), std::string::npos) << *echo;
  EXPECT_NE(echo->find("splice_step="), std::string::npos) << *echo;
  EXPECT_NE(echo->find("steps_resident=6"), std::string::npos) << *echo;
  for (size_t i = 1; i < fixture.lengths.size(); ++i) {
    auto response =
        client.Post("/v1/models/lstm:predict", fixture.JsonBody(i));
    fixture.ExpectResponseBitIdentical(response, i);
  }
  // The final retire's step record is pushed at the END of that RunStep,
  // after the completion callback has already handed the response bytes
  // off — so the last response can race the last journal push. Settle.
  auto view = [&] {
    auto views = rig.server.continuous_models();
    return views.empty() ? nullptr : views[0].journal;
  }();
  ASSERT_NE(view, nullptr);
  for (int i = 0; i < 2000; ++i) {
    std::vector<obs::StepRecord> tail =
        view->Tail(view->config().ring_capacity);
    size_t seen = 0;
    for (const obs::StepRecord& r : tail) {
      for (const obs::StepEvent& e : r.events) {
        if (e.kind == obs::StepEvent::Kind::kRetire) seen++;
      }
    }
    if (seen == fixture.lengths.size()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // /debug/steps?model=: the journal tail with one splice and one retire
  // per request.
  auto steps = client.Get("/debug/steps?model=lstm");
  ASSERT_EQ(steps.status, 200) << steps.body;
  Json journal = Json::Parse(steps.body);
  ASSERT_TRUE(journal.is_object()) << steps.body;
  EXPECT_EQ(journal.Find("model")->str(), "lstm");
  EXPECT_EQ(journal.Find("num_slots")->integer(), 2);
  const Json* records = journal.Find("steps");
  ASSERT_NE(records, nullptr);
  EXPECT_GT(records->items().size(), 0u);
  size_t splices = 0, retires = 0;
  int64_t last_step = -1;
  for (const Json& record : records->items()) {
    EXPECT_GT(record.Find("step")->integer(), last_step);
    last_step = record.Find("step")->integer();
    EXPECT_GE(record.Find("duration_us")->integer(), 0);
    EXPECT_EQ(record.Find("num_slots")->integer(), 2);
    for (const Json& event : record.Find("events")->items()) {
      const std::string& kind = event.Find("kind")->str();
      if (kind == "splice") splices++;
      if (kind == "retire") retires++;
    }
  }
  EXPECT_EQ(splices, fixture.lengths.size());
  EXPECT_EQ(retires, fixture.lengths.size());

  // ?n= caps the tail; omitted model lists every continuous journal;
  // an unknown model is a 404.
  auto one = client.Get("/debug/steps?model=lstm&n=1");
  ASSERT_EQ(one.status, 200);
  EXPECT_EQ(Json::Parse(one.body).Find("steps")->items().size(), 1u);
  auto all_models = client.Get("/debug/steps");
  ASSERT_EQ(all_models.status, 200);
  Json listing = Json::Parse(all_models.body);
  ASSERT_NE(listing.Find("models"), nullptr);
  EXPECT_EQ(listing.Find("models")->items().size(), 1u);
  EXPECT_EQ(client.Get("/debug/steps?model=nope").status, 404);

  // /debug/trace now interleaves slot-timeline tracks with request tracks.
  auto trace = client.Get("/debug/trace");
  ASSERT_EQ(trace.status, 200);
  Json doc = Json::Parse(trace.body);
  ASSERT_TRUE(doc.is_object()) << trace.body;
  bool saw_slot_process = false, saw_occupancy = false, saw_tenancy = false;
  for (const Json& event : doc.Find("traceEvents")->items()) {
    const std::string& name = event.Find("name")->str();
    const std::string& ph = event.Find("ph")->str();
    if (ph == "M" && name == "process_name" &&
        event.Find("args")->Find("name")->str() == "slots:lstm") {
      saw_slot_process = true;
    }
    if (ph == "C" && name == "occupancy") saw_occupancy = true;
    if (ph == "X" && name.rfind("req ", 0) == 0) saw_tenancy = true;
  }
  EXPECT_TRUE(saw_slot_process);
  EXPECT_TRUE(saw_occupancy);
  EXPECT_TRUE(saw_tenancy);

  // /stats surfaces the continuous occupancy block for this model.
  auto stats = client.Get("/stats");
  ASSERT_EQ(stats.status, 200);
  Json stats_doc = Json::Parse(stats.body);
  const Json* lstm = stats_doc.Find("models")->Find("lstm");
  ASSERT_NE(lstm, nullptr);
  const Json* continuous = lstm->Find("continuous");
  ASSERT_NE(continuous, nullptr) << stats.body;
  EXPECT_EQ(continuous->Find("slots")->integer(), 2);
  EXPECT_EQ(continuous->Find("splices")->integer(),
            static_cast<int64_t>(fixture.lengths.size()));
  EXPECT_GT(continuous->Find("steps")->integer(), 0);
  EXPECT_GT(continuous->Find("mean_step_duration_us")->number(), 0.0);

  // /metrics exports the renamed and the new step families.
  auto metrics = client.Get("/metrics");
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("nimble_steps_total"), std::string::npos);
  EXPECT_NE(metrics.body.find("nimble_step_duration_us"), std::string::npos);
  EXPECT_NE(metrics.body.find("nimble_active_rows"), std::string::npos);
  EXPECT_NE(metrics.body.find("nimble_runner_stalled"), std::string::npos);

  rig.http.Stop();
  rig.server.Drain();
}

TEST(HttpServe, GracefulStopFlushesInFlightAndHealthzGoes503) {
  HttpFixture fixture({30, 30, 30, 30, 30, 30});
  serve::ModelConfig model;
  model.batch.max_batch_size = 2;
  model.batch.max_wait_micros = 200;
  RunningServer rig(fixture, std::move(model));

  // Saturate, then stop while responses are in flight.
  std::atomic<int> completed{0}, errors{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < fixture.lengths.size(); ++c) {
    clients.emplace_back([&, c] {
      net::BlockingHttpClient client("127.0.0.1", rig.http.port());
      auto response =
          client.Post("/v1/models/lstm:predict", fixture.JsonBody(c));
      if (response.ok && response.status == 200) {
        completed.fetch_add(1);
      } else {
        errors.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(completed.load(), static_cast<int>(fixture.lengths.size()));
  EXPECT_EQ(errors.load(), 0);

  // Drain the pipeline while the front end still answers: health flips to
  // 503 and new predictions are refused as 503 (draining), not 429.
  rig.server.Drain();
  EXPECT_TRUE(rig.server.draining());
  net::BlockingHttpClient probe("127.0.0.1", rig.http.port());
  EXPECT_EQ(probe.Get("/healthz").status, 503);
  EXPECT_EQ(probe.Post("/v1/models/lstm:predict", fixture.JsonBody(0)).status,
            503);

  rig.http.Stop();
  EXPECT_EQ(rig.http.open_connections(), 0u);

  // The pipeline accounted every admitted request exactly once.
  auto snap = rig.server.stats();
  EXPECT_EQ(snap.completed, static_cast<int64_t>(fixture.lengths.size()));
  EXPECT_EQ(snap.failed, 0);
}

}  // namespace
}  // namespace nimble
