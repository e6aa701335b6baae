#include "src/net/inference_handler.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "src/codegen/parallel.h"
#include "src/obs/export.h"
#include "src/obs/memory.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/object.h"
#include "src/support/logging.h"

namespace nimble {
namespace net {

namespace {

constexpr const char* kJsonType = "application/json";
constexpr const char* kBinaryType = "application/octet-stream";

Json ErrorJson(const std::string& message) {
  Json body = Json::Object();
  body.Set("error", message);
  return body;
}

std::string ErrorBody(const std::string& message) {
  return ErrorJson(message).Dump();
}

/// Decoded inference inputs, independent of wire format.
struct DecodedBody {
  bool ok = false;
  std::string error;
  std::vector<runtime::ObjectRef> args;
  int64_t length_hint = 0;
};

DecodedBody DecodeFail(std::string message) {
  DecodedBody d;
  d.error = std::move(message);
  return d;
}

/// Ceiling on elements a request may claim. Far above anything the body
/// limits allow through, but low enough that the checked product below
/// can never overflow int64 (and a hostile shape like [2^32, 2^32] —
/// whose naive product wraps to 0 and would match an empty body — is
/// rejected instead of creating a tensor whose shape lies about its
/// allocation).
constexpr int64_t kMaxRequestElements = int64_t{1} << 28;

/// Overflow-checked element count; false when any dim is negative or the
/// product exceeds kMaxRequestElements.
bool CheckedNumElements(const runtime::ShapeVec& shape, int64_t* out) {
  int64_t product = 1;
  for (int64_t dim : shape) {
    if (dim < 0) return false;
    if (dim > 0 && product > kMaxRequestElements / dim) return false;
    product *= dim;
  }
  *out = product;
  return true;
}

bool ReadShape(const Json& value, runtime::ShapeVec* shape) {
  if (!value.is_array()) return false;
  shape->clear();
  for (const Json& dim : value.items()) {
    if (!dim.is_number() || dim.number() < 0 ||
        dim.number() != static_cast<double>(dim.integer())) {
      return false;
    }
    shape->push_back(dim.integer());
  }
  return true;
}

DecodedBody DecodeJsonBody(const std::string& body) {
  std::string parse_error;
  Json doc = Json::Parse(body, &parse_error);
  if (!doc.is_object()) {
    return DecodeFail(parse_error.empty() ? "body must be a JSON object"
                                          : "invalid JSON: " + parse_error);
  }
  const Json* inputs = doc.Find("inputs");
  if (inputs == nullptr || !inputs->is_array() || inputs->items().empty()) {
    return DecodeFail("missing non-empty 'inputs' array");
  }

  DecodedBody decoded;
  for (const Json& input : inputs->items()) {
    if (!input.is_object()) return DecodeFail("each input must be an object");
    if (const Json* scalar = input.Find("scalar")) {
      if (!scalar->is_number()) return DecodeFail("'scalar' must be a number");
      decoded.args.push_back(runtime::MakeTensor(
          runtime::NDArray::Scalar<int64_t>(scalar->integer())));
      continue;
    }
    const Json* shape_json = input.Find("shape");
    const Json* data = input.Find("data");
    runtime::ShapeVec shape;
    if (shape_json == nullptr || !ReadShape(*shape_json, &shape)) {
      return DecodeFail("input needs a 'shape' array of non-negative ints");
    }
    if (data == nullptr || !data->is_array()) {
      return DecodeFail("input needs a 'data' array");
    }
    int64_t expected = 0;
    if (!CheckedNumElements(shape, &expected)) {
      return DecodeFail("'shape' implies an unreasonable element count");
    }
    if (static_cast<int64_t>(data->items().size()) != expected) {
      return DecodeFail("'data' holds " +
                        std::to_string(data->items().size()) +
                        " elements but 'shape' implies " +
                        std::to_string(expected));
    }
    std::string dtype = "float32";
    if (const Json* dt = input.Find("dtype")) {
      if (!dt->is_string()) return DecodeFail("'dtype' must be a string");
      dtype = dt->str();
    }
    if (dtype == "float32") {
      runtime::NDArray arr =
          runtime::NDArray::Empty(shape, runtime::DataType::Float32());
      float* dst = arr.data<float>();
      for (size_t i = 0; i < data->items().size(); ++i) {
        const Json& v = data->items()[i];
        if (!v.is_number()) return DecodeFail("'data' must be numeric");
        dst[i] = static_cast<float>(v.number());
      }
      decoded.args.push_back(runtime::MakeTensor(std::move(arr)));
    } else if (dtype == "int64") {
      runtime::NDArray arr =
          runtime::NDArray::Empty(shape, runtime::DataType::Int64());
      int64_t* dst = arr.data<int64_t>();
      for (size_t i = 0; i < data->items().size(); ++i) {
        const Json& v = data->items()[i];
        if (!v.is_number()) return DecodeFail("'data' must be numeric");
        dst[i] = v.integer();
      }
      decoded.args.push_back(runtime::MakeTensor(std::move(arr)));
    } else {
      return DecodeFail("unsupported dtype '" + dtype +
                        "' (float32 and int64 only)");
    }
    if (decoded.length_hint == 0 && !shape.empty()) {
      decoded.length_hint = shape[0];  // default hint: first tensor's rows
    }
    // The element-by-element fill above is still a copy (parsed JSON ->
    // tensor), charged to the same site as the binary memcpy.
    obs::RecordCopy(obs::CopySite::kHttpDecode,
                    expected * static_cast<int64_t>(
                                   dtype == "int64" ? sizeof(int64_t)
                                                    : sizeof(float)));
  }
  if (const Json* length = doc.Find("length")) {
    if (!length->is_number() || length->number() < 0) {
      return DecodeFail("'length' must be a non-negative number");
    }
    decoded.length_hint = length->integer();
  }
  decoded.ok = true;
  return decoded;
}

DecodedBody DecodeBinaryBody(const HttpRequest& request) {
  const std::string* shape_header = request.FindHeader("x-nimble-shape");
  if (shape_header == nullptr) {
    return DecodeFail("binary body needs an X-Nimble-Shape header");
  }
  runtime::ShapeVec shape;
  const char* p = shape_header->c_str();
  while (*p != '\0') {
    char* end = nullptr;
    errno = 0;
    long long dim = std::strtoll(p, &end, 10);
    if (end == p || errno == ERANGE || dim < 0 ||
        dim > kMaxRequestElements) {
      return DecodeFail("malformed X-Nimble-Shape");
    }
    shape.push_back(dim);
    p = (*end == ',') ? end + 1 : end;
    if (*end != ',' && *end != '\0') {
      return DecodeFail("malformed X-Nimble-Shape");
    }
  }
  int64_t elements = 0;
  if (!CheckedNumElements(shape, &elements)) {
    return DecodeFail("X-Nimble-Shape implies an unreasonable element count");
  }
  size_t expected_bytes = static_cast<size_t>(elements) * sizeof(float);
  if (request.body.size() != expected_bytes) {
    return DecodeFail("body is " + std::to_string(request.body.size()) +
                      " bytes but X-Nimble-Shape implies " +
                      std::to_string(expected_bytes));
  }
  DecodedBody decoded;
  runtime::NDArray arr =
      runtime::NDArray::Empty(shape, runtime::DataType::Float32());
  std::memcpy(arr.raw_data(), request.body.data(), expected_bytes);
  obs::RecordCopy(obs::CopySite::kHttpDecode,
                  static_cast<int64_t>(expected_bytes));
  decoded.args.push_back(runtime::MakeTensor(std::move(arr)));
  if (!shape.empty()) decoded.length_hint = shape[0];
  if (const std::string* len = request.FindHeader("x-nimble-length")) {
    char* end = nullptr;
    long long n = std::strtoll(len->c_str(), &end, 10);
    if (end != len->c_str() + len->size() || n < 0) {
      return DecodeFail("malformed X-Nimble-Length");
    }
    // Convention shared with the LSTM entry point: the sequence length
    // rides as a trailing rank-0 int64 argument.
    decoded.args.push_back(
        runtime::MakeTensor(runtime::NDArray::Scalar<int64_t>(n)));
    decoded.length_hint = n;
  }
  decoded.ok = true;
  return decoded;
}

/// Serializes a finished inference into full response bytes, recording
/// exactly one status into `stats` (skipped when null — the front end may
/// already be gone by the time a slow batch completes). Runs on the pool
/// worker that completed the request. `trace` (nullable) is the request's
/// trace context for the X-Nimble-Trace echo — stages through unpack; the
/// write span is this very serialization, still open.
std::string SerializeResult(const std::string& model,
                            const runtime::ObjectRef& result,
                            std::exception_ptr error, bool binary,
                            bool keep_alive, HttpStats* stats,
                            const obs::TraceContext* trace) {
  int status = 200;
  std::string body;
  std::string content_type = kJsonType;
  std::vector<std::pair<std::string, std::string>> extra_headers;

  const runtime::NDArray* tensor = nullptr;
  if (result != nullptr && result->tag() == runtime::ObjectTag::kTensor) {
    tensor = &static_cast<const runtime::TensorObj*>(result.get())->data;
  }

  if (error != nullptr) {
    std::string what = "inference failed";
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    status = 500;
    body = ErrorBody(what);
  } else if (tensor == nullptr || !tensor->defined()) {
    status = 500;
    body = ErrorBody("result is not a tensor");
  } else if (binary && tensor->dtype() == runtime::DataType::Float32()) {
    std::string shape_str;
    for (size_t i = 0; i < tensor->shape().size(); ++i) {
      if (i > 0) shape_str += ",";
      shape_str += std::to_string(tensor->shape()[i]);
    }
    body.assign(static_cast<const char*>(tensor->raw_data()),
                tensor->nbytes());
    content_type = kBinaryType;
    extra_headers = {{"X-Nimble-Shape", shape_str},
                     {"X-Nimble-Dtype", "float32"}};
  } else if (tensor->dtype() == runtime::DataType::Float32() ||
             tensor->dtype() == runtime::DataType::Int64()) {
    Json doc = Json::Object();
    doc.Set("model", model);
    Json shape = Json::Array();
    for (int64_t dim : tensor->shape()) shape.Append(dim);
    doc.Set("shape", std::move(shape));
    doc.Set("dtype", tensor->dtype().ToString());
    Json data = Json::Array();
    int64_t n = tensor->num_elements();
    if (tensor->dtype() == runtime::DataType::Float32()) {
      const float* src = tensor->data<float>();
      for (int64_t i = 0; i < n; ++i) {
        data.Append(static_cast<double>(src[i]));
      }
    } else {
      const int64_t* src = tensor->data<int64_t>();
      for (int64_t i = 0; i < n; ++i) data.Append(src[i]);
    }
    doc.Set("data", std::move(data));
    body = doc.Dump();
  } else {
    status = 500;
    body = ErrorBody("unsupported result dtype " +
                     tensor->dtype().ToString());
  }

  if (trace != nullptr && trace->enabled) {
    extra_headers.emplace_back("X-Nimble-Trace", obs::TraceHeaderValue(*trace));
  }
  // Result tensor -> response bytes is the pipeline's last copy (binary:
  // body.assign of the raw tensor; JSON: the Dump of the data array).
  // Error bodies are not data-path copies and stay unrecorded.
  if (status == 200) {
    obs::RecordCopy(obs::CopySite::kSerialize,
                    static_cast<int64_t>(body.size()));
  }
  if (stats != nullptr) stats->RecordResponse(status);
  return HttpCodec::WriteResponse(status, body, content_type, keep_alive,
                                  extra_headers);
}

Json SnapshotJson(const serve::StatsSnapshot& snap) {
  Json j = Json::Object();
  j.Set("completed", snap.completed);
  j.Set("failed", snap.failed);
  j.Set("rejected", snap.rejected);
  j.Set("arrivals", snap.arrivals);
  j.Set("throughput_rps", snap.throughput_rps);
  j.Set("mean_latency_us", snap.mean_latency_us);
  j.Set("p50_latency_us", snap.p50_latency_us);
  j.Set("p95_latency_us", snap.p95_latency_us);
  j.Set("p99_latency_us", snap.p99_latency_us);
  j.Set("max_latency_us", snap.max_latency_us);
  j.Set("mean_queue_wait_us", snap.mean_queue_wait_us);
  j.Set("max_queue_wait_us", snap.max_queue_wait_us);
  j.Set("mean_exec_us", snap.mean_exec_us);
  j.Set("batches", snap.batches);
  j.Set("mean_batch_size", snap.mean_batch_size);
  Json hist = Json::Object();
  for (size_t i = 0; i < snap.batch_size_hist.size(); ++i) {
    hist.Set(serve::ServeStats::BatchHistLabel(i), snap.batch_size_hist[i]);
  }
  j.Set("batch_size_hist", std::move(hist));
  j.Set("packed_batches", snap.packed_batches);
  j.Set("padding_waste", snap.padding_waste);
  if (snap.cache_hits + snap.cache_misses > 0) {
    j.Set("exec_cache_hit_rate", snap.cache_hit_rate);
    j.Set("exec_cache_variant_batches", snap.variant_batches);
  }
  if (snap.slot_count > 0) {
    Json c = Json::Object();
    c.Set("slots", snap.slot_count);
    c.Set("splices", snap.splices);
    c.Set("steps", snap.continuous_steps);
    c.Set("row_steps", snap.continuous_row_steps);
    c.Set("idle_row_steps", snap.continuous_idle_row_steps);
    c.Set("slot_occupancy", snap.slot_occupancy);
    c.Set("mean_slot_occupancy", snap.mean_slot_occupancy);
    c.Set("idle_slot_fraction", snap.idle_slot_fraction);
    c.Set("mean_step_duration_us", snap.mean_step_duration_us);
    c.Set("mean_splice_wait_us", snap.mean_splice_wait_us);
    j.Set("continuous", std::move(c));
  }
  return j;
}

/// Value of `key` in an already-split query string ("a=1&b=2"), or empty.
std::string QueryParam(const std::string& query, const std::string& key) {
  std::string needle = key + "=";
  size_t at = 0;
  while (at < query.size()) {
    size_t next = query.find('&', at);
    size_t len = (next == std::string::npos ? query.size() : next) - at;
    if (len >= needle.size() &&
        query.compare(at, needle.size(), needle) == 0) {
      return query.substr(at + needle.size(), len - needle.size());
    }
    if (next == std::string::npos) break;
    at = next + 1;
  }
  return "";
}

}  // namespace

HttpStats::HttpStats(std::shared_ptr<obs::MetricRegistry> registry)
    : registry_(std::move(registry)) {
  NIMBLE_CHECK(registry_ != nullptr);
  const std::string kRequestsHelp = "HTTP requests routed, by endpoint.";
  const std::string kResponsesHelp = "HTTP responses written, by status code.";
  for (const char* endpoint : {"predict", "stats", "metrics", "trace",
                               "steps", "memory", "models", "healthz",
                               "other"}) {
    by_endpoint_[endpoint] = registry_->GetCounter(
        "nimble_http_requests_total", {{"endpoint", endpoint}}, kRequestsHelp);
  }
  // Every status the codec or handler can emit; anything else (a future
  // code this table missed) folds into code="other" rather than growing
  // the label set at runtime.
  for (int status : {200, 400, 404, 405, 408, 413, 429, 431, 500, 501, 503}) {
    by_status_[status] =
        registry_->GetCounter("nimble_http_responses_total",
                              {{"code", std::to_string(status)}},
                              kResponsesHelp);
  }
  other_endpoint_ = by_endpoint_.at("other");
  other_status_ = registry_->GetCounter("nimble_http_responses_total",
                                        {{"code", "other"}}, kResponsesHelp);
}

void HttpStats::RecordRequest(const std::string& endpoint) {
  auto it = by_endpoint_.find(endpoint);
  (it != by_endpoint_.end() ? it->second : other_endpoint_)->Increment();
}

void HttpStats::RecordResponse(int status) {
  auto it = by_status_.find(status);
  (it != by_status_.end() ? it->second : other_status_)->Increment();
}

Json HttpStats::ToJson() const {
  Json endpoints = Json::Object();
  int64_t total = 0;
  for (const auto& [endpoint, counter] : by_endpoint_) {
    int64_t count = counter->Value();
    if (count != 0) endpoints.Set(endpoint, count);
    total += count;
  }
  Json statuses = Json::Object();
  for (const auto& [status, counter] : by_status_) {
    int64_t count = counter->Value();
    if (count != 0) statuses.Set(std::to_string(status), count);
  }
  if (int64_t other = other_status_->Value()) statuses.Set("other", other);
  Json j = Json::Object();
  j.Set("requests", total);
  j.Set("by_endpoint", std::move(endpoints));
  j.Set("by_status", std::move(statuses));
  return j;
}

InferenceHandler::InferenceHandler(serve::Server* server,
                                   std::string server_label)
    : server_(server), label_(std::move(server_label)) {
  NIMBLE_CHECK(server_ != nullptr);
  http_stats_ = std::make_shared<HttpStats>(server_->metrics_registry());
}

InferenceHandler::Outcome InferenceHandler::Respond(int status,
                                                    const Json& body,
                                                    bool keep_alive) {
  http_stats_->RecordResponse(status);
  Outcome outcome;
  outcome.close_connection = !keep_alive;
  outcome.response =
      HttpCodec::WriteResponse(status, body.Dump(), kJsonType, keep_alive);
  return outcome;
}

Json InferenceHandler::StatsJson() const {
  // One SnapshotAll pass instead of N+1 per-model stats() calls: each
  // model's instruments are read once, and the aggregate is the sum of
  // those same readings (consistency contract in src/serve/stats.h).
  serve::Server::ServerSnapshot snap = server_->SnapshotAll();
  Json doc = Json::Object();
  Json info = Json::Object();
  info.Set("server", label_);
  info.Set("draining", server_->draining());
  doc.Set("info", std::move(info));
  doc.Set("http", http_stats_->ToJson());
  Json models = Json::Object();
  for (const serve::Server::ModelStatsView& view : snap.models) {
    Json m = SnapshotJson(view.stats);
    m.Set("queue_depth", static_cast<int64_t>(view.queue_depth));
    m.Set("queue_capacity", static_cast<int64_t>(view.queue_capacity));
    if (view.has_exec_cache) {
      // Per-variant detail: which lengths are resident and the (possibly
      // tuner-measured) dense config each one baked — the §4.5 tuning
      // lifecycle made observable.
      Json cache = Json::Object();
      cache.Set("compiles", view.exec_cache.compiles);
      cache.Set("evictions", view.exec_cache.evictions);
      cache.Set("tune_events", view.exec_cache.tune_events);
      Json variants = Json::Array();
      for (const auto& detail : view.exec_cache.variants) {
        Json v = Json::Object();
        v.Set("length", detail.length);
        v.Set("dense_config", detail.dense_config);
        v.Set("tuned", detail.tuned);
        variants.Append(std::move(v));
      }
      cache.Set("variants", std::move(variants));
      m.Set("exec_cache", std::move(cache));
    }
    models.Set(view.name, std::move(m));
  }
  doc.Set("models", std::move(models));
  Json aggregate = SnapshotJson(snap.aggregate);
  aggregate.Set("queue_depth", static_cast<int64_t>(snap.queue_depth));
  doc.Set("aggregate", std::move(aggregate));
  // Memory digest: the scope totals and copy-site byte counts, so a /stats
  // poller sees data-plane memory health without a second request. The
  // full per-scope / size-class breakdown stays on /debug/memory.
  int64_t mem_live = 0;
  int64_t mem_peak = 0;
  int64_t mem_cached = 0;
  for (const obs::AllocScopeSample& scope : server_->MemoryScopes()) {
    mem_live += scope.live_bytes;
    mem_peak += scope.peak_bytes;
    mem_cached += scope.cached_bytes;
  }
  Json memory = Json::Object();
  memory.Set("live_bytes", mem_live);
  memory.Set("peak_bytes", mem_peak);
  memory.Set("cached_bytes", mem_cached);
  const obs::MemoryPressure* pressure = server_->memory_pressure();
  memory.Set("pressure", pressure != nullptr ? pressure->pressure() : 0.0);
  Json copied = Json::Object();
  for (const obs::CopySiteSnapshot& site : obs::CopyLedgerSnapshot()) {
    copied.Set(site.site, site.bytes);
  }
  memory.Set("copied_bytes", std::move(copied));
  doc.Set("memory", std::move(memory));
  return doc;
}

std::string InferenceHandler::MetricsText() const {
  // Gauges report state, not events: sample the live queue depths at
  // scrape time (exact, free for the hot path) before rendering. Gauge
  // lookup takes the registry mutex, which is fine here — scrapes are cold
  // — and resolving per scrape also picks up models added after this
  // handler was built (the front end is constructed before AddModel runs).
  obs::MetricRegistry& registry = *server_->metrics_registry();
  for (const std::string& name : server_->model_names()) {
    registry
        .GetGauge("nimble_queue_depth", {{"model", name}},
                  "Requests buffered in the model's admission queue "
                  "(sampled at scrape time).")
        ->Set(static_cast<double>(server_->queue_depth(name)));
  }
  // Same sample-at-scrape treatment for the kernel pool: busy() is a
  // process-wide instantaneous count, meaningless to mirror per event.
  codegen::KernelPool* pool = codegen::KernelPool::Global();
  registry
      .GetGauge("nimble_kernel_threads_busy", {},
                "Kernel-pool threads executing partitioned dense work "
                "(sampled at scrape time; 0 when the pool is disabled).")
      ->Set(pool != nullptr ? static_cast<double>(pool->busy()) : 0.0);
  // Memory scopes get the same treatment: live/peak are state, sampled per
  // scrape from each allocator's exact atomics, with a scope="total" sum so
  // dashboards need no label arithmetic.
  const std::string kLiveHelp =
      "Live (allocated minus freed) bytes per allocator scope, sampled at "
      "scrape time.";
  const std::string kPeakHelp =
      "High-water mark of live bytes per allocator scope.";
  int64_t total_live = 0;
  int64_t total_peak = 0;
  for (const obs::AllocScopeSample& scope : server_->MemoryScopes()) {
    registry.GetGauge("nimble_mem_live_bytes", {{"scope", scope.scope}},
                      kLiveHelp)
        ->Set(static_cast<double>(scope.live_bytes));
    registry.GetGauge("nimble_mem_peak_bytes", {{"scope", scope.scope}},
                      kPeakHelp)
        ->Set(static_cast<double>(scope.peak_bytes));
    total_live += scope.live_bytes;
    total_peak += scope.peak_bytes;
  }
  registry.GetGauge("nimble_mem_live_bytes", {{"scope", "total"}}, kLiveHelp)
      ->Set(static_cast<double>(total_live));
  registry.GetGauge("nimble_mem_peak_bytes", {{"scope", "total"}}, kPeakHelp)
      ->Set(static_cast<double>(total_peak));
  const obs::MemoryPressure* pressure = server_->memory_pressure();
  registry
      .GetGauge("nimble_mem_pressure", {},
                "Live bytes across server allocator scopes / soft limit "
                "(0 when no limit is configured)")
      ->Set(pressure != nullptr ? pressure->pressure() : 0.0);
  // The two global counter families (pool events, copied bytes) render as
  // hand-built text — registry counters cannot be Set to a merged value,
  // and the family names are distinct so the exposition stays valid.
  return registry.RenderPrometheus() + obs::MemoryCountersText();
}

std::string InferenceHandler::TraceJson(size_t n) const {
  // Merge the continuous models' slot timelines into the request-track
  // document: one Perfetto process per model, one track per slot, plus
  // occupancy / step-latency counter tracks (see obs::SlotTimeline).
  std::vector<obs::SlotTimeline> timelines;
  for (const serve::Server::ContinuousModelView& view :
       server_->continuous_models()) {
    if (view.journal == nullptr || !view.journal->enabled()) continue;
    obs::SlotTimeline timeline;
    timeline.model = view.name;
    timeline.num_slots = view.num_slots;
    timeline.records = view.journal->Tail(n);
    timelines.push_back(std::move(timeline));
  }
  return obs::ChromeTraceJson(server_->tracer()->Recent(n), timelines);
}

std::string InferenceHandler::StepsJson(const std::string& model,
                                        size_t n) const {
  std::vector<serve::Server::ContinuousModelView> views =
      server_->continuous_models();
  if (!model.empty()) {
    for (const serve::Server::ContinuousModelView& view : views) {
      if (view.name != model) continue;
      if (view.journal == nullptr) return "";
      return obs::StepJournalJson(view.name, view.num_slots,
                                  view.journal->steps_recorded(),
                                  view.journal->Tail(n));
    }
    return "";
  }
  std::string out = "{\"models\":[";
  bool first = true;
  for (const serve::Server::ContinuousModelView& view : views) {
    if (view.journal == nullptr) continue;
    if (!first) out += ",";
    first = false;
    out += obs::StepJournalJson(view.name, view.num_slots,
                                view.journal->steps_recorded(),
                                view.journal->Tail(n));
  }
  out += "]}";
  return out;
}

Json InferenceHandler::MemoryJson(size_t n) const {
  Json doc = Json::Object();
  doc.Set("telemetry_enabled", obs::MemoryTelemetryEnabled());

  Json pressure = Json::Object();
  const obs::MemoryPressure* p = server_->memory_pressure();
  pressure.Set("configured", p != nullptr);
  pressure.Set("pressure", p != nullptr ? p->pressure() : 0.0);
  if (p != nullptr) {
    pressure.Set("soft_limit_bytes", p->config().soft_limit_bytes);
    pressure.Set("shed_threshold", p->config().shed_threshold);
  }
  doc.Set("pressure", std::move(pressure));

  int64_t total_live = 0;
  int64_t total_peak = 0;
  int64_t total_allocated = 0;
  int64_t total_cached = 0;
  Json scopes = Json::Array();
  for (const obs::AllocScopeSample& scope : server_->MemoryScopes()) {
    Json s = Json::Object();
    s.Set("scope", scope.scope);
    s.Set("alloc_calls", scope.alloc_calls);
    s.Set("system_allocs", scope.system_allocs);
    s.Set("bytes_allocated", scope.bytes_allocated);
    s.Set("live_bytes", scope.live_bytes);
    s.Set("peak_bytes", scope.peak_bytes);
    s.Set("cached_bytes", scope.cached_bytes);
    s.Set("pool_hits", scope.pool_hits);
    s.Set("pool_refills", scope.pool_refills);
    s.Set("pool_frees", scope.pool_frees);
    // Size-class table, largest classes first as sampled, capped at `n`
    // like the other /debug endpoints cap their tails.
    Json classes = Json::Array();
    size_t limit = std::min(scope.classes.size(), n);
    for (size_t i = 0; i < limit; ++i) {
      Json c = Json::Object();
      c.Set("bucket_bytes", scope.classes[i].bucket_bytes);
      c.Set("blocks", scope.classes[i].blocks);
      c.Set("bytes", scope.classes[i].bytes);
      classes.Append(std::move(c));
    }
    s.Set("classes", std::move(classes));
    s.Set("classes_total", static_cast<int64_t>(scope.classes.size()));
    scopes.Append(std::move(s));
    total_live += scope.live_bytes;
    total_peak += scope.peak_bytes;
    total_allocated += scope.bytes_allocated;
    total_cached += scope.cached_bytes;
  }
  doc.Set("scopes", std::move(scopes));

  Json total = Json::Object();
  total.Set("live_bytes", total_live);
  total.Set("peak_bytes", total_peak);
  total.Set("bytes_allocated", total_allocated);
  total.Set("cached_bytes", total_cached);
  doc.Set("total", std::move(total));

  Json copy_sites = Json::Array();
  for (const obs::CopySiteSnapshot& site : obs::CopyLedgerSnapshot()) {
    Json s = Json::Object();
    s.Set("site", std::string(site.site));
    s.Set("bytes", site.bytes);
    s.Set("copies", site.copies);
    copy_sites.Append(std::move(s));
  }
  doc.Set("copy_sites", std::move(copy_sites));

  Json pool_events = Json::Object();
  for (const obs::PoolEventSnapshot& event : obs::PoolEventsSnapshot()) {
    pool_events.Set(event.event, event.count);
  }
  doc.Set("pool_events", std::move(pool_events));
  return doc;
}

InferenceHandler::Outcome InferenceHandler::Predict(
    const HttpRequest& request, const std::string& model,
    std::function<void(std::string)> respond) {
  // Admission backdate: the trace's admission span starts here, before
  // body decode, so decode cost shows up in the trace instead of vanishing
  // between connection read and queue push.
  auto received = serve::Clock::now();
  http_stats_->RecordRequest("predict");
  if (request.method != "POST") {
    return Respond(405, ErrorJson("predict requires POST"),
                   request.keep_alive);
  }
  // Unknown model outranks a malformed body: the resource doesn't exist,
  // so 404 — not a 400 about a body nobody would have decoded.
  if (!server_->HasModel(model)) {
    return Respond(404, ErrorJson("no model named '" + model + "'"),
                   request.keep_alive);
  }

  const std::string* content_type = request.FindHeader("content-type");
  bool binary_in =
      content_type != nullptr &&
      content_type->compare(0, std::strlen(kBinaryType), kBinaryType) == 0;
  DecodedBody decoded = binary_in ? DecodeBinaryBody(request)
                                  : DecodeJsonBody(request.body);
  if (!decoded.ok) {
    return Respond(400, ErrorJson(decoded.error),
                   request.keep_alive);
  }

  const std::string* accept = request.FindHeader("accept");
  bool binary_out =
      accept != nullptr &&
      accept->compare(0, std::strlen(kBinaryType), kBinaryType) == 0;
  bool keep_alive = request.keep_alive;
  // `X-Nimble-Trace: 1` asks for the request's own stage timings back as a
  // response header ("0" or absent: no echo).
  const std::string* trace_header = request.FindHeader("x-nimble-trace");
  bool echo_trace = trace_header != nullptr && !trace_header->empty() &&
                    *trace_header != "0";
  // weak_ptr: this callback fires on a pool worker and may outlive the
  // front end (slow batch, drain timeout expired). Then the stats write is
  // dropped; `respond` (HttpServer's lifeline-gated poster) likewise
  // degrades to a no-op rather than touching freed memory.
  std::weak_ptr<HttpStats> weak_stats = http_stats_;
  auto on_complete = [model, binary_out, keep_alive, echo_trace, weak_stats,
                      respond = std::move(respond)](
                         runtime::ObjectRef result, std::exception_ptr error,
                         const obs::TraceContext& trace) {
    std::shared_ptr<HttpStats> stats = weak_stats.lock();
    respond(SerializeResult(model, result, std::move(error), binary_out,
                            keep_alive, stats.get(),
                            echo_trace ? &trace : nullptr));
  };

  serve::Server::AdmitResult admit = server_->TrySubmitCallback(
      model, std::move(decoded.args), decoded.length_hint,
      std::move(on_complete), received);
  switch (admit.status) {
    case serve::Server::AdmitStatus::kAccepted: {
      Outcome outcome;
      outcome.async = true;
      return outcome;
    }
    case serve::Server::AdmitStatus::kQueueFull: {
      // The shed path of the PR-1 backpressure contract, now on the wire:
      // the client sees 429 + Retry-After instead of an ever-growing
      // buffer. One second is an honest hint for a queue that a scheduler
      // drains in milliseconds — clients with better knowledge of their
      // own latency budget can retry sooner.
      Json body = Json::Object();
      body.Set("error", "queue full for model '" + model + "'");
      body.Set("queue_depth", admit.queue_depth);
      body.Set("queue_capacity", admit.queue_capacity);
      http_stats_->RecordResponse(429);
      Outcome outcome;
      outcome.response = HttpCodec::WriteResponse(
          429, body.Dump(), kJsonType, request.keep_alive,
          {{"Retry-After", "1"}});
      return outcome;
    }
    case serve::Server::AdmitStatus::kUnknownModel:
      return Respond(404, ErrorJson("no model named '" + model + "'"),
                     request.keep_alive);
    case serve::Server::AdmitStatus::kClosed:
    default:
      return Respond(503, ErrorJson("server is draining"),
                     /*keep_alive=*/false);
  }
}

InferenceHandler::Outcome InferenceHandler::Handle(
    const HttpRequest& request, std::function<void(std::string)> respond) {
  // Split the target into path and query: routing matches the path, and
  // only /debug/trace reads the query.
  const std::string& target = request.target;
  size_t query_at = target.find('?');
  std::string path = target.substr(0, query_at);  // npos slices the whole
  std::string query =
      query_at == std::string::npos ? "" : target.substr(query_at + 1);
  // POST /v1/models/<name>:predict
  constexpr const char* kModelsPrefix = "/v1/models";
  if (path.compare(0, std::strlen(kModelsPrefix), kModelsPrefix) == 0) {
    std::string rest = path.substr(std::strlen(kModelsPrefix));
    if (rest.empty() && request.method == "GET") {
      http_stats_->RecordRequest("models");
      Json body = Json::Object();
      Json names = Json::Array();
      for (const std::string& name : server_->model_names()) {
        names.Append(name);
      }
      body.Set("models", std::move(names));
      return Respond(200, body, request.keep_alive);
    }
    constexpr const char* kPredictSuffix = ":predict";
    if (rest.size() > 1 && rest[0] == '/') {
      std::string name = rest.substr(1);
      size_t suffix_at = name.rfind(kPredictSuffix);
      if (suffix_at != std::string::npos &&
          suffix_at + std::strlen(kPredictSuffix) == name.size()) {
        return Predict(request, name.substr(0, suffix_at), std::move(respond));
      }
    }
  }
  if (path == "/stats" && request.method == "GET") {
    http_stats_->RecordRequest("stats");
    return Respond(200, StatsJson(), request.keep_alive);
  }
  if (path == "/metrics" && request.method == "GET") {
    http_stats_->RecordRequest("metrics");
    http_stats_->RecordResponse(200);
    Outcome outcome;
    outcome.close_connection = !request.keep_alive;
    outcome.response = HttpCodec::WriteResponse(
        200, MetricsText(), "text/plain; version=0.0.4; charset=utf-8",
        request.keep_alive);
    return outcome;
  }
  if (path == "/debug/trace" && request.method == "GET") {
    http_stats_->RecordRequest("trace");
    // ?n=K caps how many records to export; default a screenful, ceiling
    // well past any ring capacity.
    size_t n = 64;
    size_t at = query.find("n=");
    if (at != std::string::npos && (at == 0 || query[at - 1] == '&')) {
      const char* start = query.c_str() + at + 2;
      char* end = nullptr;
      long long parsed = std::strtoll(start, &end, 10);
      if (end != start && parsed > 0) {
        n = static_cast<size_t>(std::min<long long>(parsed, 65536));
      }
    }
    http_stats_->RecordResponse(200);
    Outcome outcome;
    outcome.close_connection = !request.keep_alive;
    outcome.response = HttpCodec::WriteResponse(200, TraceJson(n), kJsonType,
                                                request.keep_alive);
    return outcome;
  }
  if (path == "/debug/steps" && request.method == "GET") {
    http_stats_->RecordRequest("steps");
    std::string model = QueryParam(query, "model");
    size_t n = 256;
    std::string n_str = QueryParam(query, "n");
    if (!n_str.empty()) {
      char* end = nullptr;
      long long parsed = std::strtoll(n_str.c_str(), &end, 10);
      if (end != n_str.c_str() && parsed > 0) {
        n = static_cast<size_t>(std::min<long long>(parsed, 65536));
      }
    }
    std::string body = StepsJson(model, n);
    if (body.empty()) {
      return Respond(404,
                     ErrorJson("no continuous model named '" + model + "'"),
                     request.keep_alive);
    }
    http_stats_->RecordResponse(200);
    Outcome outcome;
    outcome.close_connection = !request.keep_alive;
    outcome.response = HttpCodec::WriteResponse(200, body, kJsonType,
                                                request.keep_alive);
    return outcome;
  }
  if (path == "/debug/memory" && request.method == "GET") {
    http_stats_->RecordRequest("memory");
    // ?n=K caps size-class rows per scope; default covers every class a
    // realistic bucket ladder produces.
    size_t n = 256;
    std::string n_str = QueryParam(query, "n");
    if (!n_str.empty()) {
      char* end = nullptr;
      long long parsed = std::strtoll(n_str.c_str(), &end, 10);
      if (end != n_str.c_str() && parsed > 0) {
        n = static_cast<size_t>(std::min<long long>(parsed, 65536));
      }
    }
    return Respond(200, MemoryJson(n), request.keep_alive);
  }
  if (path == "/healthz") {
    http_stats_->RecordRequest("healthz");
    Json body = Json::Object();
    bool draining = server_->draining();
    body.Set("status", draining ? "draining" : "serving");
    return Respond(draining ? 503 : 200, body, request.keep_alive);
  }
  http_stats_->RecordRequest("other");
  return Respond(404,
                 ErrorJson("no route for " + request.method + " " + target),
                 request.keep_alive);
}

}  // namespace net
}  // namespace nimble
