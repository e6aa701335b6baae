// HTTP request routing and translation for the serving pipeline.
//
// The handler is the seam between wire format and serve::Server:
//
//   POST /v1/models/<name>:predict   decode body -> TrySubmitCallback;
//                                    the response completes asynchronously
//   GET  /stats                      ServeStats + queue depths + HTTP
//                                    counters as JSON (one consistent
//                                    Server::SnapshotAll pass)
//   GET  /metrics                    Prometheus text exposition of the
//                                    server's obs::MetricRegistry
//   GET  /debug/trace?n=K            last K completed request traces as
//                                    chrome://tracing JSON; continuous
//                                    models add one Perfetto track per slot
//                                    (occupancy intervals named after the
//                                    resident request) plus occupancy and
//                                    step-latency counter tracks
//   GET  /debug/steps?model=&n=      step-journal tail of a continuous
//                                    model (all continuous models when
//                                    `model` is omitted): per-step seq,
//                                    duration, active rows, splice/retire
//                                    events, VM profile
//   GET  /debug/memory?n=K           allocator telemetry as JSON: per-scope
//                                    (worker/model/global) live, peak and
//                                    pool counters with size-class occupancy
//                                    (capped at K classes per scope), the
//                                    copy-site ledger, and memory-pressure
//                                    state
//   GET  /v1/models                  registered model names
//   GET  /healthz                    200 while serving, 503 once draining
//
// Tracing echo: a predict request carrying `X-Nimble-Trace: 1` gets its
// own stage timings back in an X-Nimble-Trace response header (stages
// through unpack — the write span is still open when the header is built).
//
// Backpressure becomes protocol-visible here, mapping AdmitStatus to
// status codes: a full queue answers 429 with a Retry-After hint (the
// queue-depth snapshot taken under the admission lock), an unknown model
// 404, a malformed body 400, a draining server 503. The event-loop thread
// never blocks: admission is TrySubmitCallback, and the completion
// callback — running on a pool worker — serializes the response and hands
// the bytes to `respond`, which the HttpServer forwards onto the loop.
//
// Request bodies (two formats):
//   JSON (application/json):
//     {"inputs": [{"shape": [L, D], "data": [...], "dtype": "float32"},
//                 {"scalar": 7}],
//      "length": L}
//     Tensor inputs become float32 (or int64) NDArrays; {"scalar": n} is a
//     rank-0 int64 (the LSTM entry's sequence-length argument). "length"
//     (optional) is the bucketing hint; it defaults to the first tensor's
//     leading dimension.
//   Binary (application/octet-stream): raw little-endian float32 data with
//     X-Nimble-Shape: "L,D" (and optionally X-Nimble-Length: L, which also
//     appends the rank-0 int64 length argument models like the LSTM take).
//
// Responses: {"model": ..., "shape": [...], "data": [...]} JSON, or raw
// bytes + X-Nimble-Shape when the request asked for
// "Accept: application/octet-stream".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "src/net/http_codec.h"
#include "src/net/json.h"
#include "src/obs/metrics.h"
#include "src/serve/server.h"

namespace nimble {
namespace net {

/// Per-endpoint and per-status counters for the HTTP front end (the serving
/// pipeline's own metrics are serve::ServeStats' series in the same
/// registry; these cover what only the network layer sees: routing,
/// protocol errors, shed requests).
///
/// Backed by sharded obs::Counter instruments in the server's registry
/// (families nimble_http_requests_total{endpoint} and
/// nimble_http_responses_total{code}), so the hot path is a relaxed atomic
/// add with no mutex, and GET /metrics exports them for free. The
/// endpoint and status sets are closed (unknowns fold into "other"), so
/// every counter pointer is resolved once at construction and the lookup
/// maps are read-only ever after. Thread-safe: recorded from the loop
/// thread and pool workers.
class HttpStats {
 public:
  explicit HttpStats(std::shared_ptr<obs::MetricRegistry> registry);

  void RecordRequest(const std::string& endpoint);
  void RecordResponse(int status);

  Json ToJson() const;

 private:
  std::shared_ptr<obs::MetricRegistry> registry_;  // keeps counters alive
  std::map<std::string, obs::Counter*> by_endpoint_;
  std::map<int, obs::Counter*> by_status_;
  obs::Counter* other_endpoint_ = nullptr;
  obs::Counter* other_status_ = nullptr;
};

class InferenceHandler {
 public:
  /// `server` must outlive the handler. `server_label` names this process
  /// in /stats output.
  explicit InferenceHandler(serve::Server* server,
                            std::string server_label = "nimble");

  struct Outcome {
    /// True when the response will be delivered later through `respond`
    /// (an accepted inference). False: `response` holds the full reply.
    bool async = false;
    /// The connection must close once this response flushes (the response
    /// advertised "Connection: close" — e.g. 503 while draining — even if
    /// the request itself asked for keep-alive).
    bool close_connection = false;
    std::string response;
  };

  /// Routes one parsed request. `respond` is invoked at most once, from a
  /// pool worker thread, with the serialized response bytes — the caller
  /// forwards it to its event loop. Never blocks, never throws.
  Outcome Handle(const HttpRequest& request,
                 std::function<void(std::string)> respond);

  const HttpStats& http_stats() const { return *http_stats_; }

  /// Builds the /stats JSON document (also used by tests and the loadgen).
  /// One Server::SnapshotAll() pass: every per-model snapshot plus the
  /// aggregate come from the same sweep (see the consistency contract in
  /// src/serve/stats.h).
  Json StatsJson() const;

  /// Prometheus text exposition (the GET /metrics body). Refreshes the
  /// per-model queue-depth gauges, then renders the server's registry.
  std::string MetricsText() const;

  /// Chrome-trace JSON of the newest `n` completed request traces plus the
  /// continuous models' slot timelines (the GET /debug/trace body). Load in
  /// chrome://tracing or Perfetto.
  std::string TraceJson(size_t n) const;

  /// Step-journal tail JSON (the GET /debug/steps body). `model` empty:
  /// every continuous model under a "models" array. Returns an empty
  /// string when `model` names no continuous model (the route answers
  /// 404).
  std::string StepsJson(const std::string& model, size_t n) const;

  /// Allocator-telemetry JSON (the GET /debug/memory body): every memory
  /// scope from Server::MemoryScopes() with its size-class occupancy table
  /// capped at `n` entries, the process copy-site ledger, and the
  /// memory-pressure block (pressure 0 / no soft limit when unconfigured).
  Json MemoryJson(size_t n) const;

 private:
  Outcome Respond(int status, const Json& body, bool keep_alive);
  Outcome Predict(const HttpRequest& request, const std::string& model,
                  std::function<void(std::string)> respond);

  serve::Server* server_;
  std::string label_;
  /// shared_ptr because completion callbacks on pool workers may outlive
  /// this handler (a slow batch finishing after the front end is torn
  /// down): they hold a weak_ptr and drop the stats write instead of
  /// touching freed memory.
  std::shared_ptr<HttpStats> http_stats_;
};

}  // namespace net
}  // namespace nimble
