#include "src/serve/server.h"

#include "src/support/logging.h"

namespace nimble {
namespace serve {

Server::Server(ServeConfig config) : config_(std::move(config)) {
  NIMBLE_CHECK_GE(config_.num_workers, 1);
  metrics_ = config_.metrics != nullptr
                 ? config_.metrics
                 : std::make_shared<obs::MetricRegistry>();
  tracer_ = std::make_shared<obs::Tracer>(config_.trace);
}

Server::Server(ModelConfig model, ServeConfig config)
    : Server(std::move(config)) {
  AddModel("default", std::move(model));
  Start();
}

Server::~Server() { Shutdown(); }

void Server::AddModel(const std::string& name, ModelConfig model) {
  NIMBLE_CHECK(!started_.load()) << "AddModel after Start";
  NIMBLE_CHECK(model.exec != nullptr) << "model '" << name << "' needs an executable";
  NIMBLE_CHECK_GE(model.weight, 1) << "model '" << name << "': weight must be >= 1";
  NIMBLE_CHECK(model_index_.count(name) == 0)
      << "model '" << name << "' registered twice";
  // The model's stats are its series in the registry ({model="<name>"}).
  auto state = std::make_unique<ModelState>(*metrics_, name);
  state->index = static_cast<int>(models_.size());
  state->exec = std::move(model.exec);
  state->function = std::move(model.function);
  state->weight = model.weight;
  state->policy = std::move(model.batch);
  if (state->policy.continuous) {
    // Fail at registration, not at first request: a model that cannot serve
    // continuously (no step twin, variant executable, no recurrent state)
    // is a configuration error.
    batch::ContinuousCheck check = batch::AnalyzeContinuous(
        *state->exec, state->function, state->policy.continuous_slots);
    NIMBLE_CHECK(check.ok())
        << "model '" << name << "' cannot serve continuously: " << check.reason;
    NIMBLE_CHECK(model.exec_cache == nullptr)
        << "model '" << name
        << "': an executable cache cannot serve a continuous model (variants "
           "bake an Lmax; the persistent batch has none)";
    // One step journal per continuous model, written by its runner thread
    // only (per-model journals are this plane's shards — see
    // src/obs/step_journal.h).
    state->journal = std::make_unique<obs::StepJournal>(config_.step_journal);
  }
  if (model.exec_cache != nullptr) {
    NIMBLE_CHECK(state->policy.tensor_batching)
        << "model '" << name
        << "': an executable cache requires tensor_batching (variants only "
           "pay off on the packed path)";
    int64_t baked = model.exec_cache->config().specialize_batch;
    NIMBLE_CHECK(baked == 0 || baked == state->policy.max_batch_size)
        << "model '" << name << "': cache bakes batch size " << baked
        << " but the policy dispatches batches of "
        << state->policy.max_batch_size;
    state->cache = std::move(model.exec_cache);
    // Cache events flow into the model's stats like every other serving
    // metric. Shutdown() detaches them again, so a shared cache may outlive
    // this server.
    state->cache->set_stats(&state->stats);
  }
  state->queue = std::make_unique<RequestQueue>(model.queue_capacity);
  state->tracer = tracer_.get();
  model_index_[name] = state->index;
  models_.push_back(std::move(state));
}

void Server::Start() {
  NIMBLE_CHECK(!started_.load()) << "Start called twice";
  NIMBLE_CHECK(!models_.empty()) << "Start with no models registered";
  // Continuous models get a dedicated slot-map runner each and never enter
  // the scheduler's model list; everything else shares the scheduler+pool
  // pipeline. Runner VMs are constructed here, on the owning thread, for
  // the same registry-population reason as the pool's.
  std::vector<ModelState*> bucketed;
  bucketed.reserve(models_.size());
  struct WatchEntry {
    batch::StepRunner* runner;
    std::string model;
    obs::Gauge* gauge;
  };
  std::vector<WatchEntry> watched;
  for (auto& model : models_) {
    if (model->policy.continuous) {
      runners_.push_back(std::make_unique<batch::StepRunner>(
          model->exec, model->function, model->policy.continuous_slots,
          model->queue.get(), &model->stats, tracer_.get(),
          model->journal.get()));
      runner_models_.push_back(model->name);
      watched.push_back(WatchEntry{
          runners_.back().get(), model->name,
          metrics_->GetGauge(
              "nimble_runner_stalled", {{"model", model->name}},
              "1 while the continuous runner holds live rows but has "
              "completed no step within the watchdog deadline")});
    } else {
      bucketed.push_back(model.get());
    }
  }
  if (!bucketed.empty()) {
    scheduler_ = std::make_unique<BatchScheduler>(std::move(bucketed));
    pool_ = std::make_unique<VMPool>(config_.num_workers, scheduler_.get());
  }
  for (auto& runner : runners_) runner->Start();
  if (config_.memory.soft_limit_bytes > 0) {
    // Live bytes across every server scope (workers, runners, globals —
    // request bodies decoded by the HTTP threads land in the global pool,
    // so queued-request memory counts toward pressure too).
    pressure_ = std::make_unique<obs::MemoryPressure>(
        config_.memory,
        [this]() {
          int64_t live = 0;
          for (const obs::AllocScopeSample& scope : MemoryScopes()) {
            live += scope.live_bytes;
          }
          return live;
        },
        metrics_->GetGauge("nimble_mem_pressure", {},
                           "Live bytes across server allocator scopes / "
                           "soft limit (0 when no limit is configured)"));
  }
  if (!watched.empty() || pressure_ != nullptr) {
    // The health source copies the watch list; runner pointers stay valid
    // until ~Server, and the watchdog is stopped first in Drain anyway.
    // The same poll loop carries the memory-pressure check (one
    // observability thread, not one per concern).
    watchdog_ = std::make_unique<obs::StallWatchdog>(
        config_.watchdog, [watched]() {
          std::vector<obs::RunnerHealth> health;
          health.reserve(watched.size());
          for (const WatchEntry& entry : watched) {
            obs::RunnerHealth h;
            h.model = entry.model;
            h.live_rows = entry.runner->live_rows();
            h.steps = entry.runner->steps_completed();
            h.last_progress_ns = entry.runner->last_progress_ns();
            h.stalled_gauge = entry.gauge;
            health.push_back(std::move(h));
          }
          return health;
        });
    if (pressure_ != nullptr) {
      watchdog_->SetAuxCheck(
          [pressure = pressure_.get()](obs::SteadyClock::time_point now) {
            pressure->CheckOnce(now);
          });
    }
    watchdog_->Start();
  }
  started_.store(true);
}

std::vector<obs::AllocScopeSample> Server::MemoryScopes() const {
  auto sample = [](std::string scope, const runtime::Allocator* alloc,
                   const runtime::PoolingAllocator* pool) {
    obs::AllocScopeSample s;
    s.scope = std::move(scope);
    runtime::AllocStats stats = alloc->stats();
    s.alloc_calls = stats.alloc_calls;
    s.system_allocs = stats.system_allocs;
    s.bytes_allocated = stats.bytes_allocated;
    s.live_bytes = stats.live_bytes;
    s.peak_bytes = stats.peak_bytes;
    s.pool_hits = stats.pool_hits;
    s.pool_refills = stats.pool_refills;
    s.pool_frees = stats.pool_frees;
    if (pool != nullptr) {
      s.cached_bytes = static_cast<int64_t>(pool->cached_bytes());
      s.classes = pool->PoolClasses();
    }
    return s;
  };
  std::vector<obs::AllocScopeSample> scopes;
  if (pool_ != nullptr) {
    int index = 0;
    for (runtime::PoolingAllocator* alloc : pool_->worker_allocators()) {
      scopes.push_back(sample("worker:" + std::to_string(index++), alloc,
                              alloc));
    }
  }
  for (size_t i = 0; i < runners_.size(); ++i) {
    runtime::PoolingAllocator* alloc = runners_[i]->allocator();
    scopes.push_back(sample("model:" + runner_models_[i], alloc, alloc));
  }
  scopes.push_back(sample("global:pool", runtime::GlobalPoolingAllocator(),
                          runtime::GlobalPoolingAllocator()));
  scopes.push_back(
      sample("global:naive", runtime::GlobalNaiveAllocator(), nullptr));
  return scopes;
}

ModelState& Server::Find(const std::string& model) const {
  auto it = model_index_.find(model);
  NIMBLE_CHECK(it != model_index_.end()) << "no model named '" << model << "'";
  return *models_[static_cast<size_t>(it->second)];
}

Request Server::MakeRequest(const ModelState& model,
                            std::vector<runtime::ObjectRef> args,
                            int64_t length_hint,
                            std::future<runtime::ObjectRef>* future) {
  Request request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.function = model.function;
  request.args = std::move(args);
  request.length_hint = length_hint;
  // Stamped at submission (not queue insertion), so recorded latency is
  // end-to-end and includes any time the client spent blocked on
  // backpressure.
  request.enqueue_time = Clock::now();
  if (tracer_->enabled()) {
    request.trace.enabled = true;
    request.trace.id = request.id;
    request.trace.model = model.name;
    request.trace.admit = request.enqueue_time;
    request.trace.enqueue = request.enqueue_time;
  }
  *future = request.promise.get_future();
  return request;
}

Server::AdmitStatus Server::Admit(ModelState& state, Request& request,
                                  bool block, size_t* depth) {
  // Memory pressure sheds before the queue does: admitting more work while
  // live bytes sit over the soft limit only deepens the overage. The shed
  // answers queue-full, so the front end's 429 + Retry-After applies as is.
  if (!block && pressure_ != nullptr && pressure_->should_shed()) {
    state.stats.RecordRejected();
    if (depth != nullptr) *depth = state.queue->size();
    return AdmitStatus::kQueueFull;
  }
  auto enqueue_time = request.enqueue_time;
  bool pushed = block ? state.queue->Push(request)
                      : state.queue->TryPush(request, depth);
  if (!pushed) {
    // A queue closed mid-flight (Drain racing this admission) refuses too,
    // but that is not a shed.
    if (state.queue->closed()) return AdmitStatus::kClosed;
    state.stats.RecordRejected();
    return AdmitStatus::kQueueFull;
  }
  state.stats.RecordEnqueue(enqueue_time);
  return AdmitStatus::kAccepted;
}

std::future<runtime::ObjectRef> Server::Submit(
    const std::string& model, std::vector<runtime::ObjectRef> args,
    int64_t length_hint) {
  NIMBLE_CHECK(started_.load()) << "Submit before Start";
  ModelState& state = Find(model);
  std::future<runtime::ObjectRef> future;
  Request request = MakeRequest(state, std::move(args), length_hint, &future);
  AdmitStatus status = Admit(state, request, /*block=*/true, nullptr);
  NIMBLE_CHECK(status == AdmitStatus::kAccepted)
      << "Submit on a shut-down server";
  return future;
}

std::optional<std::future<runtime::ObjectRef>> Server::TrySubmit(
    const std::string& model, std::vector<runtime::ObjectRef> args,
    int64_t length_hint) {
  NIMBLE_CHECK(started_.load()) << "TrySubmit before Start";
  ModelState& state = Find(model);
  std::future<runtime::ObjectRef> future;
  Request request = MakeRequest(state, std::move(args), length_hint, &future);
  if (Admit(state, request, /*block=*/false, nullptr) !=
      AdmitStatus::kAccepted) {
    return std::nullopt;
  }
  return future;
}

Server::AdmitResult Server::TrySubmitCallback(
    const std::string& model, std::vector<runtime::ObjectRef> args,
    int64_t length_hint, CompletionFn on_complete,
    Clock::time_point received) {
  AdmitResult result;
  if (!started_.load() || shutdown_.load()) {
    result.status = AdmitStatus::kClosed;
    return result;
  }
  auto it = model_index_.find(model);
  if (it == model_index_.end()) {
    result.status = AdmitStatus::kUnknownModel;
    return result;
  }
  ModelState& state = *models_[static_cast<size_t>(it->second)];
  result.queue_capacity = state.queue->capacity();
  std::future<runtime::ObjectRef> future;  // discarded: callback path
  Request request = MakeRequest(state, std::move(args), length_hint, &future);
  request.on_complete = std::move(on_complete);
  if (request.trace.enabled && received != Clock::time_point{}) {
    request.trace.admit = received;  // admission span starts at decode
  }
  result.status =
      Admit(state, request, /*block=*/false, &result.queue_depth);
  return result;
}

std::future<runtime::ObjectRef> Server::Submit(
    std::vector<runtime::ObjectRef> args, int64_t length_hint) {
  NIMBLE_CHECK(!models_.empty()) << "no models registered";
  return Submit(models_.front()->name, std::move(args), length_hint);
}

std::optional<std::future<runtime::ObjectRef>> Server::TrySubmit(
    std::vector<runtime::ObjectRef> args, int64_t length_hint) {
  NIMBLE_CHECK(!models_.empty()) << "no models registered";
  return TrySubmit(models_.front()->name, std::move(args), length_hint);
}

std::vector<std::string> Server::model_names() const {
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& model : models_) names.push_back(model->name);
  return names;
}

bool Server::HasModel(const std::string& model) const {
  return model_index_.count(model) != 0;
}

StatsSnapshot Server::stats() const {
  std::vector<const ServeStats*> parts;
  for (const auto& model : models_) parts.push_back(&model->stats);
  return ServeStats::SnapshotSum(parts);
}

StatsSnapshot Server::stats(const std::string& model) const {
  return Find(model).stats.Snapshot();
}

Server::ServerSnapshot Server::SnapshotAll() const {
  // One pass: each model's instruments are read once, and the aggregate is
  // the sum of exactly those readings (see the consistency contract in
  // stats.h).
  ServerSnapshot all;
  std::vector<const ServeStats*> parts;
  std::vector<StatsSnapshot> per_model;
  for (const auto& model : models_) parts.push_back(&model->stats);
  all.aggregate = ServeStats::SnapshotSum(parts, &per_model);
  all.models.reserve(models_.size());
  for (size_t i = 0; i < models_.size(); ++i) {
    const ModelState* model = models_[i].get();
    ModelStatsView view;
    view.name = model->name;
    view.stats = std::move(per_model[i]);
    view.queue_depth = model->queue->size();
    view.queue_capacity = model->queue->capacity();
    if (model->cache != nullptr) {
      view.has_exec_cache = true;
      view.exec_cache = model->cache->snapshot();
    }
    all.queue_depth += view.queue_depth;
    all.models.push_back(std::move(view));
  }
  return all;
}

std::vector<Server::ContinuousModelView> Server::continuous_models() const {
  std::vector<ContinuousModelView> views;
  for (const auto& model : models_) {
    if (!model->policy.continuous) continue;
    ContinuousModelView view;
    view.name = model->name;
    view.num_slots = model->policy.continuous_slots;
    view.journal = model->journal.get();
    views.push_back(std::move(view));
  }
  return views;
}

size_t Server::queue_depth() const {
  size_t depth = 0;
  for (const auto& model : models_) depth += model->queue->size();
  return depth;
}

size_t Server::queue_depth(const std::string& model) const {
  return Find(model).queue->size();
}

size_t Server::queue_capacity(const std::string& model) const {
  return Find(model).queue->capacity();
}

void Server::Drain() {
  // First caller owns the teardown; later callers return immediately (same
  // idempotency contract the original Shutdown had).
  if (shutdown_.exchange(true)) return;
  if (started_.load()) {
    // Stop intake on every model; pending requests survive the Close, and
    // the pool's workers keep pulling batches — every pending bucket,
    // whatever its size — until the scheduler reports every queue closed
    // AND empty. Every admitted request's promise/callback is therefore
    // fulfilled before Join returns — teardown never drops queued work.
    for (auto& model : models_) model->queue->Close();
    // Watchdog first: a runner draining its last rows is making progress,
    // not stalling, and the poll loop must not outlive the runners it reads.
    if (watchdog_ != nullptr) watchdog_->Stop();
    // Step runners exit on their own once their queue is closed+drained and
    // every live slot has retired — same no-dropped-work guarantee.
    for (auto& runner : runners_) runner->Join();
    if (pool_ != nullptr) pool_->Join();
  }
}

void Server::Shutdown() {
  Drain();
  // Detach shared caches from this server's stats (the cache — and its
  // compile thread — may outlive the server and its ModelStates). Guarded
  // so repeated Shutdowns (destructor after an explicit call) detach once.
  if (caches_detached_.exchange(true)) return;
  for (auto& model : models_) {
    if (model->cache != nullptr) model->cache->set_stats(nullptr);
  }
}

}  // namespace serve
}  // namespace nimble
