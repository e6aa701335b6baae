// Serving subsystem tests: bounded-queue backpressure, length bucketing,
// percentile math, and — the load-bearing property — that concurrent
// serving through the VM pool produces results bit-identical to sequential
// VirtualMachine::Invoke.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "src/batch/batch_runner.h"
#include "src/batch/pack_plan.h"
#include "src/codegen/tuner.h"
#include "src/core/compiler.h"
#include "src/models/bert.h"
#include "src/models/lstm.h"
#include "src/models/workloads.h"
#include "src/op/registry.h"
#include "src/serve/batch_scheduler.h"
#include "src/serve/exec_cache.h"
#include "src/serve/request_queue.h"
#include "src/serve/server.h"
#include "src/serve/stats.h"
#include "src/serve/vm_pool.h"
#include "src/vm/vm.h"
#include "tests/continuous_harness.h"
#include "tests/sched_fuzz.h"

namespace nimble {
namespace {

using runtime::AsTensor;
using runtime::MakeTensor;
using runtime::NDArray;

// ---- length buckets -----------------------------------------------------------

TEST(BatchPolicy, BucketOfRespectsInclusiveEdges) {
  serve::BatchPolicy policy;
  policy.bucket_edges = {8, 16, 32};
  EXPECT_EQ(policy.num_buckets(), 4);
  EXPECT_EQ(policy.BucketOf(0), 0);
  EXPECT_EQ(policy.BucketOf(8), 0);
  EXPECT_EQ(policy.BucketOf(9), 1);
  EXPECT_EQ(policy.BucketOf(16), 1);
  EXPECT_EQ(policy.BucketOf(17), 2);
  EXPECT_EQ(policy.BucketOf(32), 2);
  EXPECT_EQ(policy.BucketOf(33), 3) << "overflow bucket";
  EXPECT_EQ(policy.BucketOf(100000), 3);
}

// ---- bounded queue / backpressure ---------------------------------------------

serve::Request MakeDummyRequest(int64_t id) {
  serve::Request request;
  request.id = id;
  request.enqueue_time = serve::Clock::now();
  return request;
}

TEST(RequestQueue, TryPushFailsWhenFull) {
  serve::RequestQueue queue(2);
  auto r0 = MakeDummyRequest(0), r1 = MakeDummyRequest(1),
       r2 = MakeDummyRequest(2);
  EXPECT_TRUE(queue.TryPush(r0));
  EXPECT_TRUE(queue.TryPush(r1));
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_FALSE(queue.TryPush(r2)) << "backpressure at capacity";
  EXPECT_EQ(r2.id, 2) << "rejected request must be left intact";

  auto popped = queue.Pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->id, 0) << "FIFO order";
  EXPECT_TRUE(queue.TryPush(r2)) << "space freed by Pop re-admits";
}

TEST(RequestQueue, BlockingPushWaitsForSpace) {
  serve::RequestQueue queue(1);
  auto r0 = MakeDummyRequest(0);
  ASSERT_TRUE(queue.TryPush(r0));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    auto r1 = MakeDummyRequest(1);
    queue.Push(r1);  // blocks until the consumer pops
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed) << "Push must block while the queue is full";
  auto popped = queue.Pop();
  ASSERT_TRUE(popped.has_value());
  producer.join();
  EXPECT_TRUE(pushed);
  EXPECT_EQ(queue.size(), 1u);
}

TEST(RequestQueue, CloseDrainsThenEndsStream) {
  serve::RequestQueue queue(4);
  auto r0 = MakeDummyRequest(0), r1 = MakeDummyRequest(1);
  ASSERT_TRUE(queue.TryPush(r0));
  ASSERT_TRUE(queue.TryPush(r1));
  queue.Close();
  auto r2 = MakeDummyRequest(2);
  EXPECT_FALSE(queue.TryPush(r2)) << "no admissions after Close";
  EXPECT_TRUE(queue.Pop().has_value()) << "pending items still drain";
  EXPECT_TRUE(queue.Pop().has_value());
  EXPECT_FALSE(queue.Pop().has_value()) << "closed + drained = end of stream";
}

// ---- end-to-end serving -------------------------------------------------------

struct LSTMFixture {
  models::LSTMModel model;
  std::shared_ptr<vm::Executable> exec;
  std::vector<NDArray> inputs;
  std::vector<int64_t> lengths;
  std::vector<NDArray> expected;  // sequential single-VM results

  explicit LSTMFixture(int num_requests, int hidden_size = 12,
                       uint64_t seed = 7) {
    support::Rng rng(seed);
    Init(models::SampleMRPCLengths(num_requests, rng, 48), hidden_size, seed,
         /*with_batched_entry=*/false);
  }

  /// Explicit request lengths, and optionally the tensor-batching entry
  /// (CompileOptions::batched_entries) stamped into the executable.
  LSTMFixture(std::vector<int64_t> request_lengths, int hidden_size,
              uint64_t seed, bool with_batched_entry, int num_layers = 1) {
    Init(std::move(request_lengths), hidden_size, seed, with_batched_entry,
         num_layers);
  }

  std::vector<runtime::ObjectRef> ArgsFor(size_t i) const {
    return {MakeTensor(inputs[i]),
            MakeTensor(NDArray::Scalar<int64_t>(lengths[i]))};
  }

 private:
  void Init(std::vector<int64_t> request_lengths, int hidden_size,
            uint64_t seed, bool with_batched_entry, int num_layers = 1) {
    models::LSTMConfig config;
    config.input_size = 8;
    config.hidden_size = hidden_size;
    config.num_layers = num_layers;
    config.emit_batched = with_batched_entry;
    model = models::BuildLSTM(config);
    ir::Module mod = model.module;
    core::CompileOptions opts;
    if (with_batched_entry) opts.batched_entries = {model.batched_spec};
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
};

void ExpectBitIdentical(const NDArray& got, const NDArray& want, size_t i) {
  ASSERT_EQ(got.shape(), want.shape()) << "request " << i;
  const float* pg = got.data<float>();
  const float* pw = want.data<float>();
  for (int64_t j = 0; j < got.num_elements(); ++j) {
    ASSERT_EQ(pg[j], pw[j]) << "request " << i << " flat index " << j;
  }
}

TEST(Serve, ConcurrentClientsMatchSequentialBitIdentical) {
  const int kRequests = 48;
  const int kClients = 4;
  LSTMFixture fixture(kRequests);

  serve::ServeConfig config;
  config.num_workers = 4;
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.queue_capacity = 16;
  model.batch.max_batch_size = 4;
  model.batch.max_wait_micros = 500;
  serve::Server server(std::move(model), config);

  // Many client threads submit interleaved slices of the workload.
  std::vector<std::future<runtime::ObjectRef>> futures(kRequests);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t i = static_cast<size_t>(c); i < kRequests; i += kClients) {
        futures[i] =
            server.Submit(fixture.ArgsFor(i), fixture.lengths[i]);
      }
    });
  }
  for (auto& t : clients) t.join();
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectBitIdentical(AsTensor(futures[i].get()), fixture.expected[i], i);
  }
  server.Shutdown();

  auto snap = server.stats();
  EXPECT_EQ(snap.completed, kRequests);
  EXPECT_EQ(snap.failed, 0);
  EXPECT_GT(snap.batches, 0);
  EXPECT_GT(snap.throughput_rps, 0.0);
  EXPECT_GE(snap.p99_latency_us, snap.p50_latency_us);
}

TEST(Serve, BucketedBatchingPreservesPerRequestOutputs) {
  // Lengths and arrival gaps come from the property-style schedule
  // generator (tests/sched_fuzz.h) instead of a hand-picked list: a fixed
  // seed keeps the test deterministic, and every assertion carries the
  // schedule's replay line. Bursty arrivals still let batches fill.
  auto schedule = schedfuzz::MakeSchedule(
      /*seed=*/17, /*num_requests=*/32, /*max_len=*/32,
      schedfuzz::ArrivalFlavor::kBursty);
  std::vector<int64_t> lengths;
  for (const auto& r : schedule.requests) lengths.push_back(r.length);
  LSTMFixture fixture(lengths, /*hidden_size=*/12, /*seed=*/7,
                      /*with_batched_entry=*/false);

  serve::ServeConfig config;
  config.num_workers = 2;
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.batch.max_batch_size = 8;
  // Generous wait so batches actually fill and bucketing is exercised.
  model.batch.max_wait_micros = 50000;
  model.batch.bucket_edges = {8, 16, 32};
  serve::Server server(std::move(model), config);

  std::vector<std::future<runtime::ObjectRef>> futures;
  futures.reserve(lengths.size());
  for (size_t i = 0; i < lengths.size(); ++i) {
    const auto& r = schedule.requests[i];
    if (r.arrival_gap_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(r.arrival_gap_us));
    }
    futures.push_back(server.Submit(fixture.ArgsFor(i), fixture.lengths[i]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_NO_FATAL_FAILURE(ExpectBitIdentical(AsTensor(futures[i].get()),
                                               fixture.expected[i], i))
        << schedule.Describe();
  }
  server.Shutdown();

  auto snap = server.stats();
  EXPECT_EQ(snap.completed, static_cast<int64_t>(lengths.size()))
      << schedule.Describe();
  EXPECT_GT(snap.mean_batch_size, 1.0)
      << "with a long max_wait, multi-request batches must form "
      << schedule.Describe();
  EXPECT_LT(snap.batches, static_cast<int64_t>(lengths.size()))
      << schedule.Describe();
}

TEST(Serve, BertBucketedAcrossWorkersMatchesSequential) {
  // The transformer workload through the request-level batching path: two
  // workers pull length-bucketed batches of up to 4, and every output must
  // match a sequential VM byte for byte.
  models::BERTConfig bert;
  bert.num_layers = 1;
  bert.hidden = 16;
  bert.num_heads = 2;
  bert.ffn_hidden = 32;
  bert.vocab = 100;
  ir::Module mod = models::BuildBERT(bert).module;
  auto exec = core::Compile(mod).executable;

  support::Rng rng(23);
  std::vector<int64_t> lengths = models::SampleMRPCLengths(24, rng, 64);
  std::vector<NDArray> ids;
  std::vector<NDArray> expected;
  vm::VirtualMachine sequential(exec);
  for (int64_t len : lengths) {
    ids.push_back(NDArray::FromVector(
        models::RandomTokenIds(len, bert.vocab, rng), {len}));
    expected.push_back(
        AsTensor(sequential.Invoke("main", {MakeTensor(ids.back())})));
  }

  serve::ServeConfig config;
  config.num_workers = 2;
  serve::ModelConfig model;
  model.exec = exec;
  model.batch.max_batch_size = 4;
  model.batch.max_wait_micros = 2000;
  serve::Server server(std::move(model), config);
  std::vector<std::future<runtime::ObjectRef>> futures;
  for (size_t i = 0; i < lengths.size(); ++i) {
    futures.push_back(server.Submit({MakeTensor(ids[i])}, lengths[i]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    runtime::ObjectRef out = futures[i].get();
    const NDArray& got = AsTensor(out);
    ASSERT_EQ(got.shape(), expected[i].shape()) << "request " << i;
    EXPECT_EQ(
        std::memcmp(got.raw_data(), expected[i].raw_data(), got.nbytes()), 0)
        << "request " << i;
  }
  server.Shutdown();
  EXPECT_EQ(server.stats().completed, static_cast<int64_t>(lengths.size()));
  EXPECT_EQ(server.stats().failed, 0);
}

TEST(Serve, ShutdownFulfillsEveryOutstandingFuture) {
  LSTMFixture fixture(8);
  serve::ServeConfig config;
  config.num_workers = 2;
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.batch.max_wait_micros = 100000;  // rely on shutdown flush, not timer
  serve::Server server(std::move(model), config);
  std::vector<std::future<runtime::ObjectRef>> futures;
  for (size_t i = 0; i < 8; ++i) {
    futures.push_back(server.Submit(fixture.ArgsFor(i), fixture.lengths[i]));
  }
  server.Shutdown();  // must flush incomplete buckets before returning
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectBitIdentical(AsTensor(futures[i].get()), fixture.expected[i], i);
  }
  EXPECT_THROW(server.Submit(fixture.ArgsFor(0), fixture.lengths[0]), Error);
}

TEST(Serve, TrySubmitShedsLoadAndCountsRejections) {
  LSTMFixture fixture(4);
  serve::ServeConfig config;
  config.num_workers = 1;
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.queue_capacity = 1;
  serve::Server server(std::move(model), config);

  // Saturate: with a capacity-1 queue, offered load beyond what one worker
  // drains instantly must eventually bounce.
  int accepted = 0, rejected = 0;
  std::vector<std::future<runtime::ObjectRef>> futures;
  for (int round = 0; round < 200 && rejected == 0; ++round) {
    for (size_t i = 0; i < 4; ++i) {
      auto f = server.TrySubmit(fixture.ArgsFor(i), fixture.lengths[i]);
      if (f.has_value()) {
        accepted++;
        futures.push_back(std::move(*f));
      } else {
        rejected++;
      }
    }
  }
  EXPECT_GT(rejected, 0) << "a full queue must shed load";
  for (auto& f : futures) f.get();
  server.Shutdown();
  auto snap = server.stats();
  EXPECT_EQ(snap.completed, accepted);
  EXPECT_EQ(snap.rejected, rejected);
}

TEST(Serve, StalledWorkerBoundsBufferingAndShedsAdmission) {
  // Bounded buffering: with the only worker held inside the first request's
  // completion callback, admission must shed within the bound ARCHITECTURE
  // invariant 1 states — queue_capacity requests queued, at most
  // queue_capacity more in the scheduler's buckets, and at most
  // num_workers x max_batch_size running. Submissions are paced past
  // max_wait_micros, so nothing that could drain in the background is
  // raced out of the count.
  const int kOffered = 24;
  const size_t kQueueCapacity = 4;
  const int kMaxBatch = 2;
  const int kWorkers = 1;
  LSTMFixture fixture(kOffered);
  serve::ServeConfig config;
  config.num_workers = kWorkers;
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.queue_capacity = kQueueCapacity;
  model.batch.max_batch_size = kMaxBatch;
  model.batch.max_wait_micros = 1000;
  serve::Server server(std::move(model), config);

  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  runtime::ObjectRef first_result;
  auto admit = server.TrySubmitCallback(
      "default", fixture.ArgsFor(0), fixture.lengths[0],
      [&](runtime::ObjectRef result, std::exception_ptr,
          const obs::TraceContext&) {
        first_result = std::move(result);
        entered.set_value();
        released.wait();
      });
  ASSERT_TRUE(admit.accepted());
  entered.get_future().wait();

  int accepted = 1;
  int rejected = 0;
  int accepted_before_first_rejection = -1;
  std::vector<std::pair<size_t, std::future<runtime::ObjectRef>>> futures;
  for (size_t i = 1; i < static_cast<size_t>(kOffered); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    auto future = server.TrySubmit(fixture.ArgsFor(i), fixture.lengths[i]);
    if (future.has_value()) {
      accepted++;
      futures.emplace_back(i, std::move(*future));
    } else if (rejected++ == 0) {
      accepted_before_first_rejection = accepted;
    }
  }
  release.set_value();

  const int bound = 2 * static_cast<int>(kQueueCapacity) + kWorkers * kMaxBatch;
  EXPECT_GT(rejected, 0) << "a stalled worker must make admission shed";
  EXPECT_LE(accepted_before_first_rejection, bound);
  for (auto& [i, future] : futures) {
    ExpectBitIdentical(AsTensor(future.get()), fixture.expected[i], i);
  }
  server.Shutdown();
  ExpectBitIdentical(AsTensor(first_result), fixture.expected[0], 0);
  auto snap = server.stats();
  EXPECT_EQ(snap.completed, accepted);
  EXPECT_EQ(snap.completed + snap.rejected, kOffered);
}

TEST(Serve, SlowWorkerBacklogStaysBounded) {
  // Bounded buffering with a live worker slower than arrivals: each Next()
  // may drain up to a full admission queue but takes one batch, so without
  // the per-model backlog bound the scheduler's buckets would grow without
  // limit. At every submission, admitted-but-unfinished requests must stay
  // within the bound ARCHITECTURE invariant 1 states.
  const int kOffered = 200;
  const size_t kQueueCapacity = 4;
  const int kMaxBatch = 2;
  const int kWorkers = 1;
  LSTMFixture fixture(kOffered);
  serve::ServeConfig config;
  config.num_workers = kWorkers;
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.queue_capacity = kQueueCapacity;
  model.batch.max_batch_size = kMaxBatch;
  serve::Server server(std::move(model), config);

  std::vector<runtime::ObjectRef> results(kOffered);
  std::atomic<int> completed{0};
  const int bound = 2 * static_cast<int>(kQueueCapacity) + kWorkers * kMaxBatch;
  int accepted = 0;
  int worst = 0;
  std::vector<size_t> admitted;
  for (size_t i = 0; i < static_cast<size_t>(kOffered); ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    auto admit = server.TrySubmitCallback(
        "default", fixture.ArgsFor(i), fixture.lengths[i],
        [&, i](runtime::ObjectRef result, std::exception_ptr,
               const obs::TraceContext&) {
          results[i] = std::move(result);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          completed.fetch_add(1);
        });
    if (!admit.accepted()) continue;
    accepted++;
    admitted.push_back(i);
    worst = std::max(worst, accepted - completed.load());
  }
  EXPECT_LE(worst, bound) << "scheduler buffering outgrew the backlog bound";
  server.Shutdown();
  EXPECT_EQ(completed.load(), accepted);
  for (size_t i : admitted) {
    ExpectBitIdentical(AsTensor(results[i]), fixture.expected[i], i);
  }
}

TEST(Serve, BacklogAtBoundFlushesWithoutWaitingOutMaxWait) {
  // A queue smaller than max_batch_size: the backlog bound admits at most
  // queue_capacity requests into the buckets, so no bucket can ever fill.
  // A model whose backlog sits at its bound must hand out its oldest bucket
  // at once instead of idling the worker until max_wait_micros expires.
  // One bucket (no edges) makes every batch exactly queue_capacity
  // requests, so no partial tail is left to wait out the timer either.
  const int kRequests = 32;
  const auto kMaxWait = std::chrono::seconds(10);
  LSTMFixture fixture(kRequests);
  serve::ServeConfig config;
  config.num_workers = 1;
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.queue_capacity = 4;
  model.batch.max_batch_size = 8;
  model.batch.max_wait_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(kMaxWait).count();
  model.batch.bucket_edges = {};
  serve::Server server(std::move(model), config);

  auto start = std::chrono::steady_clock::now();
  std::vector<std::future<runtime::ObjectRef>> futures;
  for (size_t i = 0; i < static_cast<size_t>(kRequests); ++i) {
    futures.push_back(server.Submit(fixture.ArgsFor(i), fixture.lengths[i]));
  }
  // Checked before Shutdown, whose close flushes whatever is left.
  auto deadline = start + kMaxWait / 5;
  for (size_t i = 0; i < futures.size(); ++i) {
    ASSERT_EQ(futures[i].wait_until(deadline), std::future_status::ready)
        << "request " << i << " waited on max_wait_micros";
    ExpectBitIdentical(AsTensor(futures[i].get()), fixture.expected[i], i);
  }
  server.Shutdown();
  auto snap = server.stats();
  EXPECT_EQ(snap.completed, kRequests);
  EXPECT_EQ(snap.batches, kRequests / 4);
}

TEST(Serve, ResultsOutliveServerAndPool) {
  // Result buffers come from per-worker allocators; they must stay valid —
  // and safely freeable — after the server and its pool are destroyed.
  LSTMFixture fixture(1);
  runtime::ObjectRef out;
  {
    serve::Server server(serve::ModelConfig{fixture.exec});
    out = server.Submit(fixture.ArgsFor(0), fixture.lengths[0]).get();
  }  // server, scheduler, pool all gone
  ExpectBitIdentical(AsTensor(out), fixture.expected[0], 0);
  out = {};  // releasing the buffer now must not touch freed allocator state
}

// ---- multi-model serving ------------------------------------------------------

TEST(Serve, TwoModelsShareOnePoolWithPerModelStats) {
  // Two LSTMs with different hidden sizes (so a cross-model mixup would
  // produce wrong shapes, not just wrong values) served through one pool.
  const int kRequests = 24;
  LSTMFixture a(kRequests, /*hidden_size=*/12, /*seed=*/7);
  LSTMFixture b(kRequests, /*hidden_size=*/20, /*seed=*/31);

  serve::ServeConfig config;
  config.num_workers = 4;
  serve::Server server(config);
  serve::ModelConfig model_a;
  model_a.exec = a.exec;
  model_a.batch.max_batch_size = 4;
  model_a.batch.max_wait_micros = 500;
  serve::ModelConfig model_b;
  model_b.exec = b.exec;
  model_b.batch.max_batch_size = 4;
  model_b.batch.max_wait_micros = 500;
  server.AddModel("lstm-a", std::move(model_a));
  server.AddModel("lstm-b", std::move(model_b));
  server.Start();
  EXPECT_EQ(server.model_names(),
            (std::vector<std::string>{"lstm-a", "lstm-b"}));

  // Two client threads, one per model, submitting concurrently.
  std::vector<std::future<runtime::ObjectRef>> futures_a(kRequests);
  std::vector<std::future<runtime::ObjectRef>> futures_b(kRequests);
  std::thread client_a([&] {
    for (int i = 0; i < kRequests; ++i) {
      futures_a[i] = server.Submit("lstm-a", a.ArgsFor(i), a.lengths[i]);
    }
  });
  std::thread client_b([&] {
    for (int i = 0; i < kRequests; ++i) {
      futures_b[i] = server.Submit("lstm-b", b.ArgsFor(i), b.lengths[i]);
    }
  });
  client_a.join();
  client_b.join();
  for (int i = 0; i < kRequests; ++i) {
    ExpectBitIdentical(AsTensor(futures_a[i].get()), a.expected[i], i);
    ExpectBitIdentical(AsTensor(futures_b[i].get()), b.expected[i], i);
  }
  server.Shutdown();

  auto snap_a = server.stats("lstm-a");
  auto snap_b = server.stats("lstm-b");
  auto total = server.stats();
  EXPECT_EQ(snap_a.completed, kRequests);
  EXPECT_EQ(snap_b.completed, kRequests);
  EXPECT_EQ(snap_a.failed, 0);
  EXPECT_EQ(snap_b.failed, 0);
  EXPECT_EQ(total.completed, 2 * kRequests) << "aggregate counts each once";
  EXPECT_GT(snap_a.batches, 0);
  EXPECT_GT(snap_b.batches, 0);
  EXPECT_THROW(server.stats("no-such-model"), Error);
}

/// Every counter field of a snapshot, by name, for field-by-field sums.
std::vector<std::pair<std::string, int64_t>> CounterFields(
    const serve::StatsSnapshot& s) {
  std::vector<std::pair<std::string, int64_t>> fields = {
      {"completed", s.completed},
      {"failed", s.failed},
      {"rejected", s.rejected},
      {"arrivals", s.arrivals},
      {"batches", s.batches},
      {"packed_batches", s.packed_batches},
      {"padded_elements", s.padded_elements},
      {"packed_total_elements", s.packed_total_elements},
      {"variant_batches", s.variant_batches},
      {"variant_padded_elements", s.variant_padded_elements},
      {"variant_total_elements", s.variant_total_elements},
      {"cache_hits", s.cache_hits},
      {"cache_misses", s.cache_misses},
      {"cache_evictions", s.cache_evictions},
      {"variant_compiles", s.variant_compiles},
      {"tune_events", s.tune_events},
      {"splices", s.splices},
      {"continuous_steps", s.continuous_steps},
      {"continuous_row_steps", s.continuous_row_steps},
      {"continuous_idle_row_steps", s.continuous_idle_row_steps},
      {"slot_count", s.slot_count},
  };
  for (size_t i = 0; i < s.batch_size_hist.size(); ++i) {
    fields.emplace_back("batch_size_hist[" + std::to_string(i) + "]",
                        s.batch_size_hist[i]);
  }
  return fields;
}

void ExpectSumOfParts(const serve::StatsSnapshot& total,
                      const serve::StatsSnapshot& a,
                      const serve::StatsSnapshot& b) {
  auto ft = CounterFields(total);
  auto fa = CounterFields(a);
  auto fb = CounterFields(b);
  ASSERT_EQ(ft.size(), fa.size());
  ASSERT_EQ(ft.size(), fb.size());
  for (size_t i = 0; i < ft.size(); ++i) {
    EXPECT_EQ(ft[i].second, fa[i].second + fb[i].second) << ft[i].first;
  }
}

TEST(Serve, AggregateStatsAreTheSumOfPerModelStats) {
  // A packed model and a continuous one, so both paths' counters move.
  std::vector<int64_t> lengths = {5, 5, 9, 3, 12, 7, 5, 5};
  LSTMFixture packed(lengths, /*hidden_size=*/12, /*seed=*/19,
                     /*with_batched_entry=*/true);
  schedfuzz::ContinuousHarness continuous;
  serve::ServeConfig config;
  config.num_workers = 2;
  serve::Server server(config);
  serve::ModelConfig p;
  p.exec = packed.exec;
  p.batch.tensor_batching = true;
  p.batch.max_batch_size = 4;
  p.batch.max_wait_micros = 500;
  serve::ModelConfig c;
  c.exec = continuous.exec;
  c.batch.continuous = true;
  c.batch.continuous_slots = 3;
  server.AddModel("packed", std::move(p));
  server.AddModel("cont", std::move(c));
  server.Start();

  support::Rng rng(23);
  std::vector<std::future<runtime::ObjectRef>> futures;
  for (size_t i = 0; i < lengths.size(); ++i) {
    futures.push_back(server.Submit("packed", packed.ArgsFor(i), lengths[i]));
    NDArray x = models::RandomSequence(lengths[i], continuous.input_size, rng);
    futures.push_back(server.Submit(
        "cont", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(lengths[i]))},
        lengths[i]));
  }
  for (auto& f : futures) f.get();
  server.Drain();

  auto a = server.stats("packed");
  auto b = server.stats("cont");
  auto total = server.stats();
  EXPECT_GT(a.packed_batches, 0);
  EXPECT_GT(b.continuous_steps, 0);
  EXPECT_EQ(total.completed, static_cast<int64_t>(2 * lengths.size()));
  ExpectSumOfParts(total, a, b);
  EXPECT_DOUBLE_EQ(total.max_latency_us,
                   std::max(a.max_latency_us, b.max_latency_us));
  EXPECT_DOUBLE_EQ(total.mean_latency_us * static_cast<double>(total.completed),
                   a.mean_latency_us * static_cast<double>(a.completed) +
                       b.mean_latency_us * static_cast<double>(b.completed));

  // SnapshotAll's aggregate is the sum of its own per-model views.
  serve::Server::ServerSnapshot all = server.SnapshotAll();
  ASSERT_EQ(all.models.size(), 2u);
  ExpectSumOfParts(all.aggregate, all.models[0].stats, all.models[1].stats);
}

TEST(Serve, CompileWhileServingKeepsResultsBitIdentical) {
  // The race PR 2 fixes: dispatch state lives in each executable, so
  // compiling model B (with any dispatch configuration) while model A
  // serves must not perturb A's results — before the refactor, Compile
  // rewrote the process-global dispatch table mid-flight.
  const int kRequests = 48;
  LSTMFixture fixture(kRequests);
  ASSERT_EQ(fixture.exec->dispatch_table.num_variants(), 8);

  serve::ServeConfig config;
  config.num_workers = 2;
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.batch.max_batch_size = 4;
  model.batch.max_wait_micros = 500;
  serve::Server server(std::move(model), config);

  std::atomic<bool> stop{false};
  std::thread compiler_thread([&] {
    models::LSTMConfig other;
    other.input_size = 4;
    other.hidden_size = 6;
    int variants[] = {1, 2, 4, 8};
    for (int round = 0; !stop; ++round) {
      ir::Module mod = models::BuildLSTM(other).module;
      core::CompileOptions opts;
      opts.dense_dispatch_variants = variants[round % 4];
      auto exec = core::Compile(mod, opts).executable;
      ASSERT_EQ(exec->dispatch_table.num_variants(), variants[round % 4]);
    }
  });

  std::vector<std::future<runtime::ObjectRef>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(server.Submit(fixture.ArgsFor(i), fixture.lengths[i]));
  }
  for (int i = 0; i < kRequests; ++i) {
    ExpectBitIdentical(AsTensor(futures[i].get()), fixture.expected[i], i);
  }
  stop = true;
  compiler_thread.join();
  server.Shutdown();

  EXPECT_EQ(fixture.exec->dispatch_table.num_variants(), 8)
      << "serving executable's dispatch config must survive foreign compiles";
  EXPECT_EQ(server.stats().completed, kRequests);
  EXPECT_EQ(server.stats().failed, 0);
}

TEST(Serve, SkewedArrivalsDontStarveTheLightModel) {
  // Fairness: a model flooding its queue must not crowd out a light one.
  // With one worker and DRR scheduling, the light model's batches interleave
  // with the flood instead of queueing behind all of it.
  const int kFlood = 96;
  const int kTrickle = 8;
  LSTMFixture heavy(kFlood, /*hidden_size=*/12, /*seed=*/7);
  LSTMFixture light(kTrickle, /*hidden_size=*/12, /*seed=*/13);

  obs::MetricRegistry registry;
  serve::ModelState flood(registry, "flood");
  serve::ModelState trickle(registry, "trickle");
  flood.index = 0;
  flood.exec = heavy.exec;
  trickle.index = 1;
  trickle.exec = light.exec;
  for (serve::ModelState* model : {&flood, &trickle}) {
    model->policy.max_batch_size = 4;
    model->policy.max_wait_micros = 200000;  // full buckets only: pure DRR
    model->queue = std::make_unique<serve::RequestQueue>(256);
  }
  serve::BatchScheduler scheduler({&flood, &trickle});

  // The flood is fully enqueued before the trickle arrives — the worst case
  // for the light model under FIFO scheduling. Both queues are filled before
  // the pool's worker starts pulling from the scheduler, so nothing is
  // dispatched while they fill.
  auto enqueue = [](serve::ModelState& model,
                    std::vector<runtime::ObjectRef> args, int64_t length_hint) {
    serve::Request request;
    request.args = std::move(args);
    request.length_hint = length_hint;
    request.enqueue_time = serve::Clock::now();
    auto future = request.promise.get_future();
    EXPECT_TRUE(model.queue->Push(request));
    return future;
  };
  std::vector<std::future<runtime::ObjectRef>> flood_futures;
  for (int i = 0; i < kFlood; ++i) {
    flood_futures.push_back(
        enqueue(flood, heavy.ArgsFor(i), heavy.lengths[i]));
  }
  // Constant length hint: all trickle requests land in one bucket, so they
  // form full batches that must go through DRR dispatch (not expiry).
  std::vector<std::future<runtime::ObjectRef>> trickle_futures;
  for (int i = 0; i < kTrickle; ++i) {
    trickle_futures.push_back(
        enqueue(trickle, light.ArgsFor(i), /*length_hint=*/10));
  }
  serve::VMPool pool(1, &scheduler);  // one worker: dispatch order observable
  for (int i = 0; i < kTrickle; ++i) {
    ExpectBitIdentical(AsTensor(trickle_futures[i].get()), light.expected[i],
                       i);
  }
  // The moment the trickle finished, most of the flood must still be
  // outstanding: under starvation-free DRR the trickle's 2 batches ride
  // alongside ~2 flood batches, while FIFO would have completed all 96
  // flood requests first.
  auto flood_mid = flood.stats.Snapshot();
  EXPECT_LT(flood_mid.completed, kFlood / 2)
      << "light model waited out the flood: no fairness";

  for (int i = 0; i < kFlood; ++i) {
    ExpectBitIdentical(AsTensor(flood_futures[i].get()), heavy.expected[i], i);
  }
  scheduler.Close();
  pool.Join();
  EXPECT_EQ(flood.stats.Snapshot().completed, kFlood);
  EXPECT_EQ(trickle.stats.Snapshot().completed, kTrickle);
  EXPECT_EQ(serve::ServeStats::SnapshotSum({&flood.stats, &trickle.stats})
                .completed,
            kFlood + kTrickle);
}

// ---- tensor batching (src/batch/) ---------------------------------------------

serve::Batch MakeDirectBatch(LSTMFixture& fixture,
                             const std::vector<size_t>& indices,
                             std::vector<std::future<runtime::ObjectRef>>* futures) {
  serve::Batch batch;
  batch.exec = fixture.exec;
  for (size_t i : indices) {
    serve::Request request;
    request.id = static_cast<int64_t>(i);
    request.args = fixture.ArgsFor(i);
    request.length_hint = fixture.lengths[i];
    request.enqueue_time = serve::Clock::now();
    futures->push_back(request.promise.get_future());
    batch.requests.push_back(std::move(request));
  }
  return batch;
}

TEST(TensorBatching, PackedServingBitIdenticalAcrossRaggedBuckets) {
  // Lengths chosen so the bucketed scheduler forms a lone request (B=1), a
  // partial bucket, and a full bucket — the three ragged shapes the pack
  // path must slice correctly. Bucket edges {8, 16, 32}: lengths 33-40 fill
  // one 8-deep overflow bucket, 12-14 a partial bucket, 5 rides alone.
  std::vector<int64_t> lengths = {33, 34, 35, 36, 37, 38, 39, 40,
                                  12, 13, 14, 5};
  LSTMFixture fixture(lengths, /*hidden_size=*/12, /*seed=*/7,
                      /*with_batched_entry=*/true);
  ASSERT_NE(fixture.exec->FindBatched("main"), nullptr);

  serve::ServeConfig config;
  config.num_workers = 2;
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.batch.max_batch_size = 8;
  model.batch.max_wait_micros = 50000;
  model.batch.bucket_edges = {8, 16, 32};
  model.batch.tensor_batching = true;
  serve::Server server(std::move(model), config);

  std::vector<std::future<runtime::ObjectRef>> futures;
  for (size_t i = 0; i < lengths.size(); ++i) {
    futures.push_back(server.Submit(fixture.ArgsFor(i), fixture.lengths[i]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectBitIdentical(AsTensor(futures[i].get()), fixture.expected[i], i);
  }
  server.Shutdown();

  auto snap = server.stats();
  EXPECT_EQ(snap.completed, static_cast<int64_t>(lengths.size()));
  EXPECT_EQ(snap.failed, 0);
  EXPECT_EQ(snap.packed_batches, snap.batches)
      << "every batch of a batchable model must run packed";
  // The full 33-40 bucket pads 33..39 up to 40 rows; waste must be counted
  // and sit strictly between 0 and 1.
  EXPECT_GT(snap.padded_elements, 0);
  EXPECT_GT(snap.padding_waste, 0.0);
  EXPECT_LT(snap.padding_waste, 1.0);
}

TEST(TensorBatching, MultiLayerPackedServingBitIdentical) {
  // Two stacked layers: the masked h_next of layer l feeds layer l+1, so a
  // frozen row's (bit-exact) state must propagate through the stack — the
  // subtlest wiring of the batched twin. Ragged lengths in one bucket force
  // padding and per-row freezing at different steps.
  std::vector<int64_t> lengths = {9, 12, 16, 10, 15, 11, 14, 13};
  LSTMFixture fixture(lengths, /*hidden_size=*/12, /*seed=*/29,
                      /*with_batched_entry=*/true, /*num_layers=*/2);

  serve::ServeConfig config;
  config.num_workers = 1;
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.batch.max_batch_size = 8;
  model.batch.max_wait_micros = 50000;
  model.batch.bucket_edges = {8, 16, 32};
  model.batch.tensor_batching = true;
  serve::Server server(std::move(model), config);

  std::vector<std::future<runtime::ObjectRef>> futures;
  for (size_t i = 0; i < lengths.size(); ++i) {
    futures.push_back(server.Submit(fixture.ArgsFor(i), fixture.lengths[i]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectBitIdentical(AsTensor(futures[i].get()), fixture.expected[i], i);
  }
  server.Shutdown();
  auto snap = server.stats();
  EXPECT_EQ(snap.packed_batches, snap.batches);
  EXPECT_GT(snap.padded_elements, 0);
}

TEST(TensorBatching, PackPlanPadsAndUnpacksExactly) {
  std::vector<int64_t> lengths = {3, 1, 4};
  LSTMFixture fixture(lengths, /*hidden_size=*/10, /*seed=*/21,
                      /*with_batched_entry=*/true);
  std::vector<std::future<runtime::ObjectRef>> futures;
  serve::Batch batch = MakeDirectBatch(fixture, {0, 1, 2}, &futures);

  batch::PackCheck check = batch::AnalyzeBatch(*fixture.exec, batch.requests);
  ASSERT_TRUE(check.ok()) << check.reason;
  batch::PackPlan plan = batch::PackPlan::Build(*check.spec, batch.requests);
  EXPECT_EQ(plan.batch_size(), 3);
  EXPECT_EQ(plan.max_len(), 4);
  const int64_t D = 8;  // fixture input_size
  EXPECT_EQ(plan.total_elements(), 4 * 3 * D);
  EXPECT_EQ(plan.padded_elements(), (4 * 3 - (3 + 1 + 4)) * D);

  auto args = plan.PackArgs(batch.requests, runtime::GlobalNaiveAllocator());
  // packed [Lmax, B, D] + max_len + lengths + h0/c0 (1 layer).
  ASSERT_EQ(args.size(), 3u + 2u);
  const NDArray& packed = AsTensor(args[0]);
  ASSERT_EQ(packed.shape(), (runtime::ShapeVec{4, 3, D}));
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t t = 0; t < 4; ++t) {
      for (int64_t d = 0; d < D; ++d) {
        float got = packed.data<float>()[(t * 3 + r) * D + d];
        float want = t < lengths[static_cast<size_t>(r)]
                         ? fixture.inputs[static_cast<size_t>(r)]
                               .data<float>()[t * D + d]
                         : 0.0f;
        ASSERT_EQ(got, want) << "row " << r << " step " << t << " dim " << d;
      }
    }
  }
  EXPECT_EQ(AsTensor(args[1]).data<int64_t>()[0], 4);
  const NDArray& len_col = AsTensor(args[2]);
  ASSERT_EQ(len_col.shape(), (runtime::ShapeVec{3, 1}));
  for (int64_t r = 0; r < 3; ++r) {
    EXPECT_EQ(len_col.data<int64_t>()[r], lengths[static_cast<size_t>(r)]);
  }

  // Unpack: row r of a synthetic [B, W] result becomes request r's [1, W].
  NDArray fake = NDArray::Empty({3, 5}, runtime::DataType::Float32());
  for (int64_t i = 0; i < 15; ++i) fake.data<float>()[i] = static_cast<float>(i);
  auto outs = plan.Unpack(MakeTensor(fake), runtime::GlobalNaiveAllocator());
  ASSERT_EQ(outs.size(), 3u);
  for (int64_t r = 0; r < 3; ++r) {
    ASSERT_EQ(outs[static_cast<size_t>(r)].shape(), (runtime::ShapeVec{1, 5}));
    for (int64_t j = 0; j < 5; ++j) {
      EXPECT_EQ(outs[static_cast<size_t>(r)].data<float>()[j],
                static_cast<float>(r * 5 + j));
    }
  }

  // Unused: fulfill the promises so the futures don't dangle.
  for (auto& request : batch.requests) request.promise.set_value({});
}

TEST(TensorBatching, RunBatchFallsBackWithoutBatchedEntry) {
  // Executable compiled WITHOUT batched entries: tensor batching must
  // degrade to the per-request loop, with correct results and a reason.
  std::vector<int64_t> lengths = {6, 9, 6, 9};
  LSTMFixture fixture(lengths, /*hidden_size=*/12, /*seed=*/11,
                      /*with_batched_entry=*/false);
  ASSERT_EQ(fixture.exec->FindBatched("main"), nullptr);

  std::vector<std::future<runtime::ObjectRef>> futures;
  serve::Batch batch = MakeDirectBatch(fixture, {0, 1, 2, 3}, &futures);
  vm::VirtualMachine machine(fixture.exec);
  auto run = batch::RunBatch(machine, batch, /*tensor_batching=*/true,
                             /*on_done=*/nullptr);
  EXPECT_FALSE(run.packed);
  EXPECT_NE(run.fallback_reason.find("no batched entry"), std::string::npos)
      << run.fallback_reason;
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectBitIdentical(AsTensor(futures[i].get()), fixture.expected[i], i);
  }
}

TEST(TensorBatching, PacksUnderEveryDispatchVariantCount) {
  // Every dense dispatch configuration computes each row in one order, so
  // packing carries no coverage rule: a 3-row batch (residue 3, which only
  // the full table specializes) packs under 1/2/4/8 variants, and both the
  // packed and the per-request path match the full-dispatch sequential
  // results bit for bit.
  std::vector<int64_t> lengths = {4, 6, 3};
  LSTMFixture fixture(lengths, /*hidden_size=*/12, /*seed=*/5,
                      /*with_batched_entry=*/true);
  for (int variants : {1, 2, 4, 8}) {
    ir::Module mod = fixture.model.module;
    core::CompileOptions opts;
    opts.dense_dispatch_variants = variants;
    opts.batched_entries = {fixture.model.batched_spec};
    auto exec = core::Compile(mod, opts).executable;
    ASSERT_EQ(exec->dispatch_table.num_variants(), variants);

    std::vector<std::future<runtime::ObjectRef>> futures;
    serve::Batch batch = MakeDirectBatch(fixture, {0, 1, 2}, &futures);
    batch.exec = exec;
    vm::VirtualMachine machine(exec);
    auto run = batch::RunBatch(machine, batch, /*tensor_batching=*/true,
                               /*on_done=*/nullptr);
    EXPECT_TRUE(run.packed) << "variants=" << variants << ": "
                            << run.fallback_reason;
    for (size_t i = 0; i < lengths.size(); ++i) {
      SCOPED_TRACE("variants=" + std::to_string(variants));
      ExpectBitIdentical(AsTensor(futures[i].get()), fixture.expected[i], i);
      auto solo = machine.Invoke("main", fixture.ArgsFor(i));
      ExpectBitIdentical(AsTensor(solo), fixture.expected[i], i);
    }
  }
}

TEST(TensorBatching, BatchedSpecSurvivesSaveLoad) {
  std::vector<int64_t> lengths = {7, 3, 5};
  LSTMFixture fixture(lengths, /*hidden_size=*/12, /*seed=*/13,
                      /*with_batched_entry=*/true);
  std::stringstream buffer;
  fixture.exec->Save(buffer);
  auto loaded = vm::Executable::Load(buffer);
  ASSERT_EQ(loaded->batched.size(), 1u);
  const vm::BatchedEntrySpec* spec = loaded->FindBatched("main");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->batched_function, "main_batched");
  EXPECT_EQ(spec->feature_width, 8);
  EXPECT_EQ(spec->state_width, 12);
  EXPECT_EQ(spec->num_state_args, 2);
  EXPECT_EQ(spec->len_arg, 1);

  // The loaded executable must serve packed batches bit-identically too.
  serve::ServeConfig config;
  config.num_workers = 1;
  serve::ModelConfig model;
  model.exec = loaded;
  model.batch.max_batch_size = 4;
  model.batch.max_wait_micros = 50000;
  model.batch.tensor_batching = true;
  serve::Server server(std::move(model), config);
  std::vector<std::future<runtime::ObjectRef>> futures;
  for (size_t i = 0; i < lengths.size(); ++i) {
    // One length hint => one bucket => one packed batch of 3.
    futures.push_back(server.Submit(fixture.ArgsFor(i), /*length_hint=*/8));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectBitIdentical(AsTensor(futures[i].get()), fixture.expected[i], i);
  }
  server.Shutdown();
  EXPECT_GT(server.stats().packed_batches, 0);
}

TEST(ServeStats, BatchHistogramAndPaddingWaste) {
  obs::MetricRegistry registry;
  serve::ServeStats stats(registry, "m");
  stats.RecordBatch(1);
  stats.RecordBatch(2);
  stats.RecordBatch(4);
  stats.RecordBatch(8);
  stats.RecordBatch(9);
  stats.RecordBatch(40);
  stats.RecordPackedBatch(/*padded=*/25, /*total=*/100);
  stats.RecordPackedBatch(/*padded=*/0, /*total=*/100);
  auto snap = stats.Snapshot();
  ASSERT_EQ(snap.batch_size_hist.size(), serve::ServeStats::kBatchHistBuckets);
  EXPECT_EQ(snap.batch_size_hist[0], 1);  // "1"
  EXPECT_EQ(snap.batch_size_hist[1], 1);  // "2"
  EXPECT_EQ(snap.batch_size_hist[2], 1);  // "3-4"
  EXPECT_EQ(snap.batch_size_hist[3], 1);  // "5-8"
  EXPECT_EQ(snap.batch_size_hist[4], 1);  // "9-16"
  EXPECT_EQ(snap.batch_size_hist[6], 1);  // "33+"
  int64_t hist_total = 0;
  for (int64_t c : snap.batch_size_hist) hist_total += c;
  EXPECT_EQ(hist_total, snap.batches);
  EXPECT_EQ(snap.packed_batches, 2);
  EXPECT_EQ(snap.padded_elements, 25);
  EXPECT_EQ(snap.packed_total_elements, 200);
  EXPECT_DOUBLE_EQ(snap.padding_waste, 0.125);
  EXPECT_STREQ(serve::ServeStats::BatchHistLabel(3), "5-8");
}

// ---- shape-bucket executable cache --------------------------------------------

/// Variant compiler for LSTM fixtures: rebuilds the module with the same
/// (deterministic) weights and bakes the bucket shape in.
serve::CompileVariantFn LSTMVariantCompiler(models::LSTMConfig config) {
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

TEST(ExecCache, VariantPackedBitIdenticalToGenericPackedAndSequential) {
  // Eight requests of one exact length: the shape a cached variant serves.
  std::vector<int64_t> lengths(8, 11);
  LSTMFixture fixture(lengths, /*hidden_size=*/12, /*seed=*/31,
                      /*with_batched_entry=*/true);
  auto variant = LSTMVariantCompiler(fixture.model.config)(11, 8, codegen::DenseConfig{});
  ASSERT_TRUE(variant->variant.is_variant());
  EXPECT_EQ(variant->variant.specialized_len, 11);
  EXPECT_EQ(variant->variant.specialized_batch, 8);
  // Baking the shape rewires the spec onto the unmasked exact twin and
  // unrolls it: the entry is straight-line, clearly bigger than one loop
  // body with no recursion left. (Compare against the generic loop body,
  // not the generic executable's total: the generic program also carries
  // the continuous step twin, and the unrolled exact steps are leaner
  // per step than the masked generic body.)
  ASSERT_NE(variant->FindBatched("main"), nullptr);
  EXPECT_EQ(variant->FindBatched("main")->batched_function,
            "main_batched_exact");
  int32_t entry_index = variant->FunctionIndex("main_batched_exact");
  int32_t body_index = fixture.exec->FunctionIndex("lstm_loop_batched");
  ASSERT_GE(body_index, 0);
  EXPECT_GT(
      variant->functions[static_cast<size_t>(entry_index)].instructions.size(),
      2 * fixture.exec->functions[static_cast<size_t>(body_index)]
              .instructions.size())
      << "specialized entry should be unrolled into straight-line bytecode";
  // Variants dispatch like every other executable: the compile option's
  // full table.
  EXPECT_EQ(variant->dispatch_table.num_variants(), 8);

  auto run_packed = [&](const std::shared_ptr<vm::Executable>& exec) {
    std::vector<std::future<runtime::ObjectRef>> futures;
    serve::Batch batch =
        MakeDirectBatch(fixture, {0, 1, 2, 3, 4, 5, 6, 7}, &futures);
    batch.exec = exec;
    vm::VirtualMachine machine(exec);
    auto run = batch::RunBatch(machine, batch, /*tensor_batching=*/true,
                               nullptr);
    EXPECT_TRUE(run.packed) << run.fallback_reason;
    std::vector<NDArray> outs;
    for (auto& f : futures) outs.push_back(AsTensor(f.get()));
    return std::make_pair(std::move(outs), run);
  };

  auto [generic_outs, generic_run] = run_packed(fixture.exec);
  auto [variant_outs, variant_run] = run_packed(variant);
  for (size_t i = 0; i < lengths.size(); ++i) {
    ExpectBitIdentical(variant_outs[i], generic_outs[i], i);
    ExpectBitIdentical(variant_outs[i], fixture.expected[i], i);
  }
  // Same-length batches pad nothing on either executable.
  EXPECT_EQ(variant_run.padded_elements, 0);
  EXPECT_EQ(generic_run.padded_elements, 0);
}

TEST(ExecCache, VariantRejectsMismatchedBatches) {
  std::vector<int64_t> lengths = {9, 9, 9, 10};
  LSTMFixture fixture(lengths, /*hidden_size=*/10, /*seed=*/17,
                      /*with_batched_entry=*/true);
  auto variant = LSTMVariantCompiler(fixture.model.config)(9, 2, codegen::DenseConfig{});

  // Wrong batch size (variant bakes 2, batch has 3).
  {
    std::vector<std::future<runtime::ObjectRef>> futures;
    serve::Batch batch = MakeDirectBatch(fixture, {0, 1, 2}, &futures);
    batch::PackCheck check = batch::AnalyzeBatch(*variant, batch.requests);
    EXPECT_FALSE(check.ok());
    EXPECT_NE(check.reason.find("specialized to batches"), std::string::npos)
        << check.reason;
    batch.requests.clear();  // unfulfilled promises are fine in-test
  }
  // Wrong length (9 baked, request 3 is length 10).
  {
    std::vector<std::future<runtime::ObjectRef>> futures;
    serve::Batch batch = MakeDirectBatch(fixture, {0, 3}, &futures);
    batch::PackCheck check = batch::AnalyzeBatch(*variant, batch.requests);
    EXPECT_FALSE(check.ok());
    EXPECT_NE(check.reason.find("specialized length"), std::string::npos)
        << check.reason;
  }
  // Exact match passes and still runs bit-identically.
  {
    std::vector<std::future<runtime::ObjectRef>> futures;
    serve::Batch batch = MakeDirectBatch(fixture, {0, 1}, &futures);
    batch.exec = variant;
    vm::VirtualMachine machine(variant);
    auto run =
        batch::RunBatch(machine, batch, /*tensor_batching=*/true, nullptr);
    EXPECT_TRUE(run.packed) << run.fallback_reason;
    ExpectBitIdentical(AsTensor(futures[0].get()), fixture.expected[0], 0);
    ExpectBitIdentical(AsTensor(futures[1].get()), fixture.expected[1], 1);
  }
}

TEST(ExecCache, VariantSurvivesSaveLoad) {
  std::vector<int64_t> lengths(4, 6);
  LSTMFixture fixture(lengths, /*hidden_size=*/10, /*seed=*/23,
                      /*with_batched_entry=*/true);
  auto variant = LSTMVariantCompiler(fixture.model.config)(6, 4, codegen::DenseConfig{});

  std::stringstream buffer;
  variant->Save(buffer);
  auto loaded = vm::Executable::Load(buffer);
  EXPECT_EQ(loaded->variant.specialized_len, 6);
  EXPECT_EQ(loaded->variant.specialized_batch, 4);
  EXPECT_EQ(loaded->dispatch_table.num_variants(),
            variant->dispatch_table.num_variants());
  ASSERT_NE(loaded->FindBatched("main"), nullptr);

  std::vector<std::future<runtime::ObjectRef>> futures;
  serve::Batch batch = MakeDirectBatch(fixture, {0, 1, 2, 3}, &futures);
  batch.exec = loaded;
  vm::VirtualMachine machine(loaded);
  auto run = batch::RunBatch(machine, batch, /*tensor_batching=*/true, nullptr);
  EXPECT_TRUE(run.packed) << run.fallback_reason;
  for (size_t i = 0; i < lengths.size(); ++i) {
    ExpectBitIdentical(AsTensor(futures[i].get()), fixture.expected[i], i);
  }
}

TEST(ExecCache, LookupObservesCompilesAndHits) {
  std::vector<int64_t> lengths(2, 7);
  LSTMFixture fixture(lengths, /*hidden_size=*/10, /*seed=*/41,
                      /*with_batched_entry=*/true);
  serve::ExecCacheConfig config;
  config.capacity = 4;
  config.min_observations = 2;
  config.specialize_batch = 2;
  serve::ExecCache cache(LSTMVariantCompiler(fixture.model.config), config);

  // Unservable batch sizes never count observations: no amount of
  // wrong-size traffic may trigger a compile its batches cannot use.
  EXPECT_EQ(cache.Lookup(9, 1), nullptr);
  EXPECT_EQ(cache.Lookup(9, 1), nullptr);
  EXPECT_EQ(cache.Lookup(9, 1), nullptr);
  cache.WaitIdle();
  EXPECT_TRUE(cache.snapshot().resident.empty());

  EXPECT_EQ(cache.Lookup(7, 2), nullptr) << "first sight: observe only";
  cache.WaitIdle();
  EXPECT_TRUE(cache.snapshot().resident.empty())
      << "one observation must not compile yet";
  EXPECT_EQ(cache.Lookup(7, 2), nullptr) << "second miss queues the compile";
  cache.WaitIdle();
  auto variant = cache.Lookup(7, 2);
  ASSERT_NE(variant, nullptr);
  EXPECT_EQ(variant->variant.specialized_len, 7);
  // A partial batch cannot use the size-2 variant: miss, but no recompile.
  EXPECT_EQ(cache.Lookup(7, 1), nullptr);
  cache.WaitIdle();
  auto snap = cache.snapshot();
  EXPECT_EQ(snap.compiles, 1);
  EXPECT_EQ(snap.hits, 1);
  EXPECT_EQ(snap.misses, 6);  // 3 unservable + 2 observing + 1 partial
  ASSERT_EQ(snap.resident.size(), 1u);
  EXPECT_EQ(snap.resident[0], 7);
}

TEST(ExecCache, VariantsCarryTunedDenseConfig) {
  models::LSTMConfig config;
  config.input_size = 8;
  config.hidden_size = 10;
  config.emit_batched = true;
  serve::ExecCacheConfig cache_config;
  cache_config.capacity = 4;
  cache_config.min_observations = 1;
  cache_config.specialize_batch = 2;
  // Tuning proxy shape (distinct from every other test so the process-wide
  // memo is cold here): the compile thread measures (batch, tune_n, tune_k)
  // once and stamps the choice on every variant it bakes.
  cache_config.tune_n = 24;
  cache_config.tune_k = 40;
  cache_config.tune_repeats = 1;
  obs::MetricRegistry registry;
  serve::ServeStats stats(registry, "m");
  serve::ExecCache cache(LSTMVariantCompiler(config), cache_config, &stats);

  EXPECT_EQ(cache.Lookup(5, 2), nullptr);
  cache.WaitIdle();
  auto variant = cache.Lookup(5, 2);
  ASSERT_NE(variant, nullptr);
  EXPECT_TRUE(variant->dense_config_tuned);
  // The baked choice is exactly the memoized tuner pick for the shape.
  auto tuned = codegen::TuneCache::Global()->GetOrTune(2, 24, 40, 1);
  EXPECT_FALSE(tuned.fresh) << "the compile thread already paid for this";
  EXPECT_EQ(variant->dense_config, tuned.config);

  auto snap = cache.snapshot();
  EXPECT_EQ(snap.compiles, 1);
  EXPECT_EQ(snap.tune_events, 1);
  ASSERT_EQ(snap.variants.size(), 1u);
  EXPECT_EQ(snap.variants[0].length, 5);
  EXPECT_TRUE(snap.variants[0].tuned);
  EXPECT_EQ(snap.variants[0].dense_config, tuned.config.ToString());

  // A second length reuses the memoized measurement: compiles advance,
  // tune events do not (tune-once-per-shape).
  EXPECT_EQ(cache.Lookup(6, 2), nullptr);
  cache.WaitIdle();
  ASSERT_NE(cache.Lookup(6, 2), nullptr);
  snap = cache.snapshot();
  EXPECT_EQ(snap.compiles, 2);
  EXPECT_EQ(snap.tune_events, 1);
  EXPECT_EQ(snap.variants.size(), 2u);
  EXPECT_EQ(stats.Snapshot().tune_events, 1);
}

TEST(ExecCache, LRUEvictionUnderBucketChurn) {
  models::LSTMConfig config;
  config.input_size = 8;
  config.hidden_size = 10;
  config.emit_batched = true;
  serve::ExecCacheConfig cache_config;
  cache_config.capacity = 2;
  cache_config.min_observations = 1;
  cache_config.specialize_batch = 2;
  obs::MetricRegistry registry;
  serve::ServeStats stats(registry, "m");
  serve::ExecCache cache(LSTMVariantCompiler(config), cache_config, &stats);

  // Churn through four lengths; only the two most recent survive.
  for (int64_t len : {4, 5, 6, 7}) {
    EXPECT_EQ(cache.Lookup(len, 2), nullptr);
    cache.WaitIdle();
    ASSERT_NE(cache.Lookup(len, 2), nullptr) << "length " << len;
  }
  auto snap = cache.snapshot();
  EXPECT_EQ(snap.compiles, 4);
  EXPECT_EQ(snap.evictions, 2);
  ASSERT_EQ(snap.resident.size(), 2u);
  EXPECT_EQ(snap.resident[0], 7) << "most recently used first";
  EXPECT_EQ(snap.resident[1], 6);
  EXPECT_EQ(stats.Snapshot().cache_evictions, 2);
  EXPECT_EQ(stats.Snapshot().variant_compiles, 4);

  // A hit refreshes LRU order: touch 6, then insert 4 — 7 is the victim.
  ASSERT_NE(cache.Lookup(6, 2), nullptr);
  EXPECT_EQ(cache.Lookup(4, 2), nullptr) << "4 was evicted and re-observes";
  cache.WaitIdle();
  ASSERT_NE(cache.Lookup(4, 2), nullptr);
  snap = cache.snapshot();
  ASSERT_EQ(snap.resident.size(), 2u);
  EXPECT_EQ(snap.resident[0], 4);
  EXPECT_EQ(snap.resident[1], 6);
}

TEST(ExecCache, ServerCarvesSameLengthBatchesOntoVariants) {
  // 16 requests of length 10 + 2 stragglers in the same bucket. The first
  // full batch observes (miss, generic), the cache compiles in the
  // background, and once warm the second wave carves onto the variant.
  std::vector<int64_t> lengths(16, 10);
  lengths.push_back(12);
  lengths.push_back(13);
  LSTMFixture fixture(lengths, /*hidden_size=*/12, /*seed=*/37,
                      /*with_batched_entry=*/true);

  serve::ExecCacheConfig cache_config;
  cache_config.capacity = 4;
  cache_config.min_observations = 1;
  cache_config.specialize_batch = 8;
  auto cache = std::make_shared<serve::ExecCache>(
      LSTMVariantCompiler(fixture.model.config), cache_config);

  serve::ServeConfig config;
  config.num_workers = 2;
  serve::Server server(config);
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.batch.max_batch_size = 8;
  model.batch.max_wait_micros = 50000;
  model.batch.bucket_edges = {8, 16, 32};
  model.batch.tensor_batching = true;
  model.exec_cache = cache;
  server.AddModel("lstm", model);
  server.Start();

  std::vector<std::future<runtime::ObjectRef>> futures;
  // First full batch of length 10: dispatches generic, triggers compile.
  for (size_t i = 0; i < 8; ++i) {
    futures.push_back(server.Submit("lstm", fixture.ArgsFor(i), 10));
  }
  // Await the first wave so its dispatch (and the cache observation) has
  // definitely happened, then let the background compile finish.
  for (size_t i = 0; i < 8; ++i) futures[i].wait();
  cache->WaitIdle();
  // Second wave: must carve the 8 length-10 requests onto the variant even
  // though the stragglers share their bucket.
  for (size_t i = 8; i < lengths.size(); ++i) {
    futures.push_back(
        server.Submit("lstm", fixture.ArgsFor(i), fixture.lengths[i]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectBitIdentical(AsTensor(futures[i].get()), fixture.expected[i], i);
  }
  server.Shutdown();

  auto snap = server.stats("lstm");
  EXPECT_GE(snap.cache_hits, 1) << "second wave must hit the variant";
  EXPECT_GE(snap.variant_batches, 1);
  EXPECT_EQ(snap.variant_padded_elements, 0)
      << "cached batches are exact-length: zero padding by construction";
  auto cache_snap = cache->snapshot();
  EXPECT_EQ(cache_snap.compiles, 1) << "one hot length, one variant";
}

TEST(ExecCache, ExpiredFrontLeavesDespiteHotLengthInItsBucket) {
  // A lone expired request must leave with the next batch even when a hot
  // length sharing its bucket refills a full same-length run before every
  // pickup: carving that run instead would pass the expired front over for
  // as long as the stream lasts. Driven through Next() directly, so every
  // pickup is observable.
  const int kMaxBatch = 4;
  LSTMFixture fixture(1);
  obs::MetricRegistry registry;
  serve::ModelState state(registry, "lstm");
  state.index = 0;
  state.exec = fixture.exec;
  state.policy.max_batch_size = kMaxBatch;
  state.policy.max_wait_micros = 1000;
  state.policy.bucket_edges = {8, 16, 32};
  state.policy.tensor_batching = true;
  serve::ExecCacheConfig cache_config;
  cache_config.min_observations = 1 << 20;  // observe only, never compile
  state.cache = std::make_shared<serve::ExecCache>(
      LSTMVariantCompiler(fixture.model.config), cache_config);
  state.queue = std::make_unique<serve::RequestQueue>(64);
  serve::BatchScheduler scheduler({&state});

  int64_t next_id = 0;
  auto enqueue = [&](int64_t length) {
    serve::Request request;
    request.id = next_id++;
    request.length_hint = length;
    request.enqueue_time = serve::Clock::now();
    EXPECT_TRUE(state.queue->Push(request));
  };
  enqueue(10);  // the lone request, id 0
  std::this_thread::sleep_for(std::chrono::milliseconds(5));  // expire it
  bool lone_left = false;
  int pickups = 0;
  for (; pickups < 4 && !lone_left; ++pickups) {
    for (int i = 0; i < kMaxBatch; ++i) enqueue(12);  // hot length, same bucket
    std::optional<serve::Batch> batch = scheduler.Next();
    ASSERT_TRUE(batch.has_value());
    for (const serve::Request& request : batch->requests) {
      if (request.id == 0) lone_left = true;
    }
  }
  EXPECT_TRUE(lone_left) << "the expired front was passed over";
  EXPECT_EQ(pickups, 1) << "expired buckets must flush their front first";
  scheduler.Close();
  while (scheduler.Next().has_value()) {
  }
}

TEST(ExecCache, GenericServesWhileVariantCompiles) {
  // A slow compiler must never block serving: requests keep completing on
  // the generic executable while the variant bakes, and later batches move
  // onto it. Run under TSan in CI, this also races Lookup/publish against
  // the serving path.
  std::vector<int64_t> lengths(32, 9);
  LSTMFixture fixture(lengths, /*hidden_size=*/12, /*seed=*/43,
                      /*with_batched_entry=*/true);
  auto slow_compile = [inner = LSTMVariantCompiler(fixture.model.config)](
                          int64_t len, int64_t batch,
                          const codegen::DenseConfig& dense_config) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return inner(len, batch, dense_config);
  };
  serve::ExecCacheConfig cache_config;
  cache_config.capacity = 2;
  cache_config.min_observations = 1;
  cache_config.specialize_batch = 4;
  auto cache =
      std::make_shared<serve::ExecCache>(slow_compile, cache_config);

  serve::ServeConfig config;
  config.num_workers = 2;
  serve::Server server(config);
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.batch.max_batch_size = 4;
  model.batch.max_wait_micros = 1000;
  model.batch.tensor_batching = true;
  model.exec_cache = cache;
  server.AddModel("lstm", model);
  server.Start();

  std::vector<std::future<runtime::ObjectRef>> futures;
  for (size_t i = 0; i < lengths.size(); ++i) {
    futures.push_back(server.Submit("lstm", fixture.ArgsFor(i), 9));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectBitIdentical(AsTensor(futures[i].get()), fixture.expected[i], i);
  }
  server.Shutdown();
  auto snap = server.stats("lstm");
  EXPECT_EQ(snap.completed, static_cast<int64_t>(lengths.size()));
  EXPECT_EQ(snap.failed, 0);
  EXPECT_GE(snap.cache_misses, 1) << "early batches served generic";
}

TEST(ServeStats, VariantPaddingAndCacheCounters) {
  obs::MetricRegistry registry;
  serve::ServeStats stats(registry, "m");
  stats.RecordPackedBatch(/*padded=*/10, /*total=*/100, /*on_variant=*/false);
  stats.RecordPackedBatch(/*padded=*/0, /*total=*/80, /*on_variant=*/true);
  stats.RecordPackedBatch(/*padded=*/6, /*total=*/20, /*on_variant=*/false);
  stats.RecordCacheHit();
  stats.RecordCacheHit();
  stats.RecordCacheMiss();
  stats.RecordCacheEviction();
  stats.RecordVariantCompile();
  auto snap = stats.Snapshot();
  EXPECT_EQ(snap.variant_batches, 1);
  EXPECT_EQ(snap.variant_padded_elements, 0);
  EXPECT_DOUBLE_EQ(snap.variant_padding_waste, 0.0);
  EXPECT_EQ(snap.cache_hits, 2);
  EXPECT_EQ(snap.cache_misses, 1);
  EXPECT_EQ(snap.cache_evictions, 1);
  EXPECT_EQ(snap.variant_compiles, 1);
  EXPECT_DOUBLE_EQ(snap.cache_hit_rate, 2.0 / 3.0);
}

// ---- RequestQueue under concurrent producers ----------------------------------

TEST(RequestQueue, TryPushDepthSnapshotIsConsistentWithAdmission) {
  serve::RequestQueue queue(3);
  size_t depth = 0;
  for (int64_t i = 0; i < 3; ++i) {
    auto r = MakeDummyRequest(i);
    ASSERT_TRUE(queue.TryPush(r, &depth));
    EXPECT_EQ(depth, static_cast<size_t>(i + 1))
        << "depth after a successful push counts the pushed item";
  }
  auto rejected = MakeDummyRequest(3);
  EXPECT_FALSE(queue.TryPush(rejected, &depth));
  EXPECT_EQ(depth, 3u) << "rejection reports the full depth";
  ASSERT_TRUE(queue.Pop().has_value());
  auto readmitted = MakeDummyRequest(4);
  EXPECT_TRUE(queue.TryPush(readmitted, &depth));
  EXPECT_EQ(depth, 3u);
  queue.Close();
  auto after_close = MakeDummyRequest(5);
  EXPECT_FALSE(queue.TryPush(after_close, &depth));
}

TEST(RequestQueue, ConcurrentShedAccountingBalances) {
  // N producers race TryPush against a throttled consumer; whatever the
  // interleaving, accepted + rejected == attempts and the consumer pops
  // exactly the accepted ones. This is the accounting the HTTP 429 path
  // reports to clients, so it must balance under races.
  const int kProducers = 4;
  const int kPerProducer = 200;
  serve::RequestQueue queue(8);
  std::atomic<int64_t> accepted{0}, rejected{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        auto r = MakeDummyRequest(p * kPerProducer + i);
        size_t depth = 0;
        if (queue.TryPush(r, &depth)) {
          accepted.fetch_add(1);
          EXPECT_GE(depth, 1u);
          EXPECT_LE(depth, 8u) << "depth snapshot never exceeds capacity";
        } else {
          rejected.fetch_add(1);
          EXPECT_EQ(depth, 8u)
              << "a shed on an open queue means it was observed full";
        }
      }
    });
  }

  std::atomic<int64_t> popped{0};
  std::thread consumer([&] {
    while (auto r = queue.Pop()) {
      popped.fetch_add(1);
      // A consumer slower than the producers, so shedding actually occurs.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  for (auto& t : producers) t.join();
  queue.Close();
  consumer.join();

  EXPECT_EQ(accepted.load() + rejected.load(), kProducers * kPerProducer);
  EXPECT_EQ(popped.load(), accepted.load())
      << "every accepted request is drained, none invented";
  EXPECT_GT(rejected.load(), 0) << "the throttled consumer must cause sheds";
}

TEST(RequestQueue, DrainAfterCloseKeepsPerProducerFifoOrder) {
  // Close() must not reorder or drop items already admitted: after close,
  // the consumer sees every accepted item, and each producer's accepted
  // items come out in that producer's submission order.
  const int kProducers = 4;
  const int kPerProducer = 100;
  serve::RequestQueue queue(kProducers * kPerProducer);
  std::vector<std::vector<int64_t>> accepted_ids(kProducers);

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        auto r = MakeDummyRequest(p * kPerProducer + i);
        if (queue.TryPush(r)) {
          accepted_ids[static_cast<size_t>(p)].push_back(p * kPerProducer + i);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Close();

  // Everything admitted before Close drains after it, in order.
  std::vector<std::vector<int64_t>> drained(kProducers);
  while (auto r = queue.Pop()) {
    drained[static_cast<size_t>(r->id / kPerProducer)].push_back(r->id);
  }
  EXPECT_TRUE(queue.closed());
  EXPECT_TRUE(queue.empty());
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(drained[static_cast<size_t>(p)],
              accepted_ids[static_cast<size_t>(p)])
        << "producer " << p;
  }
}

TEST(RequestQueue, EnqueueRacingCloseEitherLandsOrFailsCleanly) {
  // Producers hammering TryPush while another thread closes the queue:
  // every push either succeeds (and its item is drained) or fails; no
  // item is half-admitted or lost.
  const int kProducers = 4;
  serve::RequestQueue queue(1024);
  std::atomic<bool> go{false}, stop{false};
  std::atomic<int64_t> accepted{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      while (!go.load()) {
      }
      int64_t i = 0;
      while (!stop.load()) {
        auto r = MakeDummyRequest(p * 1000000 + i++);
        if (queue.TryPush(r)) accepted.fetch_add(1);
      }
    });
  }
  go.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  queue.Close();
  stop.store(true);
  for (auto& t : producers) t.join();

  int64_t drained = 0;
  while (queue.Pop().has_value()) drained++;
  EXPECT_EQ(drained, accepted.load());
}

// ---- callback completion path and graceful drain ------------------------------

TEST(Serve, CallbackPathDeliversResultsBitIdentical) {
  LSTMFixture fixture(12);
  serve::ServeConfig config;
  config.num_workers = 2;
  serve::Server server(config);
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.batch.max_batch_size = 4;
  model.batch.max_wait_micros = 500;
  server.AddModel("m", std::move(model));
  server.Start();

  std::mutex mu;
  std::vector<std::pair<size_t, runtime::ObjectRef>> results;
  std::atomic<int> errors{0};
  for (size_t i = 0; i < fixture.lengths.size(); ++i) {
    auto admit = server.TrySubmitCallback(
        "m", fixture.ArgsFor(i), fixture.lengths[i],
        [&, i](runtime::ObjectRef result, std::exception_ptr error,
               const obs::TraceContext&) {
          if (error != nullptr) {
            errors.fetch_add(1);
            return;
          }
          std::lock_guard<std::mutex> lock(mu);
          results.emplace_back(i, std::move(result));
        });
    ASSERT_EQ(admit.status, serve::Server::AdmitStatus::kAccepted);
    EXPECT_GE(admit.queue_depth, 1u);
    EXPECT_EQ(admit.queue_capacity, 256u);
  }
  server.Drain();  // all callbacks fired before Drain returns

  EXPECT_EQ(errors.load(), 0);
  ASSERT_EQ(results.size(), fixture.lengths.size());
  for (const auto& [i, result] : results) {
    ExpectBitIdentical(AsTensor(result), fixture.expected[i], i);
  }
}

TEST(Serve, TrySubmitCallbackReportsUnknownModelAndDraining) {
  LSTMFixture fixture(1);
  serve::ServeConfig config;
  config.num_workers = 1;
  serve::Server server(serve::ModelConfig{fixture.exec}, config);

  auto unknown = server.TrySubmitCallback(
      "nope", fixture.ArgsFor(0), fixture.lengths[0],
      [](runtime::ObjectRef, std::exception_ptr, const obs::TraceContext&) {
        FAIL();
      });
  EXPECT_EQ(unknown.status, serve::Server::AdmitStatus::kUnknownModel);

  server.Drain();
  EXPECT_TRUE(server.draining());
  auto closed = server.TrySubmitCallback(
      "default", fixture.ArgsFor(0), fixture.lengths[0],
      [](runtime::ObjectRef, std::exception_ptr, const obs::TraceContext&) {
        FAIL();
      });
  EXPECT_EQ(closed.status, serve::Server::AdmitStatus::kClosed);
}

TEST(Serve, TrySubmitAfterDrainIsNotARejection) {
  // `rejected` counts sheds (full queue, memory pressure); a draining
  // server refusing intake is not one, on either admission path.
  LSTMFixture fixture(1);
  serve::ServeConfig config;
  config.num_workers = 1;
  serve::Server server(serve::ModelConfig{fixture.exec}, config);
  server.Drain();
  EXPECT_FALSE(
      server.TrySubmit(fixture.ArgsFor(0), fixture.lengths[0]).has_value());
  auto closed = server.TrySubmitCallback(
      "default", fixture.ArgsFor(0), fixture.lengths[0],
      [](runtime::ObjectRef, std::exception_ptr, const obs::TraceContext&) {
        FAIL();
      });
  EXPECT_EQ(closed.status, serve::Server::AdmitStatus::kClosed);
  EXPECT_EQ(server.stats().rejected, 0);
  EXPECT_EQ(server.stats().arrivals, 0);
}

TEST(Serve, DrainFulfillsEveryQueuedRequestDeterministically) {
  // Queue a burst and immediately drain: teardown must fulfill every
  // admitted promise/callback (never drop queued requests), repeatably.
  for (int round = 0; round < 3; ++round) {
    LSTMFixture fixture(16, /*hidden_size=*/16, /*seed=*/77 + round);
    serve::ServeConfig config;
    config.num_workers = 1;
    serve::Server server(config);
    serve::ModelConfig model;
    model.exec = fixture.exec;
    model.batch.max_batch_size = 4;
    model.batch.max_wait_micros = 1000000;  // only Drain can flush partials
    server.AddModel("m", std::move(model));
    server.Start();

    std::atomic<int> callbacks{0};
    std::vector<std::future<runtime::ObjectRef>> futures;
    for (size_t i = 0; i < fixture.lengths.size(); ++i) {
      if (i % 2 == 0) {
        futures.push_back(
            server.Submit("m", fixture.ArgsFor(i), fixture.lengths[i]));
      } else {
        auto admit = server.TrySubmitCallback(
            "m", fixture.ArgsFor(i), fixture.lengths[i],
            [&](runtime::ObjectRef, std::exception_ptr,
                const obs::TraceContext&) { callbacks.fetch_add(1); });
        ASSERT_EQ(admit.status, serve::Server::AdmitStatus::kAccepted);
      }
    }
    server.Drain();
    EXPECT_EQ(callbacks.load(), static_cast<int>(fixture.lengths.size() / 2));
    for (auto& future : futures) {
      EXPECT_NO_THROW(future.get()) << "queued futures fulfilled by Drain";
    }
    auto snap = server.stats();
    EXPECT_EQ(snap.completed, static_cast<int64_t>(fixture.lengths.size()));
    EXPECT_EQ(snap.failed, 0);
  }
}

TEST(ServeStats, QueueWaitPlusExecEqualsEndToEndLatency) {
  obs::MetricRegistry registry;
  serve::ServeStats stats(registry, "m");
  auto t0 = serve::Clock::now();
  stats.RecordEnqueue(t0);
  stats.RecordCompletion(/*latency_us=*/1000.0, /*queue_wait_us=*/700.0,
                         /*exec_us=*/300.0, /*ok=*/true,
                         t0 + std::chrono::milliseconds(1));
  stats.RecordCompletion(2000.0, 1200.0, 800.0, true,
                         t0 + std::chrono::milliseconds(2));
  auto snap = stats.Snapshot();
  EXPECT_DOUBLE_EQ(snap.mean_latency_us, 1500.0);
  EXPECT_DOUBLE_EQ(snap.mean_queue_wait_us, 950.0);
  EXPECT_DOUBLE_EQ(snap.mean_exec_us, 550.0);
  EXPECT_DOUBLE_EQ(snap.max_queue_wait_us, 1200.0);
  EXPECT_DOUBLE_EQ(snap.mean_queue_wait_us + snap.mean_exec_us,
                   snap.mean_latency_us);
}

TEST(ServeStats, ArrivalsCountIntoTheRegistryAndPinTheWindow) {
  obs::MetricRegistry registry;
  serve::ServeStats stats(registry, "m");
  auto t = serve::Clock::now();
  for (int i = 0; i <= 50; ++i) {
    stats.RecordEnqueue(t + std::chrono::microseconds(200) * i);
  }
  stats.RecordCompletion(1.0, 0.5, 0.5, /*ok=*/true,
                         t + std::chrono::milliseconds(10));
  auto snap = stats.Snapshot();
  EXPECT_EQ(snap.arrivals, 51);
  EXPECT_EQ(snap.arrivals,
            registry.GetCounter("nimble_arrivals_total", {{"model", "m"}})
                ->Value());
  // The first arrival opens the measurement window; later ones leave it.
  EXPECT_NEAR(snap.elapsed_seconds, 0.010, 1e-9);
}

TEST(ServeStats, ConcurrentEnqueuesAndSnapshotsStayConsistent) {
  // Admission takes no lock: producers only bump a counter and CAS the
  // window start, while a reader snapshots concurrently (run under TSan).
  obs::MetricRegistry registry;
  serve::ServeStats stats(registry, "m");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      auto snap = stats.Snapshot();
      EXPECT_GE(snap.arrivals, 0);
      EXPECT_GE(snap.elapsed_seconds, 0.0);
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kThreads; ++p) {
    producers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        stats.RecordEnqueue(serve::Clock::now());
      }
    });
  }
  for (auto& t : producers) t.join();
  stats.RecordCompletion(1.0, 0.5, 0.5, /*ok=*/true, serve::Clock::now());
  done.store(true);
  reader.join();
  auto snap = stats.Snapshot();
  EXPECT_EQ(snap.arrivals, kThreads * kPerThread);
  EXPECT_GE(snap.elapsed_seconds, 0.0);
}

TEST(ServeStats, SnapshotIsAViewOfTheRegistry) {
  obs::MetricRegistry registry;
  serve::ServeStats stats(registry, "m");
  auto t0 = serve::Clock::now();
  stats.RecordEnqueue(t0);
  stats.RecordEnqueue(t0);
  stats.RecordRejected();
  stats.RecordCompletion(100.0, 40.0, 60.0, /*ok=*/true, t0);
  stats.RecordCompletion(300.0, 100.0, 200.0, /*ok=*/false, t0);
  stats.RecordSplice(5.0);
  stats.RecordStep(/*occupied=*/2, /*num_slots=*/4, 10.0);
  auto snap = stats.Snapshot();

  auto counter = [&](const char* family, obs::LabelSet labels) {
    labels.emplace_back("model", "m");
    return registry.GetCounter(family, labels)->Value();
  };
  EXPECT_EQ(snap.arrivals, counter("nimble_arrivals_total", {}));
  EXPECT_EQ(snap.completed,
            counter("nimble_requests_total", {{"outcome", "completed"}}));
  EXPECT_EQ(snap.failed,
            counter("nimble_requests_total", {{"outcome", "failed"}}));
  EXPECT_EQ(snap.rejected,
            counter("nimble_requests_total", {{"outcome", "rejected"}}));
  EXPECT_EQ(snap.splices, counter("nimble_splices_total", {}));
  EXPECT_EQ(snap.continuous_steps, counter("nimble_steps_total", {}));
  EXPECT_EQ(snap.continuous_idle_row_steps,
            counter("nimble_idle_row_steps_total", {}));
  EXPECT_EQ(snap.continuous_row_steps, 4);
  EXPECT_EQ(snap.slot_count, 4);
  obs::Histogram* e2e =
      registry.GetHistogram("nimble_e2e_latency_us", {{"model", "m"}},
                            obs::Histogram::LatencyBoundsUs());
  EXPECT_EQ(e2e->Count(), snap.completed + snap.failed);
  EXPECT_DOUBLE_EQ(snap.mean_latency_us, e2e->Sum() / 2.0);
  EXPECT_DOUBLE_EQ(snap.max_latency_us, 300.0);

  // Same registry, same model: the same store.
  serve::ServeStats again(registry, "m");
  EXPECT_EQ(again.Snapshot().failed, 1);
}

// ---- drain-time leak sentinels ------------------------------------------------

// Every byte a served request allocated from the worker allocators must be
// freed once its result is dropped: after Drain with no results held, the
// per-worker live-byte counters read exactly zero. A regression here is a
// data-path leak (a tensor pinned in a register, a batch temporary kept
// past unpack), caught by the counters alone — and by ASan in the CI job
// that runs this binary.
TEST(Memory, DrainReturnsWorkerLiveBytesToZero) {
  std::vector<int64_t> lengths = {9, 9, 5, 5, 12, 3, 9, 7};
  LSTMFixture fixture(lengths, 12, 31, /*with_batched_entry=*/true);
  serve::ServeConfig config;
  config.num_workers = 2;
  serve::ModelConfig model;
  model.exec = fixture.exec;
  model.batch.tensor_batching = true;
  model.batch.bucket_edges = {8, 16};
  serve::Server server(std::move(model), config);

  std::vector<std::future<runtime::ObjectRef>> futures;
  for (size_t i = 0; i < lengths.size(); ++i) {
    futures.push_back(server.Submit(fixture.ArgsFor(i), lengths[i]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectBitIdentical(AsTensor(futures[i].get()), fixture.expected[i], i);
  }
  futures.clear();  // drop every result before the leak check
  server.Drain();

  int workers_seen = 0;
  int64_t peak_across_workers = 0;
  for (const obs::AllocScopeSample& scope : server.MemoryScopes()) {
    if (scope.scope.rfind("worker:", 0) != 0) continue;
    ++workers_seen;
    EXPECT_EQ(scope.live_bytes, 0)
        << scope.scope << " leaked after drain with all results dropped";
    // Batch placement is racy — one worker may have pulled every batch —
    // so activity is asserted across the pool, not per worker.
    peak_across_workers += scope.peak_bytes;
  }
  EXPECT_EQ(workers_seen, 2);
  EXPECT_GT(peak_across_workers, 0)
      << "no worker ever allocated — the sentinel tested nothing";
}

// Continuous runners keep their persistent step arguments (x_t, the active
// mask, the state rows) alive across tenancies, so their drain baseline is
// not zero — it is whatever a warmed-up runner holds. Serving a second,
// identical workload must return live bytes exactly to that baseline:
// states are replaced, never accumulated, and every retired row's slice
// leaves with its request.
TEST(Memory, ContinuousDrainReturnsRunnerLiveBytesToBaseline) {
  schedfuzz::ContinuousHarness harness;
  serve::ServeConfig config;
  serve::Server server(config);
  serve::ModelConfig mc;
  mc.exec = harness.exec;
  mc.batch.continuous = true;
  mc.batch.continuous_slots = 4;
  server.AddModel("lstm", std::move(mc));
  server.Start();

  std::vector<int64_t> lengths = {5, 2, 8, 3, 6, 4};
  auto serve_round = [&](uint64_t seed) {
    support::Rng rng(seed);
    std::vector<std::future<runtime::ObjectRef>> futures;
    for (int64_t len : lengths) {
      NDArray x = models::RandomSequence(len, harness.input_size, rng);
      futures.push_back(server.Submit(
          "lstm",
          {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))}, len));
    }
    for (auto& f : futures) f.get();  // results dropped as they land
  };

  auto model_live = [&] {
    for (const obs::AllocScopeSample& scope : server.MemoryScopes()) {
      if (scope.scope == "model:lstm") return scope.live_bytes;
    }
    ADD_FAILURE() << "model scope missing";
    return int64_t{-1};
  };

  // The last future resolves from inside RunStep, a beat before the runner
  // frees its step temporaries — poll until the scope settles before
  // taking the baseline (the post-drain sample needs no such wait).
  auto settled_live = [&] {
    int64_t prev = model_live();
    for (int stable = 0; stable < 5;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      int64_t cur = model_live();
      stable = (cur == prev) ? stable + 1 : 0;
      prev = cur;
    }
    return prev;
  };

  serve_round(41);  // warmup: persistent args and state rows now resident
  int64_t baseline = settled_live();
  EXPECT_GT(baseline, 0) << "a warmed-up runner holds its step arguments";

  serve_round(42);
  server.Drain();
  EXPECT_EQ(model_live(), baseline)
      << "a second workload must not grow the runner's live bytes";
}

TEST(Serve, VMResetAllowsRecycling) {
  LSTMFixture fixture(2);
  vm::VirtualMachine machine(fixture.exec);
  machine.EnableProfiling(true);
  auto a = AsTensor(machine.Invoke("main", fixture.ArgsFor(0)));
  ExpectBitIdentical(a, fixture.expected[0], 0);
  EXPECT_GT(machine.profile().instructions, 0);
  machine.Reset();
  EXPECT_EQ(machine.profile().instructions, 0);
  auto b = AsTensor(machine.Invoke("main", fixture.ArgsFor(1)));
  ExpectBitIdentical(b, fixture.expected[1], 1);
}

}  // namespace
}  // namespace nimble
