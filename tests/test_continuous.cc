// Continuous (iteration-level) batching: the persistent slot map, the
// @main_step step twin, and the end-to-end StepRunner serving path.
//
// The load-bearing property is bit-identity: a request's result must be
// byte-for-byte the same whether it ran alone on one VirtualMachine, inside
// a closed batch, or spliced into a half-full persistent batch next to
// strangers at an arbitrary step boundary. These tests pin that down three
// ways:
//   - directly, by hand-driving @main_step through mid-flight retires and
//     splices and comparing every row against @main (StepTwin tests);
//   - end to end, by replaying fixed-seed randomized schedules from
//     tests/sched_fuzz.h through a continuous Server and comparing against
//     sequential execution (the same driver tests/sched_harness.cc sweeps
//     with thousands of seeds in nightly CI);
//   - structurally, via the SlotMap invariants (no leak, no double retire,
//     FIFO admission order) and the stats accounting that the harness
//     cross-checks after every schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/batch/slot_map.h"
#include "src/batch/step_runner.h"
#include "src/core/compiler.h"
#include "src/models/lstm.h"
#include "src/models/workloads.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/object.h"
#include "src/serve/exec_cache.h"
#include "src/serve/server.h"
#include "src/support/logging.h"
#include "src/support/rng.h"
#include "src/vm/executable.h"
#include "src/vm/vm.h"
#include "tests/continuous_harness.h"
#include "tests/sched_fuzz.h"

namespace nimble {
namespace {

using runtime::AsTensor;
using runtime::DataType;
using runtime::MakeTensor;
using runtime::NDArray;

serve::Request MakeDummyRequest(int64_t id) {
  serve::Request r;
  r.id = id;
  return r;
}

// ---- SlotMap invariants -----------------------------------------------------

TEST(SlotMap, SpliceFillsLowestFreeSlotAndRetireFrees) {
  batch::SlotMap map(4);
  EXPECT_TRUE(map.Empty());
  EXPECT_FALSE(map.Full());
  EXPECT_EQ(map.num_slots(), 4);

  EXPECT_EQ(map.Splice(MakeDummyRequest(10), 3), 0);
  EXPECT_EQ(map.Splice(MakeDummyRequest(11), 1), 1);
  EXPECT_EQ(map.Splice(MakeDummyRequest(12), 5), 2);
  EXPECT_EQ(map.occupied(), 3);
  EXPECT_TRUE(map.IsOccupied(1));
  EXPECT_FALSE(map.IsOccupied(3));

  // Freeing the middle slot makes it the lowest free slot again.
  serve::Request retired = map.Retire(1);
  EXPECT_EQ(retired.id, 11);
  EXPECT_EQ(map.occupied(), 2);
  EXPECT_EQ(map.Splice(MakeDummyRequest(13), 2), 1);
  EXPECT_EQ(map.Splice(MakeDummyRequest(14), 2), 3);
  EXPECT_TRUE(map.Full());

  EXPECT_EQ(map.counters().splices, 5u);
  EXPECT_EQ(map.counters().retires, 1u);
  EXPECT_EQ(map.counters().max_occupancy, 4);

  for (int64_t i = 0; i < 4; ++i) map.Retire(i);
  EXPECT_TRUE(map.Empty());
  EXPECT_EQ(map.counters().retires, 5u);
}

TEST(SlotMap, DoubleRetireAndMisuseThrow) {
  batch::SlotMap map(2);
  int64_t slot = map.Splice(MakeDummyRequest(1), 2);
  map.Retire(slot);
  // Double retire: the slot is no longer occupied.
  EXPECT_THROW(map.Retire(slot), nimble::Error);
  // Retiring a never-occupied slot and out-of-range access also die.
  EXPECT_THROW(map.Retire(1), nimble::Error);
  EXPECT_THROW(map.At(7), nimble::Error);
  EXPECT_THROW(map.At(-1), nimble::Error);
  // Zero-length requests have no step to run.
  EXPECT_THROW(map.Splice(MakeDummyRequest(2), 0), nimble::Error);
  // Overfull: both slots taken, a third splice must throw, not overwrite.
  map.Splice(MakeDummyRequest(3), 1);
  map.Splice(MakeDummyRequest(4), 1);
  EXPECT_THROW(map.Splice(MakeDummyRequest(5), 1), nimble::Error);
}

TEST(SlotMap, AdmitSeqIsFifoAcrossInterleavedRetires) {
  batch::SlotMap map(3);
  // Interleave splices and retires so slot indices get reused out of
  // order; admission sequence numbers must still be strictly increasing
  // in splice order (the FIFO witness the runner relies on).
  uint64_t last_seq = 0;
  auto splice_and_check = [&](int64_t id) {
    int64_t slot = map.Splice(MakeDummyRequest(id), 1);
    uint64_t seq = map.At(slot).admit_seq;
    EXPECT_GT(seq, last_seq) << "admission out of FIFO order at id " << id;
    last_seq = seq;
    return slot;
  };
  int64_t a = splice_and_check(1);
  int64_t b = splice_and_check(2);
  splice_and_check(3);
  map.Retire(a);
  splice_and_check(4);  // reuses slot a, must get a LATER seq
  map.Retire(b);
  splice_and_check(5);
  while (!map.Empty()) {
    for (int64_t i = 0; i < map.num_slots(); ++i) {
      if (map.IsOccupied(i)) map.Retire(i);
    }
  }
}

// ---- @main_step driven by hand ---------------------------------------------

// Hand-rolls the runner's host loop against a raw VM: three slots, rows
// retiring at different steps, and a new request spliced into a freed slot
// mid-flight with zeroed state rows. Every result row must be bit-identical
// to @main on that request alone, and a retired row's state must stay
// frozen bit-for-bit afterwards (the `where` mask really is exact).
TEST(StepTwin, MidFlightSpliceIsBitIdenticalToSequential) {
  models::LSTMConfig config;
  config.input_size = 8;
  config.hidden_size = 10;
  config.num_layers = 2;
  config.seed = 99;
  config.emit_batched = true;
  auto model = models::BuildLSTM(config);
  ASSERT_EQ(model.batched_spec.step_function, "main_step");
  ASSERT_EQ(model.batched_spec.result_state, 2 * (config.num_layers - 1));
  core::CompileOptions opts;
  opts.batched_entries = {model.batched_spec};
  auto exec = core::Compile(model.module, opts).executable;
  vm::VirtualMachine vm(exec);

  const int64_t B = 3, D = 8, H = 10;
  const int64_t num_states = 2 * config.num_layers;
  support::Rng rng(4242);
  // Slot 0: length 3. Slot 1: length 1 (retires after the first step, then
  // a length-2 request splices in at step 1). Slot 2: length 4.
  NDArray in_a = models::RandomSequence(3, D, rng);
  NDArray in_b = models::RandomSequence(1, D, rng);
  NDArray in_c = models::RandomSequence(4, D, rng);
  NDArray in_d = models::RandomSequence(2, D, rng);  // spliced mid-flight

  auto run_main = [&](const NDArray& x, int64_t len) {
    return AsTensor(vm.Invoke(
        "main", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))}));
  };
  NDArray want_a = run_main(in_a, 3);
  NDArray want_b = run_main(in_b, 1);
  NDArray want_c = run_main(in_c, 4);
  NDArray want_d = run_main(in_d, 2);

  auto zeros = [](runtime::ShapeVec shape, DataType dtype) {
    NDArray arr = NDArray::Empty(std::move(shape), dtype);
    std::memset(arr.raw_data(), 0, arr.nbytes());
    return arr;
  };
  NDArray x_t = zeros({B, D}, DataType::Float32());
  NDArray active = zeros({B, 1}, DataType::Int64());
  std::vector<NDArray> states;
  for (int64_t s = 0; s < num_states; ++s) {
    states.push_back(zeros({B, H}, DataType::Float32()));
  }

  // Per-slot tenancy across the 5 host steps of this script.
  struct Tenant {
    const NDArray* seq = nullptr;
    int64_t pos = 0;
    int64_t len = 0;
  };
  std::vector<Tenant> slots(B);
  slots[0] = {&in_a, 0, 3};
  slots[1] = {&in_b, 0, 1};
  slots[2] = {&in_c, 0, 4};

  auto zero_state_rows = [&](int64_t slot) {
    for (NDArray& st : states) {
      std::memset(st.data<float>() + slot * H, 0,
                  static_cast<size_t>(H) * sizeof(float));
    }
  };
  auto result_row = [&](int64_t slot) {
    NDArray out = NDArray::Empty({1, H}, DataType::Float32());
    std::memcpy(out.data<float>(),
                states[static_cast<size_t>(model.batched_spec.result_state)]
                        .data<float>() +
                    slot * H,
                static_cast<size_t>(H) * sizeof(float));
    return out;
  };
  auto expect_rows_equal = [&](const NDArray& got, const NDArray& want,
                               const char* what) {
    ASSERT_EQ(got.num_elements(), want.num_elements());
    const float* pg = got.data<float>();
    const float* pw = want.data<float>();
    for (int64_t j = 0; j < got.num_elements(); ++j) {
      EXPECT_EQ(pg[j], pw[j]) << what << " diverged at element " << j;
    }
  };

  for (int step = 0; step < 5; ++step) {
    if (step == 1) {
      // Slot 1 retired last step; splice the new tenant with zeroed rows —
      // exactly what StepRunner::Admit does.
      slots[1] = {&in_d, 0, 2};
      zero_state_rows(1);
    }
    float* xp = x_t.data<float>();
    int64_t* ap = active.data<int64_t>();
    for (int64_t i = 0; i < B; ++i) {
      if (slots[i].seq != nullptr && slots[i].pos < slots[i].len) {
        std::memcpy(xp + i * D, slots[i].seq->data<float>() + slots[i].pos * D,
                    static_cast<size_t>(D) * sizeof(float));
        ap[i] = 1;
      } else {
        std::memset(xp + i * D, 0, static_cast<size_t>(D) * sizeof(float));
        ap[i] = 0;
      }
    }
    std::vector<runtime::ObjectRef> args{MakeTensor(x_t), MakeTensor(active)};
    for (NDArray& st : states) args.push_back(MakeTensor(st));
    runtime::ObjectRef out = vm.Invoke("main_step", args);
    runtime::ADTObj* tuple = runtime::AsADT(out);
    ASSERT_EQ(tuple->fields.size(), static_cast<size_t>(num_states));
    for (int64_t s = 0; s < num_states; ++s) {
      states[static_cast<size_t>(s)] =
          AsTensor(tuple->fields[static_cast<size_t>(s)]);
    }
    for (int64_t i = 0; i < B; ++i) {
      if (slots[i].seq == nullptr) continue;
      if (++slots[i].pos >= slots[i].len) {
        NDArray got = result_row(i);
        if (slots[i].seq == &in_a) expect_rows_equal(got, want_a, "slot a");
        if (slots[i].seq == &in_b) expect_rows_equal(got, want_b, "slot b");
        if (slots[i].seq == &in_c) expect_rows_equal(got, want_c, "slot c");
        if (slots[i].seq == &in_d) expect_rows_equal(got, want_d, "slot d");
        slots[i].seq = nullptr;  // retire: row goes inactive
      }
    }
  }
  for (int64_t i = 0; i < B; ++i) {
    EXPECT_EQ(slots[i].seq, nullptr) << "slot " << i << " never finished";
  }
  // Everything retired by the end of step 3, so step 4 ran with every row
  // inactive — and the freeze must have been exact: the retired rows still
  // hold their results bit for bit.
  expect_rows_equal(result_row(0), want_a, "slot a after idle step");
  expect_rows_equal(result_row(1), want_d, "slot d after idle step");
  expect_rows_equal(result_row(2), want_c, "slot c after idle step");
}

// ---- end-to-end: randomized schedules through the server --------------------

TEST(Continuous, FixedSeedSchedulesAreBitIdenticalAcrossFlavors) {
  schedfuzz::ContinuousHarness harness(/*hidden_size=*/12, /*num_layers=*/1,
                                       /*weight_seed=*/7);
  for (auto flavor :
       {schedfuzz::ArrivalFlavor::kPoisson, schedfuzz::ArrivalFlavor::kBursty,
        schedfuzz::ArrivalFlavor::kAdversarial}) {
    for (uint64_t seed : {11u, 29u}) {
      auto schedule = schedfuzz::MakeSchedule(seed, /*num_requests=*/24,
                                              /*max_len=*/12, flavor);
      EXPECT_EQ(harness.RunSchedule(schedule, /*num_slots=*/4), "");
    }
  }
}

TEST(Continuous, TwoLayerModelAndSingleSlotDegenerateCase) {
  // num_slots=1 degenerates to sequential serving through the step loop —
  // the splice/retire machinery with no concurrency to hide behind.
  schedfuzz::ContinuousHarness harness(/*hidden_size=*/10, /*num_layers=*/2,
                                       /*weight_seed=*/13);
  auto schedule = schedfuzz::MakeSchedule(5, /*num_requests=*/10,
                                          /*max_len=*/8,
                                          schedfuzz::ArrivalFlavor::kPoisson);
  EXPECT_EQ(harness.RunSchedule(schedule, /*num_slots=*/1), "");
  // And wide: more slots than requests in flight.
  auto burst = schedfuzz::MakeSchedule(6, /*num_requests=*/12, /*max_len=*/8,
                                       schedfuzz::ArrivalFlavor::kBursty);
  EXPECT_EQ(harness.RunSchedule(burst, /*num_slots=*/8), "");
}

TEST(Continuous, EveryDispatchVariantCountMatchesFullDispatchSequential) {
  // Every dense dispatch configuration computes each row in one order, so a
  // partial table serves continuously — at slot counts whose residue it
  // does not specialize — with the full-dispatch sequential reference's
  // bits.
  schedfuzz::ContinuousHarness harness(/*hidden_size=*/12, /*num_layers=*/1,
                                       /*weight_seed=*/9);
  for (int variants : {1, 2, 4}) {
    for (int64_t slots : {1, 3, 8}) {
      auto schedule = schedfuzz::MakeSchedule(
          static_cast<uint64_t>(40 + variants * 8 + slots),
          /*num_requests=*/12, /*max_len=*/10,
          schedfuzz::ArrivalFlavor::kBursty);
      EXPECT_EQ(harness.RunSchedule(schedule, slots, variants), "")
          << "variants=" << variants << " slots=" << slots;
    }
  }
}

// ---- stats & observability --------------------------------------------------

TEST(Continuous, StatsReportSlotOccupancyAndZeroPadding) {
  schedfuzz::ContinuousHarness harness;
  serve::ServeConfig config;
  serve::Server server(config);
  serve::ModelConfig mc;
  mc.exec = harness.exec;
  mc.batch.continuous = true;
  mc.batch.continuous_slots = 4;
  server.AddModel("lstm", std::move(mc));
  server.Start();

  support::Rng rng(77);
  std::vector<std::future<runtime::ObjectRef>> futures;
  std::vector<NDArray> inputs;
  std::vector<int64_t> lengths = {5, 1, 9, 3, 7, 2};
  for (int64_t len : lengths) {
    inputs.push_back(models::RandomSequence(len, harness.input_size, rng));
    futures.push_back(server.Submit(
        "lstm",
        {MakeTensor(inputs.back()), MakeTensor(NDArray::Scalar<int64_t>(len))},
        len));
  }
  for (auto& f : futures) f.get();
  server.Drain();

  auto snap = server.stats("lstm");
  EXPECT_EQ(snap.completed, static_cast<int64_t>(lengths.size()));
  EXPECT_EQ(snap.splices, static_cast<int64_t>(lengths.size()));
  EXPECT_GT(snap.continuous_steps, 0);
  EXPECT_EQ(snap.slot_count, 4);
  // The persistent batch never packs or pads: padding is zero by
  // construction, and idle-slot waste is reported as its own number.
  EXPECT_EQ(snap.packed_batches, 0);
  EXPECT_EQ(snap.padded_elements, 0);
  EXPECT_EQ(snap.padding_waste, 0.0);
  int64_t total_len = 0;
  for (int64_t len : lengths) total_len += len;
  EXPECT_EQ(snap.continuous_row_steps - snap.continuous_idle_row_steps,
            total_len);
  EXPECT_GT(snap.mean_slot_occupancy, 0.0);
  EXPECT_LE(snap.mean_slot_occupancy, 4.0);
  // Drained: the last request retired, so no slot is live — in /stats and
  // in the /metrics gauge alike.
  EXPECT_EQ(snap.slot_occupancy, 0);
  EXPECT_NE(server.metrics_registry()->RenderPrometheus().find(
                "nimble_slot_occupancy{model=\"lstm\"} 0\n"),
            std::string::npos);
  // The human-readable rendering mentions the continuous counters.
  EXPECT_NE(snap.ToString().find("continuous"), std::string::npos);
  // Aggregate stats got the same completions.
  EXPECT_EQ(server.stats().completed, static_cast<int64_t>(lengths.size()));
}

TEST(Continuous, TraceCarriesSlotAndStepSpanOfTheResidency) {
  schedfuzz::ContinuousHarness harness;
  serve::ServeConfig config;
  serve::Server server(config);
  serve::ModelConfig mc;
  mc.exec = harness.exec;
  mc.batch.continuous = true;
  mc.batch.continuous_slots = 2;
  server.AddModel("lstm", std::move(mc));
  server.Start();

  support::Rng rng(99);
  const int64_t length = 6;
  NDArray x = models::RandomSequence(length, harness.input_size, rng);
  std::promise<obs::TraceContext> traced;
  auto admit = server.TrySubmitCallback(
      "lstm", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(length))},
      length,
      [&traced](runtime::ObjectRef, std::exception_ptr,
                const obs::TraceContext& trace) {
        traced.set_value(trace);
      });
  ASSERT_TRUE(admit.accepted());
  obs::TraceContext trace = traced.get_future().get();
  server.Drain();

  // The continuous detail rides on the trace as extra fields, not new span
  // names: slot index, splice/retire step seqs, and the derived residency.
  EXPECT_TRUE(trace.continuous);
  EXPECT_GE(trace.slot, 0);
  EXPECT_LT(trace.slot, 2);
  EXPECT_GE(trace.splice_step, 0);
  EXPECT_EQ(trace.retire_step - trace.splice_step + 1, length);
  EXPECT_EQ(trace.steps_resident(), length);
  EXPECT_FALSE(trace.packed) << "the continuous path never packs";

  // The step means and the journal surface the same run.
  auto snap = server.stats("lstm");
  EXPECT_GT(snap.mean_step_duration_us, 0.0);
  EXPECT_GE(snap.mean_splice_wait_us, 0.0);
  auto views = server.continuous_models();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].name, "lstm");
  EXPECT_EQ(views[0].num_slots, 2);
  ASSERT_NE(views[0].journal, nullptr);
  EXPECT_EQ(views[0].journal->steps_recorded(), snap.continuous_steps);
}

TEST(Continuous, EveryStepRunsTheShapeSpecializedTwin) {
  // The runner never runs @main_step as compiled: every step invokes the
  // body AnalyzeContinuous specialized once for the slot count, so each
  // journaled step's VM profile counts exactly that body's instructions
  // (29 for a 1-layer LSTM) and spends no time in shape functions.
  schedfuzz::ContinuousHarness harness;
  const int64_t kSlots = 4;
  batch::ContinuousCheck check =
      batch::AnalyzeContinuous(*harness.exec, "main", kSlots);
  ASSERT_TRUE(check.ok()) << check.reason;
  const int64_t specialized =
      static_cast<int64_t>(check.step->function.instructions.size());
  EXPECT_EQ(specialized, 29);
  EXPECT_LT(specialized,
            static_cast<int64_t>(harness.exec
                                     ->functions[harness.exec->FunctionIndex(
                                         "main_step")]
                                     .instructions.size()));

  serve::Server server{serve::ServeConfig{}};
  serve::ModelConfig mc;
  mc.exec = harness.exec;
  mc.batch.continuous = true;
  mc.batch.continuous_slots = kSlots;
  server.AddModel("lstm", std::move(mc));
  server.Start();
  support::Rng rng(31);
  std::vector<std::future<runtime::ObjectRef>> futures;
  for (int64_t len : {5, 1, 9, 3, 7}) {
    NDArray x = models::RandomSequence(len, harness.input_size, rng);
    futures.push_back(server.Submit(
        "lstm", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))},
        len));
  }
  for (auto& f : futures) f.get();
  server.Drain();

  auto views = server.continuous_models();
  ASSERT_EQ(views.size(), 1u);
  std::vector<obs::StepRecord> records = views[0].journal->Tail(1024);
  ASSERT_FALSE(records.empty());
  for (const obs::StepRecord& record : records) {
    EXPECT_TRUE(record.ok) << "step " << record.step;
    EXPECT_EQ(record.vm.instructions, specialized) << "step " << record.step;
    EXPECT_EQ(record.vm.shape_func_nanos, 0) << "step " << record.step;
  }
}

TEST(Continuous, ShortRequestsRetireWhileLongOnesRun) {
  // Three long requests take three of four slots; six short ones queued
  // behind them must cycle through the fourth slot, each resident for
  // exactly its own length and each retired before any long one: a short
  // request is never held hostage by a long neighbour. The runner drains a
  // queue filled before it starts, so all nine are queued at step 0. (Behind
  // a server, the runner steps the first request while the rest are still
  // being submitted, and on a busy host the submitting thread can lose the
  // CPU for a whole scheduler slice — hundreds of steps — after the first
  // push.)
  schedfuzz::ContinuousHarness harness;
  const int64_t kLong = 256;
  const int64_t kShort = 3;
  std::vector<int64_t> lengths = {kLong, kLong, kLong};
  lengths.insert(lengths.end(), 6, kShort);
  support::Rng rng(61);
  vm::VirtualMachine sequential(harness.exec);
  serve::Channel<serve::Request> queue(lengths.size());
  std::vector<NDArray> expected;
  std::vector<std::future<runtime::ObjectRef>> results;
  std::vector<obs::TraceContext> traces(lengths.size());
  for (size_t i = 0; i < lengths.size(); ++i) {
    int64_t len = lengths[i];
    NDArray x = models::RandomSequence(len, harness.input_size, rng);
    expected.push_back(AsTensor(sequential.Invoke(
        "main", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))})));
    serve::Request request;
    request.id = static_cast<int64_t>(i);
    request.args = {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))};
    request.length_hint = len;
    request.trace.enabled = true;
    request.on_complete = [&traces, i](runtime::ObjectRef, std::exception_ptr,
                                       const obs::TraceContext& trace) {
      traces[i] = trace;
    };
    results.push_back(request.promise.get_future());
    ASSERT_TRUE(queue.Push(request)) << "request " << i;
  }
  batch::StepRunner runner(harness.exec, "main", 4, &queue, nullptr, nullptr);
  runner.Start();
  queue.Close();
  runner.Join();
  for (size_t i = 0; i < lengths.size(); ++i) {
    EXPECT_EQ(schedfuzz::CompareBits(AsTensor(results[i].get()), expected[i], i),
              "");
  }

  int64_t first_long_retire = traces[0].retire_step;
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(traces[i].steps_resident(), kLong) << "long " << i;
    first_long_retire = std::min(first_long_retire, traces[i].retire_step);
  }
  for (size_t i = 3; i < lengths.size(); ++i) {
    EXPECT_EQ(traces[i].steps_resident(), kShort) << "short " << i;
    EXPECT_LT(traces[i].retire_step, first_long_retire) << "short " << i;
  }
}

// ---- registration-time rejection -------------------------------------------

TEST(Continuous, AddModelRejectsExecutableWithoutStepTwin) {
  // emit_batched=false: no batched spec at all, so no step twin either.
  models::LSTMConfig config;
  config.input_size = 8;
  config.hidden_size = 10;
  config.emit_batched = false;
  auto model = models::BuildLSTM(config);
  auto exec = core::Compile(model.module, {}).executable;

  serve::Server server{serve::ServeConfig{}};
  serve::ModelConfig mc;
  mc.exec = exec;
  mc.batch.continuous = true;
  EXPECT_THROW(server.AddModel("no_twin", std::move(mc)), nimble::Error);
}

TEST(Continuous, AddModelRejectsSpecWithEmptyStepFunction) {
  // Batched twin present but the step twin explicitly absent: the packed
  // path would work, the continuous path must refuse.
  models::LSTMConfig config;
  config.input_size = 8;
  config.hidden_size = 10;
  config.emit_batched = true;
  auto model = models::BuildLSTM(config);
  vm::BatchedEntrySpec spec = model.batched_spec;
  spec.step_function.clear();
  core::CompileOptions opts;
  opts.batched_entries = {spec};
  auto exec = core::Compile(model.module, opts).executable;

  serve::Server server{serve::ServeConfig{}};
  serve::ModelConfig mc;
  mc.exec = exec;
  mc.batch.continuous = true;
  EXPECT_THROW(server.AddModel("no_step", std::move(mc)), nimble::Error);
}

TEST(Continuous, AddModelRejectsContinuousWithExecCache) {
  // The shape-bucket cache is a padded-path optimization; a continuous
  // model never packs, so combining them is a configuration error.
  models::LSTMConfig config;
  config.input_size = 8;
  config.hidden_size = 10;
  config.emit_batched = true;
  auto model = models::BuildLSTM(config);
  core::CompileOptions opts;
  opts.batched_entries = {model.batched_spec};
  auto exec = core::Compile(model.module, opts).executable;

  auto cache = std::make_shared<serve::ExecCache>(
      [exec](int64_t, int64_t, const codegen::DenseConfig&) { return exec; },
      serve::ExecCacheConfig{});
  serve::Server server{serve::ServeConfig{}};
  serve::ModelConfig mc;
  mc.exec = exec;
  mc.batch.continuous = true;
  mc.batch.tensor_batching = true;
  mc.exec_cache = cache;
  EXPECT_THROW(server.AddModel("cached", std::move(mc)), nimble::Error);
}

TEST(Continuous, AnalyzeContinuousRejectsVariantExecutables) {
  models::LSTMConfig config;
  config.input_size = 8;
  config.hidden_size = 10;
  config.emit_batched = true;
  auto model = models::BuildLSTM(config);
  core::CompileOptions opts;
  opts.batched_entries = {model.batched_spec};
  opts.specialize_length = 6;
  opts.specialize_batch = 2;
  auto variant = core::Compile(model.module, opts).executable;
  ASSERT_TRUE(variant->variant.is_variant());
  batch::ContinuousCheck check = batch::AnalyzeContinuous(*variant, "main", 2);
  EXPECT_FALSE(check.ok());
  EXPECT_NE(check.reason.find("variant"), std::string::npos) << check.reason;
}

TEST(Continuous, AddModelRejectsStepTwinThatWillNotSpecialize) {
  // Pointing the step twin at @main_batched, a recursive loop over
  // timesteps, leaves nothing to shape-specialize: registration refuses
  // with the reason rather than serving it some other way.
  models::LSTMConfig config;
  config.input_size = 8;
  config.hidden_size = 10;
  config.emit_batched = true;
  auto model = models::BuildLSTM(config);
  vm::BatchedEntrySpec spec = model.batched_spec;
  spec.step_function = spec.batched_function;
  core::CompileOptions opts;
  opts.batched_entries = {spec};
  auto exec = core::Compile(model.module, opts).executable;
  batch::ContinuousCheck check = batch::AnalyzeContinuous(*exec, "main", 2);
  EXPECT_FALSE(check.ok());
  EXPECT_NE(check.reason.find("shape-specialize"), std::string::npos)
      << check.reason;

  serve::Server server{serve::ServeConfig{}};
  serve::ModelConfig mc;
  mc.exec = exec;
  mc.batch.continuous = true;
  EXPECT_THROW(server.AddModel("loop_step", std::move(mc)), nimble::Error);
}

// ---- serialization ----------------------------------------------------------

TEST(Continuous, SaveLoadRoundTripPreservesStepSpecAndServes) {
  schedfuzz::ContinuousHarness harness(/*hidden_size=*/10, /*num_layers=*/2,
                                       /*weight_seed=*/21);
  std::stringstream buffer;
  harness.exec->Save(buffer);
  auto loaded = vm::Executable::Load(buffer);

  const vm::BatchedEntrySpec* spec = loaded->FindBatched("main");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->step_function, "main_step");
  EXPECT_EQ(spec->result_state, 2 * (2 - 1));

  // The loaded executable serves continuously, bit-identical to the
  // original run sequentially.
  serve::Server server{serve::ServeConfig{}};
  serve::ModelConfig mc;
  mc.exec = loaded;
  mc.batch.continuous = true;
  mc.batch.continuous_slots = 2;
  server.AddModel("lstm", std::move(mc));
  server.Start();

  support::Rng rng(1234);
  vm::VirtualMachine sequential(harness.exec);
  std::vector<NDArray> inputs;
  std::vector<NDArray> expected;
  std::vector<std::future<runtime::ObjectRef>> futures;
  for (int64_t len : {4, 1, 6}) {
    NDArray x = models::RandomSequence(len, harness.input_size, rng);
    inputs.push_back(x);
    expected.push_back(AsTensor(sequential.Invoke(
        "main", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))})));
    futures.push_back(server.Submit(
        "lstm", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))},
        len));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    std::string diff =
        schedfuzz::CompareBits(AsTensor(futures[i].get()), expected[i], i);
    EXPECT_EQ(diff, "");
  }
  server.Drain();
}

// ---- lifecycle & failure paths ---------------------------------------------

TEST(Continuous, DrainFulfillsEveryAdmittedRequest) {
  schedfuzz::ContinuousHarness harness;
  serve::Server server{serve::ServeConfig{}};
  serve::ModelConfig mc;
  mc.exec = harness.exec;
  mc.queue_capacity = 32;
  mc.batch.continuous = true;
  mc.batch.continuous_slots = 2;
  server.AddModel("lstm", std::move(mc));
  server.Start();

  support::Rng rng(55);
  vm::VirtualMachine sequential(harness.exec);
  std::vector<NDArray> expected;
  std::vector<std::future<runtime::ObjectRef>> futures;
  // Far more requests than slots, submitted back to back, then an
  // immediate drain: every one must still complete (no admitted request is
  // ever dropped), in bit-identical form.
  for (int i = 0; i < 12; ++i) {
    int64_t len = 1 + (i * 5) % 9;
    NDArray x = models::RandomSequence(len, harness.input_size, rng);
    expected.push_back(AsTensor(sequential.Invoke(
        "main", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))})));
    futures.push_back(server.Submit(
        "lstm", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))},
        len));
  }
  server.Drain();
  for (size_t i = 0; i < futures.size(); ++i) {
    std::string diff =
        schedfuzz::CompareBits(AsTensor(futures[i].get()), expected[i], i);
    EXPECT_EQ(diff, "");
  }
  EXPECT_EQ(server.stats("lstm").completed, 12);
  EXPECT_EQ(server.stats("lstm").failed, 0);
}

TEST(Continuous, MalformedArgumentsAreRejectedNotServed) {
  schedfuzz::ContinuousHarness harness;
  serve::Server server{serve::ServeConfig{}};
  serve::ModelConfig mc;
  mc.exec = harness.exec;
  mc.batch.continuous = true;
  mc.batch.continuous_slots = 2;
  server.AddModel("lstm", std::move(mc));
  server.Start();

  support::Rng rng(66);
  // Wrong feature width: an [len, 4] sequence against feature_width 8.
  NDArray bad = models::RandomSequence(3, 4, rng);
  auto bad_future = server.Submit(
      "lstm", {MakeTensor(bad), MakeTensor(NDArray::Scalar<int64_t>(3))}, 3);
  EXPECT_THROW(bad_future.get(), nimble::Error);

  // A well-formed request right behind it is unaffected.
  NDArray good = models::RandomSequence(3, harness.input_size, rng);
  vm::VirtualMachine sequential(harness.exec);
  NDArray want = AsTensor(sequential.Invoke(
      "main", {MakeTensor(good), MakeTensor(NDArray::Scalar<int64_t>(3))}));
  auto good_future = server.Submit(
      "lstm", {MakeTensor(good), MakeTensor(NDArray::Scalar<int64_t>(3))}, 3);
  EXPECT_EQ(schedfuzz::CompareBits(AsTensor(good_future.get()), want, 0), "");
  server.Drain();
  EXPECT_EQ(server.stats("lstm").failed, 1);
  EXPECT_EQ(server.stats("lstm").completed, 1);
  // The rejected request never touched a slot.
  EXPECT_EQ(server.stats("lstm").splices, 1);
}

// ---- exec-cache churn while a continuous model splices ----------------------

// A continuous model and a bucket-cached model share one server; the cache
// is capacity-starved so background compiles and LRU evictions churn while
// the step runner splices. In-flight variants evicted under churn must stay
// alive (shared_ptr), results stay bit-identical on both models. This is
// the TSan target for cross-subsystem interleavings.
TEST(Continuous, ExecCacheChurnWhileContinuousModelSplices) {
  models::LSTMConfig config;
  config.input_size = 8;
  config.hidden_size = 10;
  config.seed = 3;
  config.emit_batched = true;
  auto model = models::BuildLSTM(config);
  core::CompileOptions opts;
  opts.batched_entries = {model.batched_spec};
  auto exec = core::Compile(model.module, opts).executable;

  serve::ExecCacheConfig cache_config;
  cache_config.capacity = 2;  // tiny: every new length evicts
  cache_config.min_observations = 1;
  cache_config.specialize_batch = 2;
  auto cache = std::make_shared<serve::ExecCache>(
      [config](int64_t max_len, int64_t batch, const codegen::DenseConfig&) {
        auto variant_model = models::BuildLSTM(config);
        core::CompileOptions variant_opts;
        variant_opts.batched_entries = {variant_model.batched_spec};
        variant_opts.specialize_length = max_len;
        variant_opts.specialize_batch = batch;
        return core::Compile(variant_model.module, variant_opts).executable;
      },
      cache_config);

  serve::ServeConfig server_config;
  server_config.num_workers = 2;
  serve::Server server(server_config);
  {
    serve::ModelConfig continuous;
    continuous.exec = exec;
    continuous.queue_capacity = 128;
    continuous.batch.continuous = true;
    continuous.batch.continuous_slots = 4;
    server.AddModel("continuous", std::move(continuous));
  }
  {
    serve::ModelConfig bucketed;
    bucketed.exec = exec;
    bucketed.queue_capacity = 128;
    bucketed.batch.tensor_batching = true;
    bucketed.batch.max_batch_size = 2;
    bucketed.exec_cache = cache;
    server.AddModel("bucketed", std::move(bucketed));
  }
  server.Start();

  struct Submitted {
    std::future<runtime::ObjectRef> future;
    NDArray want;
  };
  auto submit_stream = [&](const std::string& model_name, uint64_t seed,
                           std::vector<Submitted>* out) {
    // Each stream gets its own reference VM: VirtualMachine is not
    // thread-safe and the streams run concurrently.
    vm::VirtualMachine sequential(exec);
    support::Rng rng(seed);
    for (int i = 0; i < 24; ++i) {
      int64_t len = rng.UniformInt(1, 9);
      NDArray x = models::RandomSequence(len, 8, rng);
      Submitted s;
      s.want = AsTensor(sequential.Invoke(
          "main", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))}));
      s.future = server.Submit(
          model_name,
          {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))}, len);
      out->push_back(std::move(s));
    }
  };
  std::vector<Submitted> continuous_reqs;
  std::vector<Submitted> bucketed_reqs;
  // Submit to both models from separate threads while a third hammers the
  // cache's Lookup path with churning lengths.
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    support::Rng rng(9001);
    while (!stop.load(std::memory_order_acquire)) {
      (void)cache->Lookup(rng.UniformInt(1, 9), 2);
    }
  });
  std::thread submit_continuous(
      [&] { submit_stream("continuous", 101, &continuous_reqs); });
  std::thread submit_bucketed(
      [&] { submit_stream("bucketed", 202, &bucketed_reqs); });
  submit_continuous.join();
  submit_bucketed.join();
  for (auto& s : continuous_reqs) {
    EXPECT_EQ(schedfuzz::CompareBits(AsTensor(s.future.get()), s.want, 0), "");
  }
  for (auto& s : bucketed_reqs) {
    EXPECT_EQ(schedfuzz::CompareBits(AsTensor(s.future.get()), s.want, 0), "");
  }
  stop.store(true, std::memory_order_release);
  churn.join();
  server.Drain();
  EXPECT_EQ(server.stats("continuous").completed, 24);
  EXPECT_EQ(server.stats("bucketed").completed, 24);
}

}  // namespace
}  // namespace nimble
