// Shared driver for the continuous-batching randomized test harness.
//
// One ContinuousHarness owns a compiled LSTM (batched + step twins stamped)
// and can replay any schedfuzz::FuzzSchedule against it end to end:
//
//   1. generate each request's input from the schedule's seed and compute
//      the sequential single-VM reference result on the default
//      (full-dispatch) executable;
//   2. serve the same requests through a Server in continuous mode
//      (BatchPolicy::continuous -> batch::StepRunner slot map), honouring
//      the schedule's inter-arrival gaps, on the same model compiled with
//      the requested dense dispatch variant count — every count must give
//      the reference's bits;
//   3. assert bitwise equality against the reference for every request,
//      FIFO admission (splice timestamps non-decreasing in submission
//      order), and the slot-map accounting invariants:
//        - every request spliced exactly once and completed exactly once
//          (splices == completed == n, failed == 0 — no leak, no double
//          retire at the stats level; SlotMap CHECKs the same per-slot);
//        - live row steps == sum of request lengths (each request holds a
//          slot for exactly its own length — step-granular retire);
//        - row steps == steps * slots (the fixed-B step loop);
//        - zero packed batches (nothing on this path ever pads);
//   4. cross-check the step journal against the same ground truth: one
//      record per step with strictly increasing seqs, exactly one splice
//      and one retire event per request, per-request slot residency
//      (retire_step - splice_step + 1 == length), and the per-step
//      active-row counts summing to the live row steps. The harness sizes
//      the ring (65536) so no record is overwritten mid-run.
//
// RunSchedule returns "" on success or a failure message that embeds the
// schedule's replay line (seed + flavor), so both consumers — the gtest
// smoke tests in tests/test_continuous.cc (fixed seeds, part of ctest) and
// the standalone sweeper tests/sched_harness.cc (--runs/--seed, thousands
// of schedules, nightly CI) — report replayable failures. This header is
// deliberately gtest-free so the harness binary stays assertion-framework
// independent.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/codegen/dense_kernels.h"
#include "src/core/compiler.h"
#include "src/models/lstm.h"
#include "src/models/workloads.h"
#include "src/runtime/ndarray.h"
#include "src/runtime/object.h"
#include "src/serve/server.h"
#include "src/vm/vm.h"
#include "tests/sched_fuzz.h"

namespace nimble {
namespace schedfuzz {

/// "" when bit-identical, else a description of the first divergence.
inline std::string CompareBits(const runtime::NDArray& got,
                               const runtime::NDArray& want, size_t index) {
  std::ostringstream os;
  if (got.shape() != want.shape()) {
    os << "request " << index << ": shape mismatch";
    return os.str();
  }
  const float* pg = got.data<float>();
  const float* pw = want.data<float>();
  for (int64_t j = 0; j < got.num_elements(); ++j) {
    if (pg[j] != pw[j]) {
      os << "request " << index << ": bit divergence at flat index " << j
         << " (got " << pg[j] << ", want " << pw[j] << ")";
      return os.str();
    }
  }
  return "";
}

struct ContinuousHarness {
  models::LSTMModel model;
  std::shared_ptr<vm::Executable> exec;
  int64_t input_size = 8;

  explicit ContinuousHarness(int hidden_size = 12, int num_layers = 1,
                             uint64_t weight_seed = 7) {
    models::LSTMConfig config;
    config.input_size = input_size;
    config.hidden_size = hidden_size;
    config.num_layers = num_layers;
    config.seed = weight_seed;
    config.emit_batched = true;
    model = models::BuildLSTM(config);
    exec = ExecFor(codegen::kTileRows);
  }

  /// The model compiled with `dispatch_variants` residue-specialized dense
  /// kernels, once per count; the full table is `exec`.
  std::shared_ptr<vm::Executable> ExecFor(int dispatch_variants) {
    std::shared_ptr<vm::Executable>& cached = by_variants_[dispatch_variants];
    if (cached == nullptr) cached = Compile(dispatch_variants);
    return cached;
  }

  /// Replays `schedule` against a `num_slots`-slot continuous server whose
  /// executable dispatches between `dispatch_variants` dense kernels.
  /// Returns "" on success, else the first failure (with the replay line).
  std::string RunSchedule(const FuzzSchedule& schedule, int64_t num_slots,
                          int dispatch_variants = codegen::kTileRows) {
    using runtime::MakeTensor;
    using runtime::NDArray;
    const size_t n = schedule.requests.size();

    // Inputs and the sequential reference, from the schedule's own seed
    // (offset so the input stream is independent of the arrival stream).
    support::Rng rng(schedule.seed ^ 0xc0ffee);
    std::vector<NDArray> inputs;
    std::vector<NDArray> expected;
    inputs.reserve(n);
    expected.reserve(n);
    {
      vm::VirtualMachine sequential(exec);
      for (const FuzzRequest& r : schedule.requests) {
        NDArray x = models::RandomSequence(r.length, input_size, rng);
        inputs.push_back(x);
        expected.push_back(runtime::AsTensor(sequential.Invoke(
            "main",
            {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(r.length))})));
      }
    }

    serve::ServeConfig config;
    config.num_workers = 1;  // unused: a pure-continuous server has no pool
    // Big enough that a sweep's longest schedule never wraps the ring: the
    // journal invariants below need every step of the run on record.
    config.step_journal.ring_capacity = 65536;
    serve::Server server(config);
    serve::ModelConfig mc;
    mc.exec = ExecFor(dispatch_variants);
    // Roomy queue: this driver asserts serving invariants, not shedding
    // (admission-overflow behaviour has its own tests).
    mc.queue_capacity = n + 1;
    mc.batch.continuous = true;
    mc.batch.continuous_slots = num_slots;
    try {
      server.AddModel("lstm", std::move(mc));
    } catch (const std::exception& e) {
      return std::string("registration failed: ") + e.what() + " " +
             schedule.Describe();
    }
    server.Start();

    struct Completion {
      std::atomic<bool> done{false};
      runtime::ObjectRef result;
      std::exception_ptr error;
      obs::TraceContext trace{};
    };
    std::vector<Completion> completions(n);

    for (size_t i = 0; i < n; ++i) {
      const FuzzRequest& r = schedule.requests[i];
      if (r.arrival_gap_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(r.arrival_gap_us));
      }
      Completion* c = &completions[i];
      auto admit = server.TrySubmitCallback(
          "lstm",
          {MakeTensor(inputs[i]), MakeTensor(NDArray::Scalar<int64_t>(
                                      schedule.requests[i].length))},
          r.length,
          [c](runtime::ObjectRef result, std::exception_ptr error,
              const obs::TraceContext& trace) {
            c->result = std::move(result);
            c->error = error;
            c->trace = trace;
            c->done.store(true, std::memory_order_release);
          });
      if (!admit.accepted()) {
        std::ostringstream os;
        os << "request " << i << " not admitted " << schedule.Describe();
        return os.str();
      }
    }

    // Drain joins the runner, which exits only after retiring every slot;
    // every callback has therefore fired by the time this returns.
    server.Drain();

    for (size_t i = 0; i < n; ++i) {
      if (!completions[i].done.load(std::memory_order_acquire)) {
        std::ostringstream os;
        os << "request " << i << " never completed " << schedule.Describe();
        return os.str();
      }
      if (completions[i].error != nullptr) {
        std::string what = "unknown error";
        try {
          std::rethrow_exception(completions[i].error);
        } catch (const std::exception& e) {
          what = e.what();
        } catch (...) {
        }
        std::ostringstream os;
        os << "request " << i << " failed: " << what << " "
           << schedule.Describe();
        return os.str();
      }
      std::string diff = CompareBits(runtime::AsTensor(completions[i].result),
                                     expected[i], i);
      if (!diff.empty()) return diff + " " + schedule.Describe();
    }

    // FIFO admission: the runner splices in queue order on one thread, so
    // splice (dispatch) timestamps must be non-decreasing in submission
    // order.
    for (size_t i = 1; i < n; ++i) {
      if (completions[i].trace.dispatch < completions[i - 1].trace.dispatch) {
        std::ostringstream os;
        os << "FIFO violation: request " << i << " spliced before request "
           << (i - 1) << " " << schedule.Describe();
        return os.str();
      }
    }

    // Slot-map accounting invariants over the whole run.
    auto snap = server.stats("lstm");
    int64_t total_len = 0;
    for (const FuzzRequest& r : schedule.requests) total_len += r.length;
    std::ostringstream os;
    if (snap.splices != static_cast<int64_t>(n)) {
      os << "splices " << snap.splices << " != requests " << n;
    } else if (snap.completed != static_cast<int64_t>(n) || snap.failed != 0) {
      os << "completed " << snap.completed << " failed " << snap.failed
         << " != requests " << n;
    } else if (snap.continuous_row_steps - snap.continuous_idle_row_steps !=
               total_len) {
      os << "live row steps "
         << (snap.continuous_row_steps - snap.continuous_idle_row_steps)
         << " != total request length " << total_len
         << " (a slot held a request for the wrong number of steps)";
    } else if (snap.continuous_row_steps !=
               snap.continuous_steps * num_slots) {
      os << "row steps " << snap.continuous_row_steps << " != steps "
         << snap.continuous_steps << " * slots " << num_slots;
    } else if (snap.packed_batches != 0 || snap.padded_elements != 0) {
      os << "continuous path reported packed/padded batches";
    }
    std::string failure = os.str();
    if (!failure.empty()) return failure + " " + schedule.Describe();

    // Step-journal cross-check against the same ground truth. The journal
    // is written by the runner thread only; after Drain() the runner has
    // joined, so this read races with nothing.
    failure = CheckJournal(server, schedule, snap.continuous_steps, num_slots,
                           completions.data(), n);
    if (!failure.empty()) return failure + " " + schedule.Describe();
    return "";
  }

 private:
  std::map<int, std::shared_ptr<vm::Executable>> by_variants_;

  std::shared_ptr<vm::Executable> Compile(int dispatch_variants) const {
    ir::Module mod = model.module;
    core::CompileOptions opts;
    opts.batched_entries = {model.batched_spec};
    opts.dense_dispatch_variants = dispatch_variants;
    return core::Compile(mod, opts).executable;
  }

  template <typename Completion>
  std::string CheckJournal(const serve::Server& server,
                           const FuzzSchedule& schedule, int64_t steps,
                           int64_t num_slots, const Completion* completions,
                           size_t n) {
    std::ostringstream os;
    auto views = server.continuous_models();
    if (views.size() != 1 || views[0].journal == nullptr) {
      return "expected one continuous model with a journal";
    }
    const obs::StepJournal& journal = *views[0].journal;
    std::vector<obs::StepRecord> records = journal.Tail(journal.config().ring_capacity);
    if (journal.steps_recorded() != steps ||
        records.size() != static_cast<size_t>(steps)) {
      os << "journal recorded " << journal.steps_recorded() << " steps ("
         << records.size() << " retained) != stats steps " << steps;
      return os.str();
    }

    // Per-request splice/retire record steps, keyed by trace id.
    struct Residency {
      int64_t splice_step = -1;
      int64_t retire_step = -1;
      int64_t slot = -1;
      int64_t length = 0;
    };
    std::map<int64_t, Residency> residency;
    int64_t active_sum = 0;
    for (size_t i = 0; i < records.size(); ++i) {
      const obs::StepRecord& record = records[i];
      if (record.step != static_cast<int64_t>(i) || !record.ok ||
          record.num_slots != num_slots) {
        os << "journal step " << i << " malformed (seq " << record.step
           << ", ok " << record.ok << ", slots " << record.num_slots << ")";
        return os.str();
      }
      active_sum += record.active_rows;
      for (const obs::StepEvent& event : record.events) {
        Residency& r = residency[event.request_id];
        if (event.kind == obs::StepEvent::Kind::kSplice) {
          if (r.splice_step != -1) {
            os << "request " << event.request_id << " spliced twice";
            return os.str();
          }
          r.splice_step = record.step;
          r.slot = event.slot;
          r.length = event.length;
        } else {
          if (r.splice_step == -1 || r.retire_step != -1) {
            os << "request " << event.request_id
               << " retired without a matching splice";
            return os.str();
          }
          r.retire_step = record.step;
        }
      }
    }

    // Σ active rows over all steps is exactly the live row steps: each
    // request contributes one active row per step of its residency.
    int64_t total_len = 0;
    for (const FuzzRequest& r : schedule.requests) total_len += r.length;
    if (active_sum != total_len) {
      os << "journal active-row sum " << active_sum
         << " != total request length " << total_len;
      return os.str();
    }

    if (residency.size() != n) {
      os << "journal saw " << residency.size() << " requests != " << n;
      return os.str();
    }
    for (size_t i = 0; i < n; ++i) {
      const obs::TraceContext& trace = completions[i].trace;
      auto it = residency.find(trace.id);
      if (it == residency.end()) {
        os << "request " << i << " (id " << trace.id << ") not in journal";
        return os.str();
      }
      const Residency& r = it->second;
      const int64_t length = schedule.requests[i].length;
      if (r.retire_step == -1 ||
          r.retire_step - r.splice_step + 1 != length || r.length != length) {
        os << "request " << i << " resident steps "
           << (r.retire_step - r.splice_step + 1) << " != length " << length;
        return os.str();
      }
      // The journal and the request's own trace must tell the same story.
      if (trace.slot != r.slot || trace.splice_step != r.splice_step ||
          trace.retire_step != r.retire_step ||
          trace.steps_resident() != length || !trace.continuous) {
        os << "request " << i << " trace (slot " << trace.slot
           << ", splice " << trace.splice_step << ", retire "
           << trace.retire_step << ") disagrees with journal (slot " << r.slot
           << ", splice " << r.splice_step << ", retire " << r.retire_step
           << ")";
        return os.str();
      }
    }
    return "";
  }
};

}  // namespace schedfuzz
}  // namespace nimble
