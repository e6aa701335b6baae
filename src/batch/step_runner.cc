#include "src/batch/step_runner.h"

#include <cstring>
#include <sstream>
#include <utility>

#include "src/batch/batch_runner.h"
#include "src/batch/pack_plan.h"
#include "src/obs/memory.h"
#include "src/serve/vm_pool.h"
#include "src/support/logging.h"

namespace nimble {
namespace batch {

using runtime::DataType;
using runtime::NDArray;
using runtime::ObjectRef;

ContinuousCheck AnalyzeContinuous(const vm::Executable& exec,
                                  const std::string& function,
                                  int64_t num_slots) {
  ContinuousCheck check;
  if (num_slots < 1) {
    check.reason = "continuous serving needs at least one slot";
    return check;
  }
  const vm::BatchedEntrySpec* spec = exec.FindBatched(function);
  if (spec == nullptr) {
    check.reason = "no batched entry for '" + function + "'";
    return check;
  }
  if (spec->step_function.empty()) {
    check.reason = "model emits no step twin (BatchedEntrySpec::step_function)";
    return check;
  }
  if (spec->num_state_args < 1 || spec->state_width < 1 ||
      spec->feature_width < 1) {
    check.reason = "step twin needs recurrent state and a feature width";
    return check;
  }
  if (spec->result_state < 0 || spec->result_state >= spec->num_state_args) {
    std::ostringstream why;
    why << "result_state " << spec->result_state << " outside [0, "
        << spec->num_state_args << ")";
    check.reason = why.str();
    return check;
  }
  if (exec.variant.is_variant()) {
    // A variant bakes one (Lmax, B) shape; the persistent batch has no
    // Lmax at all. Continuous models run the generic executable only.
    check.reason = "continuous serving requires the generic executable, "
                   "not a length-specialized variant";
    return check;
  }
  std::vector<runtime::ShapeVec> shapes = {{num_slots, spec->feature_width},
                                            {num_slots, 1}};
  shapes.resize(2 + static_cast<size_t>(spec->num_state_args),
                {num_slots, spec->state_width});
  std::string why;
  check.step = vm::SpecializeShapes(exec, spec->step_function, shapes, &why);
  if (!check.step) {
    check.reason = "step twin does not shape-specialize for " +
                   std::to_string(num_slots) + " slots: " + why;
    return check;
  }
  check.spec = spec;
  return check;
}

StepRunner::StepRunner(std::shared_ptr<vm::Executable> exec,
                       std::string function, int64_t num_slots,
                       serve::Channel<serve::Request>* queue,
                       serve::ServeStats* stats, obs::Tracer* tracer,
                       obs::StepJournal* journal)
    : exec_(std::move(exec)),
      function_(std::move(function)),
      num_slots_(num_slots),
      queue_(queue),
      stats_(stats),
      tracer_(tracer),
      journal_(journal),
      journal_on_(journal != nullptr && journal->enabled()) {
  NIMBLE_CHECK(exec_ != nullptr);
  NIMBLE_CHECK(queue_ != nullptr);
  ContinuousCheck check = AnalyzeContinuous(*exec_, function_, num_slots_);
  NIMBLE_CHECK(check.ok()) << "StepRunner on an ineligible executable: "
                           << check.reason;
  spec_ = check.spec;
  step_ = std::move(*check.step);
  allocator_ = serve::LeaseWorkerAllocator();
  vm_ = std::make_unique<vm::VirtualMachine>(exec_, allocator_);
  // Per-category VM timing feeds both the per-request exec-span fold and
  // the journal's per-step profile; off when neither consumer is on (the
  // obs-off half of the overhead A/B pays for no timers).
  vm_->EnableProfiling((tracer_ != nullptr && tracer_->enabled()) ||
                       journal_on_);
  // Persistent step arguments. Zero-filled: idle rows stay all-zero until a
  // splice claims them, so the very first step reads defined memory.
  auto zeros = [this](runtime::ShapeVec shape, DataType dtype) {
    NDArray arr = NDArray::Empty(std::move(shape), dtype,
                                 runtime::Device::CPU(), allocator_);
    std::memset(arr.raw_data(), 0, arr.nbytes());
    return arr;
  };
  x_t_ = zeros({num_slots_, spec_->feature_width}, DataType::Float32());
  active_ = zeros({num_slots_, 1}, DataType::Int64());
  states_.reserve(static_cast<size_t>(spec_->num_state_args));
  for (int32_t s = 0; s < spec_->num_state_args; ++s) {
    states_.push_back(zeros({num_slots_, spec_->state_width},
                            DataType::Float32()));
  }
}

StepRunner::~StepRunner() {
  Join();
  // Step arguments hold this allocator's buffers; drop them before the
  // allocator goes back to the registry. Retired result rows handed to
  // clients keep it alive on their own (see vm_pool.h).
  x_t_ = NDArray();
  active_ = NDArray();
  states_.clear();
  vm_.reset();
  serve::ReleaseWorkerAllocator(allocator_);
}

void StepRunner::Start() {
  NIMBLE_CHECK(!thread_.joinable()) << "StepRunner started twice";
  thread_ = std::thread([this] { Loop(); });
}

void StepRunner::Join() {
  if (joined_) return;
  if (thread_.joinable()) thread_.join();
  joined_ = true;
}

void StepRunner::Loop() {
  SlotMap slots(num_slots_);
  while (true) {
    // Admission, at step boundaries only. An empty slot map blocks on the
    // queue (no requests -> no spinning); otherwise drain without waiting —
    // in-flight rows must keep stepping while the queue is quiet.
    if (slots.Empty()) {
      std::optional<serve::Request> request = queue_->Pop();
      if (!request.has_value()) break;  // queue closed and fully drained
      Admit(slots, std::move(*request));
    }
    while (!slots.Full()) {
      std::optional<serve::Request> request = queue_->TryPop();
      if (!request.has_value()) break;
      Admit(slots, std::move(*request));
    }
    if (slots.Empty()) continue;  // every admitted request was rejected
    RunStep(slots);
  }
  // The loop only falls out when the queue is closed+drained AND the map is
  // empty; a live slot here would be a leaked request.
  NIMBLE_CHECK(slots.Empty()) << "StepRunner exiting with live slots";
}

void StepRunner::Admit(SlotMap& slots, serve::Request request) {
  std::string reason;
  const NDArray* seq = SeqTensor(*spec_, request, &reason);
  int64_t length =
      seq != nullptr ? SeqLength(*spec_, request, *seq, &reason) : -1;
  // Splice time is this request's dispatch: queue wait ends here, exec
  // starts here — even though it shares every following step invocation
  // with its slot-mates.
  auto now = serve::Clock::now();
  request.dispatch_time = now;
  if (request.trace.enabled) {
    request.trace.dispatch = now;
    // No packed tensor is built on this path; the pack span collapses to
    // zero width at the splice boundary, and `packed` stays false — the
    // request shares steps via slot residency, not a padded gather (the
    // stats side agrees: packed_batches is 0 on this path).
    request.trace.pack_start = now;
    request.trace.pack_end = now;
    request.trace.packed = false;
  }
  if (length < 0) {
    Complete(std::move(request), nullptr,
             std::make_exception_ptr(
                 Error("continuous admission rejected: " + reason)));
    return;
  }
  // Queued-behind-splice wait: enqueue -> this splice. This is exactly the
  // trace's queue span (dispatch was stamped above).
  double wait_us =
      now > request.enqueue_time
          ? std::chrono::duration<double, std::micro>(now -
                                                      request.enqueue_time)
                .count()
          : 0.0;
  int64_t id = request.id;
  int64_t slot = slots.Splice(std::move(request), length);
  // Zero the slot's state rows: a spliced row starts from exactly the solo
  // initial state (the previous tenant's final values must not leak into
  // the new request's arithmetic). The returned state tensors are the VM's
  // freshly-allocated outputs that only this runner still reads, so the
  // in-place row write aliases nothing.
  for (NDArray& state : states_) {
    std::memset(state.data<float>() + slot * spec_->state_width, 0,
                static_cast<size_t>(spec_->state_width) * sizeof(float));
  }
  // Step-level trace detail: the slot this request occupies and the step
  // seq its first computed step will carry (the next RunStep). The trace's
  // exec profile and byte counts start at zero and accumulate, step by
  // step, for as long as the request stays resident.
  obs::TraceContext& trace = slots.At(slot).request.trace;
  if (trace.enabled) {
    trace.continuous = true;
    trace.slot = slot;
    trace.splice_step = step_seq_;
  }
  if (journal_on_) {
    pending_events_.push_back(obs::StepEvent{obs::StepEvent::Kind::kSplice,
                                             id, slot, length});
  }
  PublishLiveRows(slots.occupied());
  last_progress_ns_.store(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          obs::SteadyClock::now().time_since_epoch())
          .count(),
      std::memory_order_relaxed);
  if (stats_ != nullptr) stats_->RecordSplice(wait_us);
}

void StepRunner::RunStep(SlotMap& slots) {
  const auto step_start = obs::SteadyClock::now();
  const int64_t B = num_slots_;
  const int64_t D = spec_->feature_width;
  const int64_t W = spec_->state_width;
  float* xp = x_t_.data<float>();
  int64_t* ap = active_.data<int64_t>();
  for (int64_t i = 0; i < B; ++i) {
    if (slots.IsOccupied(i)) {
      SlotMap::Slot& slot = slots.At(i);
      const NDArray& seq = runtime::AsTensor(
          slot.request.args[static_cast<size_t>(spec_->seq_arg)]);
      std::memcpy(xp + i * D, seq.data<float>() + slot.pos * D,
                  static_cast<size_t>(D) * sizeof(float));
      if (slot.request.trace.enabled) {
        slot.request.trace.copied_bytes +=
            D * static_cast<int64_t>(sizeof(float));
      }
      ap[i] = 1;
    } else {
      // Idle rows compute on zeros: deterministic garbage the `where`
      // freeze discards, and no stale tenant data survives a retire.
      std::memset(xp + i * D, 0, static_cast<size_t>(D) * sizeof(float));
      ap[i] = 0;
    }
  }
  int64_t occupied = slots.occupied();
  if (occupied > 0) {
    // One ledger add per gather pass (not per row): the step-state copy
    // site must stay inside the hot loop's overhead budget.
    obs::RecordCopy(obs::CopySite::kStepState,
                    occupied * D * static_cast<int64_t>(sizeof(float)));
  }

  std::vector<ObjectRef> args;
  args.reserve(2 + states_.size());
  args.push_back(runtime::MakeTensor(x_t_));
  args.push_back(runtime::MakeTensor(active_));
  for (const NDArray& state : states_) {
    args.push_back(runtime::MakeTensor(state));
  }
  const bool profiling = (tracer_ != nullptr && tracer_->enabled()) ||
                         journal_on_;
  obs::ExecProfile mark;
  int64_t alloc_mark = 0;
  if (profiling) {
    mark = VMProfileSince(*vm_);
    alloc_mark = allocator_->stats().bytes_allocated;
  }

  auto progress = [this](obs::SteadyClock::time_point now) {
    steps_completed_.fetch_add(1, std::memory_order_relaxed);
    last_progress_ns_.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  };
  auto push_record = [&](obs::SteadyClock::time_point end, bool ok,
                         const obs::ExecProfile& vm_delta) {
    if (!journal_on_) return;
    obs::StepRecord record;
    record.step = step_seq_;
    record.start = step_start;
    record.duration_us = std::chrono::duration_cast<std::chrono::microseconds>(
                             end - step_start)
                             .count();
    record.active_rows = occupied;
    record.num_slots = B;
    record.ok = ok;
    record.events = std::move(pending_events_);
    pending_events_.clear();
    record.vm = vm_delta;
    journal_->Push(std::move(record));
  };

  ObjectRef result;
  try {
    result = vm_->Invoke(step_, std::move(args));
  } catch (...) {
    // The step poisoned every in-flight row's state at once; fail them all
    // and keep serving — the next splice zeroes its rows regardless. A
    // throwing step is still forward progress for the watchdog (the runner
    // is serving errors, not wedged), and still a journal record: its
    // retire events keep splices and retires balanced.
    FailAll(slots, std::current_exception());
    auto now = obs::SteadyClock::now();
    push_record(now, /*ok=*/false, obs::ExecProfile{});
    progress(now);
    step_seq_++;
    return;
  }

  // Fold this invocation's VM-profile delta: the journal records it per
  // step; each live slot's trace accumulates it (every resident request is
  // attributed the full step, the same semantics as the packed path).
  obs::ExecProfile step_vm;
  if (profiling) {
    step_vm = VMProfileSince(*vm_, mark);
    int64_t step_alloc = allocator_->stats().bytes_allocated - alloc_mark;
    for (int64_t i = 0; i < B; ++i) {
      if (!slots.IsOccupied(i)) continue;
      obs::TraceContext& trace = slots.At(i).request.trace;
      if (!trace.enabled) continue;
      trace.vm.kernel_nanos += step_vm.kernel_nanos;
      trace.vm.shape_func_nanos += step_vm.shape_func_nanos;
      trace.vm.other_nanos += step_vm.other_nanos;
      trace.vm.instructions += step_vm.instructions;
      // Allocator traffic is shared per step, like the VM profile: every
      // resident row is attributed the full invocation's delta.
      trace.alloc_bytes += step_alloc;
    }
  }

  // Adopt the returned states as next step's inputs.
  runtime::ADTObj* tuple = runtime::AsADT(result);
  NIMBLE_CHECK_EQ(tuple->fields.size(), states_.size())
      << "step twin returned the wrong number of states";
  for (size_t s = 0; s < states_.size(); ++s) {
    states_[s] = runtime::AsTensor(tuple->fields[s]);
  }

  // Retire every slot whose row just took its final step.
  const NDArray& result_state =
      states_[static_cast<size_t>(spec_->result_state)];
  for (int64_t i = 0; i < B; ++i) {
    if (!slots.IsOccupied(i)) continue;
    SlotMap::Slot& slot = slots.At(i);
    slot.pos++;
    if (slot.pos < slot.length) continue;
    auto exec_end = obs::SteadyClock::now();
    // Copy, not slice: the request's result must not pin the whole
    // persistent state tensor (same rule as PackPlan::Unpack).
    NDArray out = NDArray::Empty({1, W}, DataType::Float32(),
                                 runtime::Device::CPU(), allocator_);
    std::memcpy(out.data<float>(), result_state.data<float>() + i * W,
                static_cast<size_t>(W) * sizeof(float));
    // Retires are rare (one per request), so a per-row ledger add is fine.
    obs::RecordCopy(obs::CopySite::kStepState,
                    W * static_cast<int64_t>(sizeof(float)));
    if (slot.request.trace.enabled) {
      slot.request.trace.copied_bytes +=
          W * static_cast<int64_t>(sizeof(float));
    }
    Retire(slots, i, exec_end, obs::SteadyClock::now(),
           runtime::MakeTensor(std::move(out)), nullptr);
  }
  PublishLiveRows(slots.occupied());

  auto step_end = obs::SteadyClock::now();
  double duration_us =
      std::chrono::duration<double, std::micro>(step_end - step_start)
          .count();
  if (stats_ != nullptr) stats_->RecordStep(occupied, B, duration_us);
  push_record(step_end, /*ok=*/true, step_vm);
  progress(step_end);
  step_seq_++;
}

void StepRunner::FailAll(SlotMap& slots, std::exception_ptr error) {
  for (int64_t i = 0; i < num_slots_; ++i) {
    if (!slots.IsOccupied(i)) continue;
    auto now = obs::SteadyClock::now();
    Retire(slots, i, now, now, nullptr, error);
  }
  PublishLiveRows(0);
}

void StepRunner::Retire(SlotMap& slots, int64_t i,
                        obs::SteadyClock::time_point exec_end,
                        obs::SteadyClock::time_point unpack_end,
                        ObjectRef result, std::exception_ptr error) {
  int64_t length = slots.At(i).length;
  serve::Request request = slots.Retire(i);
  if (request.trace.enabled) {
    request.trace.exec_end = exec_end;
    request.trace.unpack_end = unpack_end;
    request.trace.retire_step = step_seq_;
  }
  if (journal_on_) {
    pending_events_.push_back(obs::StepEvent{obs::StepEvent::Kind::kRetire,
                                             request.id, i, length});
  }
  Complete(std::move(request), std::move(result), std::move(error));
}

void StepRunner::PublishLiveRows(int64_t live) {
  live_rows_.store(live, std::memory_order_relaxed);
  if (stats_ != nullptr) stats_->SetSlotOccupancy(live);
}

void StepRunner::Complete(serve::Request request, ObjectRef result,
                          std::exception_ptr error) {
  bool ok = error == nullptr;
  if (ok) {
    request.promise.set_value(result);
  } else {
    request.promise.set_exception(error);
  }
  // Stats before the completion hook, same as the pool workers: a client
  // that receives its response and immediately scrapes /stats must find
  // its own request counted.
  auto now = serve::Clock::now();
  double latency_us = std::chrono::duration<double, std::micro>(
                          now - request.enqueue_time)
                          .count();
  double queue_wait_us =
      request.dispatch_time > request.enqueue_time
          ? std::chrono::duration<double, std::micro>(request.dispatch_time -
                                                      request.enqueue_time)
                .count()
          : 0.0;
  double exec_us = latency_us - queue_wait_us;
  if (stats_ != nullptr) {
    stats_->RecordCompletion(latency_us, queue_wait_us, exec_us, ok, now);
  }
  requests_completed_.fetch_add(1, std::memory_order_relaxed);
  NotifyComplete(request, std::move(result), std::move(error));
  FinishTrace(tracer_, request, ok);
}

}  // namespace batch
}  // namespace nimble
