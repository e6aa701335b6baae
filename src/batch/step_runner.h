// StepRunner: the continuous (iteration-level) batching execution loop.
//
// Classic serving (BatchScheduler + VMPool) batches whole requests: a group
// is admitted together, padded to its longest member, and the batch holds
// its workers until every row finishes. This runner replaces that with a
// persistent batch — a SlotMap of B rows over which it drives the model's
// single-step twin (vm::BatchedEntrySpec::step_function) one recurrence
// step per iteration:
//
//   loop:
//     splice   queued requests into free slots (FIFO, at this step
//              boundary only; the slot's state rows are zeroed — a spliced
//              row starts from exactly the solo initial state)
//     step     gather each live slot's next input row into x_t, invoke
//              the shape-specialized step_function once over all B rows,
//              adopt the returned states as next step's inputs
//     retire   every slot whose row just reached its own length: slice its
//              result row out of the result state, fulfil the promise,
//              run the completion hook, commit the trace — immediately,
//              not when the rest of the batch finishes
//
// Bit-identity: the step twin freezes inactive rows exactly (`where` on the
// active mask) and the repo's kernels compute rows independently in the
// same per-row order for any row count, so by induction over steps a
// request's row goes through the identical arithmetic sequence whether it
// ran solo, in a batch that opened and closed together, or spliced into
// the middle of a long-running batch. tests/sched_harness.cc drives
// thousands of randomized arrival/length schedules asserting exactly this
// (bitwise, against the sequential path) plus the slot-map invariants.
//
// Padding: zero by construction — no slot is ever padded to another slot's
// length. Every step still computes all B rows, so an idle slot (fewer
// live requests than slots) wastes its row's compute; that is reported
// honestly as its own metric (ServeStats::RecordStep ->
// continuous_idle_row_steps), never folded into the padding counters.
//
// Shapes: every step invocation sees the same argument shapes for the
// runner's whole life, so the runner never runs the step twin as compiled.
// AnalyzeContinuous specializes it once for num_slots (src/vm/
// specialize.h: ShapeOf, shape functions and dynamic storage sizes folded
// away, 69 -> 29 instructions for a 1-layer LSTM) and rejects a model whose
// step twin will not specialize; RunStep always invokes that body.
//
// Threading: one runner owns one thread, one VM, one SlotMap. It pops its
// model's RequestQueue directly (the queue stays the admission/backpressure
// boundary: TrySubmit still sheds with 429 upstream); a Server with
// continuous models never routes them through the BatchScheduler.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/batch/slot_map.h"
#include "src/obs/step_journal.h"
#include "src/obs/trace.h"
#include "src/runtime/allocator.h"
#include "src/runtime/ndarray.h"
#include "src/serve/channel.h"
#include "src/serve/request.h"
#include "src/serve/stats.h"
#include "src/vm/executable.h"
#include "src/vm/specialize.h"
#include "src/vm/vm.h"

namespace nimble {
namespace batch {

/// Outcome of AnalyzeContinuous: `spec != nullptr` means the executable can
/// serve `function` continuously, and `step` holds the step twin
/// specialized for the slot count; otherwise `reason` names the first
/// registration rule that fired.
struct ContinuousCheck {
  const vm::BatchedEntrySpec* spec = nullptr;
  std::optional<vm::SpecializedFunction> step;
  std::string reason;
  bool ok() const { return spec != nullptr; }
};

/// Decides whether `exec` can serve entry `function` with a persistent
/// batch of `num_slots` rows. Requires a time-major batched spec carrying a
/// step twin, a generic (non-variant) executable, recurrent state to carry
/// (num_state_args >= 1, result_state in range), and a step twin that
/// shape-specializes (vm::SpecializeShapes) for x_t [num_slots, D], active
/// [num_slots, 1] and states [num_slots, W].
ContinuousCheck AnalyzeContinuous(const vm::Executable& exec,
                                  const std::string& function,
                                  int64_t num_slots);

class StepRunner {
 public:
  /// `exec` must pass AnalyzeContinuous for `function` and `num_slots`
  /// (CHECKed). `queue` is the model's request queue; the runner drains it
  /// until Close()d and empty. `stats`/`tracer`/`journal` may be null. Constructs the VM on the caller's thread (the
  /// VM constructor populates the process kernel registries, which must
  /// happen before worker threads run); call Start() to begin serving.
  StepRunner(std::shared_ptr<vm::Executable> exec, std::string function,
             int64_t num_slots, serve::Channel<serve::Request>* queue,
             serve::ServeStats* stats, obs::Tracer* tracer,
             obs::StepJournal* journal = nullptr);

  /// Joins (the queue must already be closed) and releases the leased
  /// allocator.
  ~StepRunner();

  StepRunner(const StepRunner&) = delete;
  StepRunner& operator=(const StepRunner&) = delete;

  /// Starts the runner thread. Call exactly once.
  void Start();

  /// Waits for the runner to exit: every admitted request retired, queue
  /// closed and drained. Idempotent.
  void Join();

  int64_t num_slots() const { return num_slots_; }
  /// Requests retired (completed or failed) so far. Thread-safe, relaxed.
  int64_t requests_completed() const {
    return requests_completed_.load(std::memory_order_relaxed);
  }

  // Health published for the stall watchdog (obs::RunnerHealth). All
  // thread-safe, relaxed: the watchdog tolerates a stale read — it only
  // declares a stall after a multi-hundred-millisecond deadline.
  /// Slots currently holding live requests.
  int64_t live_rows() const {
    return live_rows_.load(std::memory_order_relaxed);
  }
  /// Step-twin invocations completed (including failed steps: a throwing
  /// step is still forward progress, not a wedge).
  int64_t steps_completed() const {
    return steps_completed_.load(std::memory_order_relaxed);
  }
  /// Steady-clock nanos of the last completed step or splice; 0 until the
  /// runner first makes progress.
  int64_t last_progress_ns() const {
    return last_progress_ns_.load(std::memory_order_relaxed);
  }

  /// The runner's leased allocator (never null), for per-model memory
  /// scopes (serve::Server::MemoryScopes / GET /debug/memory). Its stats()
  /// are safe to sample from any thread.
  runtime::PoolingAllocator* allocator() const { return allocator_; }

 private:
  void Loop();
  /// Validates and splices one request, or fails it in place (malformed
  /// arguments reject with an exception through the normal completion
  /// sequence — never into a slot).
  void Admit(SlotMap& slots, serve::Request request);
  /// One step over all slots: gather, invoke, adopt states, retire
  /// finished rows.
  void RunStep(SlotMap& slots);
  /// Fails every live slot with `error` (a thrown step poisons all
  /// in-flight states; fresh requests are unaffected).
  void FailAll(SlotMap& slots, std::exception_ptr error);
  /// Retires slot `i` at the current step: stamps the trace's exec and
  /// unpack ends and retire step, records the journal's retire event, and
  /// completes the request with `result` or `error`.
  void Retire(SlotMap& slots, int64_t i, obs::SteadyClock::time_point exec_end,
              obs::SteadyClock::time_point unpack_end,
              runtime::ObjectRef result, std::exception_ptr error);
  void Complete(serve::Request request, runtime::ObjectRef result,
                std::exception_ptr error);
  /// Publishes the live-slot count to the watchdog's health source and the
  /// slot-occupancy gauge, after every splice, retire scan and FailAll.
  void PublishLiveRows(int64_t live);

  std::shared_ptr<vm::Executable> exec_;
  const vm::BatchedEntrySpec* spec_;  // points into *exec_
  /// The step twin specialized for num_slots_ (built against *exec_).
  vm::SpecializedFunction step_;
  std::string function_;
  int64_t num_slots_;
  serve::Channel<serve::Request>* queue_;
  serve::ServeStats* stats_;
  obs::Tracer* tracer_;
  obs::StepJournal* journal_;
  /// Journal event accumulation is skipped entirely when false (journal
  /// null or disabled) — the journal-off half of the overhead A/B.
  bool journal_on_;
  runtime::PoolingAllocator* allocator_;  // leased, never null
  std::unique_ptr<vm::VirtualMachine> vm_;
  /// Persistent step arguments, reused across invocations: x_t [B, D],
  /// active [B, 1] i64, then num_state_args states [B, W]. States are
  /// replaced by each invocation's returned tensors (freshly allocated by
  /// the VM, so mutating rows between invocations aliases nothing).
  runtime::NDArray x_t_;
  runtime::NDArray active_;
  std::vector<runtime::NDArray> states_;
  /// Step sequence number, 0-based: splices at the boundary before step s
  /// carry splice_step = s; a row whose final step is s retires with
  /// retire_step = s, so retire_step - splice_step + 1 == length.
  /// Runner-thread only.
  int64_t step_seq_ = 0;
  /// Splice/retire events accumulated since the last journal push (splices
  /// in Admit, retires in RunStep/FailAll); moved into one StepRecord per
  /// step. Runner-thread only; unused when !journal_on_.
  std::vector<obs::StepEvent> pending_events_;
  std::atomic<int64_t> requests_completed_{0};
  std::atomic<int64_t> live_rows_{0};
  std::atomic<int64_t> steps_completed_{0};
  std::atomic<int64_t> last_progress_ns_{0};
  std::thread thread_;
  bool joined_ = false;
};

}  // namespace batch
}  // namespace nimble
