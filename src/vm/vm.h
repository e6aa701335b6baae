// Virtual machine interpreter (§5.2).
//
// Loads an executable and runs its bytecode in a dispatch loop. Objects in
// the register file are reference-counted and passed by reference, so
// register operations are cheap regardless of payload size. The interpreter
// optionally records a profile: per-opcode instruction counts plus kernel,
// shape-function and total time, with one clock pair per run and per packed
// call, not per instruction (used by the Table 4 overhead study: kernel
// latency vs "other instructions").
//
// Frames point at the VMFunction they run, so the same loop runs an
// executable's own functions and shape-specialized bodies built outside it
// (src/vm/specialize.h: ShapeOf, shape functions and dynamic allocation
// sizes resolved once for fixed argument shapes). A specialized body is
// ordinary bytecode over the bound executable's constants and packed
// calls; Invoke checks that it was built for that executable and for the
// shapes of the arguments it is given.
//
// Thread-safety contract (serving subsystem, src/serve/):
//   A VirtualMachine instance is single-threaded — it owns a mutable frame
//   stack and profile. Concurrency is achieved by running *many* VMs, one
//   per worker thread, all sharing one immutable Executable (cheap: a VM is
//   just a few pointers plus the recycled frame stack). Invoke is reusable:
//   each call starts from a clean frame stack, whose backing storage is
//   retained across calls so steady-state serving does not reallocate it.
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "src/runtime/allocator.h"
#include "src/runtime/object.h"
#include "src/support/logging.h"
#include "src/vm/executable.h"

namespace nimble {
namespace vm {

struct SpecializedFunction;

struct VMProfile {
  struct Entry {
    int64_t count = 0;
  };
  std::array<Entry, 20> per_opcode{};
  int64_t kernel_nanos = 0;      // InvokePacked on compute kernels
  int64_t shape_func_nanos = 0;  // InvokePacked on shape functions
  int64_t total_nanos = 0;
  int64_t instructions = 0;

  int64_t other_nanos() const { return total_nanos - kernel_nanos; }
  void Reset() { *this = VMProfile{}; }
  std::string ToString() const;
};

class VirtualMachine {
 public:
  /// `exec` may be null: serving pools construct their workers unbound and
  /// Rebind() them to the executable of each batch they pull. Invoking an
  /// unbound VM is an error.
  explicit VirtualMachine(std::shared_ptr<Executable> exec,
                          runtime::Allocator* allocator = nullptr);

  /// Runs a function by name (default: "main"). Single-threaded: only the
  /// thread that owns this VM may call Invoke (see the contract above).
  runtime::ObjectRef Invoke(const std::string& name,
                            std::vector<runtime::ObjectRef> args);
  runtime::ObjectRef Invoke(std::vector<runtime::ObjectRef> args) {
    return Invoke("main", std::move(args));
  }
  /// Runs a shape-specialized body (src/vm/specialize.h) through the same
  /// dispatch loop. Throws unless the VM is bound to the executable `fn`
  /// was built from and every argument is a tensor of the shape it was
  /// built for. `fn` must outlive the call.
  runtime::ObjectRef Invoke(const SpecializedFunction& fn,
                            std::vector<runtime::ObjectRef> args);

  void EnableProfiling(bool on) { profiling_ = on; }
  const VMProfile& profile() const { return profile_; }
  VMProfile& mutable_profile() { return profile_; }

  /// The bound executable; the VM must be bound (throws otherwise).
  const Executable& executable() const {
    NIMBLE_CHECK(exec_ != nullptr) << "VM has no executable bound";
    return *exec_;
  }
  /// The bound executable (shared with every other VM serving this model);
  /// null while the VM is unbound.
  const std::shared_ptr<Executable>& executable_ptr() const { return exec_; }
  runtime::Allocator* allocator() const { return allocator_; }

  /// Redirects allocations (e.g. to a per-worker pool). Must not be called
  /// while Invoke is running.
  void set_allocator(runtime::Allocator* allocator);

  /// Binds the VM to a different executable — how a serving pool worker
  /// switches between models. Equivalent to constructing a fresh VM minus
  /// the registry setup: the frame stack and profile are cleared, the
  /// allocator binding is kept. Cheap (a shared_ptr swap), single-threaded
  /// like Invoke: must not be called while Invoke is running, and only by
  /// the owning thread. `exec` must not be null.
  void Rebind(std::shared_ptr<Executable> exec);

  /// Returns the VM to its post-construction state: clears the frame stack
  /// (releasing any objects retained by an Invoke that threw) and the
  /// profile. Pool workers call this to recycle a VM between batches.
  void Reset();

 private:
  struct Frame {
    const VMFunction* fn;
    size_t pc = 0;
    std::vector<runtime::ObjectRef> regs;
    RegName caller_dst = -1;
  };

  /// Runs `fn` with `args` in a fresh frame stack.
  runtime::ObjectRef Call(const VMFunction& fn,
                          std::vector<runtime::ObjectRef> args);
  runtime::ObjectRef Run(Frame initial);
  void RunInstruction(const Instruction& inst, std::vector<Frame>& stack,
                      runtime::ObjectRef* final_result, bool* done);

  void RunPacked(const Instruction& inst, Frame& frame);

  std::shared_ptr<Executable> exec_;
  runtime::Allocator* allocator_;
  bool profiling_ = false;
  VMProfile profile_;
  /// Frame stack, recycled across Invoke calls (capacity is retained so
  /// repeated invocations don't reallocate it).
  std::vector<Frame> stack_;
};

}  // namespace vm
}  // namespace nimble
