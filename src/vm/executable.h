// VM executable (§5): platform-independent bytecode + constant pool +
// packed-kernel table + residue-dispatch table, with binary serialization so
// compiled models can be shipped to and loaded on any platform.
//
// Thread-safety contract (serving subsystem, src/serve/):
//   An Executable is *immutable once built* — the compiler (or Load) fills
//   the public fields and never mutates them afterwards. All accessors are
//   const and read-only, and constants are NDArrays whose storage is only
//   read at execution time, so one std::shared_ptr<Executable> may be shared
//   by any number of VirtualMachine instances on concurrent threads with no
//   synchronization. Do not mutate the public fields after handing the
//   executable to a VM. (The dispatch table's observability counters are
//   internally atomic and exempt from the immutability rule.)
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/codegen/dispatch.h"
#include "src/codegen/tuner.h"
#include "src/ir/attrs.h"
#include "src/runtime/ndarray.h"
#include "src/vm/batch_spec.h"
#include "src/vm/bytecode.h"

namespace nimble {
namespace vm {

/// One entry of the packed-call table referenced by InvokePacked.
/// Either a compute kernel (resolved in the kernel registry — which may be a
/// compiler-generated kernel or a third-party library routine, §5.2) or a
/// shape function (resolved in the op registry, §4.2).
struct PackedEntry {
  enum class Kind : uint8_t { kKernel = 0, kShapeFunc = 1 };
  Kind kind = Kind::kKernel;
  std::string name;      // kernel name, or op name for shape functions
  ir::Attrs attrs;       // call-site attributes
  int32_t num_inputs = 0;
  int32_t shape_mode = 0;  // op::ShapeFuncMode for kind == kShapeFunc
};

struct VMFunction {
  std::string name;
  int32_t num_params = 0;
  int32_t register_file_size = 0;
  std::vector<Instruction> instructions;
};

class Executable {
 public:
  std::vector<VMFunction> functions;
  std::map<std::string, int32_t> function_index;
  std::vector<runtime::NDArray> constants;
  std::vector<PackedEntry> packed;

  /// Residue-specialized dense dispatch table owned by this executable
  /// (§4.5). core::Compile configures it from
  /// CompileOptions::dense_dispatch_variants and Load restores it from the
  /// serialized form; it is never reconfigured afterwards. Every VM bound to
  /// this executable resolves dense kernels through this table (via
  /// kernels::KernelContext), so compiling another model — which builds its
  /// own executable and table — cannot perturb in-flight inference. Its hit
  /// counters are atomic; everything else is read-only after construction.
  codegen::DenseDispatchTable dispatch_table;

  /// Batched-entry descriptors (src/vm/batch_spec.h): per-request entry
  /// points that have a compiler-emitted packed twin the serving layer can
  /// invoke once per batch. Configured by core::Compile
  /// (CompileOptions::batched_entries), restored by Load, and — like every
  /// other field — immutable once the executable is visible to any VM.
  std::vector<BatchedEntrySpec> batched;

  /// The batched-entry spec for per-request entry `function`, or nullptr
  /// when the model has none (the serving layer then falls back to the
  /// per-request loop).
  const BatchedEntrySpec* FindBatched(const std::string& function) const;

  /// Shape-bucket specialization metadata (the executable cache,
  /// src/serve/exec_cache.h). A *variant* is an otherwise ordinary
  /// executable whose batched entry was compiled with the bucket's shape
  /// baked in (core::CompileOptions::specialize_length): `specialized_len`
  /// is the exact sequence length every packed request must have, and
  /// `specialized_batch`, when nonzero, the exact batch size — the packing
  /// layer (batch::AnalyzeBatch) enforces both and falls back to the
  /// model's generic executable otherwise. Zero-initialized for generic
  /// executables. Stamped by core::Compile before the executable escapes;
  /// immutable afterwards like every other field.
  struct VariantInfo {
    int64_t specialized_len = 0;    // 0 = generic executable
    int64_t specialized_batch = 0;  // 0 = batch dim left symbolic
    bool is_variant() const { return specialized_len > 0; }
  };
  VariantInfo variant;

  /// Cache-blocking config the dense kernels run with (src/codegen/tuner.h).
  /// core::Compile stamps it from CompileOptions::dense_config; the exec
  /// cache's background compile thread tunes a variant's exact baked shape
  /// and stamps the measured-best config before the variant is published
  /// (`dense_config_tuned` then flips to true; false = transferred/default
  /// config). Serialized with the executable. Immutable once the
  /// executable is visible to any VM.
  codegen::DenseConfig dense_config;
  bool dense_config_tuned = false;

  int32_t FunctionIndex(const std::string& name) const;

  /// Human-readable bytecode listing.
  std::string Disassemble() const;

  /// Binary serialization. The format is self-contained: bytecode,
  /// constants (weights stay in the pool and are referenced by LoadConst),
  /// the packed-call table, and the dispatch configuration — a loaded
  /// executable serves with the same kernel-variant policy it was compiled
  /// with.
  void Save(std::ostream& os) const;
  static std::shared_ptr<Executable> Load(std::istream& is);
  void SaveToFile(const std::string& path) const;
  static std::shared_ptr<Executable> LoadFromFile(const std::string& path);

  /// Total bytecode instruction count (all functions).
  size_t NumInstructions() const;
};

}  // namespace vm
}  // namespace nimble
