// Public compilation entry point: the full Nimble pipeline of Figure 2.
//
//   ir::Module  --[TypeInfer, FoldConstants, FuseLSTMCell, ToANF,
//                  TypeInfer, FuseOps, DCE, ManifestAlloc,
//                  DevicePlacement, MemoryPlan]-->  vm::Executable
//
// Typical use:
//
//   ir::Module mod = models::BuildLSTM(...);
//   core::CompileResult result = core::Compile(mod, core::CompileOptions());
//   vm::VirtualMachine machine(result.executable);
//   auto out = machine.Invoke("main", {...});
#pragma once

#include <memory>

#include "src/ir/module.h"
#include "src/pass/memory.h"
#include "src/pass/transforms.h"
#include "src/runtime/device.h"
#include "src/vm/executable.h"

namespace nimble {
namespace core {

struct CompileOptions {
  bool fuse_ops = true;
  bool fuse_lstm_cell = true;
  bool memory_plan = true;
  /// Device kernels execute on; CPU by default, SimGPU to exercise
  /// heterogeneous placement (§4.4).
  runtime::Device kernel_device = runtime::Device::CPU();
  /// Number of residue-specialized dense kernel variants to dispatch
  /// between at runtime (§4.5); 8 = full dispatch, 1 = generic kernel only.
  /// Written into the produced executable's own dispatch table — compiling
  /// never touches global dispatch state, so it is safe while other
  /// executables are serving (see docs/ARCHITECTURE.md).
  int dense_dispatch_variants = 8;
  /// Cache-blocking config stamped on the executable for its dense kernels
  /// (src/codegen/tuner.h). Defaults to the generic DenseConfig; the exec
  /// cache (src/serve/exec_cache.cc) passes a tuner-measured config when it
  /// background-compiles a shape-specialized variant. Set
  /// `dense_config_tuned` when the config came from measurement rather than
  /// transfer/default — serving surfaces the flag per variant in /stats.
  codegen::DenseConfig dense_config;
  bool dense_config_tuned = false;
  /// Batched-entry descriptors supplied by the model builder (e.g.
  /// models::BuildLSTM emits @main_batched and fills LSTMModel::batched_spec).
  /// Copied into the executable — Compile checks that both the per-request
  /// and the batched function actually exist in the module — where the
  /// serving layer's tensor-batching path (src/batch/) discovers them.
  std::vector<vm::BatchedEntrySpec> batched_entries;
  /// Shape-bucket specialization (§4.5 extended from kernels to whole
  /// executables; consumed by serve::ExecCache). When > 0, every batched
  /// entry above is specialized to this exact packed sequence length and
  /// its recursion unrolled into straight-line bytecode before the pipeline
  /// runs (pass::SpecializeBatchedEntry, pass::UnrollBatchedLoop), and
  /// the produced executable is stamped as a *variant*
  /// (vm::Executable::variant): the packing layer only routes batches whose
  /// requests all have exactly this length to it.
  int64_t specialize_length = 0;
  /// With specialize_length: also bake this exact batch size into the
  /// batched entry, making its dataflow fully static — no runtime shape
  /// functions, compile-time storage allocation, exact memory planning. The
  /// variant then only accepts full batches of exactly this size; 0 keeps
  /// the batch dimension symbolic.
  int64_t specialize_batch = 0;
};

struct CompileResult {
  std::shared_ptr<vm::Executable> executable;
  pass::FusionStats fusion;
  int lstm_cells_fused = 0;
  pass::MemoryPlanStats memory;
  pass::DevicePlaceStats devices;
};

/// Runs the full pipeline. The input module is mutated in place (each pass
/// rewrites its functions); pass a copy to keep the original.
CompileResult Compile(ir::Module& mod, const CompileOptions& options = {});

}  // namespace core
}  // namespace nimble
