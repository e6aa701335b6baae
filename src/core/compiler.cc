#include "src/core/compiler.h"

#include "src/pass/type_infer.h"
#include "src/support/logging.h"
#include "src/vm/compiler.h"

namespace nimble {
namespace core {

CompileResult Compile(ir::Module& mod, const CompileOptions& options) {
  CompileResult result;

  if (options.specialize_length > 0) {
    NIMBLE_CHECK(!options.batched_entries.empty())
        << "specialize_length requires a batched entry to specialize";
    for (const vm::BatchedEntrySpec& spec : options.batched_entries) {
      // A variant's batches are guaranteed exact-length (batch::AnalyzeBatch
      // enforces the baked shape), so specialize the unmasked exact twin
      // when the builder emitted one — the per-row freeze masking is an
      // identity there. The stamping below rewires the spec onto it.
      const std::string& target = spec.exact_batched_function.empty()
                                      ? spec.batched_function
                                      : spec.exact_batched_function;
      pass::SpecializeBatchedEntry(&mod, target, options.specialize_length,
                                   options.specialize_batch);
      // The bound is now a constant: flatten the recursion (steps + the
      // final exit test) into straight-line IR.
      pass::UnrollBatchedLoop(&mod, target, options.specialize_length + 2);
    }
  }

  pass::InferTypes(&mod);
  pass::FoldConstants(&mod);
  if (options.fuse_lstm_cell) result.lstm_cells_fused = pass::FuseLSTMCell(&mod);
  pass::ToANF(&mod);
  pass::InferTypes(&mod);
  if (options.fuse_ops) result.fusion = pass::FuseOps(&mod);
  pass::DeadCodeElim(&mod);
  pass::ManifestAlloc(&mod);
  result.devices = pass::DevicePlacement(&mod, options.kernel_device);
  if (options.memory_plan) result.memory = pass::MemoryPlan(&mod);

  result.executable = vm::VMCompiler().Compile(mod);
  // Dispatch configuration is part of the executable, not process state:
  // the table is written here, before anyone else can see the executable,
  // and is read-only from then on. Compiling has no effect on models that
  // are already serving.
  result.executable->dispatch_table.Configure(options.dense_dispatch_variants);
  // Batched-entry specs ride along the same way as the dispatch config:
  // stamped before the executable escapes, immutable afterwards. A
  // length-specialized executable's spec points at the unmasked exact twin
  // (see above).
  for (const vm::BatchedEntrySpec& spec : options.batched_entries) {
    vm::BatchedEntrySpec stamped = spec;
    if (options.specialize_length > 0 &&
        !spec.exact_batched_function.empty()) {
      stamped.batched_function = spec.exact_batched_function;
    }
    result.executable->FunctionIndex(stamped.function);          // must exist
    result.executable->FunctionIndex(stamped.batched_function);  // must exist
    if (!stamped.exact_batched_function.empty()) {
      result.executable->FunctionIndex(stamped.exact_batched_function);
    }
    if (!stamped.step_function.empty()) {
      result.executable->FunctionIndex(stamped.step_function);  // must exist
    }
    result.executable->batched.push_back(std::move(stamped));
  }
  if (options.specialize_length > 0) {
    result.executable->variant.specialized_len = options.specialize_length;
    result.executable->variant.specialized_batch = options.specialize_batch;
  }
  result.executable->dense_config = options.dense_config;
  result.executable->dense_config_tuned = options.dense_config_tuned;
  return result;
}

}  // namespace core
}  // namespace nimble
