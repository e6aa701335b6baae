// End-to-end tests: build each dynamic model, run the full compile pipeline,
// execute on the VM, and compare numerics against plain-C++ references.
#include <gtest/gtest.h>

#include <cstring>

#include "src/core/compiler.h"
#include "src/models/bert.h"
#include "src/models/lstm.h"
#include "src/models/tree_lstm.h"
#include "src/models/workloads.h"
#include "src/vm/vm.h"

namespace nimble {
namespace {

using runtime::AsTensor;
using runtime::MakeTensor;
using runtime::NDArray;

void ExpectClose(const NDArray& a, const NDArray& b, float tol = 2e-4f) {
  ASSERT_EQ(a.shape(), b.shape());
  const float* pa = a.data<float>();
  const float* pb = b.data<float>();
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    ASSERT_NEAR(pa[i], pb[i], tol) << "mismatch at flat index " << i;
  }
}

TEST(E2E, LSTMSingleLayerMatchesReference) {
  models::LSTMConfig config;
  config.input_size = 16;
  config.hidden_size = 24;
  config.num_layers = 1;
  auto model = models::BuildLSTM(config);

  core::CompileResult compiled = core::Compile(model.module);
  EXPECT_GE(compiled.lstm_cells_fused, 1);
  vm::VirtualMachine machine(compiled.executable);

  support::Rng rng(3);
  for (int64_t len : {1, 3, 7}) {
    NDArray x = models::RandomSequence(len, config.input_size, rng);
    auto out = machine.Invoke(
        "main", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))});
    NDArray expected = models::RunLSTMReference(model.weights, x);
    ExpectClose(AsTensor(out), expected);
  }
}

TEST(E2E, LSTMTwoLayerMatchesReference) {
  models::LSTMConfig config;
  config.input_size = 12;
  config.hidden_size = 16;
  config.num_layers = 2;
  auto model = models::BuildLSTM(config);
  core::CompileResult compiled = core::Compile(model.module);
  vm::VirtualMachine machine(compiled.executable);

  support::Rng rng(4);
  NDArray x = models::RandomSequence(5, config.input_size, rng);
  auto out = machine.Invoke(
      "main", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(5))});
  ExpectClose(AsTensor(out), models::RunLSTMReference(model.weights, x));
}

TEST(E2E, TreeLSTMMatchesReference) {
  models::TreeLSTMConfig config;
  config.input_size = 10;
  config.hidden_size = 12;
  auto model = models::BuildTreeLSTM(config);
  core::CompileResult compiled = core::Compile(model.module);
  vm::VirtualMachine machine(compiled.executable);

  support::Rng rng(5);
  for (int leaves : {1, 2, 9}) {
    auto tree = models::RandomTree(leaves, config.input_size, rng);
    auto out = machine.Invoke("main", {models::TreeToObject(*tree)});
    NDArray expected = models::RunTreeLSTMReference(model.weights, *tree);
    ExpectClose(AsTensor(out), expected);
  }
}

TEST(E2E, BERTMatchesReference) {
  models::BERTConfig config;
  config.num_layers = 1;
  config.hidden = 32;
  config.num_heads = 2;
  config.ffn_hidden = 64;
  config.vocab = 50;
  auto model = models::BuildBERT(config);
  core::CompileResult compiled = core::Compile(model.module);
  vm::VirtualMachine machine(compiled.executable);

  support::Rng rng(6);
  for (int64_t len : {1, 5, 13}) {
    auto ids = models::RandomTokenIds(len, config.vocab, rng);
    NDArray ids_arr = NDArray::FromVector(ids, {len});
    auto out = machine.Invoke("main", {MakeTensor(ids_arr)});
    ExpectClose(AsTensor(out), models::RunBERTReference(model, ids), 5e-4f);
  }
}

}  // namespace
}  // namespace nimble

// ---- property sweeps and cross-cutting end-to-end checks ----------------------

#include <sstream>

#include "src/codegen/dispatch.h"

namespace nimble {
namespace {

/// LSTM correctness must hold for every sequence length (every loop
/// iteration count), not just the lengths smoke-tested above.
class LSTMLengthSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(LSTMLengthSweep, MatchesReferenceAtEveryLength) {
  static models::LSTMModel model = [] {
    models::LSTMConfig config;
    config.input_size = 8;
    config.hidden_size = 12;
    return models::BuildLSTM(config);
  }();
  static std::shared_ptr<vm::Executable> exec = [] {
    ir::Module mod = model.module;
    return core::Compile(mod).executable;
  }();
  vm::VirtualMachine machine(exec);
  int64_t len = GetParam();
  support::Rng rng(100 + static_cast<uint64_t>(len));
  NDArray x = models::RandomSequence(len, 8, rng);
  auto out = machine.Invoke(
      "main", {MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(len))});
  ExpectClose(AsTensor(out), models::RunLSTMReference(model.weights, x));
}

INSTANTIATE_TEST_SUITE_P(Lengths, LSTMLengthSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16,
                                           21, 32, 47));

/// BERT correctness must hold for every residue class of the dispatch tile
/// factor, for every dispatch configuration — the shape-specialized kernels
/// and the checked fallback compute every row in one order, so each
/// configuration's output equals full dispatch's bit for bit.
class BERTResidueSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int>> {};

TEST_P(BERTResidueSweep, EveryResidueAndDispatchConfig) {
  static models::BERTModel model = [] {
    models::BERTConfig config;
    config.num_layers = 1;
    config.hidden = 16;
    config.num_heads = 2;
    config.ffn_hidden = 32;
    config.vocab = 30;
    return models::BuildBERT(config);
  }();
  static std::shared_ptr<vm::Executable> full = [] {
    ir::Module mod = model.module;
    return core::Compile(mod).executable;
  }();
  auto [len, variants] = GetParam();
  ir::Module mod = model.module;
  core::CompileOptions opts;
  opts.dense_dispatch_variants = variants;
  auto exec = core::Compile(mod, opts).executable;
  // Dispatch configuration is per executable — no global state to restore
  // between sweep points, and other executables are unaffected.
  ASSERT_EQ(exec->dispatch_table.num_variants(), variants);
  ASSERT_EQ(full->dispatch_table.num_variants(), 8);
  vm::VirtualMachine machine(exec);
  vm::VirtualMachine full_machine(full);
  support::Rng rng(200 + static_cast<uint64_t>(len));
  auto ids = models::RandomTokenIds(len, 30, rng);
  NDArray out = AsTensor(machine.Invoke(
      "main", {MakeTensor(NDArray::FromVector(ids, {len}))}));
  NDArray full_out = AsTensor(full_machine.Invoke(
      "main", {MakeTensor(NDArray::FromVector(ids, {len}))}));
  ExpectClose(out, models::RunBERTReference(model, ids), 5e-4f);
  ASSERT_EQ(out.shape(), full_out.shape());
  EXPECT_EQ(std::memcmp(out.data<float>(), full_out.data<float>(),
                        static_cast<size_t>(out.num_elements()) *
                            sizeof(float)),
            0)
      << "variants=" << variants << " len=" << len
      << " differs from full dispatch";
}

INSTANTIATE_TEST_SUITE_P(
    ResiduesTimesDispatch, BERTResidueSweep,
    ::testing::Combine(::testing::Values(8, 9, 10, 11, 12, 13, 14, 15),
                       ::testing::Values(1, 2, 4, 8)));

TEST(E2E, TreeLSTMSweepOverSizes) {
  models::TreeLSTMConfig config;
  config.input_size = 6;
  config.hidden_size = 8;
  auto model = models::BuildTreeLSTM(config);
  auto compiled = core::Compile(model.module);
  vm::VirtualMachine machine(compiled.executable);
  support::Rng rng(300);
  for (int leaves = 1; leaves <= 24; leaves += 3) {
    auto tree = models::RandomTree(leaves, config.input_size, rng);
    auto out = machine.Invoke("main", {models::TreeToObject(*tree)});
    ExpectClose(AsTensor(out),
                models::RunTreeLSTMReference(model.weights, *tree));
  }
}

TEST(E2E, SerializedModelReproducesResults) {
  models::LSTMConfig config;
  config.input_size = 6;
  config.hidden_size = 8;
  auto model = models::BuildLSTM(config);
  auto compiled = core::Compile(model.module);

  std::stringstream buffer;
  compiled.executable->Save(buffer);
  vm::VirtualMachine original(compiled.executable);
  vm::VirtualMachine restored(vm::Executable::Load(buffer));

  support::Rng rng(400);
  NDArray x = models::RandomSequence(5, 6, rng);
  auto args = [&] {
    return std::vector<runtime::ObjectRef>{
        MakeTensor(x), MakeTensor(NDArray::Scalar<int64_t>(5))};
  };
  NDArray a = AsTensor(original.Invoke("main", args()));
  NDArray b = AsTensor(restored.Invoke("main", args()));
  for (int64_t i = 0; i < a.num_elements(); ++i) {
    ASSERT_EQ(a.data<float>()[i], b.data<float>()[i]);
  }
}

TEST(E2E, SimGPUPlacementStillComputesCorrectly) {
  // Compiling for the simulated accelerator exercises device annotation and
  // device_copy insertion; execution is host-simulated, so numerics must be
  // identical to the CPU compile.
  models::BERTConfig config;
  config.num_layers = 1;
  config.hidden = 16;
  config.num_heads = 2;
  config.ffn_hidden = 32;
  config.vocab = 20;
  auto model = models::BuildBERT(config);
  ir::Module mod = model.module;
  core::CompileOptions opts;
  opts.kernel_device = runtime::Device::SimGPU();
  auto compiled = core::Compile(mod, opts);
  EXPECT_GT(compiled.devices.nodes_on_cpu, 0);
  EXPECT_GT(compiled.devices.nodes_on_device, 0);
  vm::VirtualMachine machine(compiled.executable);
  support::Rng rng(500);
  auto ids = models::RandomTokenIds(7, 20, rng);
  auto out = machine.Invoke("main", {MakeTensor(NDArray::FromVector(ids, {7}))});
  ExpectClose(AsTensor(out), models::RunBERTReference(model, ids), 5e-4f);
}

TEST(E2E, CompileReportsOptimizationStats) {
  models::LSTMConfig config;
  config.input_size = 8;
  config.hidden_size = 8;
  config.num_layers = 2;
  auto model = models::BuildLSTM(config);
  auto compiled = core::Compile(model.module);
  EXPECT_EQ(compiled.lstm_cells_fused, 2);

  // With the batched twins emitted, FuseLSTMCell fires in
  // @lstm_loop_batched, @lstm_loop_batched_exact, and the continuous
  // single-step twin @main_step as well — every batched recurrence keeps
  // the canonical cell dataflow (2 layers x 4 bodies).
  config.emit_batched = true;
  auto batched_model = models::BuildLSTM(config);
  auto batched_compiled = core::Compile(batched_model.module);
  EXPECT_EQ(batched_compiled.lstm_cells_fused, 8);
  EXPECT_GT(compiled.fusion.groups_created, 0);
  EXPECT_GT(compiled.memory.kills_inserted, 0);
  EXPECT_GT(compiled.executable->NumInstructions(), 0u);
}

}  // namespace
}  // namespace nimble
