// VM tests: individual instructions, control flow, closures, ADTs,
// per-executable dispatch ownership, serialization round-trips, the
// profiler, and shape specialization of straight-line functions.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "src/codegen/dispatch.h"
#include "src/core/compiler.h"
#include "src/ir/module.h"
#include "src/models/lstm.h"
#include "src/models/workloads.h"
#include "src/op/registry.h"
#include "src/support/rng.h"
#include "src/vm/compiler.h"
#include "src/vm/specialize.h"
#include "src/vm/vm.h"

namespace nimble {
namespace {

using namespace ir;  // NOLINT
using runtime::AsTensor;
using runtime::MakeTensor;
using runtime::NDArray;

/// Compiles a single-function module through the full pipeline.
std::shared_ptr<vm::Executable> CompileMain(Function fn,
                                            Module* mod_out = nullptr) {
  Module mod;
  mod.Add("main", std::move(fn));
  auto result = core::Compile(mod);
  if (mod_out != nullptr) *mod_out = mod;
  return result.executable;
}

float RunScalar(vm::VirtualMachine& machine,
                std::vector<runtime::ObjectRef> args) {
  auto out = machine.Invoke("main", std::move(args));
  return AsTensor(out).data<float>()[0];
}

TEST(VM, ExecutesStraightLineArithmetic) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec = CompileMain(MakeFunction(
      {x}, op::Call2("multiply", op::Call2("add", x, FloatConst(1.0f)),
                     FloatConst(3.0f))));
  vm::VirtualMachine machine(exec);
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(2.0f))}),
                  9.0f);
}

TEST(VM, IfTakesBothBranches) {
  Var c = MakeVar("c", ScalarType(DataType::Bool()));
  Var a = MakeVar("a", ScalarType(DataType::Float32()));
  auto exec = CompileMain(MakeFunction(
      {c, a}, MakeIf(c, op::Call2("add", a, FloatConst(10.0f)),
                     op::Call2("subtract", a, FloatConst(10.0f)))));
  vm::VirtualMachine machine(exec);
  auto mk_bool = [](bool v) {
    NDArray b = NDArray::Empty({}, DataType::Bool());
    *static_cast<uint8_t*>(b.raw_data()) = v;
    return MakeTensor(b);
  };
  EXPECT_FLOAT_EQ(
      RunScalar(machine, {mk_bool(true), MakeTensor(NDArray::Scalar<float>(1.0f))}),
      11.0f);
  EXPECT_FLOAT_EQ(
      RunScalar(machine, {mk_bool(false), MakeTensor(NDArray::Scalar<float>(1.0f))}),
      -9.0f);
}

TEST(VM, RecursiveLoopAccumulates) {
  // sum(i..n) via tail recursion: tests Invoke, If, integer kernels.
  Module mod;
  Var i = MakeVar("i", ScalarType(DataType::Int64()));
  Var n = MakeVar("n", ScalarType(DataType::Int64()));
  Var acc = MakeVar("acc", ScalarType(DataType::Int64()));
  GlobalVar loop = MakeGlobalVar("loop");
  Expr body = MakeIf(op::Call2("less", i, n),
                     MakeCall(loop, {op::Call2("add", i, IntConst(1)), n,
                                     op::Call2("add", acc, i)}),
                     acc);
  mod.Add("loop",
          MakeFunction({i, n, acc}, body, ScalarType(DataType::Int64())));
  Var mn = MakeVar("n", ScalarType(DataType::Int64()));
  mod.Add("main", MakeFunction({mn}, MakeCall(loop, {IntConst(0), mn,
                                                     IntConst(0)})));
  auto exec = core::Compile(mod).executable;
  vm::VirtualMachine machine(exec);
  auto out = machine.Invoke("main", {MakeTensor(NDArray::Scalar<int64_t>(10))});
  EXPECT_EQ(AsTensor(out).data<int64_t>()[0], 45);
}

TEST(VM, TuplesAndProjections) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  Expr pair = MakeTuple({op::Call2("add", x, FloatConst(1.0f)),
                         op::Call2("add", x, FloatConst(2.0f))});
  Var t = MakeVar("t");
  auto exec = CompileMain(MakeFunction(
      {x}, MakeLet(t, pair,
                   op::Call2("multiply", MakeTupleGetItem(t, 0),
                             MakeTupleGetItem(t, 1)))));
  vm::VirtualMachine machine(exec);
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(1.0f))}),
                  6.0f);
}

TEST(VM, MatchDispatchesOnConstructor) {
  Module mod;
  const TypeData& data = mod.DefineADT(
      "Shape2", {{"Circle", {ScalarType(DataType::Float32())}}, {"Square", {ScalarType(DataType::Float32())}}});
  Var s = MakeVar("s", ADTType("Shape2"));
  Var r = MakeVar("r"), w = MakeVar("w");
  Expr m = MakeMatch(
      s, {MatchClause{data.constructors[0], {r},
                      op::Call2("multiply", r, FloatConst(3.0f))},
          MatchClause{data.constructors[1], {w},
                      op::Call2("multiply", w, w)}});
  mod.Add("main", MakeFunction({s}, m));
  auto exec = core::Compile(mod).executable;
  vm::VirtualMachine machine(exec);
  auto circle = runtime::MakeADT(0, {MakeTensor(NDArray::Scalar<float>(2.0f))});
  auto square = runtime::MakeADT(1, {MakeTensor(NDArray::Scalar<float>(4.0f))});
  EXPECT_FLOAT_EQ(RunScalar(machine, {circle}), 6.0f);
  EXPECT_FLOAT_EQ(RunScalar(machine, {square}), 16.0f);
}

TEST(VM, ClosuresCaptureEnvironment) {
  // main(x) = (fn(y) -> y + x)(10)
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  Var y = MakeVar("y", ScalarType(DataType::Float32()));
  Expr lambda = MakeFunction({y}, op::Call2("add", y, x));
  Var f = MakeVar("f");
  auto exec = CompileMain(MakeFunction(
      {x}, MakeLet(f, lambda, MakeCall(f, {FloatConst(10.0f)}))));
  vm::VirtualMachine machine(exec);
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(5.0f))}),
                  15.0f);
}

TEST(VM, DynamicOutputOpAllocatesAtRuntime) {
  // arange(0, n, 1): output size is data-dependent.
  Var n = MakeVar("n", ScalarType(DataType::Int64()));
  auto exec = CompileMain(
      MakeFunction({n}, op::Call3("arange", IntConst(0), n, IntConst(1))));
  vm::VirtualMachine machine(exec);
  for (int64_t len : {1, 4, 9}) {
    auto out = machine.Invoke("main", {MakeTensor(NDArray::Scalar<int64_t>(len))});
    const NDArray& arr = AsTensor(out);
    ASSERT_EQ(arr.num_elements(), len);
    EXPECT_EQ(arr.data<int64_t>()[len - 1], len - 1);
  }
}

TEST(VM, UpperBoundOpWithPreciseSlice) {
  // nms + slice_rows: upper-bound allocation, then slice to the true size.
  Var boxes = MakeVar("b", TensorType({3, 5}));
  Var nms = MakeVar("nms");
  Expr call = op::Call1("nn.nms", boxes, Attrs().Set("iou_threshold", 0.5));
  Expr body = MakeLet(
      nms, call,
      op::Call2("slice_rows", MakeTupleGetItem(nms, 0), MakeTupleGetItem(nms, 1)));
  auto exec = CompileMain(MakeFunction({boxes}, body));
  vm::VirtualMachine machine(exec);
  NDArray input = NDArray::FromVector<float>(
      {0.9f, 0, 0, 10, 10, 0.8f, 1, 1, 11, 11, 0.7f, 50, 50, 60, 60}, {3, 5});
  auto out = machine.Invoke("main", {MakeTensor(input)});
  EXPECT_EQ(AsTensor(out).shape(), (runtime::ShapeVec{2, 5}))
      << "output must be sliced to the exact NMS survivor count";
}

TEST(VM, WrongArityRejected) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec = CompileMain(MakeFunction({x}, x));
  vm::VirtualMachine machine(exec);
  EXPECT_THROW(machine.Invoke("main", {}), Error);
  EXPECT_THROW(machine.Invoke("nope", {}), Error);
}

TEST(VM, ProfilerSplitsKernelTime) {
  Var x = MakeVar("x", TensorType({64, 64}));
  Var w = MakeVar("w", TensorType({64, 64}));
  auto exec = CompileMain(MakeFunction({x, w}, op::Call2("nn.dense", x, w)));
  vm::VirtualMachine machine(exec);
  machine.EnableProfiling(true);
  support::Rng rng(1);
  NDArray xv = NDArray::Empty({64, 64}, DataType::Float32());
  NDArray wv = NDArray::Empty({64, 64}, DataType::Float32());
  xv.FillUniform(rng);
  wv.FillUniform(rng);
  machine.Invoke("main", {MakeTensor(xv), MakeTensor(wv)});
  const auto& prof = machine.profile();
  EXPECT_GT(prof.instructions, 0);
  EXPECT_GT(prof.kernel_nanos, 0);
  EXPECT_GT(prof.total_nanos, prof.kernel_nanos);
  EXPECT_GT(prof.per_opcode[static_cast<size_t>(vm::Opcode::kInvokePacked)].count,
            0);
}

// ---- per-executable dispatch ownership ------------------------------------------

/// Compiles x[3,4] · w[5,4]^T with the given number of dispatch variants.
std::shared_ptr<vm::Executable> CompileDense(int variants) {
  Var x = MakeVar("x", TensorType({3, 4}));
  Var w = MakeVar("w", TensorType({5, 4}));
  Module mod;
  mod.Add("main", MakeFunction({x, w}, op::Call2("nn.dense", x, w)));
  core::CompileOptions opts;
  opts.dense_dispatch_variants = variants;
  return core::Compile(mod, opts).executable;
}

TEST(VM, DenseDispatchReadsTheExecutablesTable) {
  auto exec_full = CompileDense(8);
  auto exec_none = CompileDense(1);
  EXPECT_EQ(exec_full->dispatch_table.num_variants(), 8);
  EXPECT_EQ(exec_none->dispatch_table.num_variants(), 1)
      << "compiling one executable must not reconfigure another";

  support::Rng rng(3);
  NDArray x = NDArray::Empty({3, 4}, runtime::DataType::Float32());
  NDArray w = NDArray::Empty({5, 4}, runtime::DataType::Float32());
  for (int64_t i = 0; i < x.num_elements(); ++i)
    x.data<float>()[i] = rng.Uniform(-1.0f, 1.0f);
  for (int64_t i = 0; i < w.num_elements(); ++i)
    w.data<float>()[i] = rng.Uniform(-1.0f, 1.0f);

  vm::VirtualMachine vm_full(exec_full);
  vm::VirtualMachine vm_none(exec_none);
  auto out_full =
      AsTensor(vm_full.Invoke("main", {MakeTensor(x), MakeTensor(w)}));
  auto out_none =
      AsTensor(vm_none.Invoke("main", {MakeTensor(x), MakeTensor(w)}));

  // M=3 hits residue 3: specialized under full dispatch, generic fallback
  // with one variant — each accounted in its own executable's table.
  EXPECT_GT(exec_full->dispatch_table.stats().specialized_calls, 0);
  EXPECT_EQ(exec_full->dispatch_table.stats().fallback_calls, 0);
  EXPECT_GT(exec_none->dispatch_table.stats().fallback_calls, 0);
  EXPECT_EQ(exec_none->dispatch_table.stats().specialized_calls, 0);
  // ...and neither executable's calls leaked into the other's table.
  EXPECT_EQ(exec_full->dispatch_table.stats().fallback_calls, 0);
  EXPECT_EQ(exec_none->dispatch_table.stats().specialized_calls, 0);
  // Both dispatch paths compute every row in one accumulation order, so
  // they agree bit for bit.
  ASSERT_EQ(out_full.shape(), out_none.shape());
  EXPECT_EQ(std::memcmp(out_full.data<float>(), out_none.data<float>(),
                        static_cast<size_t>(out_full.num_elements()) *
                            sizeof(float)),
            0);
}

TEST(VM, RebindSwitchesExecutables) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec_add = CompileMain(
      MakeFunction({x}, op::Call2("add", x, FloatConst(1.0f))));
  Var y = MakeVar("y", ScalarType(DataType::Float32()));
  auto exec_mul = CompileMain(
      MakeFunction({y}, op::Call2("multiply", y, FloatConst(4.0f))));

  vm::VirtualMachine machine(exec_add);
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(2.0f))}),
                  3.0f);
  machine.Rebind(exec_mul);
  EXPECT_EQ(machine.executable_ptr().get(), exec_mul.get());
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(2.0f))}),
                  8.0f);
  machine.Rebind(exec_add);
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(2.0f))}),
                  3.0f);
  EXPECT_THROW(machine.Rebind(nullptr), Error);
}

TEST(VM, UnboundVMRejectsInvoke) {
  vm::VirtualMachine machine(nullptr);
  EXPECT_THROW(machine.Invoke("main", {}), Error);
}

// ---- instruction encoding / serialization --------------------------------------

TEST(Bytecode, OpcodeNamesCoverTableA1) {
  // Exactly the 20 instructions of Table A.1.
  for (int i = 0; i < 20; ++i) {
    EXPECT_STRNE(vm::OpcodeName(static_cast<vm::Opcode>(i)), "<bad>");
  }
}

TEST(Bytecode, DevicePackingRoundtrip) {
  auto dev = runtime::Device::SimGPU(3);
  EXPECT_EQ(vm::UnpackDevice(vm::PackDevice(dev)), dev);
  EXPECT_EQ(vm::UnpackDevice(vm::PackDevice(runtime::Device::CPU())),
            runtime::Device::CPU());
}

TEST(Serialization, RoundtripPreservesEverything) {
  Var x = MakeVar("x", TensorType({Dim::Any(), Dim::Static(2)}));
  Var y = MakeVar("y", TensorType({1, 2}));
  auto exec = CompileMain(MakeFunction(
      {x, y}, op::Call2("concat", x, y, Attrs().Set("axis", 0))));

  std::stringstream buffer;
  exec->Save(buffer);
  auto reloaded = vm::Executable::Load(buffer);

  ASSERT_EQ(reloaded->functions.size(), exec->functions.size());
  for (size_t f = 0; f < exec->functions.size(); ++f) {
    const auto& a = exec->functions[f];
    const auto& b = reloaded->functions[f];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.num_params, b.num_params);
    EXPECT_EQ(a.register_file_size, b.register_file_size);
    ASSERT_EQ(a.instructions.size(), b.instructions.size());
    for (size_t i = 0; i < a.instructions.size(); ++i) {
      EXPECT_TRUE(a.instructions[i] == b.instructions[i]) << "instruction " << i;
    }
  }
  ASSERT_EQ(reloaded->packed.size(), exec->packed.size());
  for (size_t i = 0; i < exec->packed.size(); ++i) {
    EXPECT_EQ(reloaded->packed[i].name, exec->packed[i].name);
    EXPECT_TRUE(reloaded->packed[i].attrs == exec->packed[i].attrs);
  }
  ASSERT_EQ(reloaded->constants.size(), exec->constants.size());
  EXPECT_EQ(reloaded->dispatch_table.num_variants(),
            exec->dispatch_table.num_variants())
      << "dispatch configuration travels inside the executable";
}

TEST(Serialization, DispatchConfigSurvivesRoundtrip) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec = CompileMain(
      MakeFunction({x}, op::Call2("add", x, FloatConst(1.0f))));
  exec->dispatch_table.Configure(2);
  std::stringstream buffer;
  exec->Save(buffer);
  auto reloaded = vm::Executable::Load(buffer);
  EXPECT_EQ(reloaded->dispatch_table.num_variants(), 2)
      << "a loaded executable serves with the policy it was compiled with";
}

TEST(Serialization, DenseConfigSurvivesRoundtrip) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec = CompileMain(
      MakeFunction({x}, op::Call2("add", x, FloatConst(1.0f))));
  exec->dense_config = codegen::DenseConfig{64, 128};
  exec->dense_config_tuned = true;
  std::stringstream buffer;
  exec->Save(buffer);
  auto reloaded = vm::Executable::Load(buffer);
  EXPECT_EQ(reloaded->dense_config, (codegen::DenseConfig{64, 128}))
      << "an executable image carries its tuner-chosen blocking factors";
  EXPECT_TRUE(reloaded->dense_config_tuned);
  // Default (untuned) executables roundtrip the default config too.
  auto plain = CompileMain(
      MakeFunction({x}, op::Call2("add", x, FloatConst(1.0f))));
  std::stringstream buffer2;
  plain->Save(buffer2);
  auto reloaded2 = vm::Executable::Load(buffer2);
  EXPECT_EQ(reloaded2->dense_config, codegen::DenseConfig{});
  EXPECT_FALSE(reloaded2->dense_config_tuned);
}

TEST(Serialization, ReloadedExecutableRuns) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec = CompileMain(
      MakeFunction({x}, op::Call2("add", x, FloatConst(2.5f))));
  std::stringstream buffer;
  exec->Save(buffer);
  vm::VirtualMachine machine(vm::Executable::Load(buffer));
  EXPECT_FLOAT_EQ(RunScalar(machine, {MakeTensor(NDArray::Scalar<float>(1.0f))}),
                  3.5f);
}

TEST(Serialization, RejectsGarbage) {
  std::stringstream buffer;
  buffer << "not an executable";
  EXPECT_THROW(vm::Executable::Load(buffer), Error);
}

TEST(Serialization, RejectsOtherFormatVersions) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec = CompileMain(
      MakeFunction({x}, op::Call2("add", x, FloatConst(1.0f))));
  std::stringstream buffer;
  exec->Save(buffer);
  // The version word follows the 4-byte magic; patch it to earlier
  // formats, which the loader no longer reads.
  for (uint32_t old_version : {5u, 6u, 7u}) {
    std::string image = buffer.str();
    image.replace(4, sizeof(old_version),
                  reinterpret_cast<const char*>(&old_version),
                  sizeof(old_version));
    std::stringstream patched(image);
    try {
      vm::Executable::Load(patched);
      FAIL() << "a version-" << old_version << " image must not load";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported executable version"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Serialization, RejectsInvalidDispatchVariantCount) {
  Var x = MakeVar("x", ScalarType(DataType::Float32()));
  auto exec = CompileMain(
      MakeFunction({x}, op::Call2("add", x, FloatConst(1.0f))));
  std::stringstream buffer;
  exec->Save(buffer);
  // The dispatch variant count follows magic and version; 3 does not
  // divide the tile factor.
  std::string image = buffer.str();
  const uint32_t bad_variants = 3;
  image.replace(8, sizeof(bad_variants),
                reinterpret_cast<const char*>(&bad_variants),
                sizeof(bad_variants));
  std::stringstream patched(image);
  EXPECT_THROW(vm::Executable::Load(patched), Error);
}

TEST(Serialization, ConstantsSurviveWithWeights) {
  NDArray weight = NDArray::FromVector<float>({1, 2, 3, 4}, {4});
  Var x = MakeVar("x", TensorType(std::vector<int64_t>{4}));
  auto exec = CompileMain(
      MakeFunction({x}, op::Call2("add", x, MakeConstant(weight))));
  std::stringstream buffer;
  exec->Save(buffer);
  auto reloaded = vm::Executable::Load(buffer);
  bool found = false;
  for (const auto& c : reloaded->constants) {
    if (c.num_elements() == 4 && c.data<float>()[2] == 3.0f) found = true;
  }
  EXPECT_TRUE(found) << "weights travel inside the executable";
}

TEST(Disassemble, MentionsPackedCallsAndInstructions) {
  Var x = MakeVar("x", TensorType(std::vector<int64_t>{2}));
  auto exec = CompileMain(MakeFunction({x}, op::Call1("sigmoid", x)));
  std::string text = exec->Disassemble();
  EXPECT_NE(text.find("InvokePacked"), std::string::npos);
  EXPECT_NE(text.find("sigmoid"), std::string::npos);
  EXPECT_NE(text.find("func @main"), std::string::npos);
}

TEST(VMRegisters, KillRecyclesRegisters) {
  // A long chain of dead intermediates should not need a register each:
  // memory.kill allows the compiler to recycle them.
  Var x = MakeVar("x", TensorType(std::vector<int64_t>{8}));
  Expr e = x;
  for (int i = 0; i < 20; ++i) e = op::Call1("sigmoid", e);
  auto exec = CompileMain(MakeFunction({x}, e));
  const auto& fn = exec->functions[exec->FunctionIndex("main")];
  EXPECT_LT(fn.register_file_size, 40)
      << "register recycling via kill should bound the frame size";
}

// ---- shape specialization (src/vm/specialize.h) --------------------------------

/// An LSTM executable (input 8, hidden 10) carrying the @main_step twin.
std::shared_ptr<vm::Executable> CompileStepTwin(int num_layers) {
  models::LSTMConfig config;
  config.input_size = 8;
  config.hidden_size = 10;
  config.num_layers = num_layers;
  config.seed = 5;
  config.emit_batched = true;
  auto model = models::BuildLSTM(config);
  core::CompileOptions opts;
  opts.batched_entries = {model.batched_spec};
  return core::Compile(model.module, opts).executable;
}

/// @main_step's argument shapes at `slots` rows: x_t, active, 2 states per
/// layer.
std::vector<runtime::ShapeVec> StepShapes(int64_t slots, int num_layers) {
  std::vector<runtime::ShapeVec> shapes = {{slots, 8}, {slots, 1}};
  shapes.resize(2 + 2 * static_cast<size_t>(num_layers), {slots, 10});
  return shapes;
}

int64_t CountOps(const vm::VMFunction& fn, vm::Opcode op) {
  int64_t n = 0;
  for (const vm::Instruction& inst : fn.instructions) n += inst.op == op;
  return n;
}

void ExpectSameBits(const NDArray& got, const NDArray& want) {
  ASSERT_EQ(got.shape(), want.shape());
  EXPECT_EQ(std::memcmp(got.raw_data(), want.raw_data(), got.nbytes()), 0);
}

TEST(Specialize, StepTwinIsBitIdenticalToGenericAtEverySlotCount) {
  for (int layers : {1, 2}) {
    auto exec = CompileStepTwin(layers);
    const vm::VMFunction& generic =
        exec->functions[exec->FunctionIndex("main_step")];
    vm::VirtualMachine machine(exec);
    support::Rng rng(static_cast<uint64_t>(layers));
    for (int64_t slots = 1; slots <= 8; ++slots) {
      std::vector<runtime::ShapeVec> shapes = StepShapes(slots, layers);
      std::string why;
      auto step = vm::SpecializeShapes(*exec, "main_step", shapes, &why);
      ASSERT_TRUE(step.has_value()) << why;
      EXPECT_LT(step->function.instructions.size(),
                generic.instructions.size());
      // Nothing shape-only survives: no shape computation feeds data here.
      EXPECT_EQ(CountOps(step->function, vm::Opcode::kShapeOf), 0);
      EXPECT_EQ(CountOps(step->function, vm::Opcode::kAllocTensorReg), 0);
      for (const vm::Instruction& inst : step->function.instructions) {
        if (inst.op == vm::Opcode::kAllocStorage) EXPECT_GE(inst.imm0, 0);
        if (inst.op == vm::Opcode::kInvokePacked) {
          EXPECT_EQ(exec->packed[inst.imm0].kind,
                    vm::PackedEntry::Kind::kKernel);
        }
      }
      // Three chained steps from random states, each with a fresh random
      // input and active mask; the generic step's states feed the next.
      std::vector<NDArray> states;
      for (size_t s = 2; s < shapes.size(); ++s) {
        states.push_back(NDArray::Empty(shapes[s], DataType::Float32()));
        states.back().FillUniform(rng);
      }
      for (int t = 0; t < 3; ++t) {
        NDArray x = models::RandomSequence(slots, 8, rng);
        NDArray active = NDArray::Empty({slots, 1}, DataType::Int64());
        for (int64_t r = 0; r < slots; ++r) {
          active.data<int64_t>()[r] = rng.UniformInt(0, 1);
        }
        std::vector<runtime::ObjectRef> args = {MakeTensor(x),
                                                MakeTensor(active)};
        for (const NDArray& state : states) args.push_back(MakeTensor(state));
        runtime::ObjectRef want = machine.Invoke("main_step", args);
        runtime::ObjectRef got = machine.Invoke(*step, args);
        const auto& want_states = runtime::AsADT(want)->fields;
        const auto& got_states = runtime::AsADT(got)->fields;
        ASSERT_EQ(got_states.size(), states.size());
        for (size_t s = 0; s < states.size(); ++s) {
          ExpectSameBits(AsTensor(got_states[s]), AsTensor(want_states[s]));
          states[s] = AsTensor(want_states[s]);
        }
      }
    }
  }
}

TEST(Specialize, RefusesControlFlowAndShapesKnownOnlyAtRunTime) {
  std::string why;
  // @main loops over timesteps by recursion.
  auto lstm = CompileStepTwin(1);
  EXPECT_FALSE(vm::SpecializeShapes(*lstm, "main", {{5, 8}, {}}, &why));
  EXPECT_NE(why.find("control flow"), std::string::npos) << why;
  EXPECT_FALSE(vm::SpecializeShapes(*lstm, "main_step", {{2, 8}}, &why));
  EXPECT_NE(why.find("arguments"), std::string::npos) << why;
  EXPECT_FALSE(vm::SpecializeShapes(*lstm, "nope", {}, &why));

  // arange: the output size depends on the value of n.
  Var n = MakeVar("n", ScalarType(DataType::Int64()));
  auto arange = CompileMain(
      MakeFunction({n}, op::Call3("arange", IntConst(0), n, IntConst(1))));
  EXPECT_FALSE(vm::SpecializeShapes(*arange, "main", {{}}, &why));
  EXPECT_NE(why.find("data-dependent"), std::string::npos) << why;

  // nn.nms: the shape function only bounds the survivor count.
  Var boxes = MakeVar("b", TensorType({Dim::Any(), Dim::Static(5)}));
  auto nms = CompileMain(MakeFunction(
      {boxes}, op::Call1("nn.nms", boxes, Attrs().Set("iou_threshold", 0.5))));
  EXPECT_FALSE(vm::SpecializeShapes(*nms, "main", {{3, 5}}, &why));
  EXPECT_NE(why.find("upper-bound"), std::string::npos) << why;

  // A shape function that throws for the given shapes: 2 x 4 elements do
  // not reshape to 3 x ?.
  Var x = MakeVar("x", TensorType({Dim::Any(), Dim::Static(4)}));
  auto reshape = CompileMain(MakeFunction(
      {x}, op::Call1("reshape", x,
                     Attrs().Set("newshape", std::vector<int64_t>{3, -1}))));
  EXPECT_FALSE(vm::SpecializeShapes(*reshape, "main", {{2, 4}}, &why));
  EXPECT_NE(why.find("throws"), std::string::npos) << why;
}

TEST(Specialize, ShapeFunctionOutputReadAsDataKeepsItsProducer) {
  // reshape on a dynamic input lowers to ShapeOf -> reshape's shape
  // function -> ReshapeTensor, which reads the shape tensor as data.
  Var x = MakeVar("x", TensorType({Dim::Any(), Dim::Static(4)}));
  auto exec = CompileMain(MakeFunction(
      {x}, op::Call1("reshape", x,
                     Attrs().Set("newshape", std::vector<int64_t>{-1, 2}))));
  std::string why;
  auto fn = vm::SpecializeShapes(*exec, "main", {{3, 4}}, &why);
  ASSERT_TRUE(fn.has_value()) << why;
  ASSERT_EQ(CountOps(fn->function, vm::Opcode::kReshapeTensor), 1);
  int64_t shape_funcs = 0;
  for (const vm::Instruction& inst : fn->function.instructions) {
    if (inst.op == vm::Opcode::kInvokePacked &&
        exec->packed[inst.imm0].kind == vm::PackedEntry::Kind::kShapeFunc) {
      shape_funcs++;
    }
  }
  EXPECT_EQ(shape_funcs, 1);
  EXPECT_EQ(CountOps(fn->function, vm::Opcode::kShapeOf), 1);

  vm::VirtualMachine machine(exec);
  support::Rng rng(8);
  NDArray input = models::RandomSequence(3, 4, rng);
  NDArray want = AsTensor(machine.Invoke("main", {MakeTensor(input)}));
  NDArray got = AsTensor(machine.Invoke(*fn, {MakeTensor(input)}));
  EXPECT_EQ(got.shape(), (runtime::ShapeVec{6, 2}));
  ExpectSameBits(got, want);
}

TEST(Specialize, RefusesShapeFunctionWritingAnAliasedTensor) {
  // Hand-written bytecode: reshape's shape function fills $3, but the
  // ReshapeTensor reads it through $4, a Move made before the fill. Liveness
  // follows registers and sees nothing read $3 after the call, so the pass
  // must refuse rather than drop the fill.
  using vm::Instruction;
  using vm::Opcode;
  const int64_t i64 = static_cast<int64_t>(runtime::DTypeCode::kInt64);
  const int64_t cpu = vm::PackDevice(runtime::Device::CPU());
  auto exec = std::make_shared<vm::Executable>();
  vm::PackedEntry shape_fn;
  shape_fn.kind = vm::PackedEntry::Kind::kShapeFunc;
  shape_fn.name = "reshape";
  shape_fn.attrs = Attrs().Set("newshape", std::vector<int64_t>{-1, 2});
  shape_fn.num_inputs = 1;
  exec->packed = {shape_fn};
  vm::VMFunction fn;
  fn.name = "main";
  fn.num_params = 1;
  fn.register_file_size = 6;
  auto inst = [](Opcode op, vm::RegName dst, std::vector<vm::RegName> args,
                 int64_t imm0 = 0, int64_t imm1 = 0, int64_t imm2 = 0,
                 std::vector<int64_t> extra = {}) {
    Instruction i;
    i.op = op;
    i.dst = dst;
    i.args = std::move(args);
    i.imm0 = imm0;
    i.imm1 = imm1;
    i.imm2 = imm2;
    i.extra = std::move(extra);
    return i;
  };
  fn.instructions = {
      inst(Opcode::kShapeOf, 1, {0}),
      inst(Opcode::kAllocStorage, 2, {}, 16, i64, cpu),
      inst(Opcode::kAllocTensor, 3, {2}, 0, i64, 0, {2}),
      inst(Opcode::kMove, 4, {3}),
      inst(Opcode::kInvokePacked, -1, {1, 3}, 0, 1),
      inst(Opcode::kReshapeTensor, 5, {0, 4}),
      inst(Opcode::kRet, -1, {5}),
  };
  exec->functions = {fn};
  exec->function_index["main"] = 0;

  vm::VirtualMachine machine(exec);
  support::Rng rng(2);
  NDArray input = models::RandomSequence(3, 4, rng);
  EXPECT_EQ(AsTensor(machine.Invoke("main", {MakeTensor(input)})).shape(),
            (runtime::ShapeVec{6, 2}));
  std::string why;
  EXPECT_FALSE(vm::SpecializeShapes(*exec, "main", {{3, 4}}, &why));
  EXPECT_NE(why.find("alias"), std::string::npos) << why;
}

TEST(Specialize, InvokeRejectsOtherShapesAndOtherExecutables) {
  auto exec = CompileStepTwin(1);
  auto step = vm::SpecializeShapes(*exec, "main_step", StepShapes(2, 1));
  ASSERT_TRUE(step.has_value());
  auto args_for = [](int64_t slots) {
    std::vector<runtime::ObjectRef> args;
    for (const runtime::ShapeVec& shape : StepShapes(slots, 1)) {
      DataType dtype = args.size() == 1 ? DataType::Int64() : DataType::Float32();
      NDArray arr = NDArray::Empty(shape, dtype);
      std::memset(arr.raw_data(), 0, arr.nbytes());
      args.push_back(MakeTensor(arr));
    }
    return args;
  };
  vm::VirtualMachine machine(exec);
  EXPECT_NO_THROW(machine.Invoke(*step, args_for(2)));
  EXPECT_THROW(machine.Invoke(*step, args_for(3)), Error);
  std::vector<runtime::ObjectRef> short_args = args_for(2);
  short_args.pop_back();
  EXPECT_THROW(machine.Invoke(*step, short_args), Error);

  // The same model compiled again is another executable: its constants and
  // packed table are not the ones the body indexes.
  auto other = CompileStepTwin(1);
  machine.Rebind(other);
  EXPECT_THROW(machine.Invoke(*step, args_for(2)), Error);
  machine.Rebind(exec);
  EXPECT_NO_THROW(machine.Invoke(*step, args_for(2)));
}

}  // namespace
}  // namespace nimble
