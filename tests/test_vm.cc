// VM tests: individual instructions, control flow, closures, ADTs,
// per-executable dispatch ownership, serialization round-trips, and the
// profiler.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "src/codegen/dispatch.h"
#include "src/core/compiler.h"
#include "src/ir/module.h"
#include "src/op/registry.h"
#include "src/support/rng.h"
#include "src/vm/compiler.h"
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

}  // namespace
}  // namespace nimble
