#include "src/vm/vm.h"

#include <chrono>
#include <sstream>

#include "src/codegen/parallel.h"
#include "src/kernels/registry.h"
#include "src/op/registry.h"
#include "src/vm/specialize.h"

namespace nimble {
namespace vm {

using runtime::ADTObj;
using runtime::AsADT;
using runtime::AsClosure;
using runtime::AsStorage;
using runtime::AsTensor;
using runtime::DataType;
using runtime::DTypeCode;
using runtime::NDArray;
using runtime::ObjectRef;

namespace {

/// Reads an integral scalar condition/tag value from a register object.
int64_t ReadScalarInt(const ObjectRef& obj) {
  const NDArray& arr = AsTensor(obj);
  NIMBLE_CHECK_EQ(arr.num_elements(), 1) << "expected scalar";
  switch (arr.dtype().code()) {
    case DTypeCode::kBool:
    case DTypeCode::kUInt8:
      return *static_cast<const uint8_t*>(arr.raw_data());
    case DTypeCode::kInt32:
      return *static_cast<const int32_t*>(arr.raw_data());
    case DTypeCode::kInt64:
      return *static_cast<const int64_t*>(arr.raw_data());
    default:
      NIMBLE_FATAL() << "condition must be an integral scalar, got "
                     << arr.dtype().ToString();
  }
}

}  // namespace

std::string VMProfile::ToString() const {
  std::ostringstream os;
  os << "VM profile: " << instructions << " instructions, total "
     << total_nanos / 1e6 << " ms (kernels " << kernel_nanos / 1e6
     << " ms, shape funcs " << shape_func_nanos / 1e6 << " ms, other "
     << (total_nanos - kernel_nanos) / 1e6 << " ms)\n";
  for (size_t i = 0; i < per_opcode.size(); ++i) {
    if (per_opcode[i].count == 0) continue;
    os << "  " << OpcodeName(static_cast<Opcode>(i)) << ": "
       << per_opcode[i].count << " ops\n";
  }
  return os.str();
}

VirtualMachine::VirtualMachine(std::shared_ptr<Executable> exec,
                               runtime::Allocator* allocator)
    : exec_(std::move(exec)),
      allocator_(allocator != nullptr ? allocator
                                      : runtime::GlobalPoolingAllocator()) {
  kernels::EnsureKernelsRegistered();
  op::EnsureOpsRegistered();
}

void VirtualMachine::set_allocator(runtime::Allocator* allocator) {
  NIMBLE_CHECK(allocator != nullptr) << "allocator must not be null";
  allocator_ = allocator;
}

void VirtualMachine::Rebind(std::shared_ptr<Executable> exec) {
  NIMBLE_CHECK(exec != nullptr) << "cannot rebind a VM to a null executable";
  exec_ = std::move(exec);
  Reset();
}

void VirtualMachine::Reset() {
  stack_.clear();
  profile_.Reset();
}

ObjectRef VirtualMachine::Invoke(const std::string& name,
                                 std::vector<ObjectRef> args) {
  NIMBLE_CHECK(exec_ != nullptr) << "VM has no executable bound (Rebind first)";
  return Call(exec_->functions[exec_->FunctionIndex(name)], std::move(args));
}

ObjectRef VirtualMachine::Invoke(const SpecializedFunction& fn,
                                 std::vector<ObjectRef> args) {
  NIMBLE_CHECK(exec_ != nullptr) << "VM has no executable bound (Rebind first)";
  NIMBLE_CHECK(fn.exec == exec_.get())
      << "@" << fn.function.name
      << " was specialized for another executable than the VM's";
  NIMBLE_CHECK_EQ(args.size(), fn.param_shapes.size())
      << "specialized @" << fn.function.name << " expects "
      << fn.param_shapes.size() << " arguments";
  for (size_t i = 0; i < args.size(); ++i) {
    const runtime::ShapeVec& shape = AsTensor(args[i]).shape();
    NIMBLE_CHECK(shape == fn.param_shapes[i])
        << "argument " << i << " of specialized @" << fn.function.name
        << " has shape " << runtime::ShapeToString(shape)
        << ", specialized for " << runtime::ShapeToString(fn.param_shapes[i]);
  }
  return Call(fn.function, std::move(args));
}

ObjectRef VirtualMachine::Call(const VMFunction& fn,
                               std::vector<ObjectRef> args) {
  NIMBLE_CHECK_EQ(static_cast<int32_t>(args.size()), fn.num_params)
      << "function '" << fn.name << "' expects " << fn.num_params
      << " arguments";
  Frame frame;
  frame.fn = &fn;
  frame.regs.resize(fn.register_file_size);
  for (size_t i = 0; i < args.size(); ++i) frame.regs[i] = std::move(args[i]);
  return Run(std::move(frame));
}

ObjectRef VirtualMachine::Run(Frame initial) {
  // Reuse the member stack: clear() keeps the allocation from the previous
  // Invoke, so recycled VMs (serving pool workers) don't pay for it again.
  std::vector<Frame>& stack = stack_;
  stack.clear();
  stack.push_back(std::move(initial));
  ObjectRef result;
  bool done = false;
  auto t_start = std::chrono::steady_clock::now();
  while (!done) {
    Frame& frame = stack.back();
    const VMFunction& fn = *frame.fn;
    NIMBLE_CHECK_LT(frame.pc, fn.instructions.size())
        << "pc ran off the end of @" << fn.name;
    const Instruction& inst = fn.instructions[frame.pc];
    RunInstruction(inst, stack, &result, &done);
    // Counts only: one clock pair per Run (and RunPacked's own) times it.
    if (profiling_) {
      profile_.per_opcode[static_cast<size_t>(inst.op)].count++;
      profile_.instructions++;
    }
  }
  if (profiling_) {
    auto t_end = std::chrono::steady_clock::now();
    profile_.total_nanos +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(t_end - t_start)
            .count();
  }
  return result;
}

void VirtualMachine::RunInstruction(const Instruction& inst,
                                    std::vector<Frame>& stack,
                                    ObjectRef* final_result, bool* done) {
  Frame& frame = stack.back();
  auto reg = [&frame](RegName r) -> ObjectRef& { return frame.regs[r]; };

  switch (inst.op) {
    case Opcode::kMove:
      reg(inst.dst) = reg(inst.args[0]);
      frame.pc++;
      break;
    case Opcode::kRet: {
      ObjectRef value = reg(inst.args[0]);
      RegName dst = frame.caller_dst;
      stack.pop_back();
      if (stack.empty()) {
        *final_result = std::move(value);
        *done = true;
      } else {
        stack.back().regs[dst] = std::move(value);
        stack.back().pc++;
      }
      break;
    }
    case Opcode::kInvoke: {
      const VMFunction& callee = exec_->functions[inst.imm0];
      Frame next;
      next.fn = &callee;
      next.regs.resize(callee.register_file_size);
      NIMBLE_CHECK_EQ(static_cast<int32_t>(inst.args.size()), callee.num_params);
      for (size_t i = 0; i < inst.args.size(); ++i) {
        next.regs[i] = reg(inst.args[i]);
      }
      next.caller_dst = inst.dst;
      stack.push_back(std::move(next));
      break;
    }
    case Opcode::kInvokeClosure: {
      auto* closure = AsClosure(reg(inst.args[0]));
      const VMFunction& callee = exec_->functions[closure->func_index];
      Frame next;
      next.fn = &callee;
      next.regs.resize(callee.register_file_size);
      size_t n_cap = closure->captured.size();
      NIMBLE_CHECK_EQ(n_cap + inst.args.size() - 1,
                      static_cast<size_t>(callee.num_params))
          << "closure arity mismatch";
      for (size_t i = 0; i < n_cap; ++i) next.regs[i] = closure->captured[i];
      for (size_t i = 1; i < inst.args.size(); ++i) {
        next.regs[n_cap + i - 1] = reg(inst.args[i]);
      }
      next.caller_dst = inst.dst;
      stack.push_back(std::move(next));
      break;
    }
    case Opcode::kInvokePacked:
      RunPacked(inst, frame);
      frame.pc++;
      break;
    case Opcode::kAllocStorage: {
      size_t size;
      runtime::Device device = UnpackDevice(inst.imm2);
      if (inst.imm0 >= 0) {
        size = static_cast<size_t>(inst.imm0);
      } else {
        // Dynamic: size from a shape tensor register.
        auto shape = runtime::ShapeFromTensor(AsTensor(reg(inst.args[0])));
        DataType dtype(static_cast<DTypeCode>(inst.imm1));
        size = static_cast<size_t>(runtime::NumElements(shape)) * dtype.bytes();
      }
      reg(inst.dst) = std::make_shared<runtime::StorageObj>(
          allocator_->Alloc(size, 64, device));
      frame.pc++;
      break;
    }
    case Opcode::kAllocTensor: {
      auto* storage = AsStorage(reg(inst.args[0]));
      DataType dtype(static_cast<DTypeCode>(inst.imm1));
      reg(inst.dst) = runtime::MakeTensor(NDArray::FromStorage(
          storage->buffer, static_cast<size_t>(inst.imm0), inst.extra, dtype));
      frame.pc++;
      break;
    }
    case Opcode::kAllocTensorReg: {
      auto* storage = AsStorage(reg(inst.args[0]));
      auto shape = runtime::ShapeFromTensor(AsTensor(reg(inst.args[1])));
      DataType dtype(static_cast<DTypeCode>(inst.imm1));
      reg(inst.dst) = runtime::MakeTensor(NDArray::FromStorage(
          storage->buffer, static_cast<size_t>(inst.imm0), shape, dtype));
      frame.pc++;
      break;
    }
    case Opcode::kAllocADT: {
      std::vector<ObjectRef> fields;
      fields.reserve(inst.args.size());
      for (RegName r : inst.args) fields.push_back(reg(r));
      uint32_t tag = inst.imm0 < 0 ? ADTObj::kTupleTag
                                   : static_cast<uint32_t>(inst.imm0);
      reg(inst.dst) = runtime::MakeADT(tag, std::move(fields));
      frame.pc++;
      break;
    }
    case Opcode::kAllocClosure: {
      std::vector<ObjectRef> captured;
      captured.reserve(inst.args.size());
      for (RegName r : inst.args) captured.push_back(reg(r));
      reg(inst.dst) = runtime::MakeClosure(static_cast<int32_t>(inst.imm0),
                                           std::move(captured));
      frame.pc++;
      break;
    }
    case Opcode::kGetField: {
      auto* adt = AsADT(reg(inst.args[0]));
      NIMBLE_CHECK_LT(static_cast<size_t>(inst.imm0), adt->fields.size());
      reg(inst.dst) = adt->fields[inst.imm0];
      frame.pc++;
      break;
    }
    case Opcode::kGetTag: {
      auto* adt = AsADT(reg(inst.args[0]));
      reg(inst.dst) = runtime::MakeTensor(
          NDArray::Scalar<int64_t>(static_cast<int64_t>(adt->ctor_tag)));
      frame.pc++;
      break;
    }
    case Opcode::kIf: {
      int64_t test = ReadScalarInt(reg(inst.args[0]));
      int64_t target = ReadScalarInt(reg(inst.args[1]));
      frame.pc += static_cast<size_t>(test == target ? inst.imm0 : inst.imm1);
      break;
    }
    case Opcode::kGoto:
      frame.pc += static_cast<size_t>(inst.imm0);
      break;
    case Opcode::kLoadConst:
      reg(inst.dst) = runtime::MakeTensor(exec_->constants[inst.imm0]);
      frame.pc++;
      break;
    case Opcode::kLoadConsti:
      reg(inst.dst) = runtime::MakeTensor(NDArray::Scalar<int64_t>(inst.imm0));
      frame.pc++;
      break;
    case Opcode::kDeviceCopy: {
      const NDArray& src = AsTensor(reg(inst.args[0]));
      reg(inst.dst) =
          runtime::MakeTensor(src.CopyTo(UnpackDevice(inst.imm2), allocator_));
      frame.pc++;
      break;
    }
    case Opcode::kShapeOf: {
      const NDArray& t = AsTensor(reg(inst.args[0]));
      reg(inst.dst) = runtime::MakeTensor(runtime::ShapeTensor(t.shape()));
      frame.pc++;
      break;
    }
    case Opcode::kReshapeTensor: {
      const NDArray& t = AsTensor(reg(inst.args[0]));
      auto shape = ReshapeTarget(
          runtime::ShapeFromTensor(AsTensor(reg(inst.args[1]))),
          t.num_elements());
      reg(inst.dst) = runtime::MakeTensor(t.Reshape(shape));
      frame.pc++;
      break;
    }
    case Opcode::kFatal:
      NIMBLE_FATAL() << "VM executed Fatal instruction";
  }
}

void VirtualMachine::RunPacked(const Instruction& inst, Frame& frame) {
  const PackedEntry& entry = exec_->packed[inst.imm0];
  int32_t num_inputs = static_cast<int32_t>(inst.imm1);
  auto t0 = std::chrono::steady_clock::now();

  if (entry.kind == PackedEntry::Kind::kKernel) {
    std::vector<NDArray> inputs, outputs;
    for (int32_t i = 0; i < num_inputs; ++i) {
      inputs.push_back(AsTensor(frame.regs[inst.args[i]]));
    }
    for (size_t i = num_inputs; i < inst.args.size(); ++i) {
      outputs.push_back(AsTensor(frame.regs[inst.args[i]]));
    }
    // Kernels resolve dispatch state through the bound executable, never
    // through process globals — the ownership contract that makes
    // compile-while-serving safe (docs/ARCHITECTURE.md).
    kernels::KernelContext ctx;
    ctx.dense_dispatch = &exec_->dispatch_table;
    ctx.dense_config = &exec_->dense_config;
    ctx.pool = codegen::KernelPool::Global();
    kernels::KernelRegistry::Global()->Get(entry.name)(inputs, outputs,
                                                       entry.attrs, ctx);
    if (profiling_) {
      auto t1 = std::chrono::steady_clock::now();
      profile_.kernel_nanos +=
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
    }
    return;
  }

  // Shape function (§4.2). Inputs are shape tensors (data-independent /
  // upper-bound modes) or raw data tensors (data-dependent mode); outputs
  // are i64 shape tensors to fill in.
  const op::OpInfo& info = op::OpRegistry::Global()->Get(entry.name);
  std::vector<runtime::ShapeVec> in_shapes;
  std::vector<NDArray> in_data;
  for (int32_t i = 0; i < num_inputs; ++i) {
    const NDArray& arg = AsTensor(frame.regs[inst.args[i]]);
    if (info.shape_mode == op::ShapeFuncMode::kDataDependent) {
      in_shapes.push_back(arg.shape());
      in_data.push_back(arg);
    } else {
      in_shapes.push_back(runtime::ShapeFromTensor(arg));
    }
  }
  auto out_shapes = info.shape_fn(in_shapes, in_data, entry.attrs);
  size_t num_outputs = inst.args.size() - num_inputs;
  NIMBLE_CHECK_EQ(out_shapes.size(), num_outputs)
      << "shape function output arity mismatch for " << entry.name;
  for (size_t i = 0; i < num_outputs; ++i) {
    const NDArray& out = AsTensor(frame.regs[inst.args[num_inputs + i]]);
    NIMBLE_CHECK_EQ(out.num_elements(),
                    static_cast<int64_t>(out_shapes[i].size()))
        << "shape tensor rank mismatch for " << entry.name;
    int64_t* p = out.data<int64_t>();
    for (size_t d = 0; d < out_shapes[i].size(); ++d) p[d] = out_shapes[i][d];
  }
  if (profiling_) {
    auto t1 = std::chrono::steady_clock::now();
    profile_.shape_func_nanos +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  }
}

}  // namespace vm
}  // namespace nimble
