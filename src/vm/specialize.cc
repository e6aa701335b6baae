#include "src/vm/specialize.h"

#include <exception>
#include <sstream>
#include <utility>

#include "src/op/registry.h"

namespace nimble {
namespace vm {

using runtime::DataType;
using runtime::DTypeCode;
using runtime::ShapeVec;

namespace {

/// What the pass knows about one runtime object. Registers map to facts,
/// so a Move or GetField alias shares its source's fact: a kernel that
/// overwrites a shape tensor's contents invalidates every alias at once.
struct Fact {
  std::optional<ShapeVec> shape;  // tensor shape
  std::optional<ShapeVec> value;  // contents of a rank-1 int64 shape tensor
  std::vector<int> fields;        // fact ids of an ADT's fields
  /// Reachable from more than one register (Move, ADT field, reshape view):
  /// liveness, which follows registers, cannot tell whether a write into
  /// it is read, so a shape function may not write it.
  bool aliased = false;
};

/// A tensor of `shape`, with contents `value` when they are known.
Fact TensorFact(ShapeVec shape, std::optional<ShapeVec> value = std::nullopt) {
  Fact fact;
  fact.shape = std::move(shape);
  fact.value = std::move(value);
  return fact;
}

/// Thrown inside the walk; SpecializeShapes turns it into nullopt.
struct Refusal {
  std::string reason;
};

[[noreturn]] void Refuse(size_t pc, const Instruction& inst,
                         const std::string& what) {
  std::ostringstream os;
  os << what << " (instruction " << pc << ": " << inst.ToString() << ")";
  throw Refusal{os.str()};
}

class Specializer {
 public:
  Specializer(const Executable& exec, const VMFunction& fn)
      : exec_(exec), reg_fact_(static_cast<size_t>(fn.register_file_size), -1) {}

  /// Rewrites `body` in place for parameters of `param_shapes` and drops
  /// what follows its Ret.
  void Rewrite(std::vector<Instruction>& body,
               const std::vector<ShapeVec>& param_shapes) {
    for (size_t i = 0; i < param_shapes.size(); ++i) {
      reg_fact_[i] = NewFact(TensorFact(param_shapes[i]));
    }
    for (size_t pc = 0; pc < body.size(); ++pc) {
      pc_ = pc;
      if (body[pc].op == Opcode::kRet) {
        FactOf(body[pc], body[pc].args[0]);
        body.resize(pc + 1);
        return;
      }
      Step(body[pc]);
    }
    throw Refusal{"the function has no Ret"};
  }

 private:
  int NewFact(Fact fact) {
    facts_.push_back(std::move(fact));
    return static_cast<int>(facts_.size()) - 1;
  }
  void Define(RegName r, Fact fact) { reg_fact_[r] = NewFact(std::move(fact)); }

  Fact& FactOf(const Instruction& inst, RegName r) {
    if (reg_fact_[r] < 0) Refuse(pc_, inst, "reads a register never written");
    return facts_[reg_fact_[r]];
  }
  const ShapeVec& ShapeOf(const Instruction& inst, RegName r) {
    const Fact& fact = FactOf(inst, r);
    if (!fact.shape) Refuse(pc_, inst, "unknown tensor shape");
    return *fact.shape;
  }
  const ShapeVec& ValueOf(const Instruction& inst, RegName r) {
    const Fact& fact = FactOf(inst, r);
    if (!fact.value) Refuse(pc_, inst, "unknown shape tensor value");
    return *fact.value;
  }

  void Step(Instruction& inst) {
    switch (inst.op) {
      case Opcode::kIf:
      case Opcode::kGoto:
      case Opcode::kInvoke:
      case Opcode::kInvokeClosure:
        Refuse(pc_, inst, "control flow");
      case Opcode::kFatal:
        Refuse(pc_, inst, "Fatal");
      case Opcode::kRet:
        break;  // handled by Rewrite
      case Opcode::kMove:
        FactOf(inst, inst.args[0]).aliased = true;
        reg_fact_[inst.dst] = reg_fact_[inst.args[0]];
        break;
      case Opcode::kLoadConst: {
        const runtime::NDArray& c = exec_.constants[inst.imm0];
        Fact fact = TensorFact(c.shape());
        if (c.dtype().code() == DTypeCode::kInt64 && c.shape().size() == 1) {
          fact.value = runtime::ShapeFromTensor(c);
        }
        Define(inst.dst, std::move(fact));
        break;
      }
      case Opcode::kLoadConsti:
      case Opcode::kGetTag:
        Define(inst.dst, TensorFact({}));
        break;
      case Opcode::kAllocStorage:
        if (inst.imm0 < 0) {
          DataType dtype(static_cast<DTypeCode>(inst.imm1));
          inst.imm0 = runtime::NumElements(ValueOf(inst, inst.args[0])) *
                      static_cast<int64_t>(dtype.bytes());
          inst.args.clear();
        }
        Define(inst.dst, Fact{});
        break;
      case Opcode::kAllocTensorReg: {
        FactOf(inst, inst.args[0]);
        ShapeVec shape = ValueOf(inst, inst.args[1]);
        inst.op = Opcode::kAllocTensor;
        inst.args.resize(1);
        inst.extra = shape;
        Define(inst.dst, TensorFact(std::move(shape)));
        break;
      }
      case Opcode::kAllocTensor:
        FactOf(inst, inst.args[0]);
        Define(inst.dst, TensorFact(inst.extra));
        break;
      case Opcode::kAllocClosure:
        for (RegName r : inst.args) FactOf(inst, r);
        Define(inst.dst, Fact{});
        break;
      case Opcode::kAllocADT: {
        Fact fact;
        for (RegName r : inst.args) {
          FactOf(inst, r).aliased = true;
          fact.fields.push_back(reg_fact_[r]);
        }
        Define(inst.dst, std::move(fact));
        break;
      }
      case Opcode::kGetField: {
        const Fact& adt = FactOf(inst, inst.args[0]);
        if (static_cast<size_t>(inst.imm0) >= adt.fields.size()) {
          Refuse(pc_, inst, "field of an unknown ADT");
        }
        reg_fact_[inst.dst] = adt.fields[inst.imm0];  // aliased already
        break;
      }
      case Opcode::kDeviceCopy:
        Define(inst.dst, TensorFact(ShapeOf(inst, inst.args[0])));
        break;
      case Opcode::kShapeOf: {
        ShapeVec shape = ShapeOf(inst, inst.args[0]);
        ShapeVec rank{static_cast<int64_t>(shape.size())};
        Define(inst.dst, TensorFact(std::move(rank), std::move(shape)));
        break;
      }
      case Opcode::kReshapeTensor: {
        // A view: it shares its source's buffer.
        ShapeVec shape = ReshapeTarget(
            ValueOf(inst, inst.args[1]),
            runtime::NumElements(ShapeOf(inst, inst.args[0])));
        facts_[reg_fact_[inst.args[0]]].aliased = true;
        Fact view = TensorFact(std::move(shape));
        view.aliased = true;
        Define(inst.dst, std::move(view));
        break;
      }
      case Opcode::kInvokePacked:
        Packed(inst);
        break;
    }
  }

  void Packed(const Instruction& inst) {
    const PackedEntry& entry = exec_.packed[inst.imm0];
    const size_t num_inputs = static_cast<size_t>(inst.imm1);
    for (RegName r : inst.args) FactOf(inst, r);
    if (entry.kind == PackedEntry::Kind::kKernel) {
      // A kernel writes its outputs in place: their shapes hold, their
      // contents are no longer known.
      for (size_t i = num_inputs; i < inst.args.size(); ++i) {
        facts_[reg_fact_[inst.args[i]]].value.reset();
      }
      return;
    }
    const op::OpInfo& info = op::OpRegistry::Global()->Get(entry.name);
    if (info.shape_mode != op::ShapeFuncMode::kDataIndependent) {
      Refuse(pc_, inst,
             info.shape_mode == op::ShapeFuncMode::kDataDependent
                 ? "data-dependent shape function " + entry.name
                 : "upper-bound shape function " + entry.name);
    }
    std::vector<ShapeVec> in_shapes;
    for (size_t i = 0; i < num_inputs; ++i) {
      in_shapes.push_back(ValueOf(inst, inst.args[i]));
    }
    std::vector<ShapeVec> out_shapes;
    try {
      out_shapes = info.shape_fn(in_shapes, {}, entry.attrs);
    } catch (const std::exception& e) {
      Refuse(pc_, inst, "shape function " + entry.name + " throws: " + e.what());
    }
    if (out_shapes.size() != inst.args.size() - num_inputs) {
      Refuse(pc_, inst, "shape function output arity mismatch");
    }
    for (size_t i = 0; i < out_shapes.size(); ++i) {
      Fact& out = facts_[reg_fact_[inst.args[num_inputs + i]]];
      ShapeVec rank{static_cast<int64_t>(out_shapes[i].size())};
      if (out.shape != rank) Refuse(pc_, inst, "shape tensor rank mismatch");
      if (out.aliased) Refuse(pc_, inst, "shape function writes an alias");
      out.value = std::move(out_shapes[i]);
    }
  }

  const Executable& exec_;
  std::vector<Fact> facts_;
  std::vector<int> reg_fact_;  // register -> fact id, -1 = never written
  size_t pc_ = 0;
};

/// Drops every instruction whose result nothing live reads. Kernel calls and
/// the return are roots; a shape function lives while any of its outputs
/// does. Kernels and shape functions write their outputs in place, so they
/// read (keep alive) every argument rather than define one.
void RemoveDead(const Executable& exec, VMFunction& fn) {
  std::vector<Instruction>& body = fn.instructions;
  std::vector<bool> live(static_cast<size_t>(fn.register_file_size), false);
  std::vector<bool> keep(body.size(), false);
  for (size_t pc = body.size(); pc-- > 0;) {
    const Instruction& inst = body[pc];
    bool needed;
    if (inst.op == Opcode::kRet) {
      needed = true;
    } else if (inst.op == Opcode::kInvokePacked) {
      needed = exec.packed[inst.imm0].kind == PackedEntry::Kind::kKernel;
      for (size_t i = static_cast<size_t>(inst.imm1); i < inst.args.size();
           ++i) {
        needed = needed || live[inst.args[i]];
      }
    } else {
      needed = live[inst.dst];
      live[inst.dst] = false;
    }
    if (!needed) continue;
    keep[pc] = true;
    for (RegName r : inst.args) live[r] = true;
  }
  std::vector<Instruction> kept;
  for (size_t pc = 0; pc < body.size(); ++pc) {
    if (keep[pc]) kept.push_back(std::move(body[pc]));
  }
  body = std::move(kept);
}

}  // namespace

std::optional<SpecializedFunction> SpecializeShapes(
    const Executable& exec, const std::string& function,
    const std::vector<ShapeVec>& param_shapes, std::string* why) {
  auto refuse = [&](const std::string& reason) {
    if (why != nullptr) *why = "@" + function + ": " + reason;
    return std::nullopt;
  };
  auto it = exec.function_index.find(function);
  if (it == exec.function_index.end()) return refuse("no such function");
  const VMFunction& fn = exec.functions[it->second];
  if (param_shapes.size() != static_cast<size_t>(fn.num_params)) {
    return refuse("takes " + std::to_string(fn.num_params) + " arguments, " +
                  std::to_string(param_shapes.size()) + " shapes given");
  }
  SpecializedFunction out;
  out.function = fn;
  out.exec = &exec;
  out.param_shapes = param_shapes;
  try {
    Specializer(exec, fn).Rewrite(out.function.instructions, param_shapes);
  } catch (const Refusal& refusal) {
    return refuse(refusal.reason);
  }
  RemoveDead(exec, out.function);
  return out;
}

}  // namespace vm
}  // namespace nimble
