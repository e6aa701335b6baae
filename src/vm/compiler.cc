#include "src/vm/compiler.h"

#include <unordered_map>
#include <unordered_set>

#include "src/ir/printer.h"
#include "src/ir/visitor.h"
#include "src/op/registry.h"
#include "src/support/logging.h"

namespace nimble {
namespace vm {

using namespace ir;  // NOLINT

namespace {

/// memory.invoke_mut and vm.shape_func: an InvokePacked that writes its
/// outputs in place and yields no value of its own.
bool IsPackedCall(const Expr& e) {
  return IsCallToOp(e, "memory.invoke_mut") || IsCallToOp(e, "vm.shape_func");
}

/// Every variable some expression reads. A let binder is a definition, not
/// a read, and memory.kill only recycles its operand's register.
class ReadVarCollector : public ExprVisitor {
 public:
  std::unordered_set<const VarNode*> read;

 protected:
  void VisitVar_(const VarNode* node) override { read.insert(node); }
  void VisitLet_(const LetNode* node) override {
    Visit(node->value);
    Visit(node->body);
  }
  void VisitCall_(const CallNode* node) override {
    if (node->op->kind() == ExprKind::kOp &&
        static_cast<const OpNode*>(node->op.get())->name == "memory.kill") {
      return;
    }
    ExprVisitor::VisitCall_(node);
  }
};

class CompilerImpl {
 public:
  std::shared_ptr<Executable> Compile(const Module& mod) {
    mod_ = &mod;
    ReadVarCollector reads;
    for (const auto& [name, fn] : mod.functions()) reads.Visit(fn);
    read_vars_ = std::move(reads.read);
    exec_ = std::make_shared<Executable>();
    // Pre-assign indices so mutually recursive calls resolve.
    for (const auto& [name, fn] : mod.functions()) {
      exec_->function_index[name] = static_cast<int32_t>(exec_->functions.size());
      exec_->functions.push_back(VMFunction{name, 0, 0, {}});
    }
    for (const auto& [name, fn] : mod.functions()) {
      CompileFunction(exec_->function_index[name], fn->params, fn->body);
    }
    return exec_;
  }

 private:
  // ---- per-function compilation state --------------------------------------

  struct FuncCtx {
    std::vector<Instruction> code;
    std::unordered_map<const VarNode*, RegName> env;
    std::vector<RegName> free_regs;
    int32_t num_regs = 0;
  };

  RegName NewReg(FuncCtx* ctx) {
    if (!ctx->free_regs.empty()) {
      RegName r = ctx->free_regs.back();
      ctx->free_regs.pop_back();
      return r;
    }
    return ctx->num_regs++;
  }

  void Emit(FuncCtx* ctx, Instruction inst) {
    ctx->code.push_back(std::move(inst));
  }

  void CompileFunction(int32_t index, const std::vector<Var>& params,
                       const Expr& body) {
    FuncCtx ctx;
    for (const Var& p : params) {
      ctx.env[p.get()] = NewReg(&ctx);
    }
    RegName result = CompileBlock(body, &ctx);
    Instruction ret;
    ret.op = Opcode::kRet;
    ret.args = {result};
    Emit(&ctx, ret);
    VMFunction& fn = exec_->functions[index];
    fn.num_params = static_cast<int32_t>(params.size());
    fn.register_file_size = ctx.num_regs;
    fn.instructions = std::move(ctx.code);
  }

  /// Compiles a let-chain scope; returns the register holding its value.
  RegName CompileBlock(const Expr& scope, FuncCtx* ctx) {
    Expr cursor = scope;
    while (cursor->kind() == ExprKind::kLet) {
      const auto* let = static_cast<const LetNode*>(cursor.get());
      // memory.kill is consumed here: recycle the register.
      if (IsCallToOp(let->value, "memory.kill")) {
        const auto* call = AsCall(let->value);
        if (call->args[0]->kind() == ExprKind::kVar) {
          auto it = ctx->env.find(
              static_cast<const VarNode*>(call->args[0].get()));
          if (it != ctx->env.end()) ctx->free_regs.push_back(it->second);
        }
        cursor = let->body;
        continue;
      }
      // A packed call's value is a dummy; bind one only if it is read.
      if (IsPackedCall(let->value) && read_vars_.count(let->var.get()) == 0) {
        EmitPackedCall(AsCall(let->value), ctx);
        cursor = let->body;
        continue;
      }
      RegName r = CompileValue(let->value, ctx);
      ctx->env[let->var.get()] = r;
      cursor = let->body;
    }
    return CompileAtom(cursor, ctx);
  }

  RegName CompileAtom(const Expr& e, FuncCtx* ctx) {
    switch (e->kind()) {
      case ExprKind::kVar: {
        auto it = ctx->env.find(static_cast<const VarNode*>(e.get()));
        NIMBLE_CHECK(it != ctx->env.end())
            << "unbound variable in VM compilation: " << PrintExpr(e);
        return it->second;
      }
      case ExprKind::kConstant: {
        RegName dst = NewReg(ctx);
        Instruction inst;
        inst.op = Opcode::kLoadConst;
        inst.dst = dst;
        inst.imm0 = ConstIndex(static_cast<const ConstantNode*>(e.get()));
        Emit(ctx, inst);
        return dst;
      }
      case ExprKind::kGlobalVar: {
        // First-class reference to a global: wrap in a captureless closure.
        RegName dst = NewReg(ctx);
        Instruction inst;
        inst.op = Opcode::kAllocClosure;
        inst.dst = dst;
        inst.imm0 = exec_->FunctionIndex(
            static_cast<const GlobalVarNode*>(e.get())->name);
        Emit(ctx, inst);
        return dst;
      }
      default:
        return CompileValue(e, ctx);
    }
  }

  RegName CompileValue(const Expr& value, FuncCtx* ctx) {
    switch (value->kind()) {
      case ExprKind::kVar:
      case ExprKind::kConstant:
      case ExprKind::kGlobalVar:
        return CompileAtom(value, ctx);
      case ExprKind::kTuple: {
        const auto* t = static_cast<const TupleNode*>(value.get());
        Instruction inst;
        inst.op = Opcode::kAllocADT;
        inst.imm0 = -1;  // tuple
        for (const Expr& f : t->fields) inst.args.push_back(CompileAtom(f, ctx));
        inst.dst = NewReg(ctx);
        Emit(ctx, inst);
        return inst.dst;
      }
      case ExprKind::kTupleGetItem: {
        const auto* t = static_cast<const TupleGetItemNode*>(value.get());
        Instruction inst;
        inst.op = Opcode::kGetField;
        inst.args = {CompileAtom(t->tuple, ctx)};
        inst.imm0 = t->index;
        inst.dst = NewReg(ctx);
        Emit(ctx, inst);
        return inst.dst;
      }
      case ExprKind::kCall:
        return CompileCall(static_cast<const CallNode*>(value.get()), ctx);
      case ExprKind::kIf:
        return CompileIf(static_cast<const IfNode*>(value.get()), ctx);
      case ExprKind::kMatch:
        return CompileMatch(static_cast<const MatchNode*>(value.get()), ctx);
      case ExprKind::kFunction:
        return CompileClosure(
            std::static_pointer_cast<const FunctionNode>(value), ctx);
      default:
        NIMBLE_FATAL() << "cannot compile expression kind "
                       << static_cast<int>(value->kind());
    }
  }

  RegName CompileCall(const CallNode* call, FuncCtx* ctx) {
    // Primitive / dialect operators.
    if (call->op->kind() == ExprKind::kOp) {
      return CompileOpCall(call, ctx);
    }
    // ADT constructor application.
    if (call->op->kind() == ExprKind::kConstructor) {
      const auto* c = static_cast<const ConstructorNode*>(call->op.get());
      Instruction inst;
      inst.op = Opcode::kAllocADT;
      inst.imm0 = static_cast<int64_t>(c->tag);
      for (const Expr& a : call->args) inst.args.push_back(CompileAtom(a, ctx));
      inst.dst = NewReg(ctx);
      Emit(ctx, inst);
      return inst.dst;
    }
    // Direct call of a global function.
    if (call->op->kind() == ExprKind::kGlobalVar) {
      Instruction inst;
      inst.op = Opcode::kInvoke;
      inst.imm0 = exec_->FunctionIndex(
          static_cast<const GlobalVarNode*>(call->op.get())->name);
      for (const Expr& a : call->args) inst.args.push_back(CompileAtom(a, ctx));
      inst.dst = NewReg(ctx);
      Emit(ctx, inst);
      return inst.dst;
    }
    // Closure call (var or immediate function literal).
    RegName closure = CompileAtom(call->op, ctx);
    Instruction inst;
    inst.op = Opcode::kInvokeClosure;
    inst.args = {closure};
    for (const Expr& a : call->args) inst.args.push_back(CompileAtom(a, ctx));
    inst.dst = NewReg(ctx);
    Emit(ctx, inst);
    return inst.dst;
  }

  RegName CompileOpCall(const CallNode* call, FuncCtx* ctx) {
    const std::string& name = static_cast<const OpNode*>(call->op.get())->name;
    if (name == "memory.alloc_storage") {
      Instruction inst;
      inst.op = Opcode::kAllocStorage;
      if (call->attrs.Has("size") && call->args.empty()) {
        inst.imm0 = call->attrs.GetInt("size");
      } else {
        inst.imm0 = -1;  // size from shape register
        NIMBLE_CHECK_EQ(call->args.size(), 1u);
        inst.args = {CompileAtom(call->args[0], ctx)};
        inst.imm1 = static_cast<int64_t>(
            runtime::DataType::FromString(call->attrs.GetStr("dtype", "float32"))
                .code());
      }
      inst.imm2 =
          PackDevice(call->attrs.GetDevice("device", runtime::Device::CPU()));
      inst.dst = NewReg(ctx);
      Emit(ctx, inst);
      return inst.dst;
    }
    if (name == "memory.alloc_tensor") {
      Instruction inst;
      inst.imm0 = call->attrs.GetInt("offset", 0);
      inst.imm1 = static_cast<int64_t>(
          runtime::DataType::FromString(call->attrs.GetStr("dtype", "float32"))
              .code());
      RegName storage = CompileAtom(call->args[0], ctx);
      if (call->args[1]->kind() == ExprKind::kConstant) {
        inst.op = Opcode::kAllocTensor;
        inst.args = {storage};
        inst.extra = runtime::ShapeFromTensor(
            static_cast<const ConstantNode*>(call->args[1].get())->data);
      } else {
        inst.op = Opcode::kAllocTensorReg;
        inst.args = {storage, CompileAtom(call->args[1], ctx)};
      }
      inst.dst = NewReg(ctx);
      Emit(ctx, inst);
      return inst.dst;
    }
    if (name == "memory.invoke_mut" || name == "vm.shape_func") {
      EmitPackedCall(call, ctx);
      // The call yields no value; whoever reads this one gets the immediate 0.
      RegName dst = NewReg(ctx);
      Instruction zero;
      zero.op = Opcode::kLoadConsti;
      zero.imm0 = 0;
      zero.dst = dst;
      Emit(ctx, zero);
      return dst;
    }
    if (name == "vm.shape_of") {
      Instruction inst;
      inst.op = Opcode::kShapeOf;
      inst.args = {CompileAtom(call->args[0], ctx)};
      inst.dst = NewReg(ctx);
      Emit(ctx, inst);
      return inst.dst;
    }
    if (name == "vm.reshape_tensor") {
      Instruction inst;
      inst.op = Opcode::kReshapeTensor;
      inst.args = {CompileAtom(call->args[0], ctx),
                   CompileAtom(call->args[1], ctx)};
      inst.dst = NewReg(ctx);
      Emit(ctx, inst);
      return inst.dst;
    }
    if (name == "device_copy") {
      Instruction inst;
      inst.op = Opcode::kDeviceCopy;
      inst.args = {CompileAtom(call->args[0], ctx)};
      inst.imm2 = PackDevice(
          call->attrs.GetDevice("dst_device", runtime::Device::CPU()));
      inst.dst = NewReg(ctx);
      Emit(ctx, inst);
      return inst.dst;
    }
    NIMBLE_FATAL() << "operator '" << name
                   << "' reached the VM compiler; run ManifestAlloc first";
  }

  void EmitPackedCall(const CallNode* call, FuncCtx* ctx) {
    std::string op_name = call->attrs.GetStr("op_name");
    PackedEntry entry;
    if (static_cast<const OpNode*>(call->op.get())->name ==
        "memory.invoke_mut") {
      entry.kind = PackedEntry::Kind::kKernel;
      entry.name = op::OpRegistry::Global()->Get(op_name).kernel_name;
    } else {
      entry.kind = PackedEntry::Kind::kShapeFunc;
      entry.name = op_name;
      entry.shape_mode = static_cast<int32_t>(call->attrs.GetInt("mode"));
    }
    entry.attrs = call->attrs;
    entry.num_inputs = static_cast<int32_t>(call->attrs.GetInt("num_inputs"));
    Instruction inst;
    inst.op = Opcode::kInvokePacked;
    inst.imm0 = PackedIndex(entry);
    inst.imm1 = entry.num_inputs;
    for (const Expr& a : call->args) inst.args.push_back(CompileAtom(a, ctx));
    Emit(ctx, inst);
  }

  RegName CompileIf(const IfNode* node, FuncCtx* ctx) {
    RegName cond = CompileAtom(node->cond, ctx);
    RegName one = NewReg(ctx);
    Instruction load_one;
    load_one.op = Opcode::kLoadConsti;
    load_one.imm0 = 1;
    load_one.dst = one;
    Emit(ctx, load_one);

    RegName dst = NewReg(ctx);
    size_t if_pos = ctx->code.size();
    Instruction branch;
    branch.op = Opcode::kIf;
    branch.args = {cond, one};
    branch.imm0 = 1;  // equal: fall through to the then-block
    branch.imm1 = 0;  // patched to skip to the else-block
    Emit(ctx, branch);

    RegName then_res = CompileBlock(node->then_branch, ctx);
    Instruction move_t;
    move_t.op = Opcode::kMove;
    move_t.dst = dst;
    move_t.args = {then_res};
    Emit(ctx, move_t);
    size_t goto_pos = ctx->code.size();
    Instruction skip;
    skip.op = Opcode::kGoto;
    skip.imm0 = 0;  // patched to jump past the else-block
    Emit(ctx, skip);

    size_t else_start = ctx->code.size();
    ctx->code[if_pos].imm1 = static_cast<int64_t>(else_start - if_pos);
    RegName else_res = CompileBlock(node->else_branch, ctx);
    Instruction move_e;
    move_e.op = Opcode::kMove;
    move_e.dst = dst;
    move_e.args = {else_res};
    Emit(ctx, move_e);
    ctx->code[goto_pos].imm0 = static_cast<int64_t>(ctx->code.size() - goto_pos);
    return dst;
  }

  RegName CompileMatch(const MatchNode* node, FuncCtx* ctx) {
    RegName data = CompileAtom(node->data, ctx);
    RegName tag = NewReg(ctx);
    Instruction get_tag;
    get_tag.op = Opcode::kGetTag;
    get_tag.args = {data};
    get_tag.dst = tag;
    Emit(ctx, get_tag);

    RegName dst = NewReg(ctx);
    std::vector<size_t> end_gotos;
    for (size_t ci = 0; ci < node->clauses.size(); ++ci) {
      const MatchClause& clause = node->clauses[ci];
      bool is_last = ci + 1 == node->clauses.size();
      size_t if_pos = 0;
      if (clause.ctor != nullptr && !is_last) {
        RegName want = NewReg(ctx);
        Instruction load;
        load.op = Opcode::kLoadConsti;
        load.imm0 = static_cast<int64_t>(clause.ctor->tag);
        load.dst = want;
        Emit(ctx, load);
        if_pos = ctx->code.size();
        Instruction test;
        test.op = Opcode::kIf;
        test.args = {tag, want};
        test.imm0 = 1;  // match: fall through
        test.imm1 = 0;  // patched: next clause
        Emit(ctx, test);
      }
      // Bind constructor fields.
      if (clause.ctor != nullptr) {
        for (size_t f = 0; f < clause.binds.size(); ++f) {
          Instruction get;
          get.op = Opcode::kGetField;
          get.args = {data};
          get.imm0 = static_cast<int64_t>(f);
          get.dst = NewReg(ctx);
          ctx->env[clause.binds[f].get()] = get.dst;
          Emit(ctx, get);
        }
      }
      RegName res = CompileBlock(clause.body, ctx);
      Instruction move;
      move.op = Opcode::kMove;
      move.dst = dst;
      move.args = {res};
      Emit(ctx, move);
      if (!is_last) {
        end_gotos.push_back(ctx->code.size());
        Instruction skip;
        skip.op = Opcode::kGoto;
        skip.imm0 = 0;
        Emit(ctx, skip);
        if (clause.ctor != nullptr) {
          ctx->code[if_pos].imm1 =
              static_cast<int64_t>(ctx->code.size() - if_pos);
        }
      }
    }
    for (size_t pos : end_gotos) {
      ctx->code[pos].imm0 = static_cast<int64_t>(ctx->code.size() - pos);
    }
    return dst;
  }

  RegName CompileClosure(const Function& fn, FuncCtx* ctx) {
    // Lambda-lift: captured free variables become leading parameters.
    std::vector<Var> free = FreeVars(fn);
    std::vector<Var> lifted_params = free;
    for (const Var& p : fn->params) lifted_params.push_back(p);
    std::string name = "lambda_" + std::to_string(lambda_counter_++);
    int32_t index = static_cast<int32_t>(exec_->functions.size());
    exec_->function_index[name] = index;
    exec_->functions.push_back(VMFunction{name, 0, 0, {}});
    CompileFunction(index, lifted_params, fn->body);

    Instruction inst;
    inst.op = Opcode::kAllocClosure;
    inst.imm0 = index;
    for (const Var& v : free) inst.args.push_back(CompileAtom(v, ctx));
    inst.dst = NewReg(ctx);
    Emit(ctx, inst);
    return inst.dst;
  }

  int64_t ConstIndex(const ConstantNode* node) {
    auto it = const_indices_.find(node);
    if (it != const_indices_.end()) return it->second;
    int64_t index = static_cast<int64_t>(exec_->constants.size());
    exec_->constants.push_back(node->data);
    const_indices_[node] = index;
    return index;
  }

  int64_t PackedIndex(const PackedEntry& entry) {
    std::string key = std::to_string(static_cast<int>(entry.kind)) + "|" +
                      entry.name + "|" + entry.attrs.ToString() + "|" +
                      std::to_string(entry.num_inputs);
    auto it = packed_indices_.find(key);
    if (it != packed_indices_.end()) return it->second;
    int64_t index = static_cast<int64_t>(exec_->packed.size());
    exec_->packed.push_back(entry);
    packed_indices_[key] = index;
    return index;
  }

  const Module* mod_ = nullptr;
  std::unordered_set<const VarNode*> read_vars_;
  std::shared_ptr<Executable> exec_;
  std::unordered_map<const ConstantNode*, int64_t> const_indices_;
  std::unordered_map<std::string, int64_t> packed_indices_;
  int lambda_counter_ = 0;
};

}  // namespace

std::shared_ptr<Executable> VMCompiler::Compile(const Module& mod) {
  return CompilerImpl().Compile(mod);
}

}  // namespace vm
}  // namespace nimble
