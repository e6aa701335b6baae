// Shape specialization of VM bytecode for fixed argument shapes (§4.2).
//
// Nimble computes shapes at run time — ShapeOf, shape functions, storage
// sized from shape tensors — only because they may change from one call to
// the next. A caller that invokes one function with the same argument
// shapes for its whole life (the continuous step twin runs over
// [num_slots, *] tensors until its runner stops, src/batch/step_runner.h)
// can pay for them once. SpecializeShapes walks a straight-line function
// with its argument shapes known, tracking each register's shape (through
// constants, allocations, Move and ADT fields) and each shape tensor's
// value. It
//   - folds every ShapeOf,
//   - evaluates every data-independent shape function once,
//   - rewrites dynamic AllocStorage to its static size and AllocTensorReg
//     to AllocTensor,
// then drops, by backward liveness, every instruction whose result nothing
// live reads. Kernel calls and the return are always kept; a shape tensor
// that something live reads as data (a ReshapeTensor, a kernel input, the
// return value) keeps its producer.
//
// The result is an ordinary VMFunction run by the VM's one dispatch loop
// (VirtualMachine::Invoke's SpecializedFunction overload): no new opcode,
// no change to the executable format, and the Executable is not modified.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/runtime/ndarray.h"
#include "src/vm/executable.h"

namespace nimble {
namespace vm {

/// A function body valid only for one executable and one set of argument
/// shapes, both recorded here; VirtualMachine::Invoke throws when either
/// does not match.
struct SpecializedFunction {
  /// The rewritten body: same name, parameter count and register file size
  /// as the function it was derived from.
  VMFunction function;
  /// The executable whose constants, packed-call table and shape functions
  /// the body was derived from. Not owned: the caller keeps it alive (and
  /// bound to the VM) for as long as it runs the body.
  const Executable* exec = nullptr;
  /// The argument shapes the body was specialized for (all tensors).
  std::vector<runtime::ShapeVec> param_shapes;
};

/// Specializes `exec`'s function `function` for tensor arguments of exactly
/// `param_shapes`. Returns nullopt — with the reason in `*why` when `why`
/// is not null — when the function is not straight-line code (If, Goto,
/// Invoke, InvokeClosure, Fatal), calls a data-dependent or upper-bound
/// shape function or one that throws for these shapes, or has a shape the
/// pass cannot derive.
std::optional<SpecializedFunction> SpecializeShapes(
    const Executable& exec, const std::string& function,
    const std::vector<runtime::ShapeVec>& param_shapes,
    std::string* why = nullptr);

}  // namespace vm
}  // namespace nimble
