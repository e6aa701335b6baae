#include "src/vm/bytecode.h"

#include <sstream>

namespace nimble {
namespace vm {

const char* OpcodeName(Opcode op) {
  switch (op) {
    case Opcode::kMove: return "Move";
    case Opcode::kRet: return "Ret";
    case Opcode::kInvoke: return "Invoke";
    case Opcode::kInvokeClosure: return "InvokeClosure";
    case Opcode::kInvokePacked: return "InvokePacked";
    case Opcode::kAllocStorage: return "AllocStorage";
    case Opcode::kAllocTensor: return "AllocTensor";
    case Opcode::kAllocTensorReg: return "AllocTensorReg";
    case Opcode::kAllocADT: return "AllocADT";
    case Opcode::kAllocClosure: return "AllocClosure";
    case Opcode::kGetField: return "GetField";
    case Opcode::kGetTag: return "GetTag";
    case Opcode::kIf: return "If";
    case Opcode::kGoto: return "Goto";
    case Opcode::kLoadConst: return "LoadConst";
    case Opcode::kLoadConsti: return "LoadConsti";
    case Opcode::kDeviceCopy: return "DeviceCopy";
    case Opcode::kShapeOf: return "ShapeOf";
    case Opcode::kReshapeTensor: return "ReshapeTensor";
    case Opcode::kFatal: return "Fatal";
  }
  return "<bad>";
}

std::vector<int64_t> ReshapeTarget(std::vector<int64_t> shape,
                                   int64_t num_elements) {
  int64_t known = 1;
  int infer_at = -1;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      infer_at = static_cast<int>(i);
    } else {
      known *= shape[i];
    }
  }
  if (infer_at >= 0) shape[infer_at] = num_elements / known;
  return shape;
}

std::string Instruction::ToString() const {
  std::ostringstream os;
  os << OpcodeName(op);
  if (dst >= 0) os << " $" << dst << " <-";
  os << " imm(" << imm0 << "," << imm1 << "," << imm2 << ")";
  if (!args.empty()) {
    os << " regs[";
    for (size_t i = 0; i < args.size(); ++i) {
      if (i) os << ",";
      os << "$" << args[i];
    }
    os << "]";
  }
  if (!extra.empty()) {
    os << " extra[";
    for (size_t i = 0; i < extra.size(); ++i) {
      if (i) os << ",";
      os << extra[i];
    }
    os << "]";
  }
  return os.str();
}

}  // namespace vm
}  // namespace nimble
