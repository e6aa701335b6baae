// VM instruction set (§5.1, Appendix A).
//
// Exactly the 20 CISC-style opcodes of Table A.1. Instructions operate on an
// infinite virtual register file per frame; each instruction corresponds to
// a coarse-grained tensor operation, so dispatch overhead is negligible
// relative to kernel execution. The representation is a tagged struct (the
// paper's tagged union) with variable-length operand lists, enabling simple
// serialization and fast decoding.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/runtime/device.h"

namespace nimble {
namespace vm {

using RegName = int32_t;

enum class Opcode : uint8_t {
  kMove = 0,           // dst <- args[0]
  kRet = 1,            // return args[0] to the caller
  kInvoke = 2,         // dst <- call functions[imm0](args...)
  kInvokeClosure = 3,  // dst <- call closure args[0] with (captured ++ rest)
  kInvokePacked = 4,   // run packed kernel imm0; args = inputs ++ outputs
  kAllocStorage = 5,   // dst <- storage; imm0 = size (-1: from shape args[0]),
                       // imm1 = dtype code, imm2 = packed device
  kAllocTensor = 6,    // dst <- tensor(storage args[0], static shape `extra`),
                       // imm0 = byte offset, imm1 = dtype code
  kAllocTensorReg = 7, // dst <- tensor(storage args[0], shape reg args[1]),
                       // imm0 = byte offset, imm1 = dtype code
  kAllocADT = 8,       // dst <- ADT(tag imm0; -1 = tuple) of args
  kAllocClosure = 9,   // dst <- closure(functions[imm0], captured = args)
  kGetField = 10,      // dst <- args[0].fields[imm0]
  kGetTag = 11,        // dst <- int64 scalar tag of ADT args[0]
  kIf = 12,            // if scalar(args[0]) == scalar(args[1]) pc += imm0
                       // else pc += imm1
  kGoto = 13,          // pc += imm0
  kLoadConst = 14,     // dst <- constants[imm0]
  kLoadConsti = 15,    // dst <- int64 scalar imm0
  kDeviceCopy = 16,    // dst <- copy of tensor args[0] onto device imm2
  kShapeOf = 17,       // dst <- 1-D int64 tensor holding args[0]'s shape
  kReshapeTensor = 18, // dst <- view of args[0] with shape from reg args[1]
  kFatal = 19,         // raise a fatal VM error
};

const char* OpcodeName(Opcode op);

/// Packs a Device into an int64 immediate (and back).
inline int64_t PackDevice(runtime::Device d) {
  return (static_cast<int64_t>(d.type) << 16) | static_cast<int64_t>(d.id);
}
inline runtime::Device UnpackDevice(int64_t packed) {
  return runtime::Device{static_cast<runtime::DeviceType>(packed >> 16),
                         static_cast<int>(packed & 0xffff)};
}

/// The shape ReshapeTensor gives a tensor of `num_elements` elements for
/// target `shape`: a single -1 entry is inferred from the element count.
std::vector<int64_t> ReshapeTarget(std::vector<int64_t> shape,
                                   int64_t num_elements);

struct Instruction {
  Opcode op = Opcode::kFatal;
  RegName dst = -1;
  int64_t imm0 = 0;
  int64_t imm1 = 0;
  int64_t imm2 = 0;
  std::vector<RegName> args;
  std::vector<int64_t> extra;  // static shapes etc.

  std::string ToString() const;

  bool operator==(const Instruction& o) const {
    return op == o.op && dst == o.dst && imm0 == o.imm0 && imm1 == o.imm1 &&
           imm2 == o.imm2 && args == o.args && extra == o.extra;
  }
};

}  // namespace vm
}  // namespace nimble
