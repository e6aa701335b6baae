#include "src/vm/executable.h"

#include <fstream>
#include <sstream>

#include "src/support/logging.h"

namespace nimble {
namespace vm {

namespace {

constexpr uint32_t kMagic = 0x4e4d424cu;  // "NMBL"
// Layout (version 8), every field little-endian as written by WritePod:
//   magic, version, dense dispatch variant count (uint32);
//   constants, packed-function entries and VM functions, each
//     length-prefixed;
//   batched-entry specs (src/vm/batch_spec.h): function names, step twin
//     and result state, argument indices and widths;
//   the shape-bucket variant trailer (Executable::VariantInfo);
//   the dense cache-blocking config (block_n, block_k, tuned flag).
// Load accepts exactly this version; any other is rejected.
constexpr uint32_t kVersion = 8;

// ---- primitive writers/readers ---------------------------------------------

template <typename T>
void WritePod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T ReadPod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  NIMBLE_CHECK(is.good()) << "truncated executable";
  return v;
}

void WriteString(std::ostream& os, const std::string& s) {
  WritePod<uint64_t>(os, s.size());
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string ReadString(std::istream& is) {
  uint64_t n = ReadPod<uint64_t>(is);
  std::string s(n, '\0');
  is.read(s.data(), static_cast<std::streamsize>(n));
  NIMBLE_CHECK(is.good()) << "truncated executable (string)";
  return s;
}

template <typename T>
void WriteVec(std::ostream& os, const std::vector<T>& v) {
  WritePod<uint64_t>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> ReadVec(std::istream& is) {
  uint64_t n = ReadPod<uint64_t>(is);
  std::vector<T> v(n);
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(T)));
  NIMBLE_CHECK(is.good()) << "truncated executable (vector)";
  return v;
}

void WriteAttrs(std::ostream& os, const ir::Attrs& attrs) {
  WritePod<uint64_t>(os, attrs.map().size());
  for (const auto& [key, value] : attrs.map()) {
    WriteString(os, key);
    WritePod<uint8_t>(os, static_cast<uint8_t>(value.index()));
    std::visit(
        [&os](const auto& v) {
          using T = std::decay_t<decltype(v)>;
          if constexpr (std::is_same_v<T, int64_t>) {
            WritePod<int64_t>(os, v);
          } else if constexpr (std::is_same_v<T, double>) {
            WritePod<double>(os, v);
          } else if constexpr (std::is_same_v<T, std::string>) {
            WriteString(os, v);
          } else {
            WriteVec<int64_t>(os, v);
          }
        },
        value);
  }
}

ir::Attrs ReadAttrs(std::istream& is) {
  ir::Attrs attrs;
  uint64_t n = ReadPod<uint64_t>(is);
  for (uint64_t i = 0; i < n; ++i) {
    std::string key = ReadString(is);
    uint8_t tag = ReadPod<uint8_t>(is);
    switch (tag) {
      case 0: attrs.Set(key, ReadPod<int64_t>(is)); break;
      case 1: attrs.Set(key, ReadPod<double>(is)); break;
      case 2: attrs.Set(key, ReadString(is)); break;
      case 3: attrs.Set(key, ReadVec<int64_t>(is)); break;
      default: NIMBLE_FATAL() << "bad attr tag " << static_cast<int>(tag);
    }
  }
  return attrs;
}

void WriteNDArray(std::ostream& os, const runtime::NDArray& arr) {
  WritePod<uint8_t>(os, static_cast<uint8_t>(arr.dtype().code()));
  WriteVec<int64_t>(os, arr.shape());
  WritePod<uint64_t>(os, arr.nbytes());
  os.write(static_cast<const char*>(arr.raw_data()),
           static_cast<std::streamsize>(arr.nbytes()));
}

runtime::NDArray ReadNDArray(std::istream& is) {
  auto code = static_cast<runtime::DTypeCode>(ReadPod<uint8_t>(is));
  auto shape = ReadVec<int64_t>(is);
  uint64_t bytes = ReadPod<uint64_t>(is);
  runtime::NDArray arr =
      runtime::NDArray::Empty(shape, runtime::DataType(code));
  NIMBLE_CHECK_EQ(arr.nbytes(), bytes) << "corrupt constant";
  is.read(static_cast<char*>(arr.raw_data()),
          static_cast<std::streamsize>(bytes));
  NIMBLE_CHECK(is.good()) << "truncated executable (constant)";
  return arr;
}

void WriteInstruction(std::ostream& os, const Instruction& inst) {
  WritePod<uint8_t>(os, static_cast<uint8_t>(inst.op));
  WritePod<int32_t>(os, inst.dst);
  WritePod<int64_t>(os, inst.imm0);
  WritePod<int64_t>(os, inst.imm1);
  WritePod<int64_t>(os, inst.imm2);
  WriteVec<RegName>(os, inst.args);
  WriteVec<int64_t>(os, inst.extra);
}

Instruction ReadInstruction(std::istream& is) {
  Instruction inst;
  inst.op = static_cast<Opcode>(ReadPod<uint8_t>(is));
  inst.dst = ReadPod<int32_t>(is);
  inst.imm0 = ReadPod<int64_t>(is);
  inst.imm1 = ReadPod<int64_t>(is);
  inst.imm2 = ReadPod<int64_t>(is);
  inst.args = ReadVec<RegName>(is);
  inst.extra = ReadVec<int64_t>(is);
  return inst;
}

}  // namespace

const BatchedEntrySpec* Executable::FindBatched(
    const std::string& function) const {
  for (const BatchedEntrySpec& spec : batched) {
    if (spec.function == function) return &spec;
  }
  return nullptr;
}

int32_t Executable::FunctionIndex(const std::string& name) const {
  auto it = function_index.find(name);
  NIMBLE_CHECK(it != function_index.end())
      << "executable has no function '" << name << "'";
  return it->second;
}

size_t Executable::NumInstructions() const {
  size_t n = 0;
  for (const VMFunction& fn : functions) n += fn.instructions.size();
  return n;
}

std::string Executable::Disassemble() const {
  std::ostringstream os;
  os << "constants: " << constants.size() << ", packed calls: " << packed.size()
     << "\n";
  for (size_t i = 0; i < packed.size(); ++i) {
    os << "  packed[" << i << "]: "
       << (packed[i].kind == PackedEntry::Kind::kKernel ? "kernel " : "shapefn ")
       << packed[i].name << " (inputs=" << packed[i].num_inputs << ")\n";
  }
  for (const VMFunction& fn : functions) {
    os << "func @" << fn.name << " (params=" << fn.num_params
       << ", registers=" << fn.register_file_size << "):\n";
    for (size_t i = 0; i < fn.instructions.size(); ++i) {
      os << "  " << i << ": " << fn.instructions[i].ToString() << "\n";
    }
  }
  return os.str();
}

void Executable::Save(std::ostream& os) const {
  WritePod<uint32_t>(os, kMagic);
  WritePod<uint32_t>(os, kVersion);
  WritePod<uint32_t>(os, static_cast<uint32_t>(dispatch_table.num_variants()));
  WritePod<uint64_t>(os, constants.size());
  for (const auto& c : constants) WriteNDArray(os, c);
  WritePod<uint64_t>(os, packed.size());
  for (const PackedEntry& p : packed) {
    WritePod<uint8_t>(os, static_cast<uint8_t>(p.kind));
    WriteString(os, p.name);
    WriteAttrs(os, p.attrs);
    WritePod<int32_t>(os, p.num_inputs);
    WritePod<int32_t>(os, p.shape_mode);
  }
  WritePod<uint64_t>(os, functions.size());
  for (const VMFunction& fn : functions) {
    WriteString(os, fn.name);
    WritePod<int32_t>(os, fn.num_params);
    WritePod<int32_t>(os, fn.register_file_size);
    WritePod<uint64_t>(os, fn.instructions.size());
    for (const Instruction& inst : fn.instructions) WriteInstruction(os, inst);
  }
  WritePod<uint64_t>(os, batched.size());
  for (const BatchedEntrySpec& spec : batched) {
    WriteString(os, spec.function);
    WriteString(os, spec.batched_function);
    WriteString(os, spec.exact_batched_function);
    WriteString(os, spec.step_function);
    WritePod<int32_t>(os, spec.result_state);
    WritePod<int32_t>(os, spec.seq_arg);
    WritePod<int32_t>(os, spec.len_arg);
    WritePod<int32_t>(os, spec.feature_width);
    WritePod<int32_t>(os, spec.state_width);
    WritePod<int32_t>(os, spec.num_state_args);
  }
  WritePod<int64_t>(os, variant.specialized_len);
  WritePod<int64_t>(os, variant.specialized_batch);
  WritePod<int64_t>(os, dense_config.block_n);
  WritePod<int64_t>(os, dense_config.block_k);
  WritePod<uint8_t>(os, dense_config_tuned ? 1 : 0);
}

std::shared_ptr<Executable> Executable::Load(std::istream& is) {
  NIMBLE_CHECK_EQ(ReadPod<uint32_t>(is), kMagic) << "not a Nimble executable";
  uint32_t version = ReadPod<uint32_t>(is);
  NIMBLE_CHECK(version == kVersion)
      << "unsupported executable version " << version << " (this build reads "
      << kVersion << ")";
  auto exec = std::make_shared<Executable>();
  exec->dispatch_table.Configure(static_cast<int>(ReadPod<uint32_t>(is)));
  uint64_t num_consts = ReadPod<uint64_t>(is);
  for (uint64_t i = 0; i < num_consts; ++i) {
    exec->constants.push_back(ReadNDArray(is));
  }
  uint64_t num_packed = ReadPod<uint64_t>(is);
  for (uint64_t i = 0; i < num_packed; ++i) {
    PackedEntry p;
    p.kind = static_cast<PackedEntry::Kind>(ReadPod<uint8_t>(is));
    p.name = ReadString(is);
    p.attrs = ReadAttrs(is);
    p.num_inputs = ReadPod<int32_t>(is);
    p.shape_mode = ReadPod<int32_t>(is);
    exec->packed.push_back(std::move(p));
  }
  uint64_t num_fns = ReadPod<uint64_t>(is);
  for (uint64_t i = 0; i < num_fns; ++i) {
    VMFunction fn;
    fn.name = ReadString(is);
    fn.num_params = ReadPod<int32_t>(is);
    fn.register_file_size = ReadPod<int32_t>(is);
    uint64_t num_insts = ReadPod<uint64_t>(is);
    fn.instructions.reserve(num_insts);
    for (uint64_t j = 0; j < num_insts; ++j) {
      fn.instructions.push_back(ReadInstruction(is));
    }
    exec->function_index[fn.name] = static_cast<int32_t>(exec->functions.size());
    exec->functions.push_back(std::move(fn));
  }
  uint64_t num_batched = ReadPod<uint64_t>(is);
  for (uint64_t i = 0; i < num_batched; ++i) {
    BatchedEntrySpec spec;
    spec.function = ReadString(is);
    spec.batched_function = ReadString(is);
    spec.exact_batched_function = ReadString(is);
    spec.step_function = ReadString(is);
    spec.result_state = ReadPod<int32_t>(is);
    spec.seq_arg = ReadPod<int32_t>(is);
    spec.len_arg = ReadPod<int32_t>(is);
    spec.feature_width = ReadPod<int32_t>(is);
    spec.state_width = ReadPod<int32_t>(is);
    spec.num_state_args = ReadPod<int32_t>(is);
    exec->batched.push_back(std::move(spec));
  }
  exec->variant.specialized_len = ReadPod<int64_t>(is);
  exec->variant.specialized_batch = ReadPod<int64_t>(is);
  exec->dense_config.block_n = ReadPod<int64_t>(is);
  exec->dense_config.block_k = ReadPod<int64_t>(is);
  exec->dense_config_tuned = ReadPod<uint8_t>(is) != 0;
  return exec;
}

void Executable::SaveToFile(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  NIMBLE_CHECK(os.good()) << "cannot open " << path << " for writing";
  Save(os);
}

std::shared_ptr<Executable> Executable::LoadFromFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  NIMBLE_CHECK(is.good()) << "cannot open " << path;
  return Load(is);
}

}  // namespace vm
}  // namespace nimble
