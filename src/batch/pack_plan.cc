#include "src/batch/pack_plan.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "src/obs/memory.h"
#include "src/support/logging.h"

namespace nimble {
namespace batch {

using runtime::DataType;
using runtime::NDArray;
using runtime::ObjectRef;

namespace {

/// Builds a failure reason; only called on rejection branches so the
/// per-batch success path never constructs a stream.
template <typename... Parts>
std::string Why(const serve::Request& request, const Parts&... parts) {
  std::ostringstream why;
  why << "request " << request.id;
  (why << ... << parts);
  return why.str();
}

NDArray ZeroTensor(runtime::ShapeVec shape, DataType dtype,
                   runtime::Allocator* alloc) {
  NDArray arr =
      NDArray::Empty(std::move(shape), dtype, runtime::Device::CPU(), alloc);
  std::memset(arr.raw_data(), 0, arr.nbytes());
  return arr;
}

}  // namespace

const NDArray* SeqTensor(const vm::BatchedEntrySpec& spec,
                         const serve::Request& request, std::string* reason) {
  if (static_cast<size_t>(spec.seq_arg) >= request.args.size()) {
    *reason = Why(request, " has no arg ", spec.seq_arg);
    return nullptr;
  }
  const ObjectRef& obj = request.args[static_cast<size_t>(spec.seq_arg)];
  if (obj == nullptr || obj->tag() != runtime::ObjectTag::kTensor) {
    *reason = Why(request, " arg ", spec.seq_arg, " is not a tensor");
    return nullptr;
  }
  const NDArray& seq = runtime::AsTensor(obj);
  if (seq.ndim() != 2 || seq.shape()[1] != spec.feature_width ||
      seq.dtype() != DataType::Float32()) {
    *reason = Why(request, " sequence is ",
                  runtime::ShapeToString(seq.shape()), " ",
                  seq.dtype().ToString(), ", expected [len, ",
                  spec.feature_width, "] float32");
    return nullptr;
  }
  return &seq;
}

int64_t SeqLength(const vm::BatchedEntrySpec& spec,
                  const serve::Request& request, const NDArray& seq,
                  std::string* reason) {
  int64_t rows = seq.shape()[0];
  if (spec.len_arg < 0) return rows;
  if (static_cast<size_t>(spec.len_arg) >= request.args.size()) {
    *reason = Why(request, " has no length arg ", spec.len_arg);
    return -1;
  }
  const ObjectRef& obj = request.args[static_cast<size_t>(spec.len_arg)];
  if (obj == nullptr || obj->tag() != runtime::ObjectTag::kTensor) {
    *reason = Why(request, " length arg is not a tensor");
    return -1;
  }
  const NDArray& len_arr = runtime::AsTensor(obj);
  if (len_arr.num_elements() != 1 || len_arr.dtype() != DataType::Int64()) {
    *reason = Why(request, " length arg is not an int64 scalar");
    return -1;
  }
  int64_t len = len_arr.data<int64_t>()[0];
  if (len < 1 || len > rows) {
    *reason = Why(request, " length ", len, " outside [1, rows=", rows, "]");
    return -1;
  }
  return len;
}

PackCheck AnalyzeBatch(const vm::Executable& exec,
                       const std::vector<serve::Request>& requests) {
  PackCheck check;
  if (requests.empty()) {
    check.reason = "empty batch";
    return check;
  }
  const std::string& function = requests.front().function;
  for (const serve::Request& request : requests) {
    if (request.function != function) {
      check.reason = "mixed entry points in one batch";
      return check;
    }
  }
  const vm::BatchedEntrySpec* spec = exec.FindBatched(function);
  if (spec == nullptr) {
    check.reason = "no batched entry for '" + function + "'";
    return check;
  }
  // Variant shape gate first (it implies the most precise reason): a
  // specialized executable only serves batches of exactly its baked shape.
  const vm::Executable::VariantInfo& variant = exec.variant;
  if (variant.is_variant() && variant.specialized_batch > 0 &&
      static_cast<int64_t>(requests.size()) != variant.specialized_batch) {
    std::ostringstream why;
    why << "variant is specialized to batches of " << variant.specialized_batch
        << ", got " << requests.size();
    check.reason = why.str();
    return check;
  }
  for (const serve::Request& request : requests) {
    const NDArray* seq = SeqTensor(*spec, request, &check.reason);
    if (seq == nullptr) return check;
    int64_t len = SeqLength(*spec, request, *seq, &check.reason);
    if (len < 0) return check;
    if (variant.is_variant() && len != variant.specialized_len) {
      check.reason = Why(request, " length ", len,
                         " does not match the variant's specialized length ",
                         variant.specialized_len);
      return check;
    }
  }
  check.spec = spec;
  return check;
}

PackPlan PackPlan::Build(const vm::BatchedEntrySpec& spec,
                         const std::vector<serve::Request>& requests,
                         int64_t forced_max_len) {
  PackPlan plan;
  plan.spec_ = &spec;
  plan.lengths_.reserve(requests.size());
  std::string reason;
  for (const serve::Request& request : requests) {
    const NDArray* seq = SeqTensor(spec, request, &reason);
    NIMBLE_CHECK(seq != nullptr) << "PackPlan::Build without AnalyzeBatch: "
                                 << reason;
    int64_t len = SeqLength(spec, request, *seq, &reason);
    NIMBLE_CHECK_GE(len, 1) << "PackPlan::Build without AnalyzeBatch: "
                            << reason;
    plan.lengths_.push_back(len);
    plan.max_len_ = std::max(plan.max_len_, len);
  }
  if (forced_max_len > 0) {
    NIMBLE_CHECK_GE(forced_max_len, plan.max_len_)
        << "variant Lmax smaller than a request's length";
    plan.max_len_ = forced_max_len;
  }
  return plan;
}

std::vector<ObjectRef> PackPlan::PackArgs(
    const std::vector<serve::Request>& requests,
    runtime::Allocator* alloc) const {
  const vm::BatchedEntrySpec& spec = *spec_;
  int64_t B = batch_size();
  int64_t D = spec.feature_width;
  NIMBLE_CHECK_EQ(static_cast<size_t>(B), requests.size());

  // Pad-and-pack: zero the buffer once, then interleave each request's
  // rows at stride B. An exact-length batch (the executable cache's carved
  // batches) writes every row, so the upfront zeroing is skipped.
  NDArray packed =
      padded_elements() == 0
          ? NDArray::Empty({max_len_, B, D}, DataType::Float32(),
                           runtime::Device::CPU(), alloc)
          : ZeroTensor({max_len_, B, D}, DataType::Float32(), alloc);
  float* pp = packed.data<float>();
  for (int64_t r = 0; r < B; ++r) {
    const NDArray& seq =
        runtime::AsTensor(requests[static_cast<size_t>(r)]
                              .args[static_cast<size_t>(spec.seq_arg)]);
    const float* ps = seq.data<float>();
    for (int64_t t = 0; t < lengths_[static_cast<size_t>(r)]; ++t) {
      std::memcpy(pp + (t * B + r) * D, ps + t * D,
                  static_cast<size_t>(D) * sizeof(float));
    }
  }
  obs::RecordCopy(obs::CopySite::kPack,
                  (total_elements() - padded_elements()) *
                      static_cast<int64_t>(sizeof(float)));

  NDArray max_len = NDArray::Empty({}, DataType::Int64(),
                                   runtime::Device::CPU(), alloc);
  max_len.data<int64_t>()[0] = max_len_;

  NDArray lengths = NDArray::Empty({B, 1}, DataType::Int64(),
                                   runtime::Device::CPU(), alloc);
  for (int64_t r = 0; r < B; ++r) {
    lengths.data<int64_t>()[r] = lengths_[static_cast<size_t>(r)];
  }

  std::vector<ObjectRef> args;
  args.reserve(3 + static_cast<size_t>(spec.num_state_args));
  args.push_back(runtime::MakeTensor(std::move(packed)));
  args.push_back(runtime::MakeTensor(std::move(max_len)));
  args.push_back(runtime::MakeTensor(std::move(lengths)));
  for (int32_t s = 0; s < spec.num_state_args; ++s) {
    args.push_back(runtime::MakeTensor(
        ZeroTensor({B, spec.state_width}, DataType::Float32(), alloc)));
  }
  return args;
}

std::vector<NDArray> PackPlan::Unpack(const ObjectRef& result,
                                      runtime::Allocator* alloc) const {
  const NDArray& batched = runtime::AsTensor(result);
  int64_t B = batch_size();

  NIMBLE_CHECK_EQ(batched.ndim(), 2)
      << "batched entry must return [B, W], got "
      << runtime::ShapeToString(batched.shape());
  NIMBLE_CHECK_EQ(batched.shape()[0], B)
      << "batched result rows do not match the batch";
  int64_t W = batched.shape()[1];
  size_t row_bytes = static_cast<size_t>(W) * batched.dtype().bytes();
  const char* src = static_cast<const char*>(batched.raw_data());
  std::vector<NDArray> outs;
  outs.reserve(static_cast<size_t>(B));
  for (int64_t r = 0; r < B; ++r) {
    NDArray out = NDArray::Empty({1, W}, batched.dtype(),
                                 runtime::Device::CPU(), alloc);
    std::memcpy(out.raw_data(), src + r * row_bytes, row_bytes);
    outs.push_back(std::move(out));
  }
  obs::RecordCopy(obs::CopySite::kUnpack, B * static_cast<int64_t>(row_bytes));
  return outs;
}

int64_t PackPlan::total_elements() const {
  return max_len_ * batch_size() * spec_->feature_width;
}

int64_t PackPlan::padded_elements() const {
  int64_t used = 0;
  for (int64_t len : lengths_) used += len;
  return (max_len_ * batch_size() - used) * spec_->feature_width;
}

}  // namespace batch
}  // namespace nimble
