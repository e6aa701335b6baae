// Batched-entry metadata: how a compiled model's per-request entry point can
// be replaced by one padded, packed invocation over a whole batch (the
// serving-side "true tensor batching" path, src/batch/).
//
// A model builder that emits a batched twin of an entry function describes
// it with a BatchedEntrySpec; core::Compile copies the specs into the
// vm::Executable (CompileOptions::batched_entries), where the serving layer
// discovers them. Every spec uses one time-major packing convention:
//
//   per-request:  function(seq: [len, D], len: i64, ...) -> [1, W]
//   batched:      batched_function(packed:  [Lmax, B, D],   // time-major
//                                  max_len: i64 scalar,     // = Lmax
//                                  lengths: [B, 1] i64,     // true lengths
//                                  state_0: [B, state_width],  // zero-filled
//                                  ...,                        // num_state_args
//                                  ) -> [B, W]
//
// Packing pads each request's sequence to Lmax with zero rows and interleaves
// them time-major (packed[t, r, :] = request r's row t). The batched function
// must freeze row r once t reaches lengths[r] (e.g. with the exact-selection
// `where` op), so that row r of the result is bit-identical to running the
// per-request entry on request r alone. Unpacking slices row r back out as a
// [1, W] tensor.
#pragma once

#include <cstdint>
#include <string>

namespace nimble {
namespace vm {

struct BatchedEntrySpec {
  /// Per-request entry point this spec batches (usually "main").
  std::string function;
  /// Packed twin emitted by the model builder (usually "main_batched").
  std::string batched_function;
  /// Optional unmasked twin of `batched_function` (same calling
  /// convention) that is only correct when EVERY packed row runs exactly
  /// max_len steps — the per-row freeze masking degenerates to an identity
  /// there, so this twin simply omits it. Length-specialized executable
  /// variants (core::CompileOptions::specialize_length) rewire their spec
  /// onto it: the packing layer guarantees their batches are exact-length,
  /// and dropping the masking removes three kernel invocations per layer
  /// per step. Empty when the builder emits no such twin; generic
  /// executables never run it.
  std::string exact_batched_function;
  /// Optional single-step twin for continuous (iteration-level) batching:
  /// ONE recurrence step over a persistent slot-map of rows instead of a
  /// whole padded flight. Calling convention:
  ///
  ///   step_function(x_t:    [B, D] float32,   // this step's row per slot
  ///                 active: [B, 1] int64,     // 1 = slot holds a live row
  ///                 state_0: [B, state_width],
  ///                 ...,                      // num_state_args states
  ///                 ) -> Tuple(state_0', ..., state_{n-1}')
  ///
  /// The function must freeze inactive rows exactly (`where` on
  /// `0 < active`), so a host-side step loop that zeroes a slot's state
  /// rows when a request is spliced in and reads its result row when it
  /// retires reproduces the per-request entry bit for bit (the slot-map
  /// runner in src/batch/step_runner.h is that loop). It must also be
  /// straight-line code whose shapes follow from its argument shapes: the
  /// runner only ever runs it shape-specialized (src/vm/specialize.h).
  /// Empty when the builder emits no step twin; the continuous serving
  /// path then rejects the model at registration.
  std::string step_function;
  /// Which of step_function's returned states holds the per-request result:
  /// after a row's final step, row r of state `result_state` is the same
  /// [1, state_width] value the per-request entry would have returned (for
  /// an LSTM, the last layer's h). Only meaningful when step_function is
  /// set.
  int32_t result_state = 0;
  /// Index of the per-request argument holding the [len, D] float32 sequence.
  int32_t seq_arg = 0;
  /// Index of the per-request i64 scalar argument holding the true sequence
  /// length, or -1 to use the sequence's row count.
  int32_t len_arg = -1;
  /// D: static feature width of the sequence (validated against each
  /// request's tensor before packing).
  int32_t feature_width = 0;
  /// Width of each zero-initialized recurrent-state argument.
  int32_t state_width = 0;
  /// Number of trailing [B, state_width] zero-state arguments (e.g. h0/c0
  /// per layer for an LSTM).
  int32_t num_state_args = 0;
};

}  // namespace vm
}  // namespace nimble
