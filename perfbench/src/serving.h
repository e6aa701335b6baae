// Shared pieces of the two serving workloads: the LSTM they serve, its
// prepare step, and readers of the serving stack's telemetry for their
// traced runs. Everything here goes through public interfaces:
// Server::stats() snapshots, Server::MemoryScopes(), the tracer's ring and
// the process-wide copy ledger.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/models/lstm.h"
#include "src/obs/memory.h"
#include "src/obs/trace.h"
#include "src/serve/stats.h"
#include "src/vm/executable.h"

namespace perfbench {

/// Absolute tolerance against models::RunLSTMReference, the one
/// tests/test_e2e_models.cc uses.
constexpr float kLstmTolerance = 2e-4f;

/// Compiles the LSTM with its batched entry, as both serving workloads
/// serve it. `*compile_ms`, when given, receives the core::Compile time.
std::shared_ptr<nimble::vm::Executable> CompileLstm(
    const nimble::models::LSTMModel& model, double* compile_ms = nullptr);

/// One LSTM request of a workload's pool, drawn in the prepare step.
struct LstmCase {
  int64_t length = 0;
  nimble::runtime::NDArray x;         // [length, input_size]
  nimble::runtime::NDArray expected;  // @main on a sequential VM
  /// `expected` lies within kLstmTolerance of RunLSTMReference. When it
  /// does not, every timed operation on this case counts as failed.
  bool reference_ok = false;
};

/// Draws one input per length from `rng` and computes its expected output
/// and reference check (untimed). Mismatches are reported on stderr under
/// the workload's name.
std::vector<LstmCase> PrepareLstmCases(const nimble::models::LSTMModel& model,
                                       const std::vector<int64_t>& lengths,
                                       nimble::support::Rng& rng,
                                       const char* workload);

/// Trace-ring capacity for traced runs. The tracer shards its ring per
/// committing thread and one thread commits every record here, so one
/// shard (1/8 of the ring) must hold the whole measured phase.
constexpr size_t kTracedRing = 8 * 16384;

/// Process-wide copy-ledger bytes per site ("pack", "http_decode", ...).
std::map<std::string, int64_t> CopyBytesBySite();

/// Allocator counters summed over the memory scopes whose name starts with
/// `prefix` ("worker:" for the VM pool, "model:" for continuous runners).
struct ScopeTotals {
  int64_t alloc_calls = 0;
  int64_t system_allocs = 0;
  int64_t peak_bytes = 0;
};
ScopeTotals SumScopes(const std::vector<nimble::obs::AllocScopeSample>& scopes,
                      const std::string& prefix);

/// Trace records of requests admitted at or after `from`, oldest first.
std::vector<nimble::obs::TraceRecord> RecordsSince(
    const std::vector<nimble::obs::TraceRecord>& records,
    Clock::time_point from);

/// Sets span.admission_us ... span.write_us to the mean span durations of
/// `records`; returns their mean end-to-end span (admission to write), us.
double SetSpanMetrics(const std::vector<nimble::obs::TraceRecord>& records,
                      RunResult* result);

/// Sets the vm.* per-request metrics from the exec-span profiles of packed
/// batches. Every request of a packed batch carries the whole batch's
/// profile (stamped with the batch's shared pack_start), so the profile of
/// each batch is counted once and divided over its requests.
void SetBatchedVmMetrics(const std::vector<nimble::obs::TraceRecord>& records,
                         RunResult* result);

/// Sets batch.mean_size, batch.padding_pct and exec_cache.hit_pct from the
/// difference of two stats snapshots taken around the measured phase.
void SetBatchMetrics(const nimble::serve::StatsSnapshot& before,
                     const nimble::serve::StatsSnapshot& after,
                     RunResult* result);

}  // namespace perfbench
