#include "perfbench/src/serving.h"

#include <algorithm>
#include <cstdio>

#include "src/core/compiler.h"
#include "src/models/workloads.h"
#include "src/obs/export.h"
#include "src/vm/vm.h"

namespace perfbench {

namespace obs = nimble::obs;
using nimble::runtime::NDArray;

std::shared_ptr<nimble::vm::Executable> CompileLstm(
    const nimble::models::LSTMModel& model, double* compile_ms) {
  nimble::ir::Module mod = model.module;  // Compile rewrites it
  nimble::core::CompileOptions options;
  options.batched_entries = {model.batched_spec};
  auto t0 = Clock::now();
  auto exec = nimble::core::Compile(mod, options).executable;
  if (compile_ms != nullptr) *compile_ms = Seconds(Clock::now() - t0) * 1e3;
  return exec;
}

std::vector<LstmCase> PrepareLstmCases(const nimble::models::LSTMModel& model,
                                       const std::vector<int64_t>& lengths,
                                       nimble::support::Rng& rng,
                                       const char* workload) {
  nimble::vm::VirtualMachine sequential(CompileLstm(model));
  std::vector<LstmCase> cases(lengths.size());
  for (size_t i = 0; i < lengths.size(); ++i) {
    LstmCase& c = cases[i];
    c.length = lengths[i];
    c.x = nimble::models::RandomSequence(c.length, model.config.input_size,
                                         rng);
    c.expected = nimble::runtime::AsTensor(sequential.Invoke(
        "main", {nimble::runtime::MakeTensor(c.x),
                 nimble::runtime::MakeTensor(NDArray::Scalar<int64_t>(c.length))}));
    c.reference_ok =
        WithinTolerance(c.expected,
                        nimble::models::RunLSTMReference(model.weights, c.x),
                        kLstmTolerance);
    if (!c.reference_ok) {
      std::fprintf(stderr, "%s: request %zu differs from the reference "
                           "beyond %g\n", workload, i, kLstmTolerance);
    }
  }
  return cases;
}

std::map<std::string, int64_t> CopyBytesBySite() {
  std::map<std::string, int64_t> bytes;
  for (const obs::CopySiteSnapshot& site : obs::CopyLedgerSnapshot()) {
    bytes[site.site] = site.bytes;
  }
  return bytes;
}

ScopeTotals SumScopes(const std::vector<obs::AllocScopeSample>& scopes,
                      const std::string& prefix) {
  ScopeTotals totals;
  for (const obs::AllocScopeSample& scope : scopes) {
    if (scope.scope.compare(0, prefix.size(), prefix) != 0) continue;
    totals.alloc_calls += scope.alloc_calls;
    totals.system_allocs += scope.system_allocs;
    totals.peak_bytes += scope.peak_bytes;
  }
  return totals;
}

std::vector<obs::TraceRecord> RecordsSince(
    const std::vector<obs::TraceRecord>& records, Clock::time_point from) {
  std::vector<obs::TraceRecord> out;
  for (const obs::TraceRecord& record : records) {
    if (record.ctx.admit >= from) out.push_back(record);
  }
  return out;
}

double SetSpanMetrics(const std::vector<obs::TraceRecord>& records,
                      RunResult* result) {
  static const char* const kNames[6] = {
      "span.admission_us", "span.queue_us",  "span.pack_us",
      "span.exec_us",      "span.unpack_us", "span.write_us"};
  double sums[6] = {};
  double e2e_sum = 0.0;
  for (const obs::TraceRecord& record : records) {
    std::vector<obs::SpanView> spans = obs::TraceSpans(record.ctx);
    for (size_t i = 0; i < 6 && i < spans.size(); ++i) {
      sums[i] += Micros(spans[i].end - spans[i].begin);
    }
    e2e_sum += Micros(spans.back().end - spans.front().begin);
  }
  double n = std::max<double>(1.0, static_cast<double>(records.size()));
  for (size_t i = 0; i < 6; ++i) result->Set(kNames[i], sums[i] / n);
  return e2e_sum / n;
}

void SetBatchedVmMetrics(const std::vector<obs::TraceRecord>& records,
                         RunResult* result) {
  struct Group {
    int64_t requests = 0;
    obs::ExecProfile vm;
  };
  std::map<Clock::time_point, Group> batches;
  for (const obs::TraceRecord& record : records) {
    Group& group = batches[record.ctx.pack_start];
    group.requests++;
    group.vm = record.ctx.vm;
  }
  double requests = 0, instructions = 0, kernel = 0, shape = 0, other = 0;
  for (const auto& [start, group] : batches) {
    requests += static_cast<double>(group.requests);
    instructions += static_cast<double>(group.vm.instructions);
    kernel += static_cast<double>(group.vm.kernel_nanos);
    shape += static_cast<double>(group.vm.shape_func_nanos);
    other += static_cast<double>(group.vm.other_nanos);
  }
  requests = std::max(1.0, requests);
  result->Set("vm.instr_per_req", instructions / requests);
  result->Set("vm.kernel_us_per_req", kernel / requests / 1e3);
  result->Set("vm.shape_func_us_per_req", shape / requests / 1e3);
  // other_nanos is everything but kernels, shape functions included.
  result->Set("vm.interp_us_per_req", (other - shape) / requests / 1e3);
}

void SetBatchMetrics(const nimble::serve::StatsSnapshot& before,
                     const nimble::serve::StatsSnapshot& after,
                     RunResult* result) {
  double batches = static_cast<double>(after.batches - before.batches);
  double batched = after.mean_batch_size * after.batches -
                   before.mean_batch_size * before.batches;
  if (batches > 0) result->Set("batch.mean_size", batched / batches);
  double packed = static_cast<double>(after.packed_total_elements -
                                      before.packed_total_elements);
  if (packed > 0) {
    result->Set("batch.padding_pct",
                100.0 * (after.padded_elements - before.padded_elements) /
                    packed);
  }
  double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  double lookups =
      hits + static_cast<double>(after.cache_misses - before.cache_misses);
  if (lookups > 0) result->Set("exec_cache.hit_pct", 100.0 * hits / lookups);
}

}  // namespace perfbench
