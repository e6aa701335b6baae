// Workload vm_bert_mrpc: one vm::VirtualMachine on the calling thread runs
// BERT (models::BERTConfig defaults) on one request after another, with
// MRPC-like lengths. Every dense op dispatches on the symbolic sequence
// length, so kernel, dispatch and memory-planning changes move it.
#include <cstdio>

#include "perfbench/src/common.h"
#include "src/core/compiler.h"
#include "src/models/bert.h"
#include "src/models/workloads.h"
#include "src/obs/memory.h"
#include "src/vm/vm.h"

namespace perfbench {
namespace {

using nimble::runtime::NDArray;
using nimble::runtime::ObjectRef;

constexpr int kPoolSize = 32;      // distinct requests, one round
constexpr float kBertTolerance = 5e-4f;

struct Request {
  int64_t length = 0;
  std::vector<ObjectRef> args;
  NDArray expected;  // the VM's output, checked against the reference
  /// `expected` lies within kBertTolerance of RunBERTReference. When it
  /// does not, every timed operation on this request counts as failed.
  bool reference_ok = false;
};

struct Setup {
  std::shared_ptr<nimble::vm::Executable> exec;
  std::unique_ptr<nimble::vm::VirtualMachine> vm;
  double compile_ms = 0.0;
};

/// Whole rounds of the pool for at least `seconds`. The phase's clock
/// advances only while an Invoke runs; each output is compared with the
/// expected one in between.
Phase RunRounds(nimble::vm::VirtualMachine& vm,
                const std::vector<Request>& pool, double seconds) {
  Phase phase;
  phase.start = Clock::now();
  RoundDispenser dispenser(
      static_cast<int64_t>(pool.size()),
      phase.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds)));
  Clock::duration busy{0};
  for (int64_t seq = dispenser.Next(); seq >= 0; seq = dispenser.Next()) {
    const Request& request = pool[static_cast<size_t>(seq) % pool.size()];
    auto t0 = Clock::now();
    ObjectRef out = vm.Invoke("main", request.args);
    auto t1 = Clock::now();
    busy += t1 - t0;
    bool ok = request.reference_ok &&
              BitIdentical(nimble::runtime::AsTensor(out), request.expected);
    phase.Record(phase.start + busy, Seconds(t1 - t0) * 1e3,
                 ok ? request.length : 0);
  }
  return phase;
}

}  // namespace

RunResult RunVmBert(const Options& options) {
  RunResult result = EmptyResult(options.trace);

  // Prepare (untimed): model, inputs, plain-C++ references.
  nimble::models::BERTConfig config;
  nimble::models::BERTModel model = nimble::models::BuildBERT(config);
  nimble::support::Rng rng(options.seed);
  std::vector<int64_t> lengths =
      StratifiedMRPCLengths(kPoolSize, rng);
  std::vector<Request> pool(kPoolSize);
  std::vector<NDArray> references;
  for (int i = 0; i < kPoolSize; ++i) {
    Request& request = pool[static_cast<size_t>(i)];
    request.length = lengths[static_cast<size_t>(i)];
    std::vector<int64_t> ids =
        nimble::models::RandomTokenIds(request.length, config.vocab, rng);
    request.args = {nimble::runtime::MakeTensor(
        NDArray::FromVector(ids, {request.length}))};
    references.push_back(nimble::models::RunBERTReference(model, ids));
  }
  const std::vector<ObjectRef> warmup = {
      nimble::runtime::MakeTensor(NDArray::FromVector(
          nimble::models::RandomTokenIds(kWarmupLength, config.vocab, rng),
          {kWarmupLength}))};

  // Set up: compile, construct the VM, warm up with one request.
  std::vector<double> compile_ms;
  SetupTimer<Setup> setups([&] {
    auto s = std::make_unique<Setup>();
    nimble::ir::Module mod = model.module;  // Compile rewrites it
    auto t0 = Clock::now();
    s->exec = nimble::core::Compile(mod).executable;
    s->compile_ms = Seconds(Clock::now() - t0) * 1e3;
    compile_ms.push_back(s->compile_ms);
    s->vm = std::make_unique<nimble::vm::VirtualMachine>(s->exec);
    s->vm->Invoke("main", warmup);
    return s;
  });
  std::unique_ptr<Setup> setup = setups.Repeat();
  nimble::vm::VirtualMachine& vm = *setup->vm;

  // Expected outputs (untimed): the VM's own result per request, which
  // must match the plain-C++ reference within the test tolerance.
  for (int i = 0; i < kPoolSize; ++i) {
    Request& request = pool[static_cast<size_t>(i)];
    request.expected =
        nimble::runtime::AsTensor(vm.Invoke("main", request.args));
    request.reference_ok = WithinTolerance(
        request.expected, references[static_cast<size_t>(i)], kBertTolerance);
    if (!request.reference_ok) {
      std::fprintf(stderr, "vm_bert_mrpc: request %d differs from the "
                           "reference beyond %g\n", i, kBertTolerance);
      result.correct = false;
    }
  }

  if (!options.trace) {
    SetEndToEnd(RunRounds(vm, pool, options.seconds), &result);
    setup.reset();
    setups.Repeat();
    result.Set("setup_s", setups.median_s());
    return result;
  }

  // Traced run: VM profile, dispatch counters and allocator counters over
  // the first half of the time ...
  const nimble::vm::Executable& exec = *setup->exec;
  vm.EnableProfiling(true);
  vm.mutable_profile().Reset();
  exec.dispatch_table.stats().Reset();
  vm.allocator()->ResetStats();
  Phase traced = RunRounds(vm, pool, options.seconds / 2);
  vm.EnableProfiling(false);
  const nimble::vm::VMProfile& profile = vm.profile();
  const nimble::codegen::DispatchStats& dense = exec.dispatch_table.stats();
  nimble::runtime::AllocStats alloc = vm.allocator()->stats();
  AddTallies(traced, &result);
  const double n = static_cast<double>(traced.attempted);
  result.Set("compile.ms", Median(compile_ms));
  result.Set("compile.instructions",
             static_cast<double>(exec.NumInstructions()));
  result.Set("vm.instr_per_req", profile.instructions / n);
  result.Set("vm.kernel_us_per_req", profile.kernel_nanos / n / 1e3);
  result.Set("vm.shape_func_us_per_req", profile.shape_func_nanos / n / 1e3);
  result.Set("vm.interp_us_per_req",
             (profile.total_nanos - profile.kernel_nanos -
              profile.shape_func_nanos) / n / 1e3);
  result.Set("dense.specialized_per_req", dense.specialized_calls.load() / n);
  result.Set("dense.fallback_per_req", dense.fallback_calls.load() / n);
  result.Set("dense.blocked_per_req", dense.blocked_calls.load() / n);
  result.Set("dense.parallel_per_req", dense.parallel_calls.load() / n);
  result.Set("alloc.calls_per_req", alloc.alloc_calls / n);
  result.Set("alloc.pool_miss_per_req", alloc.system_allocs / n);
  result.Set("alloc.peak_mb", alloc.peak_bytes / 1048576.0);

  // ... then the telemetry A/B over the second half: the memory ledgers
  // at their default (on) against off, alternating, two rounds each. The
  // VM path has no request tracing, so only the ledgers take part.
  std::vector<Phase> on, off;
  for (int round = 0; round < 2; ++round) {
    for (bool telemetry : {true, false}) {
      nimble::obs::SetMemoryTelemetryEnabled(telemetry);
      Phase part = RunRounds(vm, pool, options.seconds / 8);
      AddTallies(part, &result);
      (telemetry ? on : off).push_back(std::move(part));
    }
  }
  nimble::obs::SetMemoryTelemetryEnabled(true);
  result.Set("obs.telemetry_overhead_pct", OverheadPct(on, off));
  return result;
}

}  // namespace perfbench
