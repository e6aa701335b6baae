// Tiled/tuned/parallel dense kernel benchmark.
//
// Compares, per shape, the residue-dispatch path the serving layer used
// before cache blocking (MicroTile8F32, which drops to scalar rows past
// k=1024) against the cache-blocked kernel under the default config, the
// tuner-chosen config, and — when the machine offers more than one core —
// the kernel-pool-partitioned variant. All four produce bit-identical
// outputs (tests/test_kernels.cc); this binary only measures them.
//
//   bench_kernels            # table on stdout
//   bench_kernels --json     # also writes BENCH_kernels.json for CI guards
//
// CI reads BENCH_kernels.json and asserts (a) the best blocked variant wins
// by >= 1.5x on at least one large shape (K=N>=1024, M>=8 — the regime the
// old path served at scalar speed), and (b) the tuned config is no slower
// than the default on at least half the shapes.
//
// A second table times partial tiles (the 1-7 rows a full 8-row tile leaves
// over) on the row-by-row MicroRow1F32 loop against the chains-in-lanes
// kernel MicroTilePartialF32, at the continuous LSTM step's two dense shapes
// and a BERT residue shape. Its rows (`partial_tiles` in the JSON) only
// report; no guard reads them.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/codegen/dispatch.h"
#include "src/codegen/parallel.h"
#include "src/codegen/tuner.h"
#include "src/runtime/ndarray.h"
#include "src/support/rng.h"

using namespace nimble;  // NOLINT

namespace {

struct ShapeResult {
  int64_t m, n, k;
  bool large;  // the guarded regime
  double dispatch_s, blocked_s, tuned_s, parallel_s;
  codegen::DenseConfig tuned_config;
};

ShapeResult RunShape(int64_t m, int64_t n, int64_t k, bool large,
                     codegen::KernelPool* pool) {
  support::Rng rng(7);
  runtime::NDArray x =
      runtime::NDArray::Empty({m, k}, runtime::DataType::Float32());
  runtime::NDArray w =
      runtime::NDArray::Empty({n, k}, runtime::DataType::Float32());
  runtime::NDArray out =
      runtime::NDArray::Empty({m, n}, runtime::DataType::Float32());
  x.FillUniform(rng);
  w.FillUniform(rng);

  codegen::DenseDispatchTable table(codegen::kTileRows);
  codegen::DenseConfig default_config;
  // Tuner pick for this exact shape (repeats kept low: the bench itself
  // re-measures the winner interleaved below).
  codegen::DenseConfig tuned =
      codegen::TuneDenseStatic(m, n, k, /*repeats=*/1).front().config;

  const float* xp = x.data<float>();
  const float* wp = w.data<float>();
  float* op = out.data<float>();
  std::vector<std::function<void()>> systems = {
      [&] { table.Run(xp, wp, op, m, n, k); },
      [&] { codegen::DenseBlocked(xp, wp, op, m, n, k, default_config); },
      [&] { codegen::DenseBlocked(xp, wp, op, m, n, k, tuned); },
      [&] { codegen::DenseBlockedParallel(xp, wp, op, m, n, k, tuned, pool); },
  };
  std::vector<double> best = bench::MeasureInterleaved(systems, /*rounds=*/4);
  return ShapeResult{m,       n,       k,       large,  best[0],
                     best[1], best[2], best[3], tuned};
}

struct PartialResult {
  int64_t m, n, k;
  const char* what;
  double rows_s, lanes_s;  // per call
};

PartialResult RunPartial(int64_t m, int64_t n, int64_t k, const char* what) {
  support::Rng rng(11);
  std::vector<float> x(static_cast<size_t>(m * k));
  std::vector<float> w(static_cast<size_t>(n * k));
  std::vector<float> out(static_cast<size_t>(m * n));
  for (float& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
  for (float& v : w) v = static_cast<float>(rng.Uniform(-1, 1));
  // Microsecond calls: each timed unit is a batch of them.
  constexpr int kCalls = 200;
  std::vector<std::function<void()>> systems = {
      [&] {
        for (int c = 0; c < kCalls; ++c) {
          for (int64_t r = 0; r < m; ++r) {
            codegen::MicroRow1F32(x.data() + r * k, w.data(),
                                  out.data() + r * n, n, k);
          }
        }
      },
      [&] {
        for (int c = 0; c < kCalls; ++c) {
          codegen::MicroTilePartialF32(x.data(), w.data(), out.data(), m, n,
                                       k, n);
        }
      },
  };
  std::vector<double> best = bench::MeasureInterleaved(systems, /*rounds=*/8);
  return PartialResult{m, n, k, what, best[0] / kCalls, best[1] / kCalls};
}

}  // namespace

int main(int argc, char** argv) {
  bool write_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      write_json = true;
    } else {
      std::fprintf(stderr, "bench_kernels: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }

  codegen::KernelPool* pool = codegen::KernelPool::Global();
  int threads = pool != nullptr ? pool->num_threads() : 1;

  bench::PrintHeader(
      "Tiled + tuned + parallel dense kernels vs the residue-dispatch path\n"
      "(dispatch = pre-blocking serving path; all variants bit-identical)");
  std::printf("kernel pool threads: %d\n\n", threads);
  std::printf("%-20s %11s %11s %11s %11s %12s %8s\n", "shape (MxNxK)",
              "dispatch", "blocked", "tuned", "parallel", "tuned cfg",
              "speedup");

  // Large shapes (K=N>=1024, M>=8) are the guarded regime: past k=1024 the
  // old tile kernel runs scalar rows, the blocked kernel stays vectorized.
  struct Shape {
    int64_t m, n, k;
    bool large;
  };
  const Shape shapes[] = {
      {8, 64, 64, false},     {8, 256, 256, false},  {1, 1024, 1024, false},
      {8, 1024, 1024, true},  {8, 1024, 2048, true}, {8, 2048, 2048, true},
      {16, 2048, 2048, true},
  };

  std::vector<ShapeResult> results;
  for (const Shape& s : shapes) {
    ShapeResult r = RunShape(s.m, s.n, s.k, s.large, pool);
    results.push_back(r);
    double best_blocked = std::min({r.blocked_s, r.tuned_s, r.parallel_s});
    std::printf("%4lldx%-5lldx%-8lld %9.3fms %9.3fms %9.3fms %9.3fms %12s %7.2fx\n",
                static_cast<long long>(r.m), static_cast<long long>(r.n),
                static_cast<long long>(r.k), r.dispatch_s * 1e3,
                r.blocked_s * 1e3, r.tuned_s * 1e3, r.parallel_s * 1e3,
                r.tuned_config.ToString().c_str(),
                r.dispatch_s / best_blocked);
  }

  double max_large_speedup = 0.0;
  int tuned_wins = 0;
  for (const ShapeResult& r : results) {
    double best_blocked = std::min({r.blocked_s, r.tuned_s, r.parallel_s});
    if (r.large) {
      max_large_speedup =
          std::max(max_large_speedup, r.dispatch_s / best_blocked);
    }
    if (r.tuned_s <= r.blocked_s) ++tuned_wins;
  }
  bench::PrintRule();
  std::printf(
      "best speedup on large shapes: %.2fx (target >= 1.5x); tuned config no\n"
      "slower than default on %d/%zu shapes (target >= half)\n",
      max_large_speedup, tuned_wins, results.size());

  std::printf("\npartial tiles: row-by-row MicroRow1F32 vs chains-in-lanes\n");
  std::printf("%-20s %-22s %11s %11s %8s\n", "shape (MxNxK)", "where",
              "rows", "lanes", "speedup");
  std::vector<PartialResult> partials = {
      RunPartial(4, 256, 128, "lstm step x*W"),
      RunPartial(4, 256, 64, "lstm step h*U"),
      RunPartial(5, 256, 256, "bert residue"),
  };
  for (const PartialResult& p : partials) {
    std::printf("%4lldx%-5lldx%-8lld %-22s %9.2fus %9.2fus %7.2fx\n",
                static_cast<long long>(p.m), static_cast<long long>(p.n),
                static_cast<long long>(p.k), p.what, p.rows_s * 1e6,
                p.lanes_s * 1e6, p.rows_s / p.lanes_s);
  }

  if (write_json) {
    FILE* f = std::fopen("BENCH_kernels.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_kernels.json\n");
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"threads\": %d,\n  \"max_large_speedup\": %.3f,\n"
                 "  \"tuned_wins\": %d,\n  \"shapes\": [\n",
                 threads, max_large_speedup, tuned_wins);
    for (size_t i = 0; i < results.size(); ++i) {
      const ShapeResult& r = results[i];
      std::fprintf(
          f,
          "    {\"m\": %lld, \"n\": %lld, \"k\": %lld, \"large\": %s,\n"
          "     \"dispatch_ms\": %.4f, \"blocked_ms\": %.4f, "
          "\"tuned_ms\": %.4f, \"parallel_ms\": %.4f,\n"
          "     \"tuned_config\": \"%s\", \"speedup\": %.3f}%s\n",
          static_cast<long long>(r.m), static_cast<long long>(r.n),
          static_cast<long long>(r.k), r.large ? "true" : "false",
          r.dispatch_s * 1e3, r.blocked_s * 1e3, r.tuned_s * 1e3,
          r.parallel_s * 1e3, r.tuned_config.ToString().c_str(),
          r.dispatch_s / std::min({r.blocked_s, r.tuned_s, r.parallel_s}),
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"partial_tiles\": [\n");
    for (size_t i = 0; i < partials.size(); ++i) {
      const PartialResult& p = partials[i];
      std::fprintf(f,
                   "    {\"m\": %lld, \"n\": %lld, \"k\": %lld, "
                   "\"where\": \"%s\", \"rows_us\": %.3f, "
                   "\"lanes_us\": %.3f, \"speedup\": %.3f}%s\n",
                   static_cast<long long>(p.m), static_cast<long long>(p.n),
                   static_cast<long long>(p.k), p.what, p.rows_s * 1e6,
                   p.lanes_s * 1e6, p.rows_s / p.lanes_s,
                   i + 1 < partials.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote BENCH_kernels.json\n");
  }
  return 0;
}
