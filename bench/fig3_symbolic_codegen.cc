// Figure 3 reproduction: relative latency of symbolic codegen vs static
// codegen for the three BERT-base dense operators, varying the number of
// residue-specialized kernels dispatched at runtime (§4.5).
//
// Rows: static / dispatch-8 / dispatch-4 / dispatch-2 / no-dispatch.
// The paper: full dispatch ≈ static; latency grows as the kernel count
// shrinks, up to ~+42%/+104%/+45% at no-dispatch. Here the generic kernel
// runs full tiles on the same lane micro-kernel as the specialized ones and
// checks only the tile boundary, so every configuration lands near static:
// what remains is the residue tail's runtime row loop, a few rows of ~60.
//
// Every configuration must also reproduce static codegen's output bit for
// bit at every length; the benchmark exits 1 when any bit differs.
//
// Dispatch state: this benchmark constructs private DenseDispatchTable
// instances per configuration — the ownership pattern every dispatch user
// follows; there is no process-global dispatch table (see
// src/codegen/dispatch.h).
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/codegen/dense_kernels.h"
#include "src/codegen/dispatch.h"
#include "src/support/logging.h"
#include "src/support/rng.h"

using namespace nimble;  // NOLINT
using codegen::DenseDispatchTable;
using codegen::kTileRows;

namespace {

struct DenseShape {
  const char* name;
  int64_t n, k;
};

// The three dense layers of a BERT-base block: QKV/attention-output
// projection, FFN expand, FFN reduce.
const DenseShape kShapes[] = {
    {"Dense1 (768x768)", 768, 768},
    {"Dense2 (3072x768)", 3072, 768},
    {"Dense3 (768x3072)", 768, 3072},
};

// Dynamic sequence lengths covering every residue class modulo 8.
const int64_t kSeqLens[] = {57, 58, 59, 60, 61, 62, 63, 64};

/// "Static codegen": one kernel per concrete shape with every extent a
/// compile-time constant (a template instantiation per length).
template <int64_t N, int64_t K>
void RunStaticAt(int64_t m, const float* x, const float* w, float* out) {
  switch (m) {
    case 57: codegen::DenseStatic<57, N, K>(x, w, out); return;
    case 58: codegen::DenseStatic<58, N, K>(x, w, out); return;
    case 59: codegen::DenseStatic<59, N, K>(x, w, out); return;
    case 60: codegen::DenseStatic<60, N, K>(x, w, out); return;
    case 61: codegen::DenseStatic<61, N, K>(x, w, out); return;
    case 62: codegen::DenseStatic<62, N, K>(x, w, out); return;
    case 63: codegen::DenseStatic<63, N, K>(x, w, out); return;
    case 64: codegen::DenseStatic<64, N, K>(x, w, out); return;
    default: NIMBLE_FATAL() << "no static kernel for m=" << m;
  }
}

template <int64_t N, int64_t K>
void RunStatic(const std::vector<float>& x, const std::vector<float>& w,
               std::vector<float>& out) {
  for (int64_t m : kSeqLens) {
    RunStaticAt<N, K>(m, x.data(), w.data(), out.data());
  }
}

/// Every dispatch configuration must reproduce static codegen's output bit
/// for bit at every length: the configurations differ in speed only.
/// Prints each mismatch and returns whether all matched.
template <int64_t N, int64_t K>
bool CheckAllConfigs(const char* shape, const std::vector<float>& x,
                     const std::vector<float>& w) {
  bool ok = true;
  for (int variants : {8, 4, 2, 1}) {
    DenseDispatchTable table(variants);
    for (int64_t m : kSeqLens) {
      std::vector<float> want(static_cast<size_t>(m * N));
      std::vector<float> got(static_cast<size_t>(m * N));
      RunStaticAt<N, K>(m, x.data(), w.data(), want.data());
      table.Run(x.data(), w.data(), got.data(), m, N, K);
      if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) !=
          0) {
        std::fprintf(stderr,
                     "FAIL %s: dispatch/%d output differs from static at "
                     "m=%lld\n",
                     shape, variants, static_cast<long long>(m));
        ok = false;
      }
    }
  }
  return ok;
}

/// Measures static + every dispatch config round-robin (machine-load drift
/// hits each configuration equally; each keeps its best round).
template <int64_t N, int64_t K>
std::vector<double> MeasureAllConfigs(const std::vector<float>& x,
                                      const std::vector<float>& w,
                                      std::vector<float>& out) {
  DenseDispatchTable t8(8), t4(4), t2(2), t1(1);
  auto run_table = [&](const DenseDispatchTable& table) {
    for (int64_t m : kSeqLens) {
      table.Run(x.data(), w.data(), out.data(), m, N, K);
    }
  };
  return bench::MeasureInterleaved({[&] { RunStatic<N, K>(x, w, out); },
                                    [&] { run_table(t8); },
                                    [&] { run_table(t4); },
                                    [&] { run_table(t2); },
                                    [&] { run_table(t1); }},
                                   /*rounds=*/3);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Figure 3: symbolic vs static codegen, relative latency (%) of three\n"
      "dense operators; dispatch/k = k residue-specialized kernels");

  std::printf("%-22s %10s %12s %12s %12s %12s\n", "operator", "static",
              "dispatch/8", "dispatch/4", "dispatch/2", "no dispatch");

  support::Rng rng(2024);
  bool bits_ok = true;
  for (size_t s = 0; s < 3; ++s) {
    const DenseShape& shape = kShapes[s];
    int64_t max_m = 64;
    std::vector<float> x(max_m * shape.k), w(shape.n * shape.k),
        out(max_m * shape.n);
    for (auto& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
    for (auto& v : w) v = static_cast<float>(rng.Uniform(-1, 1));

    std::vector<double> t;
    if (s == 0) {
      t = MeasureAllConfigs<768, 768>(x, w, out);
      bits_ok &= CheckAllConfigs<768, 768>(shape.name, x, w);
    } else if (s == 1) {
      t = MeasureAllConfigs<3072, 768>(x, w, out);
      bits_ok &= CheckAllConfigs<3072, 768>(shape.name, x, w);
    } else {
      t = MeasureAllConfigs<768, 3072>(x, w, out);
      bits_ok &= CheckAllConfigs<768, 3072>(shape.name, x, w);
    }
    std::printf("%-22s %9.0f%% %11.0f%% %11.0f%% %11.0f%% %11.0f%%\n",
                shape.name, 100.0, t[1] / t[0] * 100.0, t[2] / t[0] * 100.0,
                t[3] / t[0] * 100.0, t[4] / t[0] * 100.0);
  }
  bench::PrintRule();
  std::printf("paper: dispatch/8 ~= static; no-dispatch +42%%/+104%%/+45%%\n");
  if (!bits_ok) {
    std::fprintf(stderr,
                 "FAIL: a dispatch configuration changed output bits\n");
    return 1;
  }
  std::printf("bit-identity: every dispatch config matches static at every "
              "length\n");
  return 0;
}
