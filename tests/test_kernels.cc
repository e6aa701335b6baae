// Kernel-substrate tests: every kernel against straightforward references,
// with parameterized shape sweeps (property-style).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "src/codegen/dispatch.h"
#include "src/codegen/parallel.h"
#include "src/codegen/tuner.h"
#include "src/kernels/registry.h"
#include "src/support/rng.h"

namespace nimble {
namespace {

using runtime::DataType;
using runtime::NDArray;
using runtime::ShapeVec;

NDArray Rand(ShapeVec shape, uint64_t seed) {
  support::Rng rng(seed);
  NDArray a = NDArray::Empty(std::move(shape), DataType::Float32());
  a.FillUniform(rng);
  return a;
}

// ---- dense: every residue class against the reference kernel ---------------

class DenseShapeTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(DenseShapeTest, MatchesReference) {
  auto [m, n, k] = GetParam();
  NDArray x = Rand({m, k}, 1), w = Rand({n, k}, 2);
  NDArray out = NDArray::Empty({m, n}, DataType::Float32());
  NDArray ref = NDArray::Empty({m, n}, DataType::Float32());
  kernels::RunKernel("nn.dense", {x, w}, {out});
  kernels::RunKernel("nn.dense_ref", {x, w}, {ref});
  for (int64_t i = 0; i < out.num_elements(); ++i) {
    ASSERT_NEAR(out.data<float>()[i], ref.data<float>()[i], 1e-3f)
        << "m=" << m << " n=" << n << " k=" << k << " at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllResidues, DenseShapeTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31),
                       ::testing::Values(4, 13), ::testing::Values(8, 21)));

// The canonical result every dense path must reproduce bit-for-bit: the
// per-row accumulation order of MicroRow1F32.
std::vector<float> RowReference(const NDArray& x, const NDArray& w, int64_t m,
                                int64_t n, int64_t k) {
  std::vector<float> ref(static_cast<size_t>(m * n));
  for (int64_t r = 0; r < m; ++r) {
    codegen::MicroRow1F32(x.data<float>() + r * k, w.data<float>(),
                          ref.data() + r * n, n, k);
  }
  return ref;
}

::testing::AssertionResult BitsEqual(const float* got, const float* want,
                                     int64_t count) {
  for (int64_t i = 0; i < count; ++i) {
    uint32_t g, e;
    std::memcpy(&g, got + i, 4);
    std::memcpy(&e, want + i, 4);
    if (g != e) {
      return ::testing::AssertionFailure()
             << "bit mismatch at " << i << ": got " << got[i] << " want "
             << want[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Every dispatch configuration — the generic kernel included — computes each
// row in MicroRow1F32's order, so every variant count gives the canonical
// bits for every row count: full tiles, residue tails, K % 4 tails, and
// contractions past the lane-depth limit.
class DenseDispatchVariantTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(DenseDispatchVariantTest, EveryVariantCountMatchesMicroRowBits) {
  auto [variants, k] = GetParam();
  codegen::DenseDispatchTable table(variants);
  for (int64_t m = 1; m <= 24; ++m) {
    NDArray x = Rand({m, k}, 3), w = Rand({10, k}, 4);
    std::vector<float> ref = RowReference(x, w, m, 10, k);
    std::vector<float> out(static_cast<size_t>(m * 10), -1.0f);
    table.Run(x.data<float>(), w.data<float>(), out.data(), m, 10, k);
    ASSERT_TRUE(BitsEqual(out.data(), ref.data(), m * 10))
        << "variants=" << variants << " m=" << m << " k=" << k;
    // The NDArray entry point (which may route to the blocked kernel)
    // keeps the same bits.
    NDArray out_nd = NDArray::Empty({m, 10}, DataType::Float32());
    table.Run(x, w, out_nd);
    ASSERT_TRUE(BitsEqual(out_nd.data<float>(), ref.data(), m * 10))
        << "variants=" << variants << " m=" << m << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    VariantsTimesDepths, DenseDispatchVariantTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(int64_t{3}, int64_t{12},
                                         int64_t{128}, int64_t{1030})));

// Every partial-tile row count (1-7, alone and behind one or two full
// tiles) through all three partial-tile sites — the residue kernels, the
// generic symbolic kernel, and the blocked cells under every tuner config —
// at odd N (a 4-column block remainder) and K tails of every phase.
TEST(DenseDispatch, PartialTilesMatchMicroRowBitsOnEveryPath) {
  const int64_t n = 37;
  uint64_t seed = 300;
  for (int64_t k : {1, 2, 3, 4, 5, 64, 127, 128, 1030}) {
    NDArray w = Rand({n, k}, seed++);
    for (int64_t m = 1; m <= 17; ++m) {
      NDArray x = Rand({m, k}, seed++);
      std::vector<float> ref = RowReference(x, w, m, n, k);
      std::vector<float> out(static_cast<size_t>(m * n));
      for (int variants : {1, 2, 4, 8}) {
        codegen::DenseDispatchTable table(variants);
        std::fill(out.begin(), out.end(), -1.0f);
        table.Run(x.data<float>(), w.data<float>(), out.data(), m, n, k);
        ASSERT_TRUE(BitsEqual(out.data(), ref.data(), m * n))
            << "variants=" << variants << " m=" << m << " k=" << k;
      }
      std::fill(out.begin(), out.end(), -1.0f);
      codegen::DenseSymbolicChecked(x.data<float>(), w.data<float>(),
                                    out.data(), m, n, k);
      ASSERT_TRUE(BitsEqual(out.data(), ref.data(), m * n))
          << "symbolic m=" << m << " k=" << k;
      for (const auto& config : codegen::DenseConfigSpace()) {
        std::fill(out.begin(), out.end(), -1.0f);
        codegen::DenseBlocked(x.data<float>(), w.data<float>(), out.data(), m,
                              n, k, config);
        ASSERT_TRUE(BitsEqual(out.data(), ref.data(), m * n))
            << "blocked m=" << m << " k=" << k << " " << config.ToString();
      }
    }
  }
}

TEST(DenseDispatch, StatsTrackSpecializedVsFallback) {
  codegen::DenseDispatchTable table(2);  // residues {0, 4} specialized
  NDArray w = Rand({4, 4}, 5);
  for (int m : {8, 12, 3, 4}) {
    NDArray x = Rand({m, 4}, 6);
    NDArray out = NDArray::Empty({m, 4}, DataType::Float32());
    table.Run(x, w, out);
  }
  EXPECT_EQ(table.stats().specialized_calls, 3);  // 8, 12 -> r0; 4 -> r4
  EXPECT_EQ(table.stats().fallback_calls, 1);     // 3 -> generic
  EXPECT_EQ(table.stats().per_residue[3], 1);
}

TEST(DenseDispatch, RejectsBadVariantCounts) {
  EXPECT_THROW(codegen::DenseDispatchTable(3), Error);
  EXPECT_THROW(codegen::DenseDispatchTable(0), Error);
}

TEST(DenseBlocked, TunerKernelMatchesReference) {
  for (const auto& config : codegen::DenseConfigSpace()) {
    NDArray x = Rand({5, 37}, 7), w = Rand({9, 37}, 8);
    NDArray out = NDArray::Empty({5, 9}, DataType::Float32());
    NDArray ref = NDArray::Empty({5, 9}, DataType::Float32());
    codegen::DenseBlocked(x.data<float>(), w.data<float>(), out.data<float>(),
                          5, 9, 37, config);
    kernels::RunKernel("nn.dense_ref", {x, w}, {ref});
    for (int64_t i = 0; i < 45; ++i) {
      ASSERT_NEAR(out.data<float>()[i], ref.data<float>()[i], 1e-3f)
          << config.ToString();
    }
  }
}

// ---- tiled + parallel dense: bit-identity, routing, tuning -----------------

// Every config in the search space, across shapes hitting residue tails
// (m % 8 != 0), sub-block and block-straddling N, and K % 4 tails, must be
// bitwise identical to the canonical row kernel.
TEST(DenseBlocked, BitIdenticalToMicroRowAcrossGrid) {
  uint64_t seed = 100;
  for (int64_t m : {1, 5, 8, 9, 16, 23}) {
    for (int64_t n : {1, 7, 32, 33, 130}) {
      for (int64_t k : {3, 8, 64, 257}) {
        NDArray x = Rand({m, k}, seed++), w = Rand({n, k}, seed++);
        std::vector<float> ref = RowReference(x, w, m, n, k);
        for (const auto& config : codegen::DenseConfigSpace()) {
          std::vector<float> out(static_cast<size_t>(m * n), -1.0f);
          codegen::DenseBlocked(x.data<float>(), w.data<float>(), out.data(),
                                m, n, k, config);
          ASSERT_TRUE(BitsEqual(out.data(), ref.data(), m * n))
              << "m=" << m << " n=" << n << " k=" << k << " "
              << config.ToString();
        }
      }
    }
  }
}

// Contractions past kMicroTileDepthLimit take the K-chunked lanes kernel
// (the old tile kernel drops to scalar rows there) — chunk boundaries must
// not perturb a single bit, including when block_k is not a multiple of 4.
TEST(DenseBlocked, BitIdenticalBeyondLaneDepthLimit) {
  uint64_t seed = 200;
  for (int64_t k : {codegen::kMicroTileDepthLimit + 1, int64_t{1030},
                    int64_t{2048}, int64_t{2053}}) {
    for (int64_t m : {8, 13}) {
      NDArray x = Rand({m, k}, seed++), w = Rand({40, k}, seed++);
      std::vector<float> ref = RowReference(x, w, m, 40, k);
      for (const auto& config :
           {codegen::DenseConfig{32, 64}, codegen::DenseConfig{128, 1024},
            codegen::DenseConfig{16, 100}, codegen::DenseConfig{64, 4096}}) {
        std::vector<float> out(static_cast<size_t>(m * 40), -1.0f);
        codegen::DenseBlocked(x.data<float>(), w.data<float>(), out.data(),
                              m, 40, k, config);
        ASSERT_TRUE(BitsEqual(out.data(), ref.data(), m * 40))
            << "m=" << m << " k=" << k << " " << config.ToString();
      }
    }
  }
}

TEST(DenseBlocked, CellCountMatchesDecomposition) {
  codegen::DenseConfig cfg{32, 64};
  EXPECT_EQ(codegen::DenseCellCount(16, 64, cfg), 4);   // 2 row tiles x 2 blocks
  EXPECT_EQ(codegen::DenseCellCount(17, 65, cfg), 9);   // ceil both ways
  EXPECT_EQ(codegen::DenseCellCount(1, 1, cfg), 1);
}

// The partitioned path must be bitwise identical for every thread count —
// including 1 (where the pool declines and the serial loop runs) and more
// threads than cells.
TEST(KernelPool, ParallelDenseBitIdenticalAcrossThreadCounts) {
  const int64_t m = 23, n = 130, k = 1030;  // residue rows + chunked K
  NDArray x = Rand({m, k}, 300), w = Rand({n, k}, 301);
  std::vector<float> ref = RowReference(x, w, m, n, k);
  codegen::DenseConfig config{32, 64};
  for (int threads : {1, 2, 8}) {
    codegen::KernelPool pool(threads);
    std::vector<float> out(static_cast<size_t>(m * n), -1.0f);
    bool partitioned = codegen::DenseBlockedParallel(
        x.data<float>(), w.data<float>(), out.data(), m, n, k, config, &pool);
    EXPECT_EQ(partitioned, threads > 1) << threads;
    ASSERT_TRUE(BitsEqual(out.data(), ref.data(), m * n))
        << "threads=" << threads;
    EXPECT_EQ(pool.busy(), 0);
  }
  // Null pool: same bits through the serial fallback.
  std::vector<float> out(static_cast<size_t>(m * n), -1.0f);
  EXPECT_FALSE(codegen::DenseBlockedParallel(x.data<float>(), w.data<float>(),
                                             out.data(), m, n, k, config,
                                             nullptr));
  ASSERT_TRUE(BitsEqual(out.data(), ref.data(), m * n));
}

TEST(KernelPool, TryParallelForRunsEveryTaskExactlyOnce) {
  codegen::KernelPool pool(4);
  constexpr int64_t kTasks = 1000;
  std::unique_ptr<std::atomic<int>[]> counts(new std::atomic<int>[kTasks]());
  bool ran = pool.TryParallelFor(
      kTasks, [&](int64_t i) { counts[i].fetch_add(1); });
  ASSERT_TRUE(ran);
  for (int64_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(counts[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(pool.busy(), 0);
}

TEST(KernelPool, RejectsNestedParallelism) {
  codegen::KernelPool pool(2);
  std::atomic<int> inner_ran{0}, inner_accepted{0};
  bool outer = pool.TryParallelFor(4, [&](int64_t) {
    if (pool.TryParallelFor(2, [&](int64_t) { inner_ran.fetch_add(1); })) {
      inner_accepted.fetch_add(1);
    }
  });
  EXPECT_TRUE(outer);
  EXPECT_EQ(inner_accepted.load(), 0);
  EXPECT_EQ(inner_ran.load(), 0);
}

TEST(KernelPool, PropagatesTaskExceptionAndStaysUsable) {
  codegen::KernelPool pool(2);
  EXPECT_THROW(pool.TryParallelFor(8,
                                   [](int64_t i) {
                                     if (i == 3) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
               std::runtime_error);
  std::atomic<int64_t> sum{0};
  EXPECT_TRUE(pool.TryParallelFor(4, [&](int64_t i) { sum.fetch_add(i); }));
  EXPECT_EQ(sum.load(), 6);
  EXPECT_EQ(pool.busy(), 0);
}

// The tuned/parallel-aware dispatch entry point: large-K shapes route to the
// blocked kernel, small shapes keep the exact residue-dispatch path, and
// pool-eligible calls run partitioned — all bit-identical.
TEST(DenseDispatch, TunedRunRoutesBlockedAndStaysBitIdentical) {
  codegen::DenseDispatchTable table(8);
  const int64_t m = 17, n = 64, k = 1030;  // k past the lane-depth limit
  NDArray x = Rand({m, k}, 400), w = Rand({n, k}, 401);
  std::vector<float> ref = RowReference(x, w, m, n, k);
  std::vector<float> out(static_cast<size_t>(m * n), -1.0f);
  codegen::DenseConfig config{32, 64};
  table.Run(x.data<float>(), w.data<float>(), out.data(), m, n, k, &config,
            nullptr);
  EXPECT_EQ(table.stats().blocked_calls, 1);
  EXPECT_EQ(table.stats().parallel_calls, 0);
  ASSERT_TRUE(BitsEqual(out.data(), ref.data(), m * n));
  // A small serving-sized call keeps the plain residue-dispatch path.
  NDArray xs = Rand({8, 16}, 402), ws = Rand({4, 16}, 403);
  std::vector<float> small(32, -1.0f);
  table.Run(xs.data<float>(), ws.data<float>(), small.data(), 8, 4, 16,
            &config, nullptr);
  EXPECT_EQ(table.stats().blocked_calls, 1);  // unchanged
  std::vector<float> small_ref = RowReference(xs, ws, 8, 4, 16);
  ASSERT_TRUE(BitsEqual(small.data(), small_ref.data(), 32));
}

TEST(DenseDispatch, PoolEligibleRunsPartitioned) {
  int64_t saved = codegen::DenseParallelThreshold();
  codegen::SetDenseParallelThreshold(1);  // force tiny shapes to the pool
  {
    codegen::KernelPool pool(2);
    codegen::DenseDispatchTable table(8);
    const int64_t m = 16, n = 48, k = 32;
    NDArray x = Rand({m, k}, 500), w = Rand({n, k}, 501);
    std::vector<float> ref = RowReference(x, w, m, n, k);
    std::vector<float> out(static_cast<size_t>(m * n), -1.0f);
    codegen::DenseConfig config{16, 32};
    table.Run(x.data<float>(), w.data<float>(), out.data(), m, n, k, &config,
              &pool);
    EXPECT_EQ(table.stats().blocked_calls, 1);
    EXPECT_EQ(table.stats().parallel_calls, 1);
    ASSERT_TRUE(BitsEqual(out.data(), ref.data(), m * n));
  }
  codegen::SetDenseParallelThreshold(saved);
}

TEST(Tuner, MeasureDenseConfigReturnsPositiveTime) {
  double t = codegen::MeasureDenseConfig({32, 64}, 8, 64, 64, /*repeats=*/2);
  EXPECT_GT(t, 0.0);
}

// Tune-once-per-shape: the first request measures, every later request for
// the same shape returns the memoized choice unchanged — the determinism
// the exec cache relies on when stamping variants.
TEST(TuneCache, MemoizesAndKeepsChoiceDeterministic) {
  codegen::TuneCache cache;
  auto first = cache.GetOrTune(8, 32, 32, /*repeats=*/1);
  EXPECT_TRUE(first.fresh);
  EXPECT_GT(first.seconds, 0.0);
  EXPECT_EQ(cache.size(), 1);
  auto second = cache.GetOrTune(8, 32, 32, /*repeats=*/1);
  EXPECT_FALSE(second.fresh);
  EXPECT_EQ(second.config, first.config);
  EXPECT_EQ(second.seconds, first.seconds);
  EXPECT_EQ(cache.size(), 1);
  auto third = cache.GetOrTune(8, 48, 32, /*repeats=*/1);
  EXPECT_TRUE(third.fresh);
  EXPECT_EQ(cache.size(), 2);
  bool in_space = false;
  for (const auto& c : codegen::DenseConfigSpace()) {
    if (c == first.config) in_space = true;
  }
  EXPECT_TRUE(in_space);
}

// ---- elementwise / broadcast -------------------------------------------------

TEST(Elemwise, BinaryOpsOnEqualShapes) {
  NDArray a = NDArray::FromVector<float>({1, 2, 3, 4}, {4});
  NDArray b = NDArray::FromVector<float>({4, 3, 2, 1}, {4});
  NDArray out = NDArray::Empty({4}, DataType::Float32());
  kernels::RunKernel("add", {a, b}, {out});
  EXPECT_FLOAT_EQ(out.data<float>()[0], 5.0f);
  kernels::RunKernel("subtract", {a, b}, {out});
  EXPECT_FLOAT_EQ(out.data<float>()[0], -3.0f);
  kernels::RunKernel("maximum", {a, b}, {out});
  EXPECT_FLOAT_EQ(out.data<float>()[1], 3.0f);
  kernels::RunKernel("divide", {a, b}, {out});
  EXPECT_FLOAT_EQ(out.data<float>()[3], 4.0f);
}

TEST(Elemwise, BroadcastRowVector) {
  NDArray a = NDArray::FromVector<float>({1, 2, 3, 4, 5, 6}, {2, 3});
  NDArray b = NDArray::FromVector<float>({10, 20, 30}, {3});
  NDArray out = NDArray::Empty({2, 3}, DataType::Float32());
  kernels::RunKernel("add", {a, b}, {out});
  EXPECT_FLOAT_EQ(out.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(out.at(1, 2), 36.0f);
}

TEST(Elemwise, BroadcastColumnAgainstRow) {
  NDArray a = NDArray::FromVector<float>({1, 2}, {2, 1});
  NDArray b = NDArray::FromVector<float>({10, 20, 30}, {1, 3});
  NDArray out = NDArray::Empty({2, 3}, DataType::Float32());
  kernels::RunKernel("multiply", {a, b}, {out});
  EXPECT_FLOAT_EQ(out.at(0, 2), 30.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 20.0f);
}

TEST(Elemwise, Int64ScalarArithmetic) {
  NDArray a = NDArray::Scalar<int64_t>(41);
  NDArray b = NDArray::Scalar<int64_t>(1);
  NDArray out = NDArray::Empty({}, DataType::Int64());
  kernels::RunKernel("add", {a, b}, {out});
  EXPECT_EQ(out.data<int64_t>()[0], 42);
}

TEST(Elemwise, CompareProducesBool) {
  NDArray a = NDArray::Scalar<int64_t>(3);
  NDArray b = NDArray::Scalar<int64_t>(5);
  NDArray out = NDArray::Empty({}, DataType::Bool());
  kernels::RunKernel("less", {a, b}, {out});
  EXPECT_EQ(*static_cast<uint8_t*>(out.raw_data()), 1);
  kernels::RunKernel("greater", {a, b}, {out});
  EXPECT_EQ(*static_cast<uint8_t*>(out.raw_data()), 0);
}

TEST(Elemwise, UnaryMath) {
  NDArray a = NDArray::FromVector<float>({-1.0f, 0.0f, 1.0f}, {3});
  NDArray out = NDArray::Empty({3}, DataType::Float32());
  kernels::RunKernel("sigmoid", {a}, {out});
  EXPECT_NEAR(out.data<float>()[0], 0.26894f, 1e-4f);
  EXPECT_NEAR(out.data<float>()[1], 0.5f, 1e-6f);
  kernels::RunKernel("relu", {a}, {out});
  EXPECT_FLOAT_EQ(out.data<float>()[0], 0.0f);
  EXPECT_FLOAT_EQ(out.data<float>()[2], 1.0f);
  kernels::RunKernel("tanh", {a}, {out});
  EXPECT_NEAR(out.data<float>()[2], std::tanh(1.0f), 1e-6f);
  kernels::RunKernel("gelu", {a}, {out});
  EXPECT_NEAR(out.data<float>()[1], 0.0f, 1e-6f);
}

TEST(Elemwise, CastBetweenTypes) {
  NDArray a = NDArray::FromVector<float>({1.7f, -2.3f}, {2});
  NDArray out = NDArray::Empty({2}, DataType::Int64());
  kernels::RunKernel("cast", {a}, {out}, ir::Attrs().Set("dtype", std::string("int64")));
  EXPECT_EQ(out.data<int64_t>()[0], 1);
  EXPECT_EQ(out.data<int64_t>()[1], -2);
}

// ---- nn kernels --------------------------------------------------------------

TEST(NN, SoftmaxRowsSumToOne) {
  NDArray x = Rand({3, 7}, 11);
  NDArray out = NDArray::Empty({3, 7}, DataType::Float32());
  kernels::RunKernel("nn.softmax", {x}, {out});
  for (int64_t r = 0; r < 3; ++r) {
    float sum = 0.0f;
    for (int64_t c = 0; c < 7; ++c) sum += out.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(NN, SoftmaxIsShiftInvariant) {
  NDArray x = NDArray::FromVector<float>({1000.0f, 1001.0f}, {1, 2});
  NDArray out = NDArray::Empty({1, 2}, DataType::Float32());
  kernels::RunKernel("nn.softmax", {x}, {out});
  EXPECT_NEAR(out.at(0, 0) + out.at(0, 1), 1.0f, 1e-5f);
  EXPECT_GT(out.at(0, 1), out.at(0, 0));
}

TEST(NN, LayerNormNormalizesRows) {
  NDArray x = Rand({2, 16}, 12);
  NDArray g = NDArray::Empty({16}, DataType::Float32());
  NDArray b = NDArray::Empty({16}, DataType::Float32());
  g.Fill(1.0);
  b.Fill(0.0);
  NDArray out = NDArray::Empty({2, 16}, DataType::Float32());
  kernels::RunKernel("nn.layer_norm", {x, g, b}, {out});
  for (int64_t r = 0; r < 2; ++r) {
    float mean = 0, var = 0;
    for (int64_t c = 0; c < 16; ++c) mean += out.at(r, c);
    mean /= 16;
    for (int64_t c = 0; c < 16; ++c) var += (out.at(r, c) - mean) * (out.at(r, c) - mean);
    var /= 16;
    EXPECT_NEAR(mean, 0.0f, 1e-4f);
    EXPECT_NEAR(var, 1.0f, 1e-2f);
  }
}

TEST(NN, LSTMCellMatchesScalarMath) {
  int64_t H = 3;
  NDArray gates = Rand({1, 4 * H}, 13);
  NDArray c = Rand({1, H}, 14);
  NDArray h_out = NDArray::Empty({1, H}, DataType::Float32());
  NDArray c_out = NDArray::Empty({1, H}, DataType::Float32());
  kernels::RunKernel("nn.lstm_cell", {gates, c}, {h_out, c_out});
  auto sig = [](float v) { return 1.0f / (1.0f + std::exp(-v)); };
  for (int64_t j = 0; j < H; ++j) {
    const float* g = gates.data<float>();
    float cn = sig(g[H + j]) * c.data<float>()[j] +
               sig(g[j]) * std::tanh(g[2 * H + j]);
    EXPECT_NEAR(c_out.data<float>()[j], cn, 1e-5f);
    EXPECT_NEAR(h_out.data<float>()[j], sig(g[3 * H + j]) * std::tanh(cn), 1e-5f);
  }
}

TEST(NN, BatchMatmulAgainstLoop) {
  NDArray a = Rand({2, 3, 4}, 15), b = Rand({2, 5, 4}, 16);
  NDArray out = NDArray::Empty({2, 3, 5}, DataType::Float32());
  kernels::RunKernel("nn.batch_matmul", {a, b}, {out});
  for (int64_t bi = 0; bi < 2; ++bi) {
    for (int64_t i = 0; i < 3; ++i) {
      for (int64_t j = 0; j < 5; ++j) {
        float acc = 0;
        for (int64_t kk = 0; kk < 4; ++kk) {
          acc += a.data<float>()[(bi * 3 + i) * 4 + kk] *
                 b.data<float>()[(bi * 5 + j) * 4 + kk];
        }
        EXPECT_NEAR(out.data<float>()[(bi * 3 + i) * 5 + j], acc, 1e-4f);
      }
    }
  }
}

TEST(NN, NMSSuppressesOverlaps) {
  // Three boxes: two heavily overlapping, one separate.
  NDArray boxes = NDArray::FromVector<float>(
      {0.9f, 0, 0, 10, 10,   // kept (highest score)
       0.8f, 1, 1, 11, 11,   // suppressed (IoU with first is high)
       0.7f, 50, 50, 60, 60},// kept (disjoint)
      {3, 5});
  NDArray kept = NDArray::Empty({3, 5}, DataType::Float32());
  NDArray count = NDArray::Empty({}, DataType::Int64());
  kernels::RunKernel("nn.nms", {boxes}, {kept, count},
                     ir::Attrs().Set("iou_threshold", 0.5));
  EXPECT_EQ(count.data<int64_t>()[0], 2);
  EXPECT_FLOAT_EQ(kept.at(0, 0), 0.9f);
  EXPECT_FLOAT_EQ(kept.at(1, 0), 0.7f);
}

// ---- manipulation / dynamic kernels -------------------------------------------

TEST(Manip, ConcatAxis0And1) {
  NDArray a = NDArray::FromVector<float>({1, 2, 3, 4}, {2, 2});
  NDArray b = NDArray::FromVector<float>({5, 6}, {1, 2});
  NDArray out = NDArray::Empty({3, 2}, DataType::Float32());
  kernels::RunKernel("concat", {a, b}, {out}, ir::Attrs().Set("axis", 0));
  EXPECT_FLOAT_EQ(out.at(2, 1), 6.0f);

  NDArray c = NDArray::FromVector<float>({7, 8}, {2, 1});
  NDArray out2 = NDArray::Empty({2, 3}, DataType::Float32());
  kernels::RunKernel("concat", {a, c}, {out2}, ir::Attrs().Set("axis", 1));
  EXPECT_FLOAT_EQ(out2.at(0, 2), 7.0f);
  EXPECT_FLOAT_EQ(out2.at(1, 0), 3.0f);
}

TEST(Manip, SplitIsConcatInverse) {
  NDArray x = Rand({2, 8}, 17);
  NDArray p0 = NDArray::Empty({2, 4}, DataType::Float32());
  NDArray p1 = NDArray::Empty({2, 4}, DataType::Float32());
  kernels::RunKernel("split", {x}, {p0, p1},
                     ir::Attrs().Set("sections", 2).Set("axis", 1));
  NDArray back = NDArray::Empty({2, 8}, DataType::Float32());
  kernels::RunKernel("concat", {p0, p1}, {back}, ir::Attrs().Set("axis", 1));
  for (int64_t i = 0; i < 16; ++i) {
    EXPECT_FLOAT_EQ(back.data<float>()[i], x.data<float>()[i]);
  }
}

TEST(Manip, TakeGathersRows) {
  NDArray data = NDArray::FromVector<float>({1, 2, 3, 4, 5, 6}, {3, 2});
  NDArray idx = NDArray::FromVector<int64_t>({2, 0}, {2});
  NDArray out = NDArray::Empty({2, 2}, DataType::Float32());
  kernels::RunKernel("take", {data, idx}, {out});
  EXPECT_FLOAT_EQ(out.at(0, 0), 5.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 2.0f);
  NDArray bad = NDArray::FromVector<int64_t>({3}, {1});
  NDArray out2 = NDArray::Empty({1, 2}, DataType::Float32());
  EXPECT_THROW(kernels::RunKernel("take", {data, bad}, {out2}), Error);
}

TEST(Manip, TransposeRoundtrip) {
  NDArray x = Rand({2, 3, 4}, 18);
  NDArray t = NDArray::Empty({4, 2, 3}, DataType::Float32());
  kernels::RunKernel("transpose", {x}, {t},
                     ir::Attrs().Set("axes", std::vector<int64_t>{2, 0, 1}));
  NDArray back = NDArray::Empty({2, 3, 4}, DataType::Float32());
  kernels::RunKernel("transpose", {t}, {back},
                     ir::Attrs().Set("axes", std::vector<int64_t>{1, 2, 0}));
  for (int64_t i = 0; i < x.num_elements(); ++i) {
    EXPECT_FLOAT_EQ(back.data<float>()[i], x.data<float>()[i]);
  }
}

TEST(Dynamic, ArangeValues) {
  NDArray start = NDArray::Scalar<int64_t>(2);
  NDArray stop = NDArray::Scalar<int64_t>(11);
  NDArray step = NDArray::Scalar<int64_t>(3);
  NDArray out = NDArray::Empty({3}, DataType::Int64());
  kernels::RunKernel("arange", {start, stop, step}, {out});
  EXPECT_EQ(out.data<int64_t>()[0], 2);
  EXPECT_EQ(out.data<int64_t>()[1], 5);
  EXPECT_EQ(out.data<int64_t>()[2], 8);
}

TEST(Dynamic, UniqueSortsAndDedups) {
  NDArray x = NDArray::FromVector<int64_t>({5, 1, 5, 3, 1}, {5});
  NDArray out = NDArray::Empty({3}, DataType::Int64());
  kernels::RunKernel("unique", {x}, {out});
  EXPECT_EQ(out.data<int64_t>()[0], 1);
  EXPECT_EQ(out.data<int64_t>()[1], 3);
  EXPECT_EQ(out.data<int64_t>()[2], 5);
}

// ---- fused kernels -----------------------------------------------------------

TEST(Fused, DenseEpilogueMatchesUnfused) {
  NDArray x = Rand({3, 5}, 19), w = Rand({4, 5}, 20);
  NDArray bias = Rand({4}, 21);
  NDArray fused = NDArray::Empty({3, 4}, DataType::Float32());
  ir::Attrs attrs;
  attrs.Set("steps", std::vector<int64_t>{0, 3, 2, 6, 0, 0});  // +bias; sigmoid
  kernels::RunKernel("fused_dense", {x, w, bias}, {fused}, attrs);

  NDArray d = NDArray::Empty({3, 4}, DataType::Float32());
  kernels::RunKernel("nn.dense_ref", {x, w}, {d});
  NDArray ba = NDArray::Empty({3, 4}, DataType::Float32());
  kernels::RunKernel("nn.bias_add", {d, bias}, {ba});
  NDArray expect = NDArray::Empty({3, 4}, DataType::Float32());
  kernels::RunKernel("sigmoid", {ba}, {expect});
  for (int64_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(fused.data<float>()[i], expect.data<float>()[i], 1e-4f);
  }
}

TEST(Fused, ElemwiseChainWithScalarAndTensor) {
  NDArray root = Rand({6}, 22);
  NDArray other = Rand({6}, 23);
  NDArray scalar = NDArray::Scalar<float>(2.0f);
  NDArray out = NDArray::Empty({6}, DataType::Float32());
  ir::Attrs attrs;
  // ((root * 2) + other) then tanh
  attrs.Set("steps", std::vector<int64_t>{2, 2, 2, 0, 1, 1, 7, 0, 0});
  kernels::RunKernel("fused_elemwise", {root, other, scalar}, {out}, attrs);
  for (int64_t i = 0; i < 6; ++i) {
    float expect = std::tanh(root.data<float>()[i] * 2.0f + other.data<float>()[i]);
    EXPECT_NEAR(out.data<float>()[i], expect, 1e-5f);
  }
}

TEST(Fused, MalformedStepsRejected) {
  NDArray a = Rand({2}, 24);
  NDArray out = NDArray::Empty({2}, DataType::Float32());
  ir::Attrs attrs;
  attrs.Set("steps", std::vector<int64_t>{0, 1});  // not a multiple of 3
  EXPECT_THROW(kernels::RunKernel("fused_elemwise", {a}, {out}, attrs), Error);
}

TEST(KernelRegistry, UnknownKernelThrows) {
  EXPECT_THROW(kernels::RunKernel("no.such.kernel", {}, {}), Error);
}

}  // namespace
}  // namespace nimble
