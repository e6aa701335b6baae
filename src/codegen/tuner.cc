#include "src/codegen/tuner.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <vector>

#include "src/codegen/dense_kernels.h"
#include "src/support/logging.h"
#include "src/support/rng.h"

namespace nimble {
namespace codegen {

int64_t DenseCellCount(int64_t m, int64_t n, const DenseConfig& config) {
  int64_t bn = config.block_n < 1 ? 1 : config.block_n;
  int64_t row_tiles = (m + kTileRows - 1) / kTileRows;
  int64_t col_blocks = (n + bn - 1) / bn;
  return row_tiles * col_blocks;
}

void DenseBlockedCell(const float* x, const float* w, float* out, int64_t m,
                      int64_t n, int64_t k, const DenseConfig& config,
                      int64_t cell) {
  int64_t bn = config.block_n < 1 ? 1 : config.block_n;
  int64_t col_blocks = (n + bn - 1) / bn;
  int64_t i0 = (cell / col_blocks) * kTileRows;
  int64_t n0 = (cell % col_blocks) * bn;
  int64_t n1 = std::min(n0 + bn, n);
  int64_t rows = std::min<int64_t>(kTileRows, m - i0);
  const float* xr = x + i0 * k;
  const float* wb = w + n0 * k;
  float* outr = out + i0 * n + n0;
  if (rows == kTileRows) {
    MicroTile8BlockedF32(xr, wb, outr, n1 - n0, k, n, config.block_k);
  } else {
    // Residue tail: the same partial-tile kernel the residue-dispatch path
    // ends in, so a partial tile's bits match it exactly.
    MicroTilePartialF32(xr, wb, outr, rows, n1 - n0, k, n);
  }
}

void DenseBlocked(const float* x, const float* w, float* out, int64_t m,
                  int64_t n, int64_t k, const DenseConfig& config) {
  int64_t cells = DenseCellCount(m, n, config);
  for (int64_t cell = 0; cell < cells; ++cell) {
    DenseBlockedCell(x, w, out, m, n, k, config, cell);
  }
}

std::vector<DenseConfig> DenseConfigSpace() {
  std::vector<DenseConfig> space;
  for (int64_t bn : {8, 16, 32, 64, 128}) {
    for (int64_t bk : {16, 32, 64, 128, 256}) {
      space.push_back(DenseConfig{bn, bk});
    }
  }
  return space;
}

double MeasureDenseConfig(const DenseConfig& config, int64_t m, int64_t n,
                          int64_t k, int repeats) {
  support::Rng rng(99);
  std::vector<float> x(m * k), w(n * k), out(m * n);
  for (auto& v : x) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto& v : w) v = static_cast<float>(rng.Uniform(-1, 1));
  DenseBlocked(x.data(), w.data(), out.data(), m, n, k, config);  // warm-up
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    auto t0 = std::chrono::steady_clock::now();
    DenseBlocked(x.data(), w.data(), out.data(), m, n, k, config);
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

std::vector<MeasuredConfig> TuneDenseStatic(int64_t m, int64_t n, int64_t k,
                                            int repeats) {
  std::vector<MeasuredConfig> measured;
  for (const DenseConfig& config : DenseConfigSpace()) {
    measured.push_back(
        MeasuredConfig{config, MeasureDenseConfig(config, m, n, k, repeats)});
  }
  std::sort(measured.begin(), measured.end(),
            [](const MeasuredConfig& a, const MeasuredConfig& b) {
              return a.seconds < b.seconds;
            });
  return measured;
}

SymbolicTuneResult TuneDenseSymbolic(int64_t n, int64_t k, int top_k,
                                     int64_t tuning_m, int64_t max_eval_m) {
  SymbolicTuneResult result;
  // Step 1: tune at the representative static shape.
  result.tuning_shape_ranking = TuneDenseStatic(tuning_m, n, k);
  int keep = std::min<int>(top_k, static_cast<int>(result.tuning_shape_ranking.size()));

  // Step 2: cross-evaluate the top-k configs on powers of two.
  for (int64_t m = 1; m <= max_eval_m; m *= 2) result.eval_shapes.push_back(m);
  double best_avg = 0.0;
  bool first = true;
  for (int c = 0; c < keep; ++c) {
    const DenseConfig& config = result.tuning_shape_ranking[c].config;
    double total = 0.0;
    for (int64_t m : result.eval_shapes) {
      total += MeasureDenseConfig(config, m, n, k, 3);
    }
    double avg = total / static_cast<double>(result.eval_shapes.size());
    // Step 3: pick the best average performer.
    if (first || avg < best_avg) {
      best_avg = avg;
      result.chosen = config;
      first = false;
    }
  }
  result.chosen_avg_seconds = best_avg;
  return result;
}

TunedDense TuneCache::GetOrTune(int64_t m, int64_t n, int64_t k, int repeats) {
  std::lock_guard<std::mutex> lock(mu_);
  auto key = std::make_tuple(m, n, k);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    TunedDense hit = it->second;
    hit.fresh = false;
    return hit;
  }
  std::vector<MeasuredConfig> ranking = TuneDenseStatic(m, n, k, repeats);
  NIMBLE_CHECK(!ranking.empty());
  TunedDense tuned;
  tuned.config = ranking.front().config;
  tuned.seconds = ranking.front().seconds;
  tuned.fresh = true;
  cache_[key] = tuned;
  return tuned;
}

int64_t TuneCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(cache_.size());
}

TuneCache* TuneCache::Global() {
  static TuneCache* cache = new TuneCache();
  return cache;
}

}  // namespace codegen
}  // namespace nimble
