// Randomized schedule sweeper for continuous batching (not a gtest).
//
// Generates arrival/length schedules from sequential seeds (all three
// sched_fuzz flavors, slot counts and dense dispatch variant counts cycled
// per seed) and replays each one through a continuous Server via
// schedfuzz::ContinuousHarness, asserting bitwise identity against
// full-dispatch sequential execution plus the slot-map invariants. On the
// first failure it prints the replay line, appends the seed to --fail-file
// (CI uploads it as an artifact), and exits 1.
//
//   sched_harness --runs 2000                  # nightly sweep
//   sched_harness --runs 25 --base-seed 1      # CI smoke (fixed seeds)
//   sched_harness --seed 1337                  # replay one failing seed
//
// Flags:
//   --runs N        schedules to run (default 200); ignored with --seed
//   --seed S        replay exactly one seed and exit
//   --base-seed S   first seed of the sweep (default 1)
//   --flavor F      force poisson|bursty|adversarial (default: from seed)
//   --requests N    requests per schedule (default 24)
//   --max-len N     maximum sequence length (default 12)
//   --slots N       slot count (default: cycles 1,2,4,8 by seed)
//                   (the dispatch variant count always cycles 8,4,2,1 by
//                   seed / 4, so 16 consecutive seeds cover every pair)
//   --pool N        size the global kernel pool to N threads and drop the
//                   parallel-dense threshold to 1, so even the harness's
//                   tiny denses route through the tiled+parallel path —
//                   the bit-identity assertion then covers it end to end
//   --fail-file P   append failing seeds to P (one per line)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "src/codegen/parallel.h"
#include "tests/continuous_harness.h"
#include "tests/sched_fuzz.h"

namespace {

int64_t ParseInt(const char* flag, const char* value) {
  char* end = nullptr;
  long long parsed = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr, "sched_harness: bad value for %s: '%s'\n", flag,
                 value);
    std::exit(2);
  }
  return static_cast<int64_t>(parsed);
}

}  // namespace

int main(int argc, char** argv) {
  using nimble::schedfuzz::ArrivalFlavor;
  using nimble::schedfuzz::ContinuousHarness;
  using nimble::schedfuzz::FuzzSchedule;
  using nimble::schedfuzz::MakeSchedule;

  int64_t runs = 200;
  uint64_t base_seed = 1;
  uint64_t replay_seed = 0;
  bool have_replay_seed = false;
  int64_t num_requests = 24;
  int64_t max_len = 12;
  int64_t forced_slots = 0;  // 0 = cycle by seed
  bool have_flavor = false;
  ArrivalFlavor flavor = ArrivalFlavor::kPoisson;
  std::string fail_file;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "sched_harness: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--runs") == 0) {
      runs = ParseInt("--runs", next("--runs"));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      replay_seed = static_cast<uint64_t>(ParseInt("--seed", next("--seed")));
      have_replay_seed = true;
    } else if (std::strcmp(argv[i], "--base-seed") == 0) {
      base_seed =
          static_cast<uint64_t>(ParseInt("--base-seed", next("--base-seed")));
    } else if (std::strcmp(argv[i], "--flavor") == 0) {
      const char* name = next("--flavor");
      if (std::strcmp(name, "poisson") == 0) {
        flavor = ArrivalFlavor::kPoisson;
      } else if (std::strcmp(name, "bursty") == 0) {
        flavor = ArrivalFlavor::kBursty;
      } else if (std::strcmp(name, "adversarial") == 0) {
        flavor = ArrivalFlavor::kAdversarial;
      } else {
        std::fprintf(stderr, "sched_harness: unknown flavor '%s'\n", name);
        return 2;
      }
      have_flavor = true;
    } else if (std::strcmp(argv[i], "--requests") == 0) {
      num_requests = ParseInt("--requests", next("--requests"));
    } else if (std::strcmp(argv[i], "--max-len") == 0) {
      max_len = ParseInt("--max-len", next("--max-len"));
    } else if (std::strcmp(argv[i], "--slots") == 0) {
      forced_slots = ParseInt("--slots", next("--slots"));
    } else if (std::strcmp(argv[i], "--pool") == 0) {
      int64_t pool_threads = ParseInt("--pool", next("--pool"));
      nimble::codegen::KernelPool::ConfigureGlobal(
          static_cast<int>(pool_threads));
      nimble::codegen::SetDenseParallelThreshold(1);
    } else if (std::strcmp(argv[i], "--fail-file") == 0) {
      fail_file = next("--fail-file");
    } else {
      std::fprintf(stderr, "sched_harness: unknown flag '%s'\n", argv[i]);
      return 2;
    }
  }
  if (have_replay_seed) runs = 1;

  ContinuousHarness harness;
  const int64_t slot_cycle[] = {1, 2, 4, 8};
  const int variant_cycle[] = {8, 4, 2, 1};
  int64_t passed = 0;
  for (int64_t i = 0; i < runs; ++i) {
    uint64_t seed = have_replay_seed ? replay_seed : base_seed + i;
    // Slot and dispatch variant counts are deterministic functions of the
    // seed, so a --seed replay reproduces the whole configuration, not just
    // the schedule.
    int64_t num_slots =
        forced_slots > 0 ? forced_slots : slot_cycle[seed % 4];
    int variants = variant_cycle[(seed / 4) % 4];
    FuzzSchedule schedule =
        have_flavor
            ? MakeSchedule(seed, static_cast<int>(num_requests), max_len,
                           flavor)
            : MakeSchedule(seed, static_cast<int>(num_requests), max_len);
    std::string failure = harness.RunSchedule(schedule, num_slots, variants);
    if (!failure.empty()) {
      std::fprintf(stderr,
                   "FAIL (slots=%lld dense_dispatch_variants=%d): %s\n",
                   static_cast<long long>(num_slots), variants,
                   failure.c_str());
      if (!fail_file.empty()) {
        std::ofstream out(fail_file, std::ios::app);
        out << seed << "\n";
      }
      return 1;
    }
    ++passed;
    if (passed % 100 == 0) {
      std::printf("sched_harness: %lld/%lld schedules passed\n",
                  static_cast<long long>(passed),
                  static_cast<long long>(runs));
      std::fflush(stdout);
    }
  }
  std::printf(
      "sched_harness: all %lld schedules bit-identical to sequential "
      "(requests=%lld max_len=%lld)\n",
      static_cast<long long>(passed), static_cast<long long>(num_requests),
      static_cast<long long>(max_len));
  return 0;
}
