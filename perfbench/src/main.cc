// perfbench: the repository's end-to-end benchmark (see ../README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload and prints, as the last line of stdout, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Human-readable
// notes go to stderr.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "perfbench/src/common.h"
#include "src/codegen/parallel.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload vm_bert_mrpc|serve_lstm_offline|"
               "http_lstm_online --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(options.seconds > 0.0)) return Usage();

  // Dense kernels run on the calling thread: the process-wide kernel pool
  // is sized to one thread before anything uses it (see README.md).
  nimble::codegen::KernelPool::ConfigureGlobal(perfbench::kKernelThreads);

  perfbench::RunResult result;
  try {
    if (options.workload == "vm_bert_mrpc") {
      result = perfbench::RunVmBert(options);
    } else if (options.workload == "serve_lstm_offline") {
      result = perfbench::RunServeOffline(options);
    } else if (options.workload == "http_lstm_online") {
      result = perfbench::RunHttpOnline(options);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const auto& [name, value] : result.metrics) {
    std::fprintf(stderr, "  %-32s %.6g\n", name.c_str(), value);
  }
  std::fprintf(stderr, "  attempted %lld, failed %lld, correct %s\n",
               static_cast<long long>(result.attempted),
               static_cast<long long>(result.failed),
               result.correct ? "yes" : "NO");
  perfbench::PrintResult(result);
  return 0;
}
