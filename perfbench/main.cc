// perfbench: one run of one workload.
//
//   perfbench --workload bulk|point|lazy --seed N --seconds S --trace 0|1
//             --work-dir DIR [--span-file FILE] [--rev REV] [--smoke]
//
// Prints a fingerprint, the per-layer table when traced, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when an output check failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "perfbench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload bulk|point|lazy "
               "--seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--span-file FILE] [--rev REV] [--smoke]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  xvm::perf::Options opts;
  std::string rev = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opts.workload = val;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = val == "1";
    } else if (arg == "--work-dir") {
      opts.work_dir = val;
    } else if (arg == "--span-file") {
      opts.span_file = val;
    } else if (arg == "--rev") {
      rev = val;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opts.work_dir.empty()) return Usage("--work-dir is required");
  if (!(opts.seconds > 0)) return Usage("--seconds must be positive");

  void (*run)(const xvm::perf::Options&, xvm::perf::Report*) = nullptr;
  if (opts.workload == "bulk") run = xvm::perf::RunBulk;
  if (opts.workload == "point") run = xvm::perf::RunPoint;
  if (opts.workload == "lazy") run = xvm::perf::RunLazy;
  if (run == nullptr) return Usage("unknown workload");

  std::printf("fingerprint: rev=%s compiler=\"g++ %s\" build=%s nproc=%u "
              "workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              rev.c_str(), __VERSION__, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(), opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0, opts.smoke ? 1 : 0);
  xvm::perf::Report report;
  run(opts, &report);
  std::printf("%s\n", report.Json().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
