// One benchmark run: a named workload at a seed, measured untraced
// (end-to-end metrics) or traced (per-layer metrics). See README.md.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // total measurement window, split over the schemes run
  bool trace = false;
  std::string scratch_dir;  // log directories (durability workloads)
  std::string phase_file;   // progress for the watchdog ("" = none)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  /// Every output check passed and no transaction failed.
  bool correct = true;
  uint64_t attempted = 0;  // Submit calls
  uint64_t failed = 0;     // refused + not completed after drain
  std::vector<Metric> metrics;
  std::vector<std::string> problems;  // failed checks, one line each
  std::vector<std::pair<std::string, std::string>> fingerprint;
};

bool KnownWorkload(const std::string& name);
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
