// Sample statistics the benchmark reports: order statistics over raw
// samples and the rule for which high percentile a sample count can
// support. Kept inside the benchmark (not partdb's Histogram) so that a
// change to the program cannot change how the benchmark measures it.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Client-observed figures are medians over slices of this length, using the
/// slices in which the host stole at most kCleanSteal of the CPU capacity
/// (see Summarize).
constexpr double kSliceSeconds = 0.25;
constexpr double kCleanSteal = 0.02;

/// One completion inside a measurement window.
struct Completion {
  uint32_t at_us = 0;       // completion time, from the window's start
  uint32_t latency_ns = 0;  // Submit entry -> callback entry, saturated
  bool mp = false;          // multi-partition
};

/// Client-observed figures of one kSliceSeconds slice of a window.
struct Slice {
  double tps = 0;
  double p50_us = 0;
  double p99_us = 0;  // highest supported percentile <= 99
  double sp_p50_us = 0;
  double mp_p50_us = -1;  // -1: fewer than 20 multi-partition completions
  double steal = -1;      // host CPU steal, share of capacity; -1 unknown
};

/// Cuts a window's completions into whole slices (the partial last one is
/// dropped). `steal[i]` is slice i's host steal, -1 when unknown.
std::vector<Slice> Slices(const std::vector<Completion>& samples, double window_s,
                          const std::vector<double>& steal);

/// A slice the host did not stall: steal at most kCleanSteal, or unknown.
bool Clean(const Slice& s);

/// What the clients observed over a set of slices. Each figure is the
/// median of its value over the clean slices, or, when fewer than 3 (or a
/// quarter of all) are clean, over that many of the least stolen ones. The
/// choice depends on the host's steal only, never on the measured values,
/// so a stall of the host rather than the program moves neither throughput
/// nor latency.
struct ClientView {
  double tps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double sp_p50_us = 0;
  double mp_p50_us = 0;  // 0 when no used slice has 20 multi-partition samples
  size_t slices = 0;
  size_t used_slices = 0;
  double steal_frac = 0;  // mean over the slices with a known value
};

ClientView Summarize(const std::vector<Slice>& slices);

/// Order statistic at percentile `q` in [0, 100] (nearest rank below);
/// reorders `v`. 0 when empty.
template <typename T>
double Quantile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  const size_t k = static_cast<size_t>(std::clamp(q, 0.0, 100.0) / 100.0 *
                                       static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> v);

/// The highest of the percentiles 99.9, 99, 95, 90, 75 and 50 that leaves
/// at least ten of `n` samples above it; 0 when even the median does not
/// (n < 20). A tail percentile read from fewer samples is one outlier.
double HighestSupportedPercentile(uint64_t n);

/// `want` when `n` samples support it, else the highest percentile below it
/// that they do (0 when none).
double SupportedPercentile(double want, uint64_t n);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
