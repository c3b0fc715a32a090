#include "stats.h"

#include <algorithm>

namespace perfbench {

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

std::vector<Slice> Slices(const std::vector<Completion>& samples, double window_s,
                          const std::vector<double>& steal) {
  const size_t n = static_cast<size_t>(window_s / kSliceSeconds);
  std::vector<std::vector<uint32_t>> all(n), sp(n), mp(n);
  for (const Completion& c : samples) {
    const size_t i = static_cast<size_t>(c.at_us / 1e6 / kSliceSeconds);
    if (i >= n) continue;  // the window's partial last slice
    all[i].push_back(c.latency_ns);
    (c.mp ? mp : sp)[i].push_back(c.latency_ns);
  }
  std::vector<Slice> out(n);
  for (size_t i = 0; i < n; ++i) {
    Slice& s = out[i];
    s.tps = static_cast<double>(all[i].size()) / kSliceSeconds;
    s.p50_us = Quantile(all[i], 50) / 1000.0;
    s.p99_us = Quantile(all[i], SupportedPercentile(99, all[i].size())) / 1000.0;
    s.sp_p50_us = Quantile(sp[i], 50) / 1000.0;
    if (mp[i].size() >= 20) s.mp_p50_us = Quantile(mp[i], 50) / 1000.0;
    if (i < steal.size()) s.steal = steal[i];
  }
  return out;
}

bool Clean(const Slice& s) { return s.steal <= kCleanSteal; }

ClientView Summarize(const std::vector<Slice>& slices) {
  ClientView v;
  v.slices = slices.size();
  double steal_sum = 0;
  size_t steal_known = 0;
  for (const Slice& s : slices) {
    if (s.steal >= 0) {
      steal_sum += s.steal;
      ++steal_known;
    }
  }
  v.steal_frac = steal_known > 0 ? steal_sum / static_cast<double>(steal_known) : 0;

  // The clean slices, or when too few are clean, the least stolen ones.
  const size_t need = std::min(slices.size(), std::max<size_t>(3, slices.size() / 4));
  std::vector<const Slice*> order;
  for (const Slice& s : slices) order.push_back(&s);
  std::stable_sort(order.begin(), order.end(),
                   [](const Slice* a, const Slice* b) { return a->steal < b->steal; });
  std::vector<double> tps, p50, p99, sp50, mp50;
  for (const Slice* s : order) {
    if (v.used_slices >= need && !Clean(*s)) break;
    ++v.used_slices;
    tps.push_back(s->tps);
    p50.push_back(s->p50_us);
    p99.push_back(s->p99_us);
    sp50.push_back(s->sp_p50_us);
    if (s->mp_p50_us >= 0) mp50.push_back(s->mp_p50_us);
  }
  v.tps = Median(tps);
  v.p50_us = Median(p50);
  v.p99_us = Median(p99);
  v.sp_p50_us = Median(sp50);
  v.mp_p50_us = Median(mp50);
  return v;
}

double HighestSupportedPercentile(uint64_t n) {
  for (const double q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0 - 1e-9) return q;
  }
  return 0.0;
}

double SupportedPercentile(double want, uint64_t n) {
  return std::min(want, HighestSupportedPercentile(n));
}

}  // namespace perfbench
