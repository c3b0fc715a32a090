// Log-bucketed histogram for latency measurements, plus simple running stats.
#ifndef PARTDB_COMMON_HISTOGRAM_H_
#define PARTDB_COMMON_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace partdb {

/// Histogram over non-negative int64 samples (typically nanoseconds). Buckets
/// grow geometrically (~10% per bucket) so percentile error is bounded.
class Histogram {
 public:
  Histogram();

  void Add(int64_t value);
  void Merge(const Histogram& other);
  void Clear();

  uint64_t count() const { return count_; }
  int64_t min() const { return count_ == 0 ? 0 : min_; }
  int64_t max() const { return max_; }
  double Mean() const;
  /// Value at percentile p in [0, 100]. Linear interpolation within a bucket.
  double Percentile(double p) const;

  /// One-line summary: count/mean/p50/p95/p99/max (values scaled by `scale`).
  std::string Summary(double scale = 1.0) const;

  // Raw-state access for the wire codec (net tier ships measurement-window
  // metrics): the non-zero buckets as (index, count) pairs — ascending
  // index — plus the running aggregates, and the inverse constructor
  // (which CHECKs bucket indices; decoders validate before calling it).
  static constexpr int num_buckets() { return kNumBuckets; }
  std::vector<std::pair<uint32_t, uint64_t>> NonZeroBuckets() const;
  double raw_sum() const { return sum_; }
  int64_t raw_min() const { return min_; }
  static Histogram FromRaw(uint64_t count, int64_t min, int64_t max, double sum,
                           const std::vector<std::pair<uint32_t, uint64_t>>& nonzero);

 private:
  friend class SingleWriterHistogram;
  static constexpr int kNumBuckets = 512;
  static int BucketFor(int64_t value);
  static int64_t BucketLimit(int bucket);

  std::vector<uint64_t> buckets_;
  uint64_t count_;
  int64_t min_;
  int64_t max_;
  double sum_;
};

/// A Histogram that one thread records into while any thread may read it:
/// per-thread shards merged on read, with no lock on the recording path.
/// Every field is an atomic that its single writer updates with a plain load
/// and store (no read-modify-write).
class SingleWriterHistogram {
 public:
  /// Owning thread only.
  void Add(int64_t value);
  /// Only while the owning thread is not recording.
  void Clear();
  /// Any thread. The count is the sum of the buckets read, so a snapshot
  /// taken mid-record is internally consistent.
  Histogram Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, Histogram::kNumBuckets> buckets_{};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{0};
  std::atomic<double> sum_{0};
};

/// Running mean/min/max accumulator for doubles.
class RunningStat {
 public:
  void Add(double v) {
    if (n_ == 0 || v < min_) min_ = v;
    if (n_ == 0 || v > max_) max_ = v;
    sum_ += v;
    ++n_;
  }
  uint64_t count() const { return n_; }
  double mean() const { return n_ == 0 ? 0.0 : sum_ / static_cast<double>(n_); }
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }

 private:
  uint64_t n_ = 0;
  double sum_ = 0, min_ = 0, max_ = 0;
};

}  // namespace partdb

#endif  // PARTDB_COMMON_HISTOGRAM_H_
