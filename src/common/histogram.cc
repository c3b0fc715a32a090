#include "common/histogram.h"

#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace partdb {

Histogram::Histogram() : buckets_(kNumBuckets, 0) { Clear(); }

void Histogram::Clear() {
  for (auto& b : buckets_) b = 0;
  count_ = 0;
  min_ = 0;
  max_ = 0;
  sum_ = 0;
}

int Histogram::BucketFor(int64_t value) {
  if (value <= 0) return 0;
  // Bucket index grows with log1.1(value), computed via frexp-ish math.
  int idx = static_cast<int>(std::log(static_cast<double>(value)) / std::log(1.1));
  if (idx < 0) idx = 0;
  if (idx >= kNumBuckets) idx = kNumBuckets - 1;
  return idx;
}

int64_t Histogram::BucketLimit(int bucket) {
  return static_cast<int64_t>(std::pow(1.1, bucket + 1));
}

void Histogram::Add(int64_t value) {
  const int b = BucketFor(value);
  buckets_[b]++;
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  sum_ += static_cast<double>(value);
  count_++;
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) buckets_[i] += other.buckets_[i];
  if (other.count_ > 0) {
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  PARTDB_CHECK(p >= 0.0 && p <= 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const uint64_t next = seen + buckets_[i];
    if (static_cast<double>(next) >= target) {
      const int64_t lo = i == 0 ? 0 : BucketLimit(i - 1);
      const int64_t hi = BucketLimit(i);
      const double frac = buckets_[i] == 0 ? 0.0
                                           : (target - static_cast<double>(seen)) /
                                                 static_cast<double>(buckets_[i]);
      double v = static_cast<double>(lo) + frac * static_cast<double>(hi - lo);
      if (v < static_cast<double>(min_)) v = static_cast<double>(min_);
      if (v > static_cast<double>(max_)) v = static_cast<double>(max_);
      return v;
    }
    seen = next;
  }
  return static_cast<double>(max_);
}

std::vector<std::pair<uint32_t, uint64_t>> Histogram::NonZeroBuckets() const {
  std::vector<std::pair<uint32_t, uint64_t>> out;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets_[i] != 0) out.emplace_back(static_cast<uint32_t>(i), buckets_[i]);
  }
  return out;
}

Histogram Histogram::FromRaw(uint64_t count, int64_t min, int64_t max, double sum,
                             const std::vector<std::pair<uint32_t, uint64_t>>& nonzero) {
  Histogram h;
  uint64_t total = 0;
  for (const auto& [idx, n] : nonzero) {
    PARTDB_CHECK(idx < static_cast<uint32_t>(kNumBuckets));
    h.buckets_[idx] = n;
    total += n;
  }
  PARTDB_CHECK(total == count);
  h.count_ = count;
  h.min_ = min;
  h.max_ = max;
  h.sum_ = sum;
  return h;
}

void SingleWriterHistogram::Add(int64_t value) {
  if (value < min_.load(std::memory_order_relaxed)) min_.store(value, std::memory_order_relaxed);
  if (value > max_.load(std::memory_order_relaxed)) max_.store(value, std::memory_order_relaxed);
  sum_.store(sum_.load(std::memory_order_relaxed) + static_cast<double>(value),
             std::memory_order_relaxed);
  // Published last: a reader that sees the sample counted also sees a
  // min/max that cover it.
  std::atomic<uint64_t>& b = buckets_[Histogram::BucketFor(value)];
  b.store(b.load(std::memory_order_relaxed) + 1, std::memory_order_release);
}

void SingleWriterHistogram::Clear() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

Histogram SingleWriterHistogram::Snapshot() const {
  Histogram h;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    h.buckets_[i] = buckets_[i].load(std::memory_order_acquire);
    h.count_ += h.buckets_[i];
  }
  if (h.count_ > 0) {
    h.min_ = min_.load(std::memory_order_relaxed);
    h.max_ = max_.load(std::memory_order_relaxed);
    h.sum_ = sum_.load(std::memory_order_relaxed);
  }
  return h;
}

std::string Histogram::Summary(double scale) const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "count=%llu mean=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f",
                static_cast<unsigned long long>(count_), Mean() * scale,
                Percentile(50) * scale, Percentile(95) * scale, Percentile(99) * scale,
                static_cast<double>(max_) * scale);
  return buf;
}

}  // namespace partdb
