// Tests of the benchmark's own analysis code: span attachment and self
// time, order statistics, and which percentile a sample count supports.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

Span MakeSpan(SpanName name, int64_t start, int64_t end, int32_t parent = -1,
              uint64_t key = 0) {
  Span s;
  s.name = name;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  s.key = key;
  return s;
}

TEST(SelfTime, NoChildrenIsTheWholeDuration) {
  const std::vector<Span> spans = {MakeSpan(SpanName::kTxn, 100, 250)};
  EXPECT_EQ(SelfTimes(spans), std::vector<int64_t>({150}));
}

TEST(SelfTime, NestedSpansCountOnlyDirectChildren) {
  // root [0,100) > child [10,60) > grandchild [20,40)
  const std::vector<Span> spans = {
      MakeSpan(SpanName::kTxn, 0, 100),
      MakeSpan(SpanName::kSubmit, 10, 60, /*parent=*/0),
      MakeSpan(SpanName::kRoute, 20, 40, /*parent=*/1),
  };
  EXPECT_EQ(SelfTimes(spans), std::vector<int64_t>({50, 30, 20}));
}

TEST(SelfTime, OverlappingChildrenCountTheirUnionOnce) {
  // Children [10,50) and [30,70) cover [10,70) = 60 of the root's 100.
  const std::vector<Span> spans = {
      MakeSpan(SpanName::kTxn, 0, 100),
      MakeSpan(SpanName::kExec, 10, 50, 0),
      MakeSpan(SpanName::kExec, 30, 70, 0),
  };
  EXPECT_EQ(SelfTimes(spans)[0], 40);
}

TEST(SelfTime, CrossThreadChildrenAreClippedToTheParent) {
  // Two partitions execute the same transaction concurrently on other
  // threads; one starts before the root's interval (clock skew between
  // threads' reads) and one runs past its end. Only the overlap counts.
  const std::vector<Span> spans = {
      MakeSpan(SpanName::kTxn, 100, 200),        // client callback thread
      MakeSpan(SpanName::kExec, 90, 120, 0),     // partition 0 thread
      MakeSpan(SpanName::kExec, 110, 130, 0),    // partition 1 thread
      MakeSpan(SpanName::kDecodeResult, 180, 260, 0),  // client loop thread
  };
  // Covered: [100,130) + [180,200) = 50.
  EXPECT_EQ(SelfTimes(spans)[0], 50);
}

TEST(SelfTime, DisjointChildrenAreSummed) {
  const std::vector<Span> spans = {
      MakeSpan(SpanName::kTxn, 0, 100),
      MakeSpan(SpanName::kExec, 60, 70, 0),
      MakeSpan(SpanName::kSubmit, 0, 10, 0),
      MakeSpan(SpanName::kExec, 20, 30, 0),
  };
  EXPECT_EQ(SelfTimes(spans)[0], 70);
}

TEST(Attach, ChildJoinsTheRootWithItsKeyWhoseIntervalHoldsIt) {
  std::vector<Span> spans = {
      MakeSpan(SpanName::kTxn, 0, 100, -1, /*key=*/7),
      MakeSpan(SpanName::kTxn, 200, 300, -1, /*key=*/7),  // same client, next txn
      MakeSpan(SpanName::kTxn, 0, 300, -1, /*key=*/9),
      MakeSpan(SpanName::kSubmit, 200, 205, -1, /*key=*/7),
      MakeSpan(SpanName::kExec, 250, 260, -1, /*key=*/7),
      MakeSpan(SpanName::kExec, 50, 60, -1, /*key=*/7),
      MakeSpan(SpanName::kExec, 150, 160, -1, /*key=*/7),  // between the two: no root
      MakeSpan(SpanName::kExec, 150, 160, -1, /*key=*/8),  // unknown key
  };
  spans[3].txn = 42;  // the program's id, carried by the Submit span
  Attach(spans);
  EXPECT_EQ(spans[3].parent, 1);
  EXPECT_EQ(spans[4].parent, 1);
  EXPECT_EQ(spans[5].parent, 0);
  EXPECT_EQ(spans[6].parent, -1);
  EXPECT_EQ(spans[7].parent, -1);
  EXPECT_EQ(spans[1].txn, 42u);
  EXPECT_EQ(spans[4].txn, 42u);
}

TEST(Percentile, HighestWithTenSamplesAbove) {
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(999), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(200), 95.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(40), 75.0);
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
}

TEST(Percentile, SupportedCapsTheRequest) {
  EXPECT_EQ(SupportedPercentile(99, 5000), 99.0);
  EXPECT_EQ(SupportedPercentile(50, 5000), 50.0);
  EXPECT_EQ(SupportedPercentile(99, 150), 90.0);
}

TEST(Percentile, QuantileIsAnOrderStatistic) {
  std::vector<uint32_t> v;
  for (uint32_t i = 1000; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Quantile(v, 50), 500u);
  EXPECT_EQ(Quantile(v, 99), 990u);
  EXPECT_EQ(Quantile(v, 0), 1u);
  EXPECT_EQ(Quantile(v, 100), 1000u);
  std::vector<uint32_t> empty;
  EXPECT_EQ(Quantile(empty, 50), 0u);
}

// `per_slice[i]` completions in slice i, each with latency `latency_ns`.
std::vector<Completion> Completions(const std::vector<int>& per_slice, uint32_t latency_ns,
                                    bool mp = false) {
  std::vector<Completion> out;
  for (size_t i = 0; i < per_slice.size(); ++i) {
    const auto slice_start_us = static_cast<uint32_t>(i * kSliceSeconds * 1e6);
    for (int k = 0; k < per_slice[i]; ++k) {
      out.push_back({slice_start_us + static_cast<uint32_t>(k), latency_ns, mp});
    }
  }
  return out;
}

TEST(Summarize, MediansOverSlices) {
  // Four slices; one slow (a stall) does not move the medians.
  const auto slices = Slices(Completions({100, 100, 10, 100}, 2000), 4 * kSliceSeconds, {});
  ASSERT_EQ(slices.size(), 4u);
  EXPECT_DOUBLE_EQ(slices[2].tps, 10 / kSliceSeconds);
  const ClientView v = Summarize(slices);
  EXPECT_EQ(v.used_slices, 4u);
  EXPECT_DOUBLE_EQ(v.tps, 100 / kSliceSeconds);
  EXPECT_DOUBLE_EQ(v.p50_us, 2.0);
  EXPECT_DOUBLE_EQ(v.mp_p50_us, 0.0);  // no multi-partition samples
}

TEST(Summarize, SlicesWithHostStealAreLeftOut) {
  // Slices 4..7 lost half the CPU to the hypervisor and ran slowly.
  const std::vector<double> steal = {0, 0.01, 0, -1, 0.5, 0.5, 0.5, 0.5};
  const auto slices =
      Slices(Completions({100, 100, 100, 100, 20, 20, 20, 20}, 1000), 8 * kSliceSeconds, steal);
  const ClientView v = Summarize(slices);
  EXPECT_EQ(v.used_slices, 4u);
  EXPECT_DOUBLE_EQ(v.tps, 100 / kSliceSeconds);
  EXPECT_NEAR(v.steal_frac, (0.01 + 2.0) / 7, 1e-12);  // over the 7 known slices
}

TEST(Summarize, TooFewCleanSlicesUsesTheLeastStolenQuarter) {
  // Only 2 of 12 slices are clean; the third least stolen (0.1) joins them.
  const std::vector<double> steal = {0.5, 0, 0.5, 0.1, 0.5, 0.5, 0, 0.5, 0.5, 0.5, 0.5, 0.5};
  const auto slices = Slices(
      Completions({20, 100, 20, 60, 20, 20, 100, 20, 20, 20, 20, 20}, 1000), 12 * kSliceSeconds,
      steal);
  const ClientView v = Summarize(slices);
  EXPECT_EQ(v.used_slices, 3u);
  EXPECT_DOUBLE_EQ(v.tps, 100 / kSliceSeconds);
}

TEST(Summarize, UniformStealUsesAQuarterOfTheSlices) {
  // The host stole everywhere: the numbers show the stall.
  const std::vector<double> steal(8, 0.25);
  const auto slices = Slices(Completions({20, 20, 20, 20, 20, 20, 20, 20}, 1000),
                             8 * kSliceSeconds, steal);
  const ClientView v = Summarize(slices);
  EXPECT_EQ(v.used_slices, 3u);
  EXPECT_DOUBLE_EQ(v.tps, 20 / kSliceSeconds);
}

TEST(Summarize, SlicesOfSeveralWindowsCombine) {
  // A stalled first window plus a clean extension: the clean slices decide.
  auto slices = Slices(Completions({20, 20, 20, 20}, 1000), 4 * kSliceSeconds,
                       {0.5, 0.5, 0.5, 0.5});
  const auto more = Slices(Completions({100, 100, 100, 100}, 1000), 4 * kSliceSeconds,
                           {0, 0, 0, 0});
  slices.insert(slices.end(), more.begin(), more.end());
  const ClientView v = Summarize(slices);
  EXPECT_EQ(v.slices, 8u);
  EXPECT_EQ(v.used_slices, 4u);
  EXPECT_DOUBLE_EQ(v.tps, 100 / kSliceSeconds);
}

TEST(Summarize, PartialLastSliceIsDropped) {
  auto samples = Completions({50, 50, 50}, 1000);
  samples.push_back({static_cast<uint32_t>(3.5 * kSliceSeconds * 1e6), 99000, false});
  const auto slices = Slices(samples, 3.9 * kSliceSeconds, {});
  EXPECT_EQ(slices.size(), 3u);
  EXPECT_DOUBLE_EQ(Summarize(slices).p99_us, 1.0);
}

TEST(Summarize, MultiPartitionMedianNeedsTwentySamplesPerSlice) {
  auto samples = Completions({100, 100, 100}, 1000);
  const auto mp = Completions({20, 20, 19}, 5000, /*mp=*/true);
  samples.insert(samples.end(), mp.begin(), mp.end());
  const auto slices = Slices(samples, 3 * kSliceSeconds, {});
  EXPECT_DOUBLE_EQ(slices[2].mp_p50_us, -1);
  const ClientView v = Summarize(slices);
  EXPECT_DOUBLE_EQ(v.mp_p50_us, 5.0);
  EXPECT_DOUBLE_EQ(v.sp_p50_us, 1.0);
}

TEST(Median, OddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

}  // namespace
}  // namespace perfbench
