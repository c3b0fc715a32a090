// Heap allocations per TPC-C fragment. This binary replaces the global
// operator new with a counting one, so it stays separate from the other test
// suites. The engine runs the full mix on one warm partition; the draws are
// made up front, so only Execute and the per-fragment UndoBuffer are counted.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "gtest/gtest.h"
#include "tpcc/tpcc_engine.h"
#include "tpcc/tpcc_procedures.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace partdb {
namespace tpcc {
namespace {

enum class UndoMode { kNone, kUndo, kUndoRedo };

/// Mean allocations per fragment over `measured` fragments of the full mix,
/// after `warmup` fragments. Each fragment gets a fresh UndoBuffer, as the
/// schemes give it.
double AllocationsPerFragment(UndoMode mode, int warmup, int measured) {
  TpccWorkloadConfig cfg;
  cfg.scale.num_warehouses = 2;
  cfg.scale.num_partitions = 1;
  cfg.scale.items = 1000;
  cfg.scale.customers_per_district = 100;
  cfg.scale.initial_orders_per_district = 100;
  TpccEngine engine(cfg.scale, 0, 1);
  Rng rng(11);
  std::vector<TpccDraw> draws;
  for (int i = 0; i < warmup + measured; ++i) draws.push_back(DrawTpccTxn(cfg, i, rng));

  const auto run = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      UndoBuffer undo;
      if (mode == UndoMode::kUndoRedo) undo.EnableRedo();
      WorkMeter m;
      engine.Execute(*draws[i].args, 0, nullptr, mode == UndoMode::kNone ? nullptr : &undo, &m);
    }
  };
  run(0, warmup);
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  run(warmup, warmup + measured);
  return static_cast<double>(g_allocations.load(std::memory_order_relaxed) - before) / measured;
}

// Left on a fragment: the result payload (one per committed fragment), the
// UndoBuffer's entry vector growing, the bad-credit Payment's C_DATA image,
// and the history/last-order hash tables doubling as they grow.
TEST(TpccAllocations, PerFragmentOnTheFullMix) {
  constexpr int kWarmup = 2000;
  constexpr int kMeasured = 4000;
  const double none = AllocationsPerFragment(UndoMode::kNone, kWarmup, kMeasured);
  const double undo = AllocationsPerFragment(UndoMode::kUndo, kWarmup, kMeasured);
  const double redo = AllocationsPerFragment(UndoMode::kUndoRedo, kWarmup, kMeasured);
  std::printf("allocations per fragment over %d fragments: no undo %.3f, undo %.3f, "
              "undo+redo %.3f\n", kMeasured, none, undo, redo);
  RecordProperty("no_undo_milli", static_cast<int>(none * 1000));
  RecordProperty("undo_milli", static_cast<int>(undo * 1000));
  RecordProperty("undo_redo_milli", static_cast<int>(redo * 1000));
  EXPECT_LT(none, 1.1);
  EXPECT_LT(undo, 6.0);
  EXPECT_LT(redo - undo, 0.1);  // redo images fit inline too
}

}  // namespace
}  // namespace tpcc
}  // namespace partdb
