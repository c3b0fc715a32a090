// Property and unit tests for the storage substrates: B+tree, AVL tree,
// open-addressing hash table, and undo buffer. The ordered structures are
// checked against std::map reference models under randomized operation
// streams, with structural invariants validated throughout.
#include <map>
#include <set>
#include <string>

#include "common/rng.h"
#include "gtest/gtest.h"
#include "storage/avl_tree.h"
#include "storage/btree.h"
#include "storage/hash_table.h"
#include "storage/undo_buffer.h"

namespace partdb {
namespace {

// ---------------------------------------------------------------- B+tree --

TEST(BPlusTree, EmptyTree) {
  BPlusTree<uint64_t, int> t;
  EXPECT_EQ(t.size(), 0u);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.Find(42), nullptr);
  EXPECT_FALSE(t.Begin().Valid());
  EXPECT_TRUE(t.Validate());
}

TEST(BPlusTree, InsertFindErase) {
  BPlusTree<uint64_t, int> t;
  EXPECT_TRUE(t.Insert(5, 50));
  EXPECT_TRUE(t.Insert(3, 30));
  EXPECT_TRUE(t.Insert(9, 90));
  EXPECT_FALSE(t.Insert(5, 55));  // duplicate rejected
  ASSERT_NE(t.Find(5), nullptr);
  EXPECT_EQ(*t.Find(5), 50);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(t.Erase(5));
  EXPECT_FALSE(t.Erase(5));
  EXPECT_EQ(t.Find(5), nullptr);
  EXPECT_TRUE(t.Validate());
}

TEST(BPlusTree, InOrderIteration) {
  BPlusTree<uint64_t, int, 6> t;
  Rng rng(7);
  std::set<uint64_t> keys;
  for (int i = 0; i < 500; ++i) keys.insert(rng.Uniform(10000));
  for (uint64_t k : keys) ASSERT_TRUE(t.Insert(k, static_cast<int>(k * 2)));
  ASSERT_TRUE(t.Validate());

  auto it = t.Begin();
  for (uint64_t k : keys) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), k);
    EXPECT_EQ(it.value(), static_cast<int>(k * 2));
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

TEST(BPlusTree, LowerBound) {
  BPlusTree<uint64_t, int, 6> t;
  for (uint64_t k = 0; k < 1000; k += 10) ASSERT_TRUE(t.Insert(k, 1));
  auto it = t.LowerBound(205);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 210u);
  it = t.LowerBound(210);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 210u);
  it = t.LowerBound(0);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 0u);
  it = t.LowerBound(991);
  EXPECT_FALSE(it.Valid());
  auto last = t.Last();
  ASSERT_TRUE(last.Valid());
  EXPECT_EQ(last.key(), 990u);
}

TEST(BPlusTree, MetersNodeVisits) {
  BPlusTree<uint64_t, int, 6> t;
  for (uint64_t k = 0; k < 5000; ++k) ASSERT_TRUE(t.Insert(k, 1));
  WorkMeter m;
  t.Find(2500, &m);
  // Depth of a 6-way tree with 5000 keys is at least 4.
  EXPECT_GE(m.index_nodes, 4u);
}

// No padding: gtest names each case by the param's raw bytes, so padding
// bytes (indeterminate) would make the case names differ between runs.
struct BTreeParam {
  uint64_t seed;
  int64_t ops;
  uint64_t key_space;
};
static_assert(sizeof(BTreeParam) == 24, "BTreeParam must have no padding");

class BTreeRandomized : public ::testing::TestWithParam<BTreeParam> {};

TEST_P(BTreeRandomized, MatchesReferenceModel) {
  const BTreeParam param = GetParam();
  BPlusTree<uint64_t, uint64_t, 8> t;
  std::map<uint64_t, uint64_t> ref;
  Rng rng(param.seed);

  for (int64_t i = 0; i < param.ops; ++i) {
    const uint64_t k = rng.Uniform(param.key_space);
    switch (rng.Uniform(4)) {
      case 0:
      case 1: {  // insert
        const bool inserted = t.Insert(k, k + 1);
        EXPECT_EQ(inserted, ref.emplace(k, k + 1).second);
        break;
      }
      case 2: {  // erase
        EXPECT_EQ(t.Erase(k), ref.erase(k) > 0);
        break;
      }
      case 3: {  // find
        auto* v = t.Find(k);
        auto it = ref.find(k);
        if (it == ref.end()) {
          EXPECT_EQ(v, nullptr);
        } else {
          ASSERT_NE(v, nullptr);
          EXPECT_EQ(*v, it->second);
        }
        break;
      }
    }
    if (i % 64 == 0) {
      ASSERT_TRUE(t.Validate()) << "op " << i;
    }
  }
  ASSERT_TRUE(t.Validate());
  EXPECT_EQ(t.size(), ref.size());

  // Full scan must match the reference exactly.
  auto it = t.Begin();
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), k);
    EXPECT_EQ(it.value(), v);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

INSTANTIATE_TEST_SUITE_P(Sweep, BTreeRandomized,
                         ::testing::Values(BTreeParam{1, 2000, 64},      // heavy collisions
                                           BTreeParam{2, 4000, 1024},   // mixed
                                           BTreeParam{3, 4000, 100000}, // sparse
                                           BTreeParam{4, 8000, 512},    // churn
                                           BTreeParam{5, 1000, 8}));    // tiny domain

TEST(BPlusTree, SequentialInsertThenDeleteAll) {
  BPlusTree<uint64_t, int, 6> t;
  for (uint64_t k = 0; k < 3000; ++k) ASSERT_TRUE(t.Insert(k, 1));
  ASSERT_TRUE(t.Validate());
  for (uint64_t k = 0; k < 3000; ++k) ASSERT_TRUE(t.Erase(k)) << k;
  EXPECT_EQ(t.size(), 0u);
  ASSERT_TRUE(t.Validate());
}

TEST(BPlusTree, ReverseDeleteAll) {
  BPlusTree<uint64_t, int, 6> t;
  for (uint64_t k = 0; k < 3000; ++k) ASSERT_TRUE(t.Insert(k, 1));
  for (uint64_t k = 3000; k-- > 0;) ASSERT_TRUE(t.Erase(k)) << k;
  EXPECT_EQ(t.size(), 0u);
  ASSERT_TRUE(t.Validate());
}

// --------------------------------------------------------------- AVL tree --

TEST(AvlTree, InsertFindErase) {
  AvlTree<int, std::string> t;
  EXPECT_TRUE(t.Insert(2, "two"));
  EXPECT_TRUE(t.Insert(1, "one"));
  EXPECT_TRUE(t.Insert(3, "three"));
  EXPECT_FALSE(t.Insert(2, "dup"));
  ASSERT_NE(t.Find(2), nullptr);
  EXPECT_EQ(*t.Find(2), "two");
  EXPECT_TRUE(t.Erase(2));
  EXPECT_EQ(t.Find(2), nullptr);
  EXPECT_TRUE(t.Validate());
}

TEST(AvlTree, LowerBoundSemantics) {
  AvlTree<uint64_t, int> t;
  for (uint64_t k = 10; k <= 100; k += 10) ASSERT_TRUE(t.Insert(k, 1));
  uint64_t key = 0;
  int* val = nullptr;
  ASSERT_TRUE(t.LowerBound(35, &key, &val));
  EXPECT_EQ(key, 40u);
  ASSERT_TRUE(t.LowerBound(40, &key, &val));
  EXPECT_EQ(key, 40u);
  EXPECT_FALSE(t.LowerBound(101, &key, &val));
}

class AvlRandomized : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AvlRandomized, MatchesReferenceModel) {
  AvlTree<uint64_t, uint64_t> t;
  std::map<uint64_t, uint64_t> ref;
  Rng rng(GetParam());
  for (int i = 0; i < 3000; ++i) {
    const uint64_t k = rng.Uniform(512);
    if (rng.Bernoulli(0.55)) {
      EXPECT_EQ(t.Insert(k, k), ref.emplace(k, k).second);
    } else {
      EXPECT_EQ(t.Erase(k), ref.erase(k) > 0);
    }
    if (i % 128 == 0) {
      ASSERT_TRUE(t.Validate());
    }
  }
  ASSERT_TRUE(t.Validate());
  EXPECT_EQ(t.size(), ref.size());
  std::vector<uint64_t> scanned;
  t.ForEach([&](const uint64_t& k, uint64_t&) { scanned.push_back(k); });
  std::vector<uint64_t> expected;
  for (const auto& [k, v] : ref) expected.push_back(k);
  EXPECT_EQ(scanned, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AvlRandomized, ::testing::Values(11, 22, 33, 44));

// ------------------------------------------------------------- hash table --

TEST(HashTable, BasicOperations) {
  HashTable<uint64_t, int> h;
  EXPECT_EQ(h.Find(1), nullptr);
  EXPECT_TRUE(h.Insert(1, 10).second);
  EXPECT_FALSE(h.Insert(1, 11).second);
  EXPECT_EQ(*h.Find(1), 10);
  h.Put(1, 12);
  EXPECT_EQ(*h.Find(1), 12);
  EXPECT_TRUE(h.Erase(1));
  EXPECT_FALSE(h.Erase(1));
  EXPECT_EQ(h.size(), 0u);
}

TEST(HashTable, GrowsAndKeepsEntries) {
  HashTable<uint64_t, uint64_t> h(4);
  for (uint64_t k = 0; k < 10000; ++k) h.Put(k, k * 3);
  EXPECT_EQ(h.size(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(h.Find(k), nullptr) << k;
    EXPECT_EQ(*h.Find(k), k * 3);
  }
}

class HashRandomized : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashRandomized, MatchesReferenceModel) {
  HashTable<uint64_t, uint64_t> h;
  std::map<uint64_t, uint64_t> ref;
  Rng rng(GetParam());
  for (int i = 0; i < 6000; ++i) {
    const uint64_t k = rng.Uniform(700);  // force deletion chains
    switch (rng.Uniform(3)) {
      case 0:
        h.Put(k, i);
        ref[k] = static_cast<uint64_t>(i);
        break;
      case 1:
        EXPECT_EQ(h.Erase(k), ref.erase(k) > 0);
        break;
      case 2: {
        auto* v = h.Find(k);
        auto it = ref.find(k);
        if (it == ref.end()) {
          EXPECT_EQ(v, nullptr);
        } else {
          ASSERT_NE(v, nullptr);
          EXPECT_EQ(*v, it->second);
        }
        break;
      }
    }
  }
  EXPECT_EQ(h.size(), ref.size());
  size_t seen = 0;
  h.ForEach([&](const uint64_t& k, uint64_t& v) {
    auto it = ref.find(k);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(v, it->second);
    ++seen;
  });
  EXPECT_EQ(seen, ref.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, HashRandomized, ::testing::Values(101, 202, 303, 404));

TEST(HashTable, MetersProbes) {
  HashTable<uint64_t, int> h;
  h.Put(7, 1);
  WorkMeter m;
  h.Find(7, &m);
  EXPECT_GE(m.index_nodes, 1u);
}

// ------------------------------------------------------------ undo buffer --

TEST(UndoBuffer, RollsBackInReverseOrder) {
  UndoBuffer u;
  std::vector<int> log;
  u.Add([&] { log.push_back(1); });
  u.Add([&] { log.push_back(2); });
  u.Add([&] { log.push_back(3); });
  u.Rollback();
  EXPECT_EQ(log, (std::vector<int>{3, 2, 1}));
  EXPECT_TRUE(u.empty());
}

TEST(UndoBuffer, ClearDropsWithoutApplying) {
  UndoBuffer u;
  int applied = 0;
  u.Add([&] { applied++; });
  u.Clear();
  u.Rollback();
  EXPECT_EQ(applied, 0);
}

TEST(UndoBuffer, MetersRecords) {
  UndoBuffer u;
  WorkMeter m;
  u.Add([] {}, &m);
  u.Add([] {}, &m);
  EXPECT_EQ(m.undo_records, 2u);
}

}  // namespace
}  // namespace partdb
