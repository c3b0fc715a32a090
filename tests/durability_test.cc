// Durability tier end-to-end: crash-restart-verify for every scheme (KV and
// TPC-C), checkpoint + log-truncation round trips, torn-tail tolerance vs
// mid-file corruption rejection, group-commit acked-subset guarantee, the
// group-commit window's anchor, and the log-writer counters.
//
// The central invariant (kill-and-recover): every transaction whose
// completion callback observed crashed() == false must be in the recovered
// state, and the recovered state must equal a serial replay of exactly the
// recovered commit prefix — the same replay checker the live schemes are
// verified against.
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "durability/durability_manager.h"
#include "durability/log_format.h"
#include "durability/recovery.h"
#include "engine/replay.h"
#include "gtest/gtest.h"
#include "kv/kv_procedures.h"
#include "test_util.h"
#include "tpcc/tpcc_consistency.h"
#include "tpcc/tpcc_procedures.h"

namespace partdb {
namespace {

using tpcc::CheckConsistency;
using tpcc::DrawTpccTxn;
using tpcc::TpccDraw;
using tpcc::TpccEngine;
using tpcc::TpccProcName;
using tpcc::TpccScale;
using tpcc::TpccWorkloadConfig;

std::string MakeTempDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = ::testing::TempDir() + "partdb_dur_" + tag + "_" +
                          std::to_string(::getpid()) + "_" +
                          std::to_string(counter.fetch_add(1));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Submits one transaction and blocks for its completion, reporting whether
/// it committed AND its completion ran before the injected crash fired —
/// i.e. whether the client was entitled to consider it durable.
struct AckedOutcome {
  TxnId txn_id = kInvalidTxn;
  bool committed = false;
  bool durably_acked = false;
};

AckedOutcome SubmitAndAwait(Session& session, DurabilityManager* dm, ProcId proc,
                            PayloadPtr args) {
  auto state = std::make_shared<std::promise<std::pair<bool, bool>>>();
  std::future<std::pair<bool, bool>> fut = state->get_future();
  const SubmitResult sr =
      session.Submit(proc, std::move(args), [state, dm](const TxnResult& r) {
        state->set_value({r.committed, dm->crashed()});
      });
  AckedOutcome out;
  EXPECT_TRUE(sr.accepted);
  if (!sr.accepted) return out;
  const auto [committed, crashed_at_cb] = fut.get();
  out.txn_id = sr.txn_id;
  out.committed = committed;
  out.durably_acked = committed && !crashed_at_cb;
  return out;
}

/// A's in-memory commit log restricted to the ids recovery kept: per
/// partition the durable records are a prefix of the commit order, minus the
/// multi-partition transactions recovery skipped as incomplete, so this is
/// exactly the sequence the recovered engine must be a serial replay of.
std::vector<CommitRecord> FilterByRecovered(const std::vector<CommitRecord>& log,
                                            const std::unordered_set<TxnId>& recovered) {
  std::vector<CommitRecord> out;
  for (const CommitRecord& rec : log) {
    if (recovered.count(rec.txn_id) != 0) out.push_back(rec);
  }
  return out;
}

// --- kill-and-recover, every scheme, KV mixed SP/MP with round inputs ------

class DurabilityCrashKv : public ::testing::TestWithParam<const char*> {};

TEST_P(DurabilityCrashKv, AckedCommitsSurviveCrash) {
  constexpr int kThreads = 4;
  constexpr int kMaxPerThread = 400;
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = kThreads;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 0.3;
  mb.mp_rounds = 2;  // general transactions: exercises logged round inputs
  const std::string dir = MakeTempDir(std::string("kv_") + GetParam());

  DbOptions opts = KvDbOptions(mb, GetParam(), RunMode::kParallel, 71);
  opts.log_commits = true;
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  opts.group_commit_window_us = 100;
  opts.durability_crash_after_n_commits = 80;
  auto db = Database::Open(std::move(opts));
  const EngineFactory factory = db->options().engine_factory;
  const ProcId proc = db->proc(kKvReadUpdateProc);
  DurabilityManager* dm = db->durability();
  ASSERT_NE(dm, nullptr);

  std::vector<std::vector<TxnId>> acked_per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(500 + static_cast<uint64_t>(t));
      auto session = db->CreateSession();
      int after_crash = 0;
      for (int i = 0; i < kMaxPerThread; ++i) {
        // Keep submitting briefly past the crash: post-crash completions must
        // still drain (and must report crashed() == true).
        if (dm->crashed() && ++after_crash > 5) break;
        AckedOutcome out = SubmitAndAwait(*session, dm, proc, DrawKvTxn(mb, t, rng));
        if (out.durably_acked) acked_per_thread[t].push_back(out.txn_id);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(dm->crashed()) << "crash injection never fired";

  std::vector<TxnId> acked;
  for (const auto& v : acked_per_thread) acked.insert(acked.end(), v.begin(), v.end());
  EXPECT_GT(acked.size(), 0u);

  db->Close();
  std::vector<std::vector<CommitRecord>> logs_a;
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    logs_a.push_back(db->cluster().commit_log(p));
  }
  db.reset();

  // Restart on the same directory (crash injection off): recovery must keep
  // every acked transaction and land on a replay-identical state.
  DbOptions reopen = KvDbOptions(mb, GetParam(), RunMode::kParallel, 72);
  reopen.durability = DurabilityMode::kGroupCommit;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  const RecoveryReport rep = db2->recovery_report();  // copy: outlives db2
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_TRUE(rep.performed);
  EXPECT_EQ(rep.replay_aborts, 0u);
  EXPECT_GT(rep.replayed, 0u);

  const std::unordered_set<TxnId> recovered(rep.recovered_txns.begin(),
                                            rep.recovered_txns.end());
  for (const TxnId id : acked) {
    EXPECT_EQ(recovered.count(id), 1u) << "acked txn " << id << " lost by recovery";
  }
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    const std::vector<CommitRecord> expect = FilterByRecovered(logs_a[p], recovered);
    EXPECT_EQ(db2->cluster().engine(p).StateHash(),
              ExpectCleanReplayStateHash(factory, p, expect))
        << "partition " << p << " recovered state diverged (" << GetParam() << ")";
  }

  // The database must be fully usable after recovery: run more traffic, close
  // cleanly, and restart once more.
  {
    auto session = db2->CreateSession();
    Rng rng(900);
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
    }
  }
  db2->Close();
  db2.reset();

  DbOptions reopen3 = KvDbOptions(mb, GetParam(), RunMode::kParallel, 73);
  reopen3.durability = DurabilityMode::kGroupCommit;
  reopen3.log_dir = dir;
  auto db3 = Database::Open(std::move(reopen3));
  ASSERT_TRUE(db3->recovery_report().ok) << db3->recovery_report().error;
  EXPECT_GE(db3->recovery_report().replayed, rep.replayed + 20);
  db3.reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Schemes, DurabilityCrashKv,
                         ::testing::Values("blocking", "speculation", "locking", "occ",
                                           "mvcc"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// --- kill-and-recover, TPC-C with consistency conditions -------------------

class DurabilityCrashTpcc : public ::testing::TestWithParam<const char*> {};

TEST_P(DurabilityCrashTpcc, RecoveredStateIsConsistent) {
  constexpr int kThreads = 3;
  constexpr int kMaxPerThread = 300;
  TpccWorkloadConfig wl;
  wl.scale.num_warehouses = 4;
  wl.scale.num_partitions = 2;
  wl.scale.items = 200;
  wl.scale.customers_per_district = 30;
  wl.scale.initial_orders_per_district = 30;
  wl.remote_item_prob = 0.15;  // multi-partition NewOrder / Payment
  const std::string dir = MakeTempDir(std::string("tpcc_") + GetParam());

  DbOptions opts = TpccDbOptions(wl.scale, GetParam(), RunMode::kParallel, kThreads, 31);
  opts.log_commits = true;
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  opts.group_commit_window_us = 100;
  opts.durability_crash_after_n_commits = 120;
  auto db = Database::Open(std::move(opts));
  const EngineFactory factory = db->options().engine_factory;
  DurabilityManager* dm = db->durability();
  ASSERT_NE(dm, nullptr);

  std::vector<std::vector<TxnId>> acked_per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      Rng rng(40 + static_cast<uint64_t>(t));
      auto session = db->CreateSession();
      int after_crash = 0;
      for (int i = 0; i < kMaxPerThread; ++i) {
        if (dm->crashed() && ++after_crash > 5) break;
        TpccDraw draw = DrawTpccTxn(wl, t, rng);
        const ProcId proc = db->proc(TpccProcName(draw.kind));
        AckedOutcome out = SubmitAndAwait(*session, dm, proc, std::move(draw.args));
        if (out.durably_acked) acked_per_thread[t].push_back(out.txn_id);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(dm->crashed()) << "crash injection never fired";

  std::vector<TxnId> acked;
  for (const auto& v : acked_per_thread) acked.insert(acked.end(), v.begin(), v.end());
  db->Close();
  std::vector<std::vector<CommitRecord>> logs_a;
  for (PartitionId p = 0; p < wl.scale.num_partitions; ++p) {
    logs_a.push_back(db->cluster().commit_log(p));
  }
  db.reset();

  // Same seed as the first incarnation: the TPC-C factory's initial load is
  // seed-derived, and recovery replays on top of that load.
  DbOptions reopen = TpccDbOptions(wl.scale, GetParam(), RunMode::kParallel, kThreads, 31);
  reopen.durability = DurabilityMode::kGroupCommit;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  const RecoveryReport rep = db2->recovery_report();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.replay_aborts, 0u);

  const std::unordered_set<TxnId> recovered(rep.recovered_txns.begin(),
                                            rep.recovered_txns.end());
  for (const TxnId id : acked) {
    EXPECT_EQ(recovered.count(id), 1u) << "acked txn " << id << " lost by recovery";
  }
  std::vector<const tpcc::TpccDb*> dbs;
  for (PartitionId p = 0; p < wl.scale.num_partitions; ++p) {
    const std::vector<CommitRecord> expect = FilterByRecovered(logs_a[p], recovered);
    EXPECT_EQ(db2->cluster().engine(p).StateHash(),
              ExpectCleanReplayStateHash(factory, p, expect))
        << "partition " << p << " recovered state diverged (" << GetParam() << ")";
    dbs.push_back(&static_cast<TpccEngine&>(db2->cluster().engine(p)).db());
  }
  const auto violations = CheckConsistency(dbs);
  EXPECT_TRUE(violations.empty()) << violations.front();
  db2.reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Schemes, DurabilityCrashTpcc,
                         ::testing::Values("blocking", "speculation", "locking", "occ",
                                           "mvcc"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// --- checkpoints -----------------------------------------------------------

TEST(DurabilityCheckpoint, CheckpointPlusTailMatchesFullReplay) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 2;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 0.25;
  const std::string dir = MakeTempDir("ckpt_keep");

  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 81);
  opts.log_commits = true;
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  opts.keep_truncated_log_segments = true;  // keep full history for the check
  auto db = Database::Open(std::move(opts));
  const EngineFactory factory = db->options().engine_factory;
  const ProcId proc = db->proc(kKvReadUpdateProc);

  auto run = [&](Database& target, int txns, uint64_t seed) {
    auto session = target.CreateSession();
    Rng rng(seed);
    for (int i = 0; i < txns; ++i) {
      ASSERT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
    }
  };
  run(*db, 60, 1);
  ASSERT_TRUE(db->Checkpoint());
  run(*db, 40, 2);

  db->Close();
  std::vector<std::vector<CommitRecord>> logs_a;
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    logs_a.push_back(db->cluster().commit_log(p));
  }
  db.reset();

  DbOptions reopen = KvDbOptions(mb, "speculation", RunMode::kParallel, 82);
  reopen.durability = DurabilityMode::kGroupCommit;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  const RecoveryReport& rep = db2->recovery_report();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.checkpoints_loaded, static_cast<uint64_t>(mb.num_partitions));
  // Only the tail past the checkpoint replays; the prefix comes from the
  // restored engine image.
  EXPECT_LT(rep.replayed, static_cast<uint64_t>(logs_a[0].size() + logs_a[1].size()));
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    EXPECT_EQ(db2->cluster().engine(p).StateHash(),
              ExpectCleanReplayStateHash(factory, p, logs_a[p]))
        << "checkpoint+tail diverged from full-history replay at partition " << p;
  }
  db2.reset();
  std::filesystem::remove_all(dir);
}

TEST(DurabilityCheckpoint, TruncatesCoveredSegments) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 1;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 1.0;  // every txn reaches both partitions
  const std::string dir = MakeTempDir("ckpt_trunc");

  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 83);
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  auto db = Database::Open(std::move(opts));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  {
    auto session = db->CreateSession();
    Rng rng(3);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
    }
  }
  ASSERT_TRUE(db->Checkpoint());
  db->Close();
  db.reset();

  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    bool ckpt_found = false;
    bool old_segment_found = false;
    const std::string prefix = "p" + std::to_string(p) + "-";
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) != 0) continue;
      if (entry.path().extension() == ".ckpt") ckpt_found = true;
      if (name == prefix + "0.log") old_segment_found = true;
    }
    EXPECT_TRUE(ckpt_found) << "partition " << p;
    EXPECT_FALSE(old_segment_found) << "covered segment not truncated, partition " << p;
  }

  // The truncated directory must still recover to a working database.
  DbOptions reopen = KvDbOptions(mb, "speculation", RunMode::kParallel, 84);
  reopen.durability = DurabilityMode::kGroupCommit;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  ASSERT_TRUE(db2->recovery_report().ok) << db2->recovery_report().error;
  EXPECT_EQ(db2->recovery_report().checkpoints_loaded,
            static_cast<uint64_t>(mb.num_partitions));
  {
    auto session = db2->CreateSession();
    Rng rng(4);
    EXPECT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
  }
  db2.reset();
  std::filesystem::remove_all(dir);
}

TEST(DurabilityCheckpoint, MpHistoryIsPrunedAcrossCheckpointRounds) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 1;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 1.0;  // every txn reaches both partitions
  const std::string dir = MakeTempDir("ckpt_mp_prune");

  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 85);
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  auto db = Database::Open(std::move(opts));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  constexpr int kRounds = 4;
  constexpr int kPerRound = 20;
  for (int r = 0; r < kRounds; ++r) {
    auto session = db->CreateSession();
    Rng rng(100 + static_cast<uint64_t>(r));
    for (int i = 0; i < kPerRound; ++i) {
      ASSERT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
    }
    session.reset();
    ASSERT_TRUE(db->Checkpoint());
  }
  db->Close();
  db.reset();

  // The surviving (latest) checkpoint must list only the multi-partition ids
  // of the last couple of rounds, not the partition's entire lifetime: a
  // fully-successful round lets every log drop the ids its previous rotate
  // captured, because every participant's checkpoint now covers them.
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    const std::string prefix = "p" + std::to_string(p) + "-";
    std::string ckpt_path;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind(prefix, 0) == 0 && entry.path().extension() == ".ckpt") {
        ASSERT_TRUE(ckpt_path.empty()) << "more than one checkpoint kept for partition " << p;
        ckpt_path = entry.path().string();
      }
    }
    ASSERT_FALSE(ckpt_path.empty()) << "partition " << p;
    std::ifstream f(ckpt_path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(f)),
                            std::istreambuf_iterator<char>());
    CheckpointImage img;
    ASSERT_TRUE(DecodeCheckpoint(bytes, &img)) << ckpt_path;
    EXPECT_LE(img.mp_committed.size(), 2u * kPerRound) << "partition " << p;
    EXPECT_LT(img.mp_committed.size(), static_cast<size_t>(kRounds) * kPerRound)
        << "mp history accumulated across rounds, partition " << p;
    EXPECT_GE(img.mp_committed.size(), static_cast<size_t>(kPerRound)) << "partition " << p;
  }

  // The pruned directory still recovers to a working database.
  DbOptions reopen = KvDbOptions(mb, "speculation", RunMode::kParallel, 86);
  reopen.durability = DurabilityMode::kGroupCommit;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  ASSERT_TRUE(db2->recovery_report().ok) << db2->recovery_report().error;
  {
    auto session = db2->CreateSession();
    Rng rng(5);
    EXPECT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
  }
  db2.reset();
  std::filesystem::remove_all(dir);
}

// --- log file damage: torn tails tolerated, corruption rejected ------------

struct HandLog {
  KvWorkloadOptions mb;
  ProcedureRegistry registry;
  EngineFactory factory;
  std::string dir;
  std::string header;   // encoded segment header alone
  std::string segment;  // encoded p0-0.log bytes: header + 5 records

  HandLog() {
    mb.num_partitions = 1;
    mb.num_clients = 1;
    registry.Register(KvReadUpdateProcedure(mb));
    factory = MakeKvEngineFactory(mb);
    dir = MakeTempDir("handlog");

    LogSegmentHeader h;
    h.partition = 0;
    h.num_partitions = 1;
    h.first_seq = 1;
    h.procs.push_back(LogProcEntry{0, kKvReadUpdateProc});
    EncodeLogSegmentHeader(h, &header);
    segment = header;
    for (uint64_t seq = 1; seq <= 5; ++seq) {
      EncodeLogRecord(Record(seq), &segment);
    }
  }
  ~HandLog() { std::filesystem::remove_all(dir); }

  LogRecord Record(uint64_t seq) const {
    KvArgs args;
    args.keys.resize(1);
    args.keys[0] = {MicrobenchKey(0, 0, 0), MicrobenchKey(0, 0, 1)};
    LogRecord rec;
    rec.commit_seq = seq;
    rec.txn_id = 1000 + seq;
    rec.proc = 0;
    WireWriter w(&rec.args);
    args.SerializeTo(w);
    return rec;
  }

  void WriteSegment(const std::string& bytes, uint64_t index = 0) const {
    std::ofstream f(PartitionLog::SegmentPath(dir, 0, index), std::ios::binary);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  RecoveryReport Recover() const {
    RecoveryOptions ro;
    ro.dir = dir;
    ro.num_partitions = 1;
    ro.registry = &registry;
    std::unique_ptr<Engine> engine = factory(0);
    return RecoverDatabase(ro, [&](PartitionId) -> Engine& { return *engine; });
  }
};

TEST(DurabilityLogDamage, TornTailIsTolerated) {
  HandLog h;
  std::string sixth;
  EncodeLogRecord(h.Record(6), &sixth);
  h.WriteSegment(h.segment + sixth.substr(0, 7));  // crash mid-append
  const RecoveryReport rep = h.Recover();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.replayed, 5u);
  EXPECT_EQ(rep.torn_tails, 1u);
}

TEST(DurabilityLogDamage, TornHeaderOnTailSegmentIsTolerated) {
  // Crash between OpenSegment's open(O_CREAT) and the header fsync: the
  // highest-index segment is a short prefix of a header. Everything durable
  // lives in the earlier segments; recovery must replay it and reuse the
  // torn file's index rather than rejecting the partition.
  HandLog h;
  h.WriteSegment(h.segment, 0);
  h.WriteSegment(h.header.substr(0, 10), 1);
  const RecoveryReport rep = h.Recover();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.replayed, 5u);
  EXPECT_EQ(rep.torn_tails, 1u);
  ASSERT_EQ(rep.seeds.size(), 1u);
  EXPECT_EQ(rep.seeds[0].next_seq, 6u);
  EXPECT_EQ(rep.seeds[0].next_segment, 1u);  // overwrite the torn file in place
}

TEST(DurabilityLogDamage, EmptyTailSegmentIsTolerated) {
  // Same crash a beat earlier: the file exists but not a single header byte
  // landed.
  HandLog h;
  h.WriteSegment(h.segment, 0);
  h.WriteSegment("", 1);
  const RecoveryReport rep = h.Recover();
  ASSERT_TRUE(rep.ok) << rep.error;
  EXPECT_EQ(rep.replayed, 5u);
  EXPECT_EQ(rep.seeds[0].next_segment, 1u);
}

TEST(DurabilityLogDamage, TornHeaderBeforeLaterSegmentsIsRejected) {
  // A short header with a later segment present cannot be crash timing — the
  // next segment is only ever created after the previous one was synced.
  HandLog h;
  h.WriteSegment(h.header.substr(0, 10), 0);
  h.WriteSegment(h.segment, 1);
  const RecoveryReport rep = h.Recover();
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("truncated segment header"), std::string::npos) << rep.error;
}

TEST(DurabilityLogDamage, MidFileCorruptionIsRejected) {
  HandLog h;
  std::string damaged = h.segment;
  // Flip a byte inside the first record's body (crc-covered, with intact
  // records after it): corruption, not a torn append.
  std::string header_only;
  LogSegmentHeader hdr;
  hdr.partition = 0;
  hdr.num_partitions = 1;
  hdr.first_seq = 1;
  hdr.procs.push_back(LogProcEntry{0, kKvReadUpdateProc});
  EncodeLogSegmentHeader(hdr, &header_only);
  damaged[header_only.size() + 8 + 2] ^= 0xFF;
  h.WriteSegment(damaged);
  const RecoveryReport rep = h.Recover();
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.error.find("p0-0.log"), std::string::npos) << rep.error;
}

TEST(DurabilityLogDamage, CorruptCheckpointIsRejected) {
  HandLog h;
  h.WriteSegment(h.segment);
  std::ofstream f(PartitionLog::CheckpointPath(h.dir, 0, 3), std::ios::binary);
  f << "this is not a checkpoint";
  f.close();
  const RecoveryReport rep = h.Recover();
  EXPECT_FALSE(rep.ok);
}

// --- group-commit window -----------------------------------------------------

/// Stand-in runtime for the durability manager's wake messages: the first
/// Send blocks until released, which holds the log writer inside its
/// previous batch (after the fsync, while it notifies) for as long as the
/// test wants.
class HeldSendExec : public ExecutionContext {
 public:
  Time Now() const override { return 0; }
  void Send(Message /*msg*/, Time /*depart*/) override {
    if (sends_.fetch_add(1) != 0) return;
    entered_.set_value();
    released_.wait();
  }
  void Post(Message /*msg*/) override {}
  void Register(NodeId /*node*/, Actor* /*actor*/) override {}
  void SetTimer(NodeId /*self*/, Time /*at*/, TimerFire /*t*/) override {}
  void HandlerDone(Actor* /*actor*/, Time /*start*/, Duration /*charged*/) override {}

  void WaitEntered() { entered_.get_future().wait(); }
  void Release() { release_.set_value(); }

 private:
  std::atomic<int> sends_{0};
  std::promise<void> entered_;
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
};

// The window runs from a batch's first append, not from when the writer
// gets back to the queue: a record appended while the writer is still
// finishing the previous batch becomes durable one window after its own
// append, not one window after the writer frees up.
TEST(DurabilityGroupCommit, WindowRunsFromTheBatchsFirstAppend) {
  constexpr auto kWindow = std::chrono::milliseconds(400);
  const std::string dir = MakeTempDir("window");
  HeldSendExec exec;  // outlives the manager's writer threads
  DurabilityManager::Options o;
  o.mode = DurabilityMode::kGroupCommit;
  o.dir = dir;
  o.num_partitions = 1;
  o.group_commit_window = std::chrono::nanoseconds(kWindow).count();
  o.procs.push_back(LogProcEntry{0, kKvReadUpdateProc});
  DurabilityManager dm(std::move(o), {DurabilityManager::PartitionSeed{}});
  dm.Start(&exec);
  PartitionLog* log = dm.log(0);
  auto args = std::make_shared<KvArgs>();
  args->keys.resize(1);
  args->keys[0].push_back(MicrobenchKey(0, 0, 0));

  const TxnId first = MakeTxnId(1, 0);
  log->Append(first, false, 0, args, {});
  ASSERT_FALSE(dm.SealOrDefer(first, 1));  // parked: its wake holds the writer
  exec.WaitEntered();  // first batch written and fsynced; writer still busy
  const auto appended = std::chrono::steady_clock::now();
  log->Append(MakeTxnId(1, 1), false, 0, args, {});
  std::this_thread::sleep_for(kWindow * 3 / 4);
  exec.Release();
  log->Flush();
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - appended);

  EXPECT_GE(waited, kWindow);  // the second batch still got its whole window
  EXPECT_LT(waited, kWindow + kWindow / 2) << "window re-armed when the writer freed up";
  dm.Shutdown();
  std::filesystem::remove_all(dir);
}

// --- modes and counters ----------------------------------------------------

TEST(DurabilityStatsTest, GroupCommitCountersAreSane) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 4;
  mb.keys_per_txn = 4;
  mb.mp_fraction = 0.2;
  const std::string dir = MakeTempDir("stats");

  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 91);
  opts.durability = DurabilityMode::kGroupCommit;
  opts.log_dir = dir;
  auto db = Database::Open(std::move(opts));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      auto session = db->CreateSession();
      Rng rng(60 + static_cast<uint64_t>(t));
      for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(session->Execute(proc, DrawKvTxn(mb, t, rng)).committed);
      }
    });
  }
  for (auto& t : threads) t.join();
  const DurabilityStats stats = db->Stats().durability;
  EXPECT_GE(stats.records, 200u);  // one record per participant per commit
  EXPECT_GT(stats.batches, 0u);
  EXPECT_GT(stats.fsyncs, 0u);
  EXPECT_GT(stats.bytes_logged, 0u);
  EXPECT_GE(stats.avg_batch_size(), 1.0);
  db.reset();
  std::filesystem::remove_all(dir);
}

TEST(DurabilityStatsTest, AsyncModeLogsWithoutGating) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 1;
  mb.keys_per_txn = 4;
  const std::string dir = MakeTempDir("async");

  DbOptions opts = KvDbOptions(mb, "speculation", RunMode::kParallel, 92);
  opts.durability = DurabilityMode::kAsync;
  opts.log_dir = dir;
  auto db = Database::Open(std::move(opts));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  {
    auto session = db->CreateSession();
    Rng rng(7);
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(session->Execute(proc, DrawKvTxn(mb, 0, rng)).committed);
    }
  }
  db->Close();
  const DurabilityStats stats = db->Stats().durability;
  EXPECT_GE(stats.records, 40u);
  EXPECT_EQ(stats.deferred_completions, 0u);  // async never parks completions
  db.reset();

  // Async still recovers everything written before a clean shutdown.
  DbOptions reopen = KvDbOptions(mb, "speculation", RunMode::kParallel, 93);
  reopen.durability = DurabilityMode::kAsync;
  reopen.log_dir = dir;
  auto db2 = Database::Open(std::move(reopen));
  ASSERT_TRUE(db2->recovery_report().ok) << db2->recovery_report().error;
  EXPECT_GE(db2->recovery_report().replayed, 40u);
  db2.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace partdb
