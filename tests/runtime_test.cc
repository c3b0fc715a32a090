// Tests for the runtime layer: deterministic-simulation regression (same
// seed => bit-identical run), the parallel runtime's MPSC mailbox ordering
// guarantees, direct delivery and timers on the parallel workers, and
// sim-vs-parallel commit-log replay equivalence.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "kv/kv_procedures.h"
#include "runtime/mailbox.h"
#include "runtime/parallel_runtime.h"
#include "test_util.h"

namespace partdb {
namespace {

// ---------------------------------------------------------------------------
// Determinism regression: two databases built from the same config and seed
// must produce identical measurement metrics and process exactly the same
// number of simulator events. Guards the ExecutionContext refactor — the
// discrete-event path must stay bit-for-bit reproducible.

struct SimRunResult {
  Metrics metrics;
  uint64_t events = 0;
  std::vector<uint64_t> state_hashes;
};

SimRunResult RunSimOnce(const std::string& scheme, uint64_t seed) {
  KvWorkloadOptions mb;
  mb.num_partitions = 3;
  mb.num_clients = 12;
  mb.mp_fraction = 0.2;

  auto db = Database::Open(KvDbOptions(mb, scheme, RunMode::kSimulated, seed));
  ClosedLoopOptions loop;
  loop.num_clients = mb.num_clients;
  loop.next = KvInvocations(mb, *db);
  loop.warmup = Micros(20000);
  loop.measure = Micros(100000);
  SimRunResult r;
  r.metrics = RunClosedLoop(*db, loop);
  db->Close();
  r.events = db->cluster().sim().events_processed();
  for (PartitionId p = 0; p < mb.num_partitions; ++p) {
    r.state_hashes.push_back(db->cluster().engine(p).StateHash());
  }
  return r;
}

TEST(Determinism, SameSeedSameRun) {
  for (const char* scheme :
       {"speculation", "locking", "blocking"}) {
    SCOPED_TRACE(scheme);
    SimRunResult a = RunSimOnce(scheme, 777);
    SimRunResult b = RunSimOnce(scheme, 777);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.metrics.committed, b.metrics.committed);
    EXPECT_EQ(a.metrics.sp_committed, b.metrics.sp_committed);
    EXPECT_EQ(a.metrics.mp_committed, b.metrics.mp_committed);
    EXPECT_EQ(a.metrics.user_aborts, b.metrics.user_aborts);
    EXPECT_EQ(a.metrics.speculative_execs, b.metrics.speculative_execs);
    EXPECT_EQ(a.metrics.lock_waits, b.metrics.lock_waits);
    EXPECT_EQ(a.metrics.partition_busy_ns, b.metrics.partition_busy_ns);
    EXPECT_EQ(a.metrics.coord_busy_ns, b.metrics.coord_busy_ns);
    EXPECT_EQ(a.metrics.Summary(), b.metrics.Summary());
    EXPECT_EQ(a.state_hashes, b.state_hashes);
    EXPECT_GT(a.metrics.committed, 0u);
  }
}

TEST(Determinism, DifferentSeedDifferentRun) {
  SimRunResult a = RunSimOnce("speculation", 1);
  SimRunResult b = RunSimOnce("speculation", 2);
  // Event counts colliding would be a one-in-a-million fluke; state hashes
  // differ because clients draw different keys and values.
  EXPECT_NE(a.state_hashes, b.state_hashes);
}

// ---------------------------------------------------------------------------
// MPSC mailbox smoke: FIFO per producer under concurrent senders, nothing
// lost, batched drains. The heavy stress / wake-accounting / node-recycling
// suites live in tests/mailbox_test.cc.

TEST(Mailbox, FifoPerProducerUnderConcurrentSenders) {
  constexpr int kProducers = 4;
  constexpr uint32_t kPerProducer = 20000;
  Mailbox box;

  std::vector<std::thread> producers;
  for (int src = 0; src < kProducers; ++src) {
    producers.emplace_back([&box, src]() {
      for (uint32_t seq = 0; seq < kPerProducer; ++seq) {
        Message m;
        m.src = src;
        m.dst = 0;
        m.body = TimerFire{MakeTxnId(src, seq), 0};
        box.PushMessage(std::move(m));
      }
    });
  }

  // Single consumer: per-producer sequence numbers must arrive in order.
  std::vector<uint32_t> next(kProducers, 0);
  uint64_t received = 0;
  uint64_t batches = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received < static_cast<uint64_t>(kProducers) * kPerProducer) {
    const size_t got = box.DrainUntil(deadline, 64, [&](MailboxNode* n) {
      ASSERT_EQ(n->kind, MailboxNode::Kind::kMessage);
      const auto& t = std::get<TimerFire>(n->msg.body);
      const int src = TxnClient(t.txn_id);
      const uint32_t seq = TxnSeq(t.txn_id);
      ASSERT_EQ(seq, next[src]) << "out-of-order delivery from producer " << src;
      next[src] = seq + 1;
      ++received;
    });
    ASSERT_GT(got, 0u) << "timed out after " << received;
    ++batches;
  }
  for (auto& p : producers) p.join();
  EXPECT_TRUE(box.Empty());
  EXPECT_EQ(box.pushed(), box.popped());
  // The whole point of batching: far fewer drains than messages.
  EXPECT_LT(batches, received);
}

TEST(Mailbox, DrainUntilTimesOutWhenEmpty) {
  Mailbox box;
  size_t drained = 0;
  EXPECT_EQ(box.DrainUntil(std::chrono::steady_clock::now() + std::chrono::milliseconds(5), 64,
                           [&](MailboxNode*) { ++drained; }),
            0u);
  EXPECT_EQ(drained, 0u);
  EXPECT_TRUE(box.Empty());
}

// Tagged-union item kinds travel intact: messages, timers, and control
// closures drain in push order with their payloads.
TEST(Mailbox, CarriesAllItemKindsInOrder) {
  Mailbox box;
  Message m;
  m.src = 7;
  m.dst = 0;
  m.body = TimerFire{MakeTxnId(7, 1), 0};
  box.PushMessage(std::move(m));
  box.PushTimer(/*self=*/3, /*at=*/12345, TimerFire{MakeTxnId(3, 9), 42});
  bool control_ran = false;
  box.PushControl([&control_ran]() { control_ran = true; });

  std::vector<MailboxNode::Kind> kinds;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  box.DrainUntil(deadline, 64, [&](MailboxNode* n) {
    kinds.push_back(n->kind);
    if (n->kind == MailboxNode::Kind::kTimer) {
      EXPECT_EQ(n->timer.self, 3);
      EXPECT_EQ(n->timer.at, 12345);
      EXPECT_EQ(n->timer.fire.generation, 42u);
    } else if (n->kind == MailboxNode::Kind::kControl) {
      n->control();
    }
  });
  ASSERT_EQ(kinds.size(), 3u);
  EXPECT_EQ(kinds[0], MailboxNode::Kind::kMessage);
  EXPECT_EQ(kinds[1], MailboxNode::Kind::kTimer);
  EXPECT_EQ(kinds[2], MailboxNode::Kind::kControl);
  EXPECT_TRUE(control_ran);
}

// ---------------------------------------------------------------------------
// Parallel delivery: a worker runs each delivered message directly (the
// actor's inbox is never used), keeps per-sender FIFO whether the sender
// uses Send or Post, and fires timers registered after its heap ran empty.

/// Records per-sender sequence numbers (TimerFire{MakeTxnId(sender, seq)})
/// and, for generation-tagged timer fires, when they arrived. Touched only
/// by its worker until the runtime is stopped.
class RecordingActor : public Actor {
 public:
  explicit RecordingActor(int senders) : Actor("recorder"), next_(senders, 0) {}

  uint64_t received = 0;
  uint64_t out_of_order = 0;
  uint64_t queued = 0;  // handlers that found a message waiting in the inbox
  std::vector<Time> timer_set_at;
  std::vector<Time> timer_fired_at;

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override {
    ctx.Charge(Micros(1));
    if (inbox_depth() != 0) ++queued;
    const auto& t = std::get<TimerFire>(msg.body);
    if (t.generation != 0) {  // a timer this actor armed
      timer_fired_at.push_back(ctx.start());
      return;
    }
    const int src = TxnClient(t.txn_id);
    if (src == kTimerKick) {  // arm a 2 ms timer from inside a handler
      timer_set_at.push_back(ctx.start());
      ctx.SetTimer(2 * kMillisecond, TimerFire{kInvalidTxn, timer_set_at.size()});
      return;
    }
    if (TxnSeq(t.txn_id) != next_[src]) ++out_of_order;
    next_[src] = TxnSeq(t.txn_id) + 1;
    ++received;
  }

 public:
  static constexpr int kTimerKick = 1000;

 private:
  std::vector<uint32_t> next_;
};

Message Tagged(NodeId dst, int sender, uint32_t seq) {
  Message m;
  m.src = dst;
  m.dst = dst;
  m.body = TimerFire{MakeTxnId(sender, seq), 0};
  return m;
}

TEST(ParallelDelivery, PerSenderFifoWithoutInboxQueueing) {
  constexpr int kSenders = 4;
  constexpr uint32_t kPerSender = 20000;
  ParallelRuntime rt(1);
  rt.MapNode(0, 0);
  RecordingActor actor(kSenders);
  actor.Bind(&rt, 0);
  rt.Start();

  std::vector<std::thread> senders;
  for (int src = 0; src < kSenders; ++src) {
    senders.emplace_back([&rt, src]() {
      for (uint32_t seq = 0; seq < kPerSender; ++seq) {
        // Half the senders go through the transport, half post directly:
        // both are the same mailbox and keep the sender's order.
        if (src % 2 == 0) {
          rt.Send(Tagged(0, src, seq), /*depart=*/0);
        } else {
          rt.Post(Tagged(0, src, seq));
        }
      }
    });
  }
  for (auto& t : senders) t.join();
  ASSERT_TRUE(rt.WaitQuiescent(std::chrono::seconds(30)));
  rt.Stop();

  EXPECT_EQ(actor.received, static_cast<uint64_t>(kSenders) * kPerSender);
  EXPECT_EQ(actor.out_of_order, 0u);
  EXPECT_EQ(actor.queued, 0u);
  EXPECT_EQ(actor.inbox_depth(), 0u);
  EXPECT_EQ(actor.busy_ns(), static_cast<Duration>(actor.received) * Micros(1));
}

// The worker skips the clock read when its timer heap is empty; a timer
// armed from a handler after that must still fire, no earlier than its
// deadline.
TEST(ParallelDelivery, TimersArmedOnAnEmptyHeapStillFire) {
  ParallelRuntime rt(1);
  rt.MapNode(0, 0);
  RecordingActor actor(1);
  actor.Bind(&rt, 0);
  rt.Start();
  for (uint32_t i = 0; i < 5; ++i) {
    rt.Post(Tagged(0, RecordingActor::kTimerKick, i));
    ASSERT_TRUE(rt.WaitQuiescent(std::chrono::seconds(10)));  // heap drained again
  }
  rt.Stop();

  ASSERT_EQ(actor.timer_set_at.size(), 5u);
  ASSERT_EQ(actor.timer_fired_at.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_GE(actor.timer_fired_at[i] - actor.timer_set_at[i], 2 * kMillisecond) << i;
  }
}

// Locking's distributed-deadlock timeouts ride the same timer path. A
// two-round transaction holds its locks on both partitions while its
// continuation stalls; a second multi-partition transaction on the same
// keys waits on both, must be aborted by the lock timeout (not hang), and
// commits on a retry once the first one finishes.
TEST(ParallelDelivery, LockTimeoutsFireUnderLocking) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 2;
  DbOptions opts = KvDbOptions(mb, "locking", RunMode::kParallel, 17);
  opts.max_sessions = 2;
  opts.session_workers = 2;  // the stalled continuation blocks only its own worker
  opts.lock_timeout = Micros(2000);
  std::atomic<bool> stalled{false};
  using Prev = std::vector<std::pair<PartitionId, PayloadPtr>>;
  ProcedureDescriptor& d = opts.procedures.at(0);
  d.round_input = [inner = d.round_input, &stalled](const Payload& a, int r, const Prev& p) {
    stalled.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return inner(a, r, p);
  };
  auto db = Database::Open(std::move(opts));
  const ProcId proc = db->proc(kKvReadUpdateProc);
  auto mp_args = [&mb](int rounds) {
    auto a = std::make_shared<KvArgs>();
    a->keys.resize(mb.num_partitions);
    for (PartitionId p = 0; p < mb.num_partitions; ++p) {
      a->keys[p].push_back(MicrobenchKey(0, p, 0));
    }
    a->rounds = rounds;
    return a;
  };

  auto holder = db->CreateSession();
  auto waiter = db->CreateSession();
  db->BeginMeasurement();
  bool holder_committed = false;
  const SubmitResult held =
      holder->Submit(proc, mp_args(2), [&](const TxnResult& r) { holder_committed = r.committed; });
  ASSERT_TRUE(held.accepted);
  while (!stalled.load()) std::this_thread::sleep_for(std::chrono::microseconds(100));
  const TxnResult r = waiter->Execute(proc, mp_args(1));
  holder->Drain();
  const Metrics m = db->EndMeasurement();

  EXPECT_TRUE(holder_committed);
  EXPECT_TRUE(r.committed);
  EXPECT_GT(r.attempts, 1u);
  EXPECT_GT(m.timeout_aborts, 0u);
  holder.reset();
  waiter.reset();
  db->Close();
}

// ---------------------------------------------------------------------------
// Parallel runtime: the same workload/seed runs on real threads; both modes
// must satisfy final-state serializability (serial replay of each partition's
// commit log reproduces the live engine state), and multi-partition commit
// order must be consistent across partitions.

KvRun RunKvDb(const KvWorkloadOptions& mb, const std::string& scheme, RunMode mode,
              uint64_t seed,
              Duration warmup, Duration measure) {
  DbOptions opts = KvDbOptions(mb, scheme, mode, seed);
  opts.log_commits = true;
  return RunKvClosedLoop(std::move(opts), mb, warmup, measure);
}

void CheckReplayEquivalence(Database& db) {
  Cluster& cluster = db.cluster();
  const EngineFactory& factory = db.options().engine_factory;
  std::vector<const std::vector<CommitRecord>*> logs;
  for (PartitionId p = 0; p < cluster.config().num_partitions; ++p) {
    EXPECT_EQ(cluster.engine(p).StateHash(),
              ExpectCleanReplayStateHash(factory, p, cluster.commit_log(p)))
        << "partition " << p << " diverges from serial replay";
    logs.push_back(&cluster.commit_log(p));
  }
  ExpectMpOrderConsistent(logs, cluster.config().scheme);
}

TEST(ParallelRuntime, SpeculativeCommitsAndReplaysSerially) {
  KvWorkloadOptions mb;
  mb.num_partitions = 4;
  mb.num_clients = 16;
  mb.mp_fraction = 0.15;

  KvRun run = RunKvDb(mb, "speculation", RunMode::kParallel, 4242,
                      Micros(20000), Micros(150000));

  EXPECT_GT(run.metrics.committed, 0u);
  EXPECT_GT(run.metrics.mp_committed, 0u);
  EXPECT_GT(run.metrics.window_ns, 0);
  CheckReplayEquivalence(*run.db);
}

TEST(ParallelRuntime, SimAndParallelAgreeOnSerialReplayState) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 8;
  mb.mp_fraction = 0.2;

  // Simulated run of the workload/seed.
  KvRun sim_run = RunKvDb(mb, "speculation", RunMode::kSimulated, 99,
                          Micros(10000), Micros(50000));
  EXPECT_GT(sim_run.metrics.committed, 0u);
  CheckReplayEquivalence(*sim_run.db);

  // Parallel run of the same workload/seed. Thread interleavings differ from
  // the virtual-clock schedule, so the committed sets differ — but both must
  // be serializable over the same engines, which replay verifies.
  KvRun par_run = RunKvDb(mb, "speculation", RunMode::kParallel, 99,
                          Micros(10000), Micros(50000));
  EXPECT_GT(par_run.metrics.committed, 0u);
  CheckReplayEquivalence(*par_run.db);
}

TEST(ParallelRuntime, LockingSchemeRunsOnThreads) {
  KvWorkloadOptions mb;
  mb.num_partitions = 2;
  mb.num_clients = 8;
  mb.mp_fraction = 0.1;

  KvRun run = RunKvDb(mb, "locking", RunMode::kParallel, 5, Micros(10000),
                      Micros(50000));
  EXPECT_GT(run.metrics.committed, 0u);
  CheckReplayEquivalence(*run.db);
}

}  // namespace
}  // namespace partdb
