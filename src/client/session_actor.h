// SessionActor: the one client-library ingress actor of the system — the
// paper's client library (§3.1/§4.3) as an actor bound into the cluster. It
// owns the in-flight bookkeeping for every transaction submitted through it:
// single-partition invocations go straight to the owning partition,
// multi-partition ones go through the central coordinator under
// blocking/speculation, and under locking the actor itself runs the 2PC
// rounds and retries deadlock victims with jittered backoff. This is the only
// client-side 2PC implementation; both ingress styles build on it:
//
//  - open loop: the db layer's Session handle (any number of transactions in
//    flight, Submit from any thread),
//  - closed loop: the db layer's RunClosedLoop driver (at most one in
//    flight per logical client, the completion callback submits the next
//    request).
//
// A submission from a foreign thread is admitted with atomics and posted to
// the actor as one SessionSubmit message (one mailbox push in parallel
// mode). Submissions made from within one of this actor's own handlers (a
// completion callback resubmitting — the closed-loop pattern) start inline,
// with no message and no extra CPU charge, so a closed loop over a session
// costs exactly what the legacy dedicated client actor used to cost — in the
// simulator this keeps metrics bit-for-bit identical to the pre-session
// harness. No lock is taken per transaction: the mutex below only backs the
// drained condvar on the last completion's ->0 edge.
#ifndef PARTDB_CLIENT_SESSION_ACTOR_H_
#define PARTDB_CLIENT_SESSION_ACTOR_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cc/scheme_registry.h"
#include "common/mutex.h"
#include "client/proc_metrics.h"
#include "client/routing.h"
#include "common/rng.h"
#include "coord/txn_continuations.h"
#include "engine/cost_model.h"
#include "runtime/actor.h"
#include "runtime/metrics.h"

namespace partdb {

class DurabilityManager;

/// Outcome of one Submit call. `accepted == false` is the bounded-in-flight
/// overload signal: the session already has max_inflight transactions
/// admitted, the submission was NOT enqueued, and the callback will never
/// run. Open-loop drivers surface the count; closed loops never trip it
/// (a completing transaction releases its slot before the completion
/// callback resubmits).
struct SubmitResult {
  bool accepted = false;
  TxnId txn_id = kInvalidTxn;
};

/// Derives routing facts for a registered procedure invocation (the db layer
/// passes its ProcedureRegistry's router). Must be deterministic in the
/// arguments.
using ProcRouter = std::function<TxnRouting(ProcId proc, const Payload& args)>;

class SessionActor : public Actor {
 public:
  /// `caps` is the running scheme's capability set: under a
  /// client_coordinated_2pc scheme (locking §4.3) this actor runs the 2PC
  /// rounds itself, with `continuations` supplying coordinator-style round
  /// inputs (the db layer passes its ProcedureRegistry).
  SessionActor(std::string name, ProcRouter router, TxnContinuations* continuations,
               Topology topology, CcSchemeCapabilities caps, const CostModel& cost,
               uint64_t seed)
      : Actor(std::move(name)),
        router_(std::move(router)),
        continuations_(continuations),
        topology_(std::move(topology)),
        caps_(caps),
        cost_(cost),
        rng_(seed) {}

  void set_metrics(Metrics* m) { metrics_ = m; }

  /// Optional per-procedure outcome sink (the db layer passes a
  /// ProcedureRegistry shard owned by this actor's worker). Recording is
  /// gated on the metrics window, so the per-proc counts decompose the
  /// window's committed/user_aborts exactly.
  void set_proc_metrics(ProcMetricsSink* s) { proc_metrics_ = s; }

  /// Admission bound: at most `n` transactions admitted-and-uncompleted at a
  /// time (0 = unlimited). Set before traffic starts (Database::Open /
  /// connection setup), not concurrently with submissions.
  void set_max_inflight(uint64_t n) { max_inflight_ = n; }

  /// Durability tier hookup (set before traffic starts). Under group commit,
  /// committed completions park until the manager confirms the transaction's
  /// log records are fsynced on every participant (DurableNotice).
  void set_durability(DurabilityManager* d) { durability_ = d; }

  /// Admits one invocation and starts it: inline from this actor's own
  /// handlers, else by posting it to the actor (one message per call; a
  /// thread's submissions start in call order). Thread-safe. Routing comes
  /// from the actor's ProcRouter, on the actor's worker.
  SubmitResult Submit(ProcId proc, PayloadPtr args, TxnCallback cb);

  /// Posted + in-flight transactions. Thread-safe.
  uint64_t outstanding() const { return outstanding_.load(std::memory_order_acquire); }

  /// Blocks until outstanding() == 0 (parallel mode; the sim pump drains
  /// simulated sessions). Returns false on timeout.
  bool WaitDrained(std::chrono::steady_clock::duration timeout);

  /// The actor's private random stream (client stream `index` when seeded via
  /// ClientStreamSeed). Owned by the actor's worker: callers may touch it
  /// only from within this actor's callbacks, or before any traffic reaches
  /// the actor (a closed-loop driver generating its first request).
  Rng& rng() { return rng_; }

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override;

 private:
  struct Txn {
    ProcId proc = kInvalidProc;
    PayloadPtr args;
    TxnRouting route;
    TxnCallback cb;
    Time issue_time = 0;
    uint32_t attempt = 0;
    // Locking-mode 2PC round state.
    int round = 0;
    std::vector<bool> got;
    std::vector<FragmentResponse> resp;
    // Group-commit gating state: a committed completion whose log records
    // are not yet durable parks here until its DurableNotice arrives.
    bool parked = false;
    bool durable = false;
    PayloadPtr parked_result;
    uint32_t parked_attempts = 0;
  };

  bool Admit();
  void StartTxn(SessionSubmit s, ActorContext& ctx);
  void SendCurrent(TxnId id, Txn& t, ActorContext& ctx);
  void SendLockingRound(TxnId id, Txn& t, PayloadPtr round_input, ActorContext& ctx);
  void OnFragmentResponse(FragmentResponse& r, ActorContext& ctx);
  void FinishLockingTxn(TxnId id, Txn& t, bool commit, bool retry, ActorContext& ctx);
  void Complete(TxnId id, bool committed, PayloadPtr result, uint32_t attempts,
                ActorContext& ctx);

  ProcRouter router_;
  TxnContinuations* continuations_;
  Topology topology_;
  CcSchemeCapabilities caps_;
  CostModel cost_;
  Metrics* metrics_ = nullptr;
  ProcMetricsSink* proc_metrics_ = nullptr;
  DurabilityManager* durability_ = nullptr;
  Rng rng_;

  uint64_t max_inflight_ = 0;  // 0 = unlimited; set before traffic

  // Shared with submitting threads.
  /// Admitted-and-uncompleted transactions (the admission-control counter).
  /// Unlike outstanding_, this drops *before* the completion callback runs,
  /// so a closed loop's resubmit-from-callback reuses the slot it held.
  std::atomic<uint64_t> admitted_{0};
  /// Posted + in-flight transactions. Only the actor's worker decrements it,
  /// and its ->0 edge happens under mu_ so WaitDrained cannot miss it.
  std::atomic<uint64_t> outstanding_{0};
  std::atomic<uint32_t> next_seq_{0};
  mutable Mutex mu_;
  CondVar drained_cv_;

  // Owned by the actor's worker (or the sim pump).
  std::unordered_map<TxnId, Txn> txns_;
  /// Recycled txns_ map nodes: Complete detaches the finished node and parks
  /// it here (with its Txn's vector capacities intact), StartTxn reattaches
  /// it under the new id — the steady-state closed loop allocates no map
  /// nodes at all.
  std::vector<std::unordered_map<TxnId, Txn>::node_type> txn_stash_;

  // Set for the duration of OnMessage so Submit can detect a submission made
  // from within one of this actor's own handlers and start it inline.
  std::atomic<std::thread::id> handler_thread_{};
  ActorContext* handler_ctx_ = nullptr;
};

}  // namespace partdb

#endif  // PARTDB_CLIENT_SESSION_ACTOR_H_
