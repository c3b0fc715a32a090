#include "client/session_actor.h"

#include "durability/durability_manager.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace partdb {

namespace {
/// Recycled txns_ map nodes kept per session. A closed loop needs one per
/// concurrently completing transaction (usually 1); open loops with deep
/// pipelines still cap the stash so an in-flight burst can't pin memory.
constexpr size_t kTxnStashMax = 16;
}  // namespace

SubmitResult SessionActor::Submit(ProcId proc, PayloadPtr args, TxnCallback cb) {
  PARTDB_CHECK(args != nullptr);  // fail at the call site, not on the worker
  if (!Admit()) return {false, kInvalidTxn};
  SessionSubmit s;
  s.txn_id = MakeTxnId(node_id(), next_seq_.fetch_add(1, std::memory_order_relaxed));
  s.proc = proc;
  s.args = std::move(args);
  s.cb = std::move(cb);
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  const TxnId id = s.txn_id;
  // A submission made from within one of this actor's own handlers (a
  // completion callback issuing the next closed-loop request) starts inline:
  // the ingress hop would only charge an extra client message and delay the
  // send, and no other thread can be running this actor concurrently.
  if (handler_thread_.load(std::memory_order_relaxed) == std::this_thread::get_id()) {
    s.submit_time = handler_ctx_->now();
    StartTxn(std::move(s), *handler_ctx_);
    return {true, id};
  }
  // Latency is measured from here: ingress queueing (the wait until the
  // session's worker picks the submission up) is part of what the open-loop
  // driver exists to observe.
  s.submit_time = exec()->Now();
  Message m;
  m.src = node_id();
  m.dst = node_id();
  m.body = std::move(s);
  exec()->Post(std::move(m));
  return {true, id};
}

bool SessionActor::Admit() {
  uint64_t cur = admitted_.load(std::memory_order_relaxed);
  do {
    if (max_inflight_ != 0 && cur >= max_inflight_) return false;
  } while (!admitted_.compare_exchange_weak(cur, cur + 1, std::memory_order_relaxed));
  return true;
}

bool SessionActor::WaitDrained(std::chrono::steady_clock::duration timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(mu_);
  while (outstanding() != 0) {
    if (!drained_cv_.WaitUntil(mu_, deadline) && outstanding() != 0) return false;
  }
  return true;
}

void SessionActor::OnMessage(Message& msg, ActorContext& ctx) {
  ctx.Charge(cost_.client_msg);
  handler_ctx_ = &ctx;
  handler_thread_.store(std::this_thread::get_id(), std::memory_order_relaxed);
  struct HandlerScope {
    SessionActor* self;
    ~HandlerScope() {
      self->handler_thread_.store(std::thread::id(), std::memory_order_relaxed);
      self->handler_ctx_ = nullptr;
    }
  } scope{this};

  if (auto* s = std::get_if<SessionSubmit>(&msg.body)) {
    StartTxn(std::move(*s), ctx);
    return;
  }
  if (auto* t = std::get_if<TimerFire>(&msg.body)) {
    // Retry backoff expired.
    auto it = txns_.find(t->txn_id);
    if (it != txns_.end() && it->second.attempt == t->generation) {
      SendCurrent(it->first, it->second, ctx);
    }
    return;
  }
  if (auto* r = std::get_if<ClientResponse>(&msg.body)) {
    auto it = txns_.find(r->txn_id);
    if (it == txns_.end()) return;  // stale
    Complete(r->txn_id, r->committed, r->result,
             std::max(it->second.attempt, r->attempt) + 1, ctx);
    return;
  }
  if (auto* r = std::get_if<FragmentResponse>(&msg.body)) {
    PARTDB_CHECK(caps_.client_coordinated_2pc);
    OnFragmentResponse(*r, ctx);
    return;
  }
  if (auto* d = std::get_if<DurableNotice>(&msg.body)) {
    // The durability manager only sends a notice for a sealed (parked) gate,
    // so an unknown or unparked txn here is stale — ignore.
    auto it = txns_.find(d->txn_id);
    if (it == txns_.end() || !it->second.parked) return;
    Txn& t = it->second;
    t.parked = false;
    t.durable = true;
    PayloadPtr result = std::move(t.parked_result);
    const uint32_t attempts = t.parked_attempts;
    t.parked_result = nullptr;
    Complete(d->txn_id, true, std::move(result), attempts, ctx);
    return;
  }
  PARTDB_CHECK(false);
}

void SessionActor::StartTxn(SessionSubmit s, ActorContext& ctx) {
  const TxnId id = s.txn_id;
  std::unordered_map<TxnId, Txn>::iterator it;
  if (!txn_stash_.empty()) {
    // Reattach a recycled node: no map-node allocation, and the Txn inside
    // keeps the vector capacities its previous life grew.
    auto nh = std::move(txn_stash_.back());
    txn_stash_.pop_back();
    nh.key() = id;
    auto ins = txns_.insert(std::move(nh));
    PARTDB_CHECK(ins.inserted);
    it = ins.position;
  } else {
    auto ins = txns_.emplace(std::piecewise_construct, std::forward_as_tuple(id),
                             std::forward_as_tuple());
    PARTDB_CHECK(ins.second);
    it = ins.first;
  }
  Txn& t = it->second;
  t.proc = s.proc;
  t.args = std::move(s.args);
  t.route = router_(s.proc, *t.args);
  PARTDB_CHECK(!t.route.participants.empty());
  PARTDB_CHECK(t.route.rounds >= 1);
  for (PartitionId part : t.route.participants) {
    PARTDB_CHECK(part >= 0 && static_cast<size_t>(part) < topology_.partition_primary.size());
  }
  t.cb = std::move(s.cb);
  t.issue_time = s.submit_time;
  SendCurrent(it->first, t, ctx);
}

void SessionActor::SendCurrent(TxnId id, Txn& t, ActorContext& ctx) {
  if (t.route.single_partition()) {
    FragmentRequest f;
    f.txn_id = id;
    f.attempt = t.attempt;
    f.round = 0;
    f.last_round = true;
    f.multi_partition = false;
    f.can_abort = t.route.can_abort;
    f.coordinator = node_id();
    f.proc = t.proc;
    f.args = t.args;
    ctx.Send(topology_.partition_primary[t.route.participants[0]], std::move(f));
    return;
  }
  if (!caps_.client_coordinated_2pc) {
    ClientRequest r;
    r.txn_id = id;
    r.attempt = t.attempt;
    r.proc = t.proc;
    r.args = t.args;
    r.participants = t.route.participants;
    r.num_rounds = t.route.rounds;
    r.can_abort = t.route.can_abort;
    ctx.Send(topology_.coordinator, std::move(r));
    return;
  }
  // Locking: the session is the 2PC coordinator (paper §4.3).
  t.round = 0;
  SendLockingRound(id, t, nullptr, ctx);
}

void SessionActor::SendLockingRound(TxnId id, Txn& t, PayloadPtr round_input,
                                    ActorContext& ctx) {
  t.got.assign(t.route.participants.size(), false);
  t.resp.assign(t.route.participants.size(), FragmentResponse{});
  const bool last = t.round == t.route.rounds - 1;
  for (PartitionId p : t.route.participants) {
    FragmentRequest f;
    f.txn_id = id;
    f.attempt = t.attempt;
    f.round = t.round;
    f.last_round = last;
    f.multi_partition = true;
    f.can_abort = t.route.can_abort;
    f.coordinator = node_id();
    f.proc = t.proc;
    f.args = t.args;
    f.round_input = round_input;
    ctx.Send(topology_.partition_primary[p], std::move(f));
  }
}

void SessionActor::OnFragmentResponse(FragmentResponse& r, ActorContext& ctx) {
  auto it = txns_.find(r.txn_id);
  if (it == txns_.end()) return;  // stale
  Txn& t = it->second;
  if (r.attempt != t.attempt || r.round != t.round) return;  // stale round
  auto pi = std::find(t.route.participants.begin(), t.route.participants.end(), r.partition);
  PARTDB_CHECK(pi != t.route.participants.end());
  const size_t idx = static_cast<size_t>(pi - t.route.participants.begin());
  if (t.got[idx]) return;
  t.got[idx] = true;
  t.resp[idx] = r;
  for (bool g : t.got) {
    if (!g) return;
  }
  // Round complete.
  bool user_abort = false;
  bool system_abort = false;
  for (const auto& fr : t.resp) {
    if (fr.vote == Vote::kAbort) {
      if (fr.system_abort) {
        system_abort = true;
      } else {
        user_abort = true;
      }
    }
  }
  if (system_abort) {
    FinishLockingTxn(r.txn_id, t, false, /*retry=*/true, ctx);
    return;
  }
  if (user_abort) {
    FinishLockingTxn(r.txn_id, t, false, /*retry=*/false, ctx);
    return;
  }
  if (t.round < t.route.rounds - 1) {
    std::vector<std::pair<PartitionId, PayloadPtr>> prev;
    for (size_t i = 0; i < t.route.participants.size(); ++i) {
      prev.emplace_back(t.route.participants[i], t.resp[i].result);
    }
    PayloadPtr input = continuations_ == nullptr
                           ? nullptr
                           : continuations_->NextRoundInput(t.proc, *t.args, t.round + 1, prev);
    t.round++;
    SendLockingRound(r.txn_id, t, std::move(input), ctx);
    return;
  }
  FinishLockingTxn(r.txn_id, t, true, false, ctx);
}

void SessionActor::FinishLockingTxn(TxnId id, Txn& t, bool commit, bool retry,
                                    ActorContext& ctx) {
  for (PartitionId p : t.route.participants) {
    ctx.Send(topology_.partition_primary[p], DecisionMessage{id, t.attempt, commit});
  }
  if (retry) {
    if (metrics_->recording) metrics_->txn_retries++;
    t.attempt++;
    // Jittered backoff so the same transactions do not re-deadlock in
    // lockstep (the paper resolves distributed deadlock by timeout; retry
    // policy is the client library's).
    const Duration backoff = static_cast<Duration>(rng_.Uniform(Micros(500)));
    ctx.SetTimer(backoff, TimerFire{id, t.attempt});
    return;
  }
  PayloadPtr result;
  if (commit) {
    for (const auto& fr : t.resp) {
      if (fr.result != nullptr) {
        result = fr.result;
        break;
      }
    }
  }
  Complete(id, commit, std::move(result), t.attempt + 1, ctx);
}

void SessionActor::Complete(TxnId id, bool committed, PayloadPtr result, uint32_t attempts,
                            ActorContext& ctx) {
  auto it = txns_.find(id);
  PARTDB_CHECK(it != txns_.end());
  // Group commit: a committed transaction's completion (callback, metrics,
  // admission slot — the full latency path) waits for its log records to be
  // durable on every participant. The DurableNotice handler re-enters here
  // with durable already set.
  if (durability_ != nullptr && committed && !it->second.durable) {
    Txn& t = it->second;
    const auto need = static_cast<uint32_t>(t.route.participants.size());
    if (!durability_->SealOrDefer(id, need)) {
      t.parked = true;
      t.parked_result = std::move(result);
      t.parked_attempts = attempts;
      return;
    }
    t.durable = true;
  }
  auto nh = txns_.extract(it);
  Txn& t = nh.mapped();

  const bool sp = t.route.single_partition();
  const Duration lat = ctx.now() - t.issue_time;
  if (metrics_->recording) {
    if (committed) {
      metrics_->committed++;
      if (sp) {
        metrics_->sp_committed++;
      } else {
        metrics_->mp_committed++;
      }
    } else {
      metrics_->user_aborts++;
    }
    if (sp) {
      metrics_->sp_latency.Add(lat);
    } else {
      metrics_->mp_latency.Add(lat);
    }
    if (proc_metrics_ != nullptr && t.proc != kInvalidProc) {
      proc_metrics_->RecordProcOutcome(t.proc, committed, lat);
    }
  }

  TxnResult r;
  r.committed = committed;
  r.latency_ns = lat;
  r.attempts = attempts;
  r.payload = committed ? std::move(result) : nullptr;

  // The admission slot frees before the callback: a closed loop's
  // resubmit-from-callback reuses the slot this transaction held, so
  // max_inflight = 1 sustains a closed loop.
  const uint64_t admitted_before = admitted_.fetch_sub(1, std::memory_order_relaxed);
  PARTDB_CHECK(admitted_before > 0);

  // Recycle the detached map node before the callback runs, so a closed
  // loop's resubmit-from-callback picks it straight back up. Payloads and
  // the callback's captures are released now; got/resp keep their capacity
  // for the node's next life.
  TxnCallback cb = std::move(t.cb);
  t.cb = nullptr;
  t.args = nullptr;
  t.route = TxnRouting{};
  t.proc = kInvalidProc;
  t.issue_time = 0;
  t.attempt = 0;
  t.round = 0;
  t.got.clear();
  t.resp.clear();
  t.parked = false;
  t.durable = false;
  t.parked_result = nullptr;
  t.parked_attempts = 0;
  if (txn_stash_.size() < kTxnStashMax) txn_stash_.push_back(std::move(nh));

  // The callback runs before outstanding_ drops: a Drain that returns must
  // observe every completion's side effects (it may also Submit again —
  // closed-loop drivers — which keeps the session non-drained, correctly).
  if (cb) cb(r);
  // Only this worker decrements, so a count above 1 cannot reach 0 here and
  // needs no lock. The ->0 edge decrements and notifies under the lock, same
  // teardown protocol as RemoteSession::OnResponse: a waiter cannot observe
  // the drain (and let the actor go) before the notify is done. Actors are
  // pooled in Database and outlive session handles today, but that
  // invariant lives far from here — don't let this path depend on it.
  if (outstanding_.load(std::memory_order_relaxed) > 1) {
    outstanding_.fetch_sub(1, std::memory_order_release);
    return;
  }
  MutexLock lock(mu_);
  const uint64_t before = outstanding_.fetch_sub(1, std::memory_order_acq_rel);
  PARTDB_CHECK(before > 0);
  if (before == 1) drained_cv_.NotifyAll();
}

}  // namespace partdb
