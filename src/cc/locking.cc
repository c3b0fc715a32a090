#include "cc/locking.h"

#include "common/logging.h"

namespace partdb {

LockingCc::LTxn* LockingCc::FindTxn(TxnId id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : it->second.get();
}

void LockingCc::OnFragment(FragmentRequest frag) {
  // No-lock fast path (paper §4.3): with no active transactions a
  // single-partition transaction runs to completion without locks or undo.
  if (!force_locks_ && !frag.multi_partition && txns_.empty() && lm_.Empty()) {
    FastPathSp(frag);
    return;
  }
  LTxn* t = FindTxn(frag.txn_id);
  if (t == nullptr) {
    auto owned = std::make_unique<LTxn>();
    t = owned.get();
    t->id = frag.txn_id;
    t->attempt = frag.attempt;
    t->mp = frag.multi_partition;
    t->can_abort = frag.can_abort;
    t->coord = frag.coordinator;
    t->proc = frag.proc;
    t->args = frag.args;
    txns_.emplace(frag.txn_id, std::move(owned));
    if (part_->metrics().recording) part_->metrics().locked_txns++;
  } else {
    PARTDB_CHECK(t->mp && !t->has_pending && !t->prepared);  // next round
  }
  BeginFragment(t, std::move(frag));
}

void LockingCc::FastPathSp(FragmentRequest& f) {
  if (part_->metrics().recording) part_->metrics().lock_fast_path++;
  UndoBuffer undo;
  ExecResult r = part_->RunFragment(f, f.can_abort ? &undo : nullptr);
  ClientResponse resp;
  resp.txn_id = f.txn_id;
  resp.attempt = f.attempt;
  resp.committed = !r.aborted;
  resp.result = r.result;
  if (r.aborted) {
    part_->ChargeUndo(undo.size());
    undo.Rollback();
    part_->Send(f.coordinator, resp);
    return;
  }
  part_->LogCommit(f.txn_id, false, f.proc, f.args, {&f.round_input, 1});
  ReplicaShip ship;
  ship.txn_id = f.txn_id;
  ship.outcome_known = true;
  ship.args = f.args;
  ship.round_inputs = {f.round_input};
  part_->SendDurable(f.coordinator, resp, std::move(ship));
}

void LockingCc::BeginFragment(LTxn* t, FragmentRequest f) {
  t->lock_plan.clear();
  t->lock_cursor = 0;
  part_->engine().LockSet(*f.args, f.round, &t->lock_plan);
  t->pending_frag = std::move(f);
  t->has_pending = true;
  AdvanceLocks(t);
}

void LockingCc::AdvanceLocks(LTxn* t) {
  WorkMeter m;
  while (t->lock_cursor < t->lock_plan.size()) {
    const LockRequest& lr = t->lock_plan[t->lock_cursor];
    if (lm_.Acquire(lr.lock_id, t, lr.exclusive, &m)) {
      t->lock_cursor++;
      continue;
    }
    part_->ChargeLockWork(m);
    HandleBlocked(t);  // may kill *t; do not touch t afterwards
    return;
  }
  part_->ChargeLockWork(m);
  ExecutePending(t);
}

void LockingCc::HandleBlocked(LTxn* t) {
  const TxnId tid = t->id;
  std::vector<void*> cycle;
  if (lm_.FindCycle(t, &cycle)) {
    if (part_->metrics().recording) part_->metrics().local_deadlocks++;
    LTxn* victim = ChooseVictim(cycle);
    KillTxn(victim, /*timeout=*/false);
  }
  // Arm a distributed-deadlock timeout if the requester is still waiting.
  // Only multi-partition transactions can be in a distributed cycle.
  LTxn* cur = FindTxn(tid);
  if (cur != nullptr && cur->mp && lm_.IsWaiting(cur)) {
    cur->wait_generation = ++generation_counter_;
    part_->SetTimer(part_->lock_timeout(), TimerFire{tid, cur->wait_generation});
  }
}

LockingCc::LTxn* LockingCc::ChooseVictim(const std::vector<void*>& cycle) {
  PARTDB_CHECK(!cycle.empty());
  // Prefer killing a single-partition transaction (paper §4.3): restarting it
  // wastes the least work.
  for (void* v : cycle) {
    auto* t = static_cast<LTxn*>(v);
    if (!t->mp) return t;
  }
  // Otherwise kill the requester (the transaction that closed the cycle).
  return static_cast<LTxn*>(cycle.front());
}

void LockingCc::KillTxn(LTxn* victim, bool timeout) {
  if (part_->metrics().recording) {
    if (timeout) {
      part_->metrics().timeout_aborts++;
    }
  }
  if (!victim->undo.empty()) {
    part_->ChargeUndo(victim->undo.size());
    victim->undo.Rollback();
  }
  const bool mp = victim->mp;
  FragmentRequest retry_frag;
  NodeId coord = victim->coord;
  FragmentResponse resp;
  if (mp) {
    resp.txn_id = victim->id;
    resp.attempt = victim->attempt;
    resp.round = victim->pending_frag.round;
    resp.last_round = victim->pending_frag.last_round;
    resp.partition = part_->partition_id();
    resp.vote = Vote::kAbort;
    resp.system_abort = true;
  } else {
    retry_frag = std::move(victim->pending_frag);
    retry_frag.attempt++;
    if (part_->metrics().recording) part_->metrics().txn_retries++;
  }

  std::vector<LockManager::Granted> granted;
  WorkMeter m;
  lm_.ReleaseAll(victim, &m, &granted);
  part_->ChargeLockWork(m);
  txns_.erase(victim->id);  // frees victim
  ProcessGrants(granted);

  if (mp) {
    part_->Send(coord, resp);
  } else {
    // Restart the killed single-partition transaction locally.
    OnFragment(std::move(retry_frag));
  }
}

void LockingCc::ProcessGrants(std::vector<LockManager::Granted>& granted) {
  for (const auto& g : granted) {
    auto* t = static_cast<LTxn*>(g.owner);
    // Processing an earlier grant can kill a later grantee (deadlock victim
    // selection); skip owners that no longer exist.
    bool alive = false;
    for (const auto& [id, owned] : txns_) {
      if (owned.get() == t) {
        alive = true;
        break;
      }
    }
    if (!alive) continue;
    t->lock_cursor++;
    AdvanceLocks(t);
  }
}

void LockingCc::ExecutePending(LTxn* t) {
  PARTDB_CHECK(t->has_pending);
  t->has_pending = false;
  FragmentRequest f = std::move(t->pending_frag);
  t->round_inputs.push_back(f.round_input);
  // Locking always records undo while other transactions are active: a
  // deadlock abort may roll the transaction back (paper §4.3).
  WorkMeter receipt;
  ExecResult r = part_->RunFragment(f, &t->undo, &receipt);

  // Per-tuple lock traffic: the paper's lock manager locks every row a
  // transaction touches. Conflicts are modeled by the coarser declared plan,
  // but the CPU cost of the extra per-row lock/unlock pairs is charged here
  // (rows already covered by the declared plan are not double-charged).
  const uint32_t tuples = std::max(receipt.reads, receipt.writes);
  if (tuples > t->lock_plan.size()) {
    const double scale = part_->cost().per_tuple_lock_multiplier;
    const uint32_t extra = static_cast<uint32_t>(
        (tuples - static_cast<uint32_t>(t->lock_plan.size())) * scale);
    WorkMeter lock_work;
    lock_work.lock_acquires = extra;
    lock_work.lock_releases = extra;
    lock_work.lock_table_ops = 2 * extra;
    part_->ChargeLockWork(lock_work);
  }

  if (!t->mp) {
    ClientResponse resp;
    resp.txn_id = f.txn_id;
    resp.attempt = f.attempt;
    resp.committed = !r.aborted;
    resp.result = r.result;
    if (r.aborted) {
      part_->ChargeUndo(t->undo.size());
      t->undo.Rollback();
      part_->Send(f.coordinator, resp);
    } else {
      t->undo.Clear();
      part_->LogCommit(f.txn_id, false, f.proc, f.args, {&f.round_input, 1});
      ReplicaShip ship;
      ship.txn_id = f.txn_id;
      ship.outcome_known = true;
      ship.args = f.args;
      ship.round_inputs = {f.round_input};
      part_->SendDurable(f.coordinator, resp, std::move(ship));
    }
    FinishTxn(t);
    return;
  }

  FragmentResponse resp;
  resp.txn_id = f.txn_id;
  resp.attempt = f.attempt;
  resp.round = f.round;
  resp.last_round = f.last_round;
  resp.partition = part_->partition_id();
  resp.result = r.result;
  resp.vote = r.aborted ? Vote::kAbort : (f.last_round ? Vote::kCommit : Vote::kNone);
  if (r.aborted) {
    // Unilateral abort before voting: roll back, release, forget.
    part_->ChargeUndo(t->undo.size());
    t->undo.Rollback();
    part_->Send(f.coordinator, resp);
    FinishTxn(t);
    return;
  }
  if (f.last_round) {
    t->prepared = true;
    part_->Charge(part_->cost().twopc_vote);
    ReplicaShip ship;
    ship.txn_id = t->id;
    ship.outcome_known = false;
    ship.args = t->args;
    ship.round_inputs = t->round_inputs;
    part_->SendDurable(f.coordinator, resp, std::move(ship));
  } else {
    part_->Send(f.coordinator, resp);
  }
}

void LockingCc::FinishTxn(LTxn* t) {
  std::vector<LockManager::Granted> granted;
  WorkMeter m;
  lm_.ReleaseAll(t, &m, &granted);
  part_->ChargeLockWork(m);
  txns_.erase(t->id);
  ProcessGrants(granted);
}

void LockingCc::OnDecision(const DecisionMessage& d) {
  LTxn* t = FindTxn(d.txn_id);
  if (t == nullptr) return;  // already self-aborted (abort vote) and forgotten
  if (!t->prepared) {
    // Another participant aborted (deadlock timeout or victim kill) while
    // this one was still acquiring locks or between rounds. Roll back any
    // executed rounds and release everything.
    PARTDB_CHECK(!d.commit);
    if (!t->undo.empty()) {
      part_->ChargeUndo(t->undo.size());
      t->undo.Rollback();
    }
    FinishTxn(t);
    return;
  }
  if (d.commit) {
    t->undo.Clear();
    part_->LogCommit(t->id, true, t->proc, t->args, t->round_inputs);
    part_->ShipDecision(t->id, true);
  } else {
    part_->ChargeUndo(t->undo.size());
    t->undo.Rollback();
    part_->ShipDecision(t->id, false);
  }
  FinishTxn(t);
}

void LockingCc::OnTimer(const TimerFire& tf) {
  LTxn* t = FindTxn(tf.txn_id);
  if (t == nullptr || t->wait_generation != tf.generation || !lm_.IsWaiting(t)) {
    return;  // stale timer
  }
  PARTDB_CHECK(t->mp);
  KillTxn(t, /*timeout=*/true);
}

}  // namespace partdb
