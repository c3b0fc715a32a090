#include "cc/occ.h"

#include <algorithm>

#include "common/logging.h"

namespace partdb {

void OccCc::TrackAccess(Txn* t, const FragmentRequest& f) {
  // The declared lock set is exactly the access set; tracking it is the
  // read/write-set bookkeeping the paper says OCC cannot avoid (§5.7).
  std::vector<LockRequest> plan;
  part_->engine().LockSet(*f.args, f.round, &plan);
  WorkMeter tracking;
  for (const LockRequest& lr : plan) {
    if (lr.exclusive) {
      t->writes.push_back(lr.lock_id);
    } else {
      t->reads.push_back(lr.lock_id);
    }
    tracking.lock_acquires++;  // charged like lock-manager traffic
    tracking.lock_table_ops++;
  }
  part_->ChargeLockWork(tracking);
}

void OccCc::OnFragment(FragmentRequest frag) {
  if (!uncommitted_.empty() && frag.multi_partition &&
      frag.txn_id == uncommitted_.back()->id && !uncommitted_.back()->finished) {
    ContinueTail(frag);
    DrainQueue();
    return;
  }
  if (uncommitted_.empty()) {
    PARTDB_DCHECK(unexecuted_.empty());
    ExecuteFresh(frag);
  } else if (unexecuted_.empty() && uncommitted_.back()->finished) {
    if (frag.multi_partition) {
      SpeculateMp(frag);
    } else {
      SpeculateSp(frag);
    }
  } else {
    unexecuted_.push_back(std::move(frag));
  }
  DrainQueue();
}

void OccCc::ExecuteFresh(FragmentRequest& f) {
  if (!f.multi_partition) {
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
    return;
  }
  auto t = std::make_unique<Txn>();
  t->id = f.txn_id;
  t->mp = true;
  t->can_abort = f.can_abort;
  t->coord = f.coordinator;
  t->proc = f.proc;
  t->args = f.args;
  TrackAccess(t.get(), f);
  RunMpFragment(*t, f, kInvalidTxn);
  uncommitted_.push_back(std::move(t));
}

void OccCc::SpeculateSp(FragmentRequest& f) {
  auto t = std::make_unique<Txn>();
  t->id = f.txn_id;
  t->mp = false;
  t->can_abort = f.can_abort;
  t->coord = f.coordinator;
  t->proc = f.proc;
  t->args = f.args;
  t->frags.push_back(f);
  t->round_inputs.push_back(f.round_input);
  TrackAccess(t.get(), f);
  ExecResult r = part_->RunFragment(f, &t->undo);
  if (part_->metrics().recording) part_->metrics().speculative_execs++;
  t->finished = true;
  ClientResponse resp;
  resp.txn_id = f.txn_id;
  resp.attempt = f.attempt;
  resp.committed = !r.aborted;
  resp.result = r.result;
  if (r.aborted) {
    t->aborted_locally = true;
    part_->ChargeUndo(t->undo.size());
    t->undo.Rollback();
    t->undo_applied = true;
  }
  t->held.emplace_back(f.coordinator, resp);
  uncommitted_.push_back(std::move(t));
}

void OccCc::SpeculateMp(FragmentRequest& f) {
  auto t = std::make_unique<Txn>();
  t->id = f.txn_id;
  t->mp = true;
  t->can_abort = f.can_abort;
  t->coord = f.coordinator;
  t->proc = f.proc;
  t->args = f.args;
  const TxnId dep = LastMpId();
  PARTDB_CHECK(dep != kInvalidTxn);
  TrackAccess(t.get(), f);
  RunMpFragment(*t, f, dep);
  if (part_->metrics().recording) part_->metrics().speculative_execs++;
  uncommitted_.push_back(std::move(t));
}

void OccCc::ContinueTail(FragmentRequest& f) {
  Txn& t = *uncommitted_.back();
  PARTDB_CHECK(uncommitted_.size() == 1 || f.round == 0);
  TrackAccess(&t, f);
  RunMpFragment(t, f, kInvalidTxn);
}

void OccCc::RunMpFragment(Txn& t, FragmentRequest& f, TxnId dep) {
  t.frags.push_back(f);
  t.round_inputs.push_back(f.round_input);
  ExecResult r = part_->RunFragment(f, &t.undo);
  if (r.aborted) t.aborted_locally = true;
  t.finished = f.last_round;

  FragmentResponse resp;
  resp.txn_id = f.txn_id;
  resp.attempt = f.attempt;
  resp.round = f.round;
  resp.last_round = f.last_round;
  resp.partition = part_->partition_id();
  resp.epoch = epoch_;
  resp.depends_on = dep;
  resp.result = r.result;
  resp.vote = r.aborted ? Vote::kAbort : (f.last_round ? Vote::kCommit : Vote::kNone);
  t.last_response = resp;
  t.has_response = true;
  if (f.last_round && !r.aborted) {
    part_->Charge(part_->cost().twopc_vote);
    part_->SendDurable(t.coord, resp, ShipFor(t));
    return;
  }
  part_->Send(t.coord, resp);
}

ReplicaShip OccCc::ShipFor(const Txn& t) const {
  ReplicaShip ship;
  ship.txn_id = t.id;
  ship.outcome_known = !t.mp;
  ship.args = t.args;
  ship.round_inputs = t.round_inputs;
  return ship;
}

TxnId OccCc::LastMpId() const {
  for (auto it = uncommitted_.rbegin(); it != uncommitted_.rend(); ++it) {
    if ((*it)->mp) return (*it)->id;
  }
  return kInvalidTxn;
}

void OccCc::OnDecision(const DecisionMessage& d) {
  PARTDB_CHECK(!uncommitted_.empty());
  Txn* head = uncommitted_.front().get();
  PARTDB_CHECK(head->id == d.txn_id);
  PARTDB_CHECK(head->mp);

  if (d.commit) {
    PARTDB_CHECK(head->finished && !head->aborted_locally);
    head->undo.Clear();
    part_->LogCommit(head->id, true, head->proc, head->args, head->round_inputs);
    part_->ShipDecision(head->id, true);
    uncommitted_.pop_front();
    ReleaseCommittedSp();
    DrainQueue();
    return;
  }

  // Abort: OCC validation. Walk the queue oldest-first, accumulating the
  // written keys of the aborted head and of every invalidated transaction;
  // a transaction survives iff its access set avoids that write set.
  ++epoch_;
  std::unordered_set<uint64_t> poisoned(head->writes.begin(), head->writes.end());
  std::deque<TxnPtr> survivors;
  std::vector<TxnPtr> invalid;  // queue order
  TxnPtr h = std::move(uncommitted_.front());
  uncommitted_.pop_front();

  WorkMeter validation;
  bool mp_poisoned = false;  // an invalidated MP txn forces later MPs out too
  while (!uncommitted_.empty()) {
    TxnPtr t = std::move(uncommitted_.front());
    uncommitted_.pop_front();
    bool conflict = false;
    for (uint64_t k : t->reads) {
      validation.lock_table_ops++;
      if (poisoned.count(k)) conflict = true;
    }
    for (uint64_t k : t->writes) {
      validation.lock_table_ops++;
      if (poisoned.count(k)) conflict = true;
    }
    // Multi-partition transactions must keep their relative order identical
    // on every participant (otherwise per-partition dependency chains can
    // cycle at the coordinator). Once one MP transaction is invalidated,
    // every later MP transaction re-executes as well; only single-partition
    // transactions — which have no cross-partition ordering constraints —
    // enjoy fully selective validation.
    if (t->mp && mp_poisoned) conflict = true;
    if (conflict) {
      if (t->mp) mp_poisoned = true;
      for (uint64_t k : t->writes) poisoned.insert(k);
      invalid.push_back(std::move(t));
    } else {
      survivors.push_back(std::move(t));
    }
  }
  part_->ChargeLockWork(validation);

  // Undo invalid transactions newest-first (their keys are disjoint from all
  // survivors, so rolling them back does not disturb surviving state), then
  // the head.
  for (auto it = invalid.rbegin(); it != invalid.rend(); ++it) {
    Txn* t = it->get();
    if (!t->undo_applied) {
      part_->ChargeUndo(t->undo.size());
      t->undo.Rollback();
    }
    if (part_->metrics().recording) part_->metrics().cascading_reexecs++;
  }
  if (!h->undo_applied) {
    part_->ChargeUndo(h->undo.size());
    h->undo.Rollback();
  }
  part_->ShipDecision(h->id, false);

  // Requeue invalidated transactions for re-execution, preserving order.
  for (auto it = invalid.rbegin(); it != invalid.rend(); ++it) {
    PARTDB_CHECK((*it)->frags.size() == 1);
    FragmentRequest f = std::move((*it)->frags[0]);
    f.attempt++;
    unexecuted_.push_front(std::move(f));
  }

  uncommitted_ = std::move(survivors);
  if (part_->metrics().recording) {
    part_->metrics().occ_survivors += uncommitted_.size();
  }

  // Survivors' speculative votes referenced the old epoch (and possibly the
  // aborted head); resend them revalidated so the coordinator can proceed.
  TxnId prev_mp = kInvalidTxn;
  for (TxnPtr& t : uncommitted_) {
    if (t->mp && t->has_response) {
      FragmentResponse resp = t->last_response;
      resp.epoch = epoch_;
      resp.depends_on = prev_mp;
      t->last_response = resp;
      part_->Send(t->coord, resp);
    }
    if (t->mp) prev_mp = t->id;
  }

  // A surviving single-partition prefix has no uncommitted predecessors left.
  ReleaseCommittedSp();
  DrainQueue();
}

void OccCc::ReleaseCommittedSp() {
  while (!uncommitted_.empty() && !uncommitted_.front()->mp) {
    Txn* t = uncommitted_.front().get();
    PARTDB_CHECK(t->finished);
    if (t->aborted_locally) {
      for (auto& [dst, body] : t->held) part_->Send(dst, std::move(body));
    } else {
      t->undo.Clear();
      part_->LogCommit(t->id, false, t->proc, t->args, t->round_inputs);
      for (auto& [dst, body] : t->held) {
        part_->SendDurable(dst, std::move(body), ShipFor(*t));
      }
    }
    uncommitted_.pop_front();
  }
}

void OccCc::DrainQueue() {
  while (!unexecuted_.empty()) {
    if (uncommitted_.empty()) {
      FragmentRequest f = std::move(unexecuted_.front());
      unexecuted_.pop_front();
      ExecuteFresh(f);
      continue;
    }
    Txn* tail = uncommitted_.back().get();
    FragmentRequest& peek = unexecuted_.front();
    if (peek.multi_partition && peek.txn_id == tail->id && !tail->finished) {
      FragmentRequest f = std::move(unexecuted_.front());
      unexecuted_.pop_front();
      ContinueTail(f);
      continue;
    }
    if (tail->finished) {
      FragmentRequest f = std::move(unexecuted_.front());
      unexecuted_.pop_front();
      if (f.multi_partition) {
        SpeculateMp(f);
      } else {
        SpeculateSp(f);
      }
      continue;
    }
    break;
  }
}

}  // namespace partdb
