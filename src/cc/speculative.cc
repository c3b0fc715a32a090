#include "cc/speculative.h"

#include "common/logging.h"

namespace partdb {

namespace {
/// Recycled Txn structs kept per partition: bounds the speculation queue's
/// idle footprint while covering any realistic uncommitted depth.
constexpr size_t kTxnPoolMax = 64;
}  // namespace

SpeculativeCc::TxnPtr SpeculativeCc::NewTxn() {
  if (txn_pool_.empty()) return std::make_unique<Txn>();
  TxnPtr t = std::move(txn_pool_.back());
  txn_pool_.pop_back();
  return t;
}

void SpeculativeCc::RecycleTxn(TxnPtr t) {
  if (t == nullptr || txn_pool_.size() >= kTxnPoolMax) return;
  t->id = kInvalidTxn;
  t->mp = false;
  t->can_abort = false;
  t->coord = kInvalidNode;
  t->proc = kInvalidProc;
  t->args = nullptr;
  t->frags.clear();
  t->round_inputs.clear();
  t->undo.Clear();
  t->finished = false;
  t->aborted_locally = false;
  t->undo_applied = false;
  t->speculative = false;
  t->held.clear();
  txn_pool_.push_back(std::move(t));
}

void SpeculativeCc::OnFragment(FragmentRequest frag) {
  // A later round of the in-flight multi-partition transaction. By the
  // coordinator's dependency gating, rounds past 0 are only dispatched once
  // every earlier transaction here has committed, so the target is both head
  // and tail of the uncommitted queue.
  if (!uncommitted_.empty() && frag.multi_partition &&
      frag.txn_id == uncommitted_.back()->id && !uncommitted_.back()->finished) {
    ContinueTail(frag);
    DrainQueue();
    return;
  }

  if (uncommitted_.empty()) {
    PARTDB_DCHECK(unexecuted_.empty());
    ExecuteFresh(frag);
  } else if (unexecuted_.empty() && uncommitted_.back()->finished &&
             (speculate_mp_ || !frag.multi_partition)) {
    if (frag.multi_partition) {
      SpeculateMp(frag);
    } else {
      SpeculateSp(frag);
    }
  } else {
    // Either the tail is still executing rounds, or earlier fragments are
    // already queued (FIFO), or this is a multi-partition transaction under
    // local-only speculation: wait.
    unexecuted_.push_back(std::move(frag));
  }
  DrainQueue();
}

void SpeculativeCc::ExecuteFresh(FragmentRequest& f) {
  if (!f.multi_partition) {
    // Fast path (paper §3.2): no speculation active, execute and commit.
    // Undo is kept only if the procedure may user-abort.
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
  // New non-speculative head.
  TxnPtr t = NewTxn();
  t->id = f.txn_id;
  t->mp = true;
  t->can_abort = f.can_abort;
  t->coord = f.coordinator;
  t->proc = f.proc;
  t->args = f.args;
  RunMpFragment(*t, f, kInvalidTxn);
  uncommitted_.push_back(std::move(t));
}

void SpeculativeCc::SpeculateSp(FragmentRequest& f) {
  TxnPtr t = NewTxn();
  t->id = f.txn_id;
  t->mp = false;
  t->can_abort = f.can_abort;
  t->coord = f.coordinator;
  t->proc = f.proc;
  t->args = f.args;
  t->speculative = true;
  t->frags.push_back(f);
  t->round_inputs.push_back(f.round_input);
  ExecResult r = part_->RunFragment(f, &t->undo);
  if (part_->metrics().recording) part_->metrics().speculative_execs++;
  t->finished = true;

  ClientResponse resp;
  resp.txn_id = f.txn_id;
  resp.attempt = f.attempt;
  resp.committed = !r.aborted;
  resp.result = r.result;
  if (r.aborted) {
    // A self-aborting speculation must roll back immediately so later
    // speculations never observe its dirty writes.
    t->aborted_locally = true;
    part_->ChargeUndo(t->undo.size());
    t->undo.Rollback();
    t->undo_applied = true;
  }
  // Results of speculated single-partition transactions cannot leave the
  // database until every earlier transaction has committed (§4.2.1).
  t->held.emplace_back(f.coordinator, resp);
  uncommitted_.push_back(std::move(t));
}

void SpeculativeCc::SpeculateMp(FragmentRequest& f) {
  TxnPtr t = NewTxn();
  t->id = f.txn_id;
  t->mp = true;
  t->can_abort = f.can_abort;
  t->coord = f.coordinator;
  t->proc = f.proc;
  t->args = f.args;
  t->speculative = true;
  const TxnId dep = LastMpId();
  PARTDB_CHECK(dep != kInvalidTxn);
  RunMpFragment(*t, f, dep);
  if (part_->metrics().recording) part_->metrics().speculative_execs++;
  uncommitted_.push_back(std::move(t));
}

void SpeculativeCc::ContinueTail(FragmentRequest& f) {
  Txn& t = *uncommitted_.back();
  // Rounds past 0 run only once the transaction is the head (see above).
  PARTDB_CHECK(uncommitted_.size() == 1 || f.round == 0);
  RunMpFragment(t, f, kInvalidTxn);
}

void SpeculativeCc::RunMpFragment(Txn& t, FragmentRequest& f, TxnId dep) {
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
  if (f.last_round && !r.aborted) {
    part_->Charge(part_->cost().twopc_vote);
    part_->SendDurable(t.coord, resp, ShipFor(t));
    return;
  }
  part_->Send(t.coord, resp);
}

ReplicaShip SpeculativeCc::ShipFor(const Txn& t) const {
  ReplicaShip ship;
  ship.txn_id = t.id;
  ship.outcome_known = !t.mp;
  ship.args = t.args;
  ship.round_inputs = t.round_inputs;
  return ship;
}

TxnId SpeculativeCc::LastMpId() const {
  for (auto it = uncommitted_.rbegin(); it != uncommitted_.rend(); ++it) {
    if ((*it)->mp) return (*it)->id;
  }
  return kInvalidTxn;
}

void SpeculativeCc::OnDecision(const DecisionMessage& d) {
  PARTDB_CHECK(!uncommitted_.empty());
  Txn* head = uncommitted_.front().get();
  PARTDB_CHECK(head->id == d.txn_id);
  PARTDB_CHECK(head->mp);

  if (d.commit) {
    PARTDB_CHECK(head->finished && !head->aborted_locally);
    head->undo.Clear();
    part_->LogCommit(head->id, true, head->proc, head->args, head->round_inputs);
    part_->ShipDecision(head->id, true);
    RecycleTxn(std::move(uncommitted_.front()));
    uncommitted_.pop_front();
    ReleaseCommittedSp();
  } else {
    ++epoch_;
    // Cascade: undo speculated transactions newest-first and requeue them in
    // their original order for re-execution (paper Fig. 3).
    std::vector<FragmentRequest> requeue;
    while (uncommitted_.size() > 1) {
      TxnPtr t = std::move(uncommitted_.back());
      uncommitted_.pop_back();
      if (!t->undo_applied) {
        part_->ChargeUndo(t->undo.size());
        t->undo.Rollback();
      }
      if (part_->metrics().recording) part_->metrics().cascading_reexecs++;
      // Speculated transactions have executed exactly one fragment (round 0);
      // multi-round transactions past round 0 can no longer be cascaded.
      PARTDB_CHECK(t->frags.size() == 1);
      FragmentRequest f = std::move(t->frags[0]);
      f.attempt++;
      requeue.push_back(std::move(f));
      RecycleTxn(std::move(t));
    }
    TxnPtr h = std::move(uncommitted_.front());
    uncommitted_.pop_front();
    if (!h->undo_applied) {
      part_->ChargeUndo(h->undo.size());
      h->undo.Rollback();
    }
    part_->ShipDecision(h->id, false);
    RecycleTxn(std::move(h));
    // requeue holds [newest, ..., oldest]; push_front restores queue order.
    for (auto& f : requeue) unexecuted_.push_front(std::move(f));
  }
  DrainQueue();
}

void SpeculativeCc::ReleaseCommittedSp() {
  // Commit speculated single-partition transactions up to the next
  // multi-partition transaction and release their buffered results.
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
    RecycleTxn(std::move(uncommitted_.front()));
    uncommitted_.pop_front();
  }
}

void SpeculativeCc::DrainQueue() {
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
      if (peek.multi_partition && !speculate_mp_) break;  // wait for commit
      FragmentRequest f = std::move(unexecuted_.front());
      unexecuted_.pop_front();
      if (f.multi_partition) {
        SpeculateMp(f);
      } else {
        SpeculateSp(f);
      }
      continue;
    }
    break;  // tail still executing rounds: must wait (paper §4.2.2 limitation)
  }
}

}  // namespace partdb
