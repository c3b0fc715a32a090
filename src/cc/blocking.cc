#include "cc/blocking.h"

#include "common/logging.h"

namespace partdb {

void BlockingCc::OnFragment(FragmentRequest frag) {
  if (active_.has_value()) {
    if (frag.multi_partition && frag.txn_id == active_->id) {
      ContinueMp(frag);
      return;
    }
    queue_.push_back(std::move(frag));
    return;
  }
  PARTDB_DCHECK(queue_.empty());
  Dispatch(frag);
}

void BlockingCc::Dispatch(FragmentRequest& f) {
  if (!f.multi_partition) {
    ExecuteSp(f);
  } else {
    StartMp(f);
  }
}

void BlockingCc::ExecuteSp(FragmentRequest& f) {
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

void BlockingCc::StartMp(FragmentRequest& f) {
  active_.emplace();
  active_->id = f.txn_id;
  active_->coord = f.coordinator;
  active_->proc = f.proc;
  active_->args = f.args;
  active_->round_inputs.push_back(f.round_input);
  ExecResult r = part_->RunFragment(f, &active_->undo);
  if (r.aborted) active_->aborted_locally = true;
  active_->finished = f.last_round;
  RespondMp(f, r);
}

void BlockingCc::ContinueMp(FragmentRequest& f) {
  PARTDB_CHECK(!active_->finished);
  active_->round_inputs.push_back(f.round_input);
  ExecResult r = part_->RunFragment(f, &active_->undo);
  if (r.aborted) active_->aborted_locally = true;
  active_->finished = f.last_round;
  RespondMp(f, r);
}

void BlockingCc::RespondMp(const FragmentRequest& f, const ExecResult& r) {
  FragmentResponse resp;
  resp.txn_id = f.txn_id;
  resp.attempt = f.attempt;
  resp.round = f.round;
  resp.last_round = f.last_round;
  resp.partition = part_->partition_id();
  resp.epoch = epoch_;
  resp.result = r.result;
  resp.vote = r.aborted ? Vote::kAbort : (f.last_round ? Vote::kCommit : Vote::kNone);
  if (f.last_round && !r.aborted) {
    part_->Charge(part_->cost().twopc_vote);
    ReplicaShip ship;
    ship.txn_id = f.txn_id;
    ship.outcome_known = false;
    ship.args = active_->args;
    ship.round_inputs = active_->round_inputs;
    part_->SendDurable(f.coordinator, resp, std::move(ship));
    return;
  }
  part_->Send(f.coordinator, resp);
}

void BlockingCc::OnDecision(const DecisionMessage& d) {
  PARTDB_CHECK(active_.has_value());
  PARTDB_CHECK(active_->id == d.txn_id);
  if (d.commit) {
    PARTDB_CHECK(!active_->aborted_locally);
    active_->undo.Clear();
    part_->LogCommit(active_->id, true, active_->proc, active_->args, active_->round_inputs);
    part_->ShipDecision(active_->id, true);
  } else {
    ++epoch_;
    part_->ChargeUndo(active_->undo.size());
    active_->undo.Rollback();
    part_->ShipDecision(active_->id, false);
  }
  active_.reset();
  Drain();
}

void BlockingCc::Drain() {
  while (!active_.has_value() && !queue_.empty()) {
    FragmentRequest f = std::move(queue_.front());
    queue_.pop_front();
    Dispatch(f);
  }
}

}  // namespace partdb
