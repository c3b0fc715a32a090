// A PartitionExec test double: runs fragments on a real engine synchronously
// and captures every outbound message, timer, and commit-log entry so scheme
// behaviour can be asserted step by step.
#ifndef PARTDB_TESTS_FAKE_PARTITION_H_
#define PARTDB_TESTS_FAKE_PARTITION_H_

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "cc/cc_scheme.h"
#include "engine/engine.h"
#include "engine/partition_actor.h"  // CommitRecord

namespace partdb {

class FakePartition : public PartitionExec {
 public:
  FakePartition(PartitionId pid, std::unique_ptr<Engine> engine)
      : pid_(pid), engine_(std::move(engine)) {
    metrics_.recording = true;
  }

  struct Sent {
    NodeId dst;
    MessageBody body;
  };
  std::vector<Sent> sent;
  std::vector<ReplicaShip> ships;
  std::vector<std::pair<TxnId, bool>> decisions_shipped;
  std::vector<std::pair<Duration, TimerFire>> timers;
  std::vector<CommitRecord> log;
  Duration charged = 0;

  // Typed accessors over `sent`.
  template <typename T>
  std::vector<T> Bodies() const {
    std::vector<T> out;
    for (const auto& s : sent) {
      if (const T* m = std::get_if<T>(&s.body)) out.push_back(*m);
    }
    return out;
  }
  void ClearSent() { sent.clear(); }

  // PartitionExec:
  ExecResult RunFragment(const FragmentRequest& frag, UndoBuffer* undo,
                         WorkMeter* receipt = nullptr) override {
    WorkMeter m;
    ExecResult res =
        engine_->Execute(*frag.args, frag.round, frag.round_input.get(), undo, &m);
    charged += cost_.ExecCost(m);
    if (receipt != nullptr) *receipt = m;
    return res;
  }
  void Charge(Duration d) override { charged += d; }
  void ChargeLockWork(const WorkMeter& m) override {
    charged += cost_.LockAcquireCost(m) + cost_.LockReleaseCost(m) + cost_.LockTableCost(m);
  }
  void ChargeUndo(size_t records) override {
    charged += cost_.per_undo * static_cast<Duration>(records);
  }
  void Send(NodeId dst, MessageBody body) override { sent.push_back({dst, std::move(body)}); }
  void SendDurable(NodeId dst, MessageBody body, ReplicaShip ship) override {
    ships.push_back(std::move(ship));
    sent.push_back({dst, std::move(body)});
  }
  void ShipDecision(TxnId txn, bool commit) override {
    decisions_shipped.emplace_back(txn, commit);
  }
  void SetTimer(Duration d, TimerFire t) override { timers.emplace_back(d, t); }
  void LogCommit(TxnId id, bool multi_partition, ProcId proc, const PayloadPtr& args,
                 std::span<const PayloadPtr> round_inputs) override {
    log.push_back(
        CommitRecord{id, multi_partition, proc, args, {round_inputs.begin(), round_inputs.end()}});
  }
  Engine& engine() override { return *engine_; }
  const CostModel& cost() const override { return cost_; }
  Metrics& metrics() override { return metrics_; }
  PartitionId partition_id() const override { return pid_; }
  Duration lock_timeout() const override { return Micros(1000); }

 private:
  PartitionId pid_;
  std::unique_ptr<Engine> engine_;
  CostModel cost_;
  Metrics metrics_;
};

}  // namespace partdb

#endif  // PARTDB_TESTS_FAKE_PARTITION_H_
