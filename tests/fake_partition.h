// A PartitionExec test double: runs fragments on a real engine synchronously
// and captures every outbound message, timer, and commit-log entry so scheme
// behaviour can be asserted step by step.
#ifndef PARTDB_TESTS_FAKE_PARTITION_H_
#define PARTDB_TESTS_FAKE_PARTITION_H_

#include <memory>
#include <utility>
#include <vector>

#include "cc/cc_scheme.h"
#include "engine/engine.h"

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
  std::vector<std::pair<Duration, TimerFire>> timers;
  std::vector<CommitRecord> log;  // committed transactions, in commit order
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
  void SetTimer(Duration d, TimerFire t) override { timers.emplace_back(d, t); }
  // No backups: replies and votes go out at once.
  void CommitSp(const FragmentRequest& f, ClientResponse reply) override {
    log.push_back(CommitRecord{f.txn_id, false, f.proc, f.args, {f.round_input}});
    sent.push_back({f.coordinator, std::move(reply)});
  }
  void PrepareMp(const CommitRecord& /*rec*/, NodeId coord, FragmentResponse vote) override {
    sent.push_back({coord, std::move(vote)});
  }
  void DecideMp(const CommitRecord& rec, bool commit) override {
    if (commit) log.push_back(rec);
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
