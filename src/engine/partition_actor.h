// PartitionActor: a primary partition process. Hosts the engine (real data),
// the installed concurrency-control scheme, and primary-side replication.
// Implements the PartitionExec services the schemes run against.
#ifndef PARTDB_ENGINE_PARTITION_ACTOR_H_
#define PARTDB_ENGINE_PARTITION_ACTOR_H_

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "cc/cc_scheme.h"
#include "engine/cost_model.h"
#include "engine/engine.h"
#include "runtime/actor.h"
#include "runtime/metrics.h"

namespace partdb {

/// One committed transaction at this partition, in local commit order.
/// Recorded only when commit logging is enabled (tests): replaying the log
/// serially on a fresh engine must reproduce the partition state.
struct CommitRecord {
  TxnId txn_id = kInvalidTxn;
  bool multi_partition = false;
  ProcId proc = kInvalidProc;
  PayloadPtr args;
  std::vector<PayloadPtr> round_inputs;  // entry r = input for round r (null for 0)
};

class PartitionLog;

class PartitionActor : public Actor, public PartitionExec {
 public:
  PartitionActor(std::string name, PartitionId pid, std::unique_ptr<Engine> engine,
                 const CostModel& cost, Metrics* metrics, Duration lock_timeout)
      : Actor(std::move(name)),
        pid_(pid),
        engine_(std::move(engine)),
        cost_(cost),
        metrics_(metrics),
        lock_timeout_(lock_timeout) {}

  /// Must be called once before the simulation starts.
  void InstallScheme(std::unique_ptr<CcScheme> scheme) { scheme_ = std::move(scheme); }
  void SetBackups(std::vector<NodeId> backups) { backups_ = std::move(backups); }
  void EnableCommitLog() { log_commits_ = true; }
  /// Routes every committed transaction into the durable command log
  /// (durability tier; `log` must outlive the actor).
  void InstallDurabilityLog(PartitionLog* log) { durability_log_ = log; }

  CcScheme& cc() { return *scheme_; }
  const std::vector<CommitRecord>& commit_log() const { return commit_log_; }

  // PartitionExec:
  ExecResult RunFragment(const FragmentRequest& frag, UndoBuffer* undo,
                         WorkMeter* receipt = nullptr) override;
  void Charge(Duration d) override;
  void ChargeLockWork(const WorkMeter& m) override;
  void ChargeUndo(size_t records) override;
  void Send(NodeId dst, MessageBody body) override;
  void SendDurable(NodeId dst, MessageBody body, ReplicaShip ship) override;
  void ShipDecision(TxnId txn, bool commit) override;
  void SetTimer(Duration d, TimerFire t) override;
  Engine& engine() override { return *engine_; }
  const CostModel& cost() const override { return cost_; }
  Metrics& metrics() override { return *metrics_; }
  PartitionId partition_id() const override { return pid_; }
  Duration lock_timeout() const override { return lock_timeout_; }

  /// Appends to the durable command log (when installed) and the test-only
  /// commit log (when enabled; no cost — diagnostic machinery).
  void LogCommit(TxnId id, bool multi_partition, ProcId proc, const PayloadPtr& args,
                 std::span<const PayloadPtr> round_inputs) override;

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override;

 private:
  struct PendingDurable {
    int acks_remaining = 0;
    NodeId dst = kInvalidNode;
    MessageBody body;
  };

  PartitionId pid_;
  std::unique_ptr<Engine> engine_;
  CostModel cost_;
  Metrics* metrics_;
  Duration lock_timeout_;
  std::unique_ptr<CcScheme> scheme_;
  std::vector<NodeId> backups_;
  uint64_t next_ship_seq_ = 1;
  std::unordered_map<uint64_t, PendingDurable> pending_durable_;
  bool log_commits_ = false;
  std::vector<CommitRecord> commit_log_;
  PartitionLog* durability_log_ = nullptr;
  ActorContext* ctx_ = nullptr;  // valid during OnMessage
};

}  // namespace partdb

#endif  // PARTDB_ENGINE_PARTITION_ACTOR_H_
