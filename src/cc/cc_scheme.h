// Concurrency-control scheme interface. A scheme decides when fragments
// execute, when results become visible, and what happens on abort. The
// implementations mirror the paper — BlockingCc (§4.1), SpeculativeCc (§4.2),
// LockingCc (§4.3), OccCc (§5.7) — plus MvccCc (multiversion snapshot reads).
// Schemes are selected by name through the CcSchemeRegistry
// (cc/scheme_registry.h); concrete types are named only by their registrant.
#ifndef PARTDB_CC_CC_SCHEME_H_
#define PARTDB_CC_CC_SCHEME_H_

#include <memory>
#include <span>

#include "engine/cost_model.h"
#include "engine/engine.h"
#include "msg/message.h"
#include "runtime/metrics.h"

namespace partdb {

/// Services a scheme uses, implemented by PartitionActor. All CPU consumed
/// through these calls is charged to the partition's virtual CPU at the
/// moment of the call, so streams of work within one event are serialized.
class PartitionExec {
 public:
  virtual ~PartitionExec() = default;

  /// Runs one fragment on the engine and charges its execution cost
  /// (plus the flat abort cost if the fragment user-aborts). The work
  /// receipt is copied to `receipt` when non-null.
  virtual ExecResult RunFragment(const FragmentRequest& frag, UndoBuffer* undo,
                                 WorkMeter* receipt = nullptr) = 0;

  /// Charges raw CPU time.
  virtual void Charge(Duration d) = 0;

  /// Charges lock-manager work and records the §5.6 breakdown.
  virtual void ChargeLockWork(const WorkMeter& m) = 0;

  /// Charges the cost of rolling back `records` undo records.
  virtual void ChargeUndo(size_t records) = 0;

  /// Sends a message at the current virtual instant.
  virtual void Send(NodeId dst, MessageBody body) = 0;

  /// Sends a message once `ship` has been acknowledged by all backups
  /// (immediately when replication is off). Used for 2PC votes and client
  /// responses that must be durable first (paper §3.2/§3.3).
  virtual void SendDurable(NodeId dst, MessageBody body, ReplicaShip ship) = 0;

  /// Tells backups the outcome of a previously shipped transaction.
  virtual void ShipDecision(TxnId txn, bool commit) = 0;

  /// Delivers a TimerFire to this partition after `d` ns.
  virtual void SetTimer(Duration d, TimerFire t) = 0;

  /// Records a committed transaction: in the test-only commit log (for
  /// serializability checking, no cost) and in the partition's command log
  /// when durability is on. `proc` is the registry id of the stored
  /// procedure, stamped into the durable record so recovery can re-resolve
  /// it by name. A single-partition commit passes its one round input as
  /// `{&f.round_input, 1}`, so the call builds no container.
  virtual void LogCommit(TxnId id, bool multi_partition, ProcId proc,
                         const PayloadPtr& args, std::span<const PayloadPtr> round_inputs) = 0;

  virtual Engine& engine() = 0;
  virtual const CostModel& cost() const = 0;
  virtual Metrics& metrics() = 0;
  virtual PartitionId partition_id() const = 0;
  virtual Duration lock_timeout() const = 0;
};

class CcScheme {
 public:
  virtual ~CcScheme() = default;

  /// A fragment (single-partition request or one round of a multi-partition
  /// transaction) has arrived.
  virtual void OnFragment(FragmentRequest frag) = 0;

  /// A 2PC decision has arrived from the coordinator (or client-coordinator).
  virtual void OnDecision(const DecisionMessage& d) = 0;

  /// A timer set via PartitionExec::SetTimer has fired.
  virtual void OnTimer(const TimerFire& /*t*/) {}

  /// True when no transaction is active or queued (used by tests to verify
  /// quiescence).
  virtual bool Idle() const = 0;
};

}  // namespace partdb

#endif  // PARTDB_CC_CC_SCHEME_H_
