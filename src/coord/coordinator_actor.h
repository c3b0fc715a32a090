// Central coordinator (paper §3.3): globally orders multi-partition
// transactions, drives their communication rounds, and runs two-phase commit
// with the prepare piggybacked on the last fragment. In speculative mode it
// additionally tracks dependencies of speculative results (§4.2.2): a
// transaction commits only once the transactions its results depend on have
// committed; an abort invalidates dependent results, which the partitions
// re-execute and resend.
#ifndef PARTDB_COORD_COORDINATOR_ACTOR_H_
#define PARTDB_COORD_COORDINATOR_ACTOR_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "coord/txn_continuations.h"
#include "engine/cost_model.h"
#include "msg/message.h"
#include "runtime/actor.h"
#include "runtime/metrics.h"

namespace partdb {

class CoordinatorActor : public Actor {
 public:
  CoordinatorActor(std::string name, const CostModel& cost, Metrics* metrics,
                   TxnContinuations* continuations, std::vector<NodeId> partition_nodes)
      : Actor(std::move(name)),
        cost_(cost),
        metrics_(metrics),
        continuations_(continuations),
        partition_nodes_(std::move(partition_nodes)),
        expected_epoch_(partition_nodes_.size(), 0) {}

  uint64_t transactions_ordered() const { return next_seq_ - 1; }

 protected:
  void OnMessage(Message& msg, ActorContext& ctx) override;

 private:
  struct PendingResponse {
    bool received = false;
    FragmentResponse resp;
  };
  struct MpTxn {
    TxnId id = kInvalidTxn;
    uint64_t seq = 0;
    NodeId client = kInvalidNode;
    ProcId proc = kInvalidProc;
    PayloadPtr args;
    PartitionList parts;
    int rounds = 1;
    int round = 0;
    bool can_abort = false;
    std::vector<PendingResponse> resp;  // parallel to parts, current round
    std::vector<std::pair<PartitionId, PayloadPtr>> last_results;
    bool parked = false;  // waiting on an undecided dependency
  };

  void OnRequest(ClientRequest& r, NodeId src, ActorContext& ctx);
  void OnResponse(FragmentResponse& r, ActorContext& ctx);
  void SendRound(MpTxn* t, PayloadPtr round_input, ActorContext& ctx);
  /// Advances `t` if its current round is fully collected and dependencies
  /// allow: next round, commit, or abort.
  void TryAdvance(MpTxn* t, ActorContext& ctx);
  void Decide(MpTxn* t, bool commit, ActorContext& ctx);
  /// Drops stored responses from partition `p` that predate its new epoch.
  void InvalidateStale(PartitionId p, ActorContext& ctx);

  CostModel cost_;
  Metrics* metrics_;
  TxnContinuations* continuations_;
  std::vector<NodeId> partition_nodes_;
  std::vector<uint32_t> expected_epoch_;  // abort decisions sent, per partition

  std::unordered_map<TxnId, std::unique_ptr<MpTxn>> txns_;
  std::unordered_map<TxnId, bool> decided_;              // txn -> committed?
  std::unordered_map<TxnId, std::vector<TxnId>> waiters_;  // dep -> parked txns
  uint64_t next_seq_ = 1;
};

}  // namespace partdb

#endif  // PARTDB_COORD_COORDINATOR_ACTOR_H_
