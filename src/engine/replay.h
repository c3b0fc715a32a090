// Re-execution of committed transactions. ReplayCommit is the one round loop
// over a CommitRecord: the serial-replay verifier below, crash recovery
// (durability/recovery.cc) and the backups (engine/replication.cc) all use it.
#ifndef PARTDB_ENGINE_REPLAY_H_
#define PARTDB_ENGINE_REPLAY_H_

#include <memory>
#include <vector>

#include "engine/engine.h"
#include "msg/message.h"

namespace partdb {

/// Re-executes one committed transaction on `engine`, without undo: each
/// round of its stored procedure in order, with that round's recorded input
/// (none past the end of `round_inputs`; a record without inputs still runs
/// round 0). `on_round(result, receipt)` runs after every round. Returns how
/// many rounds user-aborted: for a committed transaction that is a
/// divergence the caller reports.
template <typename OnRound>
int ReplayCommit(Engine& engine, const CommitRecord& rec, OnRound&& on_round) {
  const size_t rounds = rec.round_inputs.empty() ? 1 : rec.round_inputs.size();
  int aborted = 0;
  for (size_t r = 0; r < rounds; ++r) {
    WorkMeter m;
    const Payload* input = r < rec.round_inputs.size() ? rec.round_inputs[r].get() : nullptr;
    const ExecResult res = engine.Execute(*rec.args, static_cast<int>(r), input, nullptr, &m);
    if (res.aborted) ++aborted;
    on_round(res, m);
  }
  return aborted;
}

inline int ReplayCommit(Engine& engine, const CommitRecord& rec) {
  return ReplayCommit(engine, rec, [](const ExecResult&, const WorkMeter&) {});
}

/// Replays a partition's committed transactions serially, in commit order,
/// on a fresh engine built by `factory`, and returns the resulting state
/// hash. If the system is serializable this must match the live partition.
/// A committed transaction user-aborting on replay is itself a violation;
/// when `aborted_replays` is non-null the count is reported there.
inline uint64_t ReplayStateHash(const EngineFactory& factory, PartitionId pid,
                                const std::vector<CommitRecord>& log,
                                size_t* aborted_replays = nullptr) {
  std::unique_ptr<Engine> engine = factory(pid);
  size_t aborted = 0;
  for (const CommitRecord& rec : log) aborted += ReplayCommit(*engine, rec);
  if (aborted_replays != nullptr) *aborted_replays = aborted;
  return engine->StateHash();
}

}  // namespace partdb

#endif  // PARTDB_ENGINE_REPLAY_H_
