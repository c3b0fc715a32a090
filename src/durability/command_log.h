// PartitionLog: one partition's command log — an append path called on the
// partition's worker thread at commit time, and a dedicated log-writer thread
// that batches appends and pays the write+fsync off the critical path (group
// commit). Completion gating (holding client callbacks until the batch is
// durable) lives in DurabilityManager; this class reports batch durability to
// it and otherwise only moves bytes.
#ifndef PARTDB_DURABILITY_COMMAND_LOG_H_
#define PARTDB_DURABILITY_COMMAND_LOG_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/types.h"
#include "durability/log_format.h"
#include "msg/payload.h"

namespace partdb {

class DurabilityManager;

struct PartitionLogStats {
  uint64_t records = 0;
  uint64_t bytes_logged = 0;
  uint64_t batches = 0;
  uint64_t fsyncs = 0;
};

class PartitionLog {
 public:
  struct Config {
    std::string dir;
    PartitionId partition = -1;
    int num_partitions = 0;
    /// Group-commit window: after the first append of a batch the writer
    /// collects further appends for up to this long before fsyncing.
    Duration window = 0;
    /// Proc table written into every segment header.
    std::vector<LogProcEntry> procs;
    /// Where sequencing resumes after recovery (1 on a fresh log dir).
    uint64_t next_seq = 1;
    /// First segment index to create (recovery leaves old segments in place
    /// and appends to a fresh one, so torn tails never need repair in place).
    uint64_t next_segment = 0;
    /// Multi-partition txn ids already durable at this partition (seeded from
    /// the recovered checkpoint + log; checkpoints persist the list for the
    /// recovery completeness rule until every participant's checkpoint covers
    /// the ids — see DropCoveredMpHistory).
    std::vector<TxnId> mp_history;
  };

  PartitionLog(DurabilityManager* manager, Config config);
  ~PartitionLog();
  PartitionLog(const PartitionLog&) = delete;
  PartitionLog& operator=(const PartitionLog&) = delete;

  /// Opens the first segment and launches the writer thread.
  void Start();

  /// Serializes and enqueues one committed invocation. Called on the owning
  /// partition's worker thread only. Returns the assigned commit sequence.
  uint64_t Append(TxnId txn, bool multi_partition, ProcId proc, const PayloadPtr& args,
                  std::span<const PayloadPtr> round_inputs);

  /// Blocks until every record appended so far is durable (or dropped by
  /// crash injection — waiting on records a simulated crash discarded would
  /// hang forever).
  void Flush();

  /// Checkpoint support, called with the owning partition quiescent (inside
  /// the RunOn rendezvous, so no append can race): flushes, rotates to a
  /// fresh segment, and reports the sequence the checkpoint covers, the
  /// multi-partition history to persist in it, and the last segment index the
  /// checkpoint fully covers. Covered segments are NOT deleted here — the
  /// caller must first make the checkpoint image durable (write + fsync +
  /// rename + directory fsync), then unlink them; deleting first would lose
  /// acknowledged commits if the process died before the image landed.
  void CheckpointRotate(uint64_t* covered_seq, std::vector<TxnId>* mp_history,
                        uint64_t* last_covered_segment);

  /// Drops multi-partition history that every participant's checkpoint now
  /// covers. Call only after a checkpoint round in which EVERY partition
  /// rotated and got its image durable: ids captured by this log's
  /// second-most-recent rotate are then covered by every participant's
  /// latest checkpoint (an MP txn is appended at each participant before
  /// that participant's scheme reports Idle() again, so a full round of
  /// idle rendezvous rotates bounds the append skew to one round), and the
  /// evidence can never be needed by recovery again.
  void DropCoveredMpHistory();

  /// Final flush + writer join. Idempotent; the destructor calls it.
  void Shutdown();

  PartitionLogStats GetStats() const;
  PartitionId partition() const { return config_.partition; }

  /// Path of segment `index` for `partition` under `dir` (recovery scans
  /// with the same naming).
  static std::string SegmentPath(const std::string& dir, PartitionId p, uint64_t index);
  static std::string CheckpointPath(const std::string& dir, PartitionId p, uint64_t index);

  /// fsyncs the directory itself: fsync(file_fd) persists the bytes but not
  /// the directory entry, so a freshly created segment or a renamed
  /// checkpoint is not durable until its directory is synced too.
  static void SyncDir(const std::string& dir);

 private:
  void WriterLoop();
  void OpenSegment() PARTDB_REQUIRES(mu_);

  DurabilityManager* manager_;
  Config config_;

  mutable Mutex mu_;
  CondVar work_cv_;   // appends -> writer
  CondVar flush_cv_;  // writer -> Flush/rotate waiters
  /// One enqueued-but-not-yet-durable record (frame bytes live in
  /// pending_bytes_ at the matching offset).
  struct PendingRec {
    TxnId txn = kInvalidTxn;
    uint64_t seq = 0;
    uint32_t bytes = 0;  // framed size, for the crash-injection prefix split
  };

  std::string pending_bytes_ PARTDB_GUARDED_BY(mu_);
  std::vector<PendingRec> pending_recs_ PARTDB_GUARDED_BY(mu_);
  /// When the first of pending_recs_ was appended (group commit only).
  std::chrono::steady_clock::time_point batch_opened_ PARTDB_GUARDED_BY(mu_);
  uint64_t next_seq_ PARTDB_GUARDED_BY(mu_) = 1;
  uint64_t durable_seq_ PARTDB_GUARDED_BY(mu_) = 0;  // highest fsynced (or dropped) seq
  uint64_t segment_index_ PARTDB_GUARDED_BY(mu_) = 0;
  int fd_ PARTDB_GUARDED_BY(mu_) = -1;  // writer touches it only while io_in_progress_
  bool io_in_progress_ PARTDB_GUARDED_BY(mu_) = false;
  bool stop_ PARTDB_GUARDED_BY(mu_) = false;
  bool crashed_ PARTDB_GUARDED_BY(mu_) = false;  // crash injection tripped: drop writes
  /// Multi-partition ids by age, so the history stays bounded instead of
  /// growing for the lifetime of the log: epoch = appended since the last
  /// rotate; young = captured by the most recent rotate (a participant may
  /// have appended the same txn just after its own rotate in that round, so
  /// its evidence may not be checkpoint-covered everywhere yet); old =
  /// captured at least two rotates ago, freed by DropCoveredMpHistory once a
  /// fully-successful checkpoint round proves every participant covers them.
  /// Every rotate persists old + young + epoch into the checkpoint image.
  std::vector<TxnId> mp_epoch_ PARTDB_GUARDED_BY(mu_);
  std::vector<TxnId> mp_young_ PARTDB_GUARDED_BY(mu_);
  std::vector<TxnId> mp_old_ PARTDB_GUARDED_BY(mu_);
  PartitionLogStats stats_ PARTDB_GUARDED_BY(mu_);

  std::thread writer_;
};

}  // namespace partdb

#endif  // PARTDB_DURABILITY_COMMAND_LOG_H_
