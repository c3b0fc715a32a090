#include "durability/command_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "durability/durability_manager.h"
#include "msg/wire.h"

namespace partdb {

namespace {

/// Full write with EINTR/short-write handling. CHECK-fails on a real error:
/// a command log that silently loses records is worse than a crash.
void WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      PARTDB_CHECK(errno == EINTR);
      continue;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
}

/// Bytes of the next dropped record written past the crash point, so a
/// simulated crash leaves exactly the torn tail a real one would.
constexpr size_t kTornPrefixBytes = 11;

}  // namespace

PartitionLog::PartitionLog(DurabilityManager* manager, Config config)
    : manager_(manager), config_(std::move(config)) {
  MutexLock lock(mu_);
  next_seq_ = config_.next_seq;
  durable_seq_ = config_.next_seq - 1;  // nothing pending from this incarnation
  segment_index_ = config_.next_segment;
  // Seeded ids were appended before recovery, so every participant's first
  // post-recovery rotate captures them: the first fully-successful checkpoint
  // round already covers them everywhere and may prune them.
  mp_old_ = config_.mp_history;
}

PartitionLog::~PartitionLog() { Shutdown(); }

std::string PartitionLog::SegmentPath(const std::string& dir, PartitionId p,
                                      uint64_t index) {
  return dir + "/p" + std::to_string(p) + "-" + std::to_string(index) + ".log";
}

std::string PartitionLog::CheckpointPath(const std::string& dir, PartitionId p,
                                         uint64_t index) {
  return dir + "/p" + std::to_string(p) + "-" + std::to_string(index) + ".ckpt";
}

void PartitionLog::SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  PARTDB_CHECK(fd >= 0);
  PARTDB_CHECK(::fsync(fd) == 0);
  PARTDB_CHECK(::close(fd) == 0);
}

void PartitionLog::OpenSegment() {
  LogSegmentHeader h;
  h.partition = config_.partition;
  h.num_partitions = config_.num_partitions;
  h.first_seq = next_seq_;
  h.procs = config_.procs;
  std::string bytes;
  EncodeLogSegmentHeader(h, &bytes);
  const std::string path = SegmentPath(config_.dir, config_.partition, segment_index_);
  fd_ = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  PARTDB_CHECK(fd_ >= 0);
  WriteAll(fd_, bytes.data(), bytes.size());
  PARTDB_CHECK(::fsync(fd_) == 0);
  // The new directory entry must be durable before any record in this
  // segment is acknowledged: without the directory sync a power loss could
  // drop the whole file, acked group-commit batches included.
  SyncDir(config_.dir);
}

void PartitionLog::Start() {
  {
    MutexLock lock(mu_);
    OpenSegment();
  }
  writer_ = std::thread([this] { WriterLoop(); });
}

uint64_t PartitionLog::Append(TxnId txn, bool multi_partition, ProcId proc,
                              const PayloadPtr& args,
                              std::span<const PayloadPtr> round_inputs) {
  LogRecord rec;
  rec.txn_id = txn;
  rec.multi_partition = multi_partition;
  rec.proc = proc;
  {
    WireWriter w(&rec.args);
    PARTDB_CHECK(args != nullptr);
    args->SerializeTo(w);
  }
  for (const PayloadPtr& in : round_inputs) {
    std::string bytes;
    if (in != nullptr) {
      WireWriter w(&bytes);
      in->SerializeTo(w);
    }
    rec.round_input_present.push_back(in != nullptr);
    rec.round_inputs.push_back(std::move(bytes));
  }
  // The sequence is assigned at enqueue time under the lock; only the owning
  // partition worker appends, so enqueue order is sequence order.
  MutexLock lock(mu_);
  rec.commit_seq = next_seq_++;
  if (multi_partition) mp_epoch_.push_back(txn);
  // The group-commit window runs from the batch's first append, even when
  // the writer is still busy with the previous batch.
  if (pending_recs_.empty() && config_.window > 0) {
    batch_opened_ = std::chrono::steady_clock::now();
  }
  const size_t before = pending_bytes_.size();
  EncodeLogRecord(rec, &pending_bytes_);
  pending_recs_.push_back(PendingRec{txn, rec.commit_seq,
                                     static_cast<uint32_t>(pending_bytes_.size() - before)});
  work_cv_.NotifyOne();
  return rec.commit_seq;
}

void PartitionLog::WriterLoop() {
  std::string batch_bytes;
  std::vector<PendingRec> batch_recs;
  std::vector<TxnId> durable_txns;
  mu_.Lock();
  while (true) {
    while (pending_recs_.empty() && !stop_) work_cv_.Wait(mu_);
    if (pending_recs_.empty() && stop_) break;
    // Group commit: the batch stays open for the window after its first
    // record, so concurrent commits share one fsync. Shutdown cuts the
    // window short.
    if (config_.window > 0 && !stop_) {
      const auto deadline = batch_opened_ + std::chrono::nanoseconds(config_.window);
      while (!stop_) {
        if (!work_cv_.WaitUntil(mu_, deadline)) break;
      }
    }
    batch_bytes.clear();
    batch_recs.clear();
    batch_bytes.swap(pending_bytes_);
    batch_recs.swap(pending_recs_);
    const bool dropped = crashed_;
    io_in_progress_ = true;
    const int fd = fd_;
    mu_.Unlock();

    uint64_t admitted = batch_recs.size();
    bool crash_now = false;
    uint64_t written_bytes = 0;
    if (!dropped) {
      admitted = manager_->AdmitRecords(batch_recs.size());
      crash_now = admitted < batch_recs.size();
      size_t n = 0;
      for (uint64_t i = 0; i < admitted; ++i) n += batch_recs[i].bytes;
      if (crash_now) {
        // Persist the admitted prefix plus a few bytes of the first dropped
        // record: the segment ends in exactly the torn tail a power cut
        // mid-write leaves behind.
        const size_t torn =
            std::min(kTornPrefixBytes, batch_bytes.size() - n);
        WriteAll(fd, batch_bytes.data(), n + torn);
      } else {
        WriteAll(fd, batch_bytes.data(), n);
      }
      PARTDB_CHECK(::fsync(fd) == 0);
      written_bytes = n;
      durable_txns.clear();
      for (uint64_t i = 0; i < admitted; ++i) durable_txns.push_back(batch_recs[i].txn);
    }

    mu_.Lock();
    io_in_progress_ = false;
    durable_seq_ = batch_recs.back().seq;  // dropped records count as settled
    if (crash_now) crashed_ = true;
    if (!dropped) {
      stats_.batches++;
      stats_.fsyncs++;
      stats_.records += admitted;
      stats_.bytes_logged += written_bytes;
    }
    flush_cv_.NotifyAll();
    mu_.Unlock();
    // Completion gating runs outside the log lock: MarkDurable takes the
    // manager's lock and may send wake messages.
    if (!dropped) {
      if (!durable_txns.empty()) manager_->OnRecordsDurable(durable_txns);
      if (crash_now) manager_->TriggerCrash();
    }
    mu_.Lock();
  }
  mu_.Unlock();
}

void PartitionLog::Flush() {
  MutexLock lock(mu_);
  const uint64_t target = next_seq_ - 1;
  while (durable_seq_ < target) flush_cv_.Wait(mu_);
}

void PartitionLog::CheckpointRotate(uint64_t* covered_seq, std::vector<TxnId>* mp_history,
                                    uint64_t* last_covered_segment) {
  MutexLock lock(mu_);
  // The owning partition is quiescent (we run inside its RunOn rendezvous),
  // so no new appends can arrive: draining the writer settles everything.
  while (!pending_recs_.empty() || io_in_progress_) flush_cv_.Wait(mu_);
  *covered_seq = next_seq_ - 1;
  mp_history->clear();
  mp_history->insert(mp_history->end(), mp_old_.begin(), mp_old_.end());
  mp_history->insert(mp_history->end(), mp_young_.begin(), mp_young_.end());
  mp_history->insert(mp_history->end(), mp_epoch_.begin(), mp_epoch_.end());
  mp_old_.insert(mp_old_.end(), mp_young_.begin(), mp_young_.end());
  mp_young_ = std::move(mp_epoch_);
  mp_epoch_.clear();
  *last_covered_segment = segment_index_;
  PARTDB_CHECK(::close(fd_) == 0);
  ++segment_index_;
  OpenSegment();
}

void PartitionLog::DropCoveredMpHistory() {
  MutexLock lock(mu_);
  mp_old_.clear();
}

void PartitionLog::Shutdown() {
  {
    MutexLock lock(mu_);
    if (stop_) return;
    stop_ = true;
    work_cv_.NotifyAll();
  }
  if (writer_.joinable()) writer_.join();
  MutexLock lock(mu_);
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

PartitionLogStats PartitionLog::GetStats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace partdb
