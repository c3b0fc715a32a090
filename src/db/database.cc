#include "db/database.h"

#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>

#include "common/logging.h"
#include "durability/log_format.h"

namespace partdb {

std::unique_ptr<Database> Database::Open(DbOptions options) {
  PARTDB_CHECK(options.engine_factory != nullptr);
  PARTDB_CHECK(options.max_sessions >= 1);
  PARTDB_CHECK(options.session_workers >= 1);
  return std::unique_ptr<Database>(new Database(std::move(options)));
}

Database::Database(DbOptions options) : options_(std::move(options)) {
  for (ProcedureDescriptor& d : options_.procedures) {
    registry_.Register(std::move(d));
  }
  options_.procedures.clear();

  if (const char* env = std::getenv("PARTDB_DURABILITY_CRASH_AFTER_N_COMMITS")) {
    options_.durability_crash_after_n_commits = std::strtoull(env, nullptr, 10);
  }
  if (options_.durability != DurabilityMode::kOff) {
    // Command logging runs real I/O threads; the simulator has no place for
    // them (and no real clock to batch against).
    PARTDB_CHECK(options_.mode == RunMode::kParallel);
    PARTDB_CHECK(!options_.log_dir.empty());
  }

  // Resolve the scheme name up front: an unknown name fails here, before any
  // cluster wiring, with the registered schemes listed.
  const CcSchemeCapabilities scheme_caps =
      CcSchemeRegistry::Global().Get(options_.scheme).caps;

  ClusterConfig cfg;
  cfg.scheme = options_.scheme;
  cfg.mode = options_.mode;
  cfg.num_partitions = options_.num_partitions;
  cfg.num_sessions = options_.max_sessions;
  cfg.session_workers = options_.session_workers;
  cfg.replication = options_.replication;
  cfg.backups_execute = options_.backups_execute;
  cfg.net = options_.net;
  cfg.cost = options_.cost;
  cfg.lock_timeout = options_.lock_timeout;
  cfg.log_commits = options_.log_commits;
  cfg.local_speculation_only = options_.local_speculation_only;
  cfg.force_locks = options_.force_locks;
  cfg.worker_affinity = options_.worker_affinity;
  cluster_ = std::make_unique<Cluster>(cfg, options_.engine_factory, &registry_);

  if (options_.durability != DurabilityMode::kOff) {
    std::filesystem::create_directories(options_.log_dir);
    // Recovery runs before any worker thread starts: the engines are only
    // touched by the replay pool.
    RecoveryOptions ro;
    ro.dir = options_.log_dir;
    ro.num_partitions = options_.num_partitions;
    ro.workers =
        options_.recovery_workers > 0 ? options_.recovery_workers : options_.num_partitions;
    ro.registry = &registry_;
    recovery_report_ =
        RecoverDatabase(ro, [this](PartitionId p) -> Engine& { return cluster_->engine(p); });
    if (!recovery_report_.ok) {
      std::fprintf(stderr, "partdb: recovery failed: %s\n", recovery_report_.error.c_str());
      PARTDB_CHECK(false);
    }

    DurabilityManager::Options mo;
    mo.mode = options_.durability;
    mo.dir = options_.log_dir;
    mo.num_partitions = options_.num_partitions;
    if (options_.durability == DurabilityMode::kGroupCommit) {
      mo.group_commit_window = Micros(options_.group_commit_window_us);
    }
    mo.crash_after_n_commits = options_.durability_crash_after_n_commits;
    mo.keep_truncated_segments = options_.keep_truncated_log_segments;
    for (ProcId id = 0; id < static_cast<ProcId>(registry_.size()); ++id) {
      mo.procs.push_back(LogProcEntry{id, registry_.Get(id).name});
    }
    durability_ = std::make_unique<DurabilityManager>(std::move(mo), recovery_report_.seeds);
    for (PartitionId p = 0; p < options_.num_partitions; ++p) {
      cluster_->partition(p).InstallDurabilityLog(durability_->log(p));
    }
  }

  ProcRouter router = [reg = &registry_](ProcId proc, const Payload& args) {
    return reg->Get(proc).route(args);
  };
  // One outcome shard per session worker, so each shard has one writer.
  std::vector<ProcMetricsSink*> proc_shards;
  for (int w = 0; w < options_.session_workers; ++w) {
    proc_shards.push_back(registry_.AddProcMetricsShard());
  }
  for (int i = 0; i < options_.max_sessions; ++i) {
    // Session slot i draws from client stream i (ClientStreamSeed), and
    // CreateSession hands slots out in ascending order, so a closed loop over
    // sessions replays the legacy bench clients' streams exactly.
    auto actor = std::make_unique<SessionActor>(
        "session-" + std::to_string(i), router, &registry_, cluster_->topology(),
        scheme_caps, options_.cost, ClientStreamSeed(options_.seed, i));
    actor->set_metrics(cluster_->BindSession(i, actor.get()));
    actor->set_proc_metrics(proc_shards[cluster_->session_worker(i)]);
    actor->set_max_inflight(options_.max_inflight_per_session);
    actor->set_durability(durability_.get());
    session_actors_.push_back(std::move(actor));
  }
  for (int i = options_.max_sessions - 1; i >= 0; --i) free_slots_.push_back(i);

  if (options_.mode == RunMode::kParallel) cluster_->StartParallel();
  if (durability_ != nullptr) durability_->Start(&cluster_->exec());
}

Database::~Database() { Close(); }

ProcId Database::proc(std::string_view name) const {
  const ProcId id = registry_.Find(name);
  PARTDB_CHECK(id != kInvalidProc);
  return id;
}

std::unique_ptr<Session> Database::CreateSession() {
  std::unique_ptr<Session> s = TryCreateSession();
  PARTDB_CHECK(s != nullptr);  // raise DbOptions::max_sessions
  return s;
}

std::unique_ptr<Session> Database::TryCreateSession() {
  MutexLock lock(mu_);
  PARTDB_CHECK(!closed_);
  if (free_slots_.empty()) return nullptr;
  const int slot = free_slots_.back();
  free_slots_.pop_back();
  return std::unique_ptr<Session>(new LocalSession(this, session_actors_[slot].get()));
}

void Database::ReleaseSession(SessionActor* actor) {
  MutexLock lock(mu_);
  for (size_t i = 0; i < session_actors_.size(); ++i) {
    if (session_actors_[i].get() == actor) {
      free_slots_.push_back(static_cast<int>(i));
      return;
    }
  }
  PARTDB_CHECK(false);  // not one of ours
}

void Database::BeginMeasurement() {
  registry_.ResetProcMetrics();
  if (options_.mode == RunMode::kParallel) {
    cluster_->BeginWindow();
    return;
  }
  Metrics& m = cluster_->metrics();
  m.Reset();
  m.recording = true;
  for (PartitionId p = 0; p < options_.num_partitions; ++p) {
    cluster_->partition(p).ResetBusy();
  }
  cluster_->coordinator()->ResetBusy();
  sim_window_start_ = cluster_->sim().Now();
}

Metrics Database::EndMeasurement() {
  if (options_.mode == RunMode::kParallel) return cluster_->EndWindow();
  Metrics& m = cluster_->metrics();
  m.recording = false;
  Metrics out = m;
  out.window_ns = cluster_->sim().Now() - sim_window_start_;
  out.num_partitions = options_.num_partitions;
  out.partition_busy_ns = 0;
  for (PartitionId p = 0; p < options_.num_partitions; ++p) {
    out.partition_busy_ns += cluster_->partition(p).busy_ns();
  }
  out.coord_busy_ns = cluster_->coordinator()->busy_ns();
  return out;
}

Database::DbStats Database::Stats() const {
  DbStats out;
  ParallelRuntime* rt = cluster_->parallel_runtime();
  if (rt != nullptr) out.runtime = rt->GetStats();
  if (durability_ != nullptr) out.durability = durability_->GetStats();
  return out;
}

bool Database::Checkpoint() {
  PARTDB_CHECK(durability_ != nullptr);  // requires DbOptions::durability
  PARTDB_CHECK(options_.mode == RunMode::kParallel);
  if (durability_->crashed()) return false;
  ParallelRuntime* rt = cluster_->parallel_runtime();
  bool all_ok = true;
  for (PartitionId p = 0; p < options_.num_partitions; ++p) {
    PartitionActor& pa = cluster_->partition(p);
    Engine& e = cluster_->engine(p);
    uint64_t covered = 0;
    uint64_t last_covered_segment = 0;
    std::vector<TxnId> mp;
    std::string state;
    bool part_ok = false;
    // The snapshot must land between transactions. Rendezvous on the owning
    // worker and bail out when the partition is mid-transaction; retry a few
    // times before giving up on this checkpoint attempt.
    for (int attempt = 0; attempt < 50 && !part_ok; ++attempt) {
      rt->RunOnOwner(cluster_->topology().partition_primary[p], [&] {
        if (!pa.cc().Idle()) return;
        PARTDB_CHECK(e.SupportsCheckpoint());
        state.clear();
        WireWriter w(&state);
        e.SerializeState(w);
        durability_->log(p)->CheckpointRotate(&covered, &mp, &last_covered_segment);
        part_ok = true;
      });
      if (!part_ok) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!part_ok) {
      all_ok = false;
      continue;
    }
    CheckpointImage img;
    img.partition = p;
    img.num_partitions = options_.num_partitions;
    img.covered_seq = covered;
    img.mp_committed = std::move(mp);
    img.engine_state = std::move(state);
    std::string bytes;
    EncodeCheckpoint(img, &bytes);
    // covered_seq as the file index keeps checkpoint names monotone; recovery
    // picks the highest index.
    const std::string path = PartitionLog::CheckpointPath(options_.log_dir, p, covered);
    const std::string tmp = path + ".tmp";
    {
      const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
      PARTDB_CHECK(fd >= 0);
      size_t off = 0;
      while (off < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        PARTDB_CHECK(n > 0);
        off += static_cast<size_t>(n);
      }
      PARTDB_CHECK(::fsync(fd) == 0);
      PARTDB_CHECK(::close(fd) == 0);
    }
    PARTDB_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0);
    PartitionLog::SyncDir(options_.log_dir);
    // Only now — with the new image durable, directory entry included — may
    // the covered segments and the older images go. Deleting before the
    // rename landed would strand a crash with neither the log nor the
    // checkpoint holding the acknowledged commits.
    if (!options_.keep_truncated_log_segments) {
      for (uint64_t i = 0; i <= last_covered_segment; ++i) {
        ::unlink(PartitionLog::SegmentPath(options_.log_dir, p, i).c_str());
      }
      const std::string prefix = "p" + std::to_string(p) + "-";
      for (const auto& entry : std::filesystem::directory_iterator(options_.log_dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind(prefix, 0) != 0 || entry.path().extension() != ".ckpt") continue;
        if (entry.path().string() != path) std::filesystem::remove(entry.path());
      }
    }
  }
  if (all_ok) {
    // Every partition rotated and has its new image durable: multi-partition
    // evidence captured two rotates ago is now checkpoint-covered at every
    // participant and can stop occupying memory and future checkpoints.
    for (PartitionId p = 0; p < options_.num_partitions; ++p) {
      durability_->log(p)->DropCoveredMpHistory();
    }
  }
  return all_ok;
}

void Database::AdvanceSim(Duration d) {
  PARTDB_CHECK(options_.mode == RunMode::kSimulated);
  cluster_->sim().RunUntil(cluster_->sim().Now() + d);
}

void Database::PumpSimUntil(const std::function<bool()>& done) {
  PARTDB_CHECK(options_.mode == RunMode::kSimulated);
  while (!done()) {
    PARTDB_CHECK(cluster_->sim().RunOne());  // empty queue: txn can never finish
  }
}

void Database::Close() {
  {
    MutexLock lock(mu_);
    if (closed_) return;
    closed_ = true;
  }
  if (options_.mode == RunMode::kParallel) {
    // Submissions have ceased (sessions drain on destruction; any still-open
    // session must be idle by now). Wait out stragglers, then join.
    for (auto& a : session_actors_) {
      PARTDB_CHECK(a->WaitDrained(std::chrono::seconds(30)));
    }
    cluster_->StopParallel();
    if (durability_ != nullptr) durability_->Shutdown();
    return;
  }
  // Simulated: run the event queue dry and verify quiescence.
  cluster_->Quiesce();
  for (auto& a : session_actors_) {
    PARTDB_CHECK(a->outstanding() == 0);
  }
}

}  // namespace partdb
