#include "runtime/cluster.h"

#include <chrono>

#include "cc/scheme_registry.h"
#include "common/logging.h"

namespace partdb {

Metrics* Cluster::MetricsFor(NodeId node) {
  if (config_.mode == RunMode::kSimulated) return &metrics_;
  auto m = std::make_unique<Metrics>();
  Metrics* raw = m.get();
  actor_metrics_.emplace(node, std::move(m));
  return raw;
}

void Cluster::ForEachMeasuredActor(const std::function<void(Actor*, Metrics*)>& fn) {
  auto sink = [&](Actor* a) {
    auto it = actor_metrics_.find(a->node_id());
    fn(a, it == actor_metrics_.end() ? &metrics_ : it->second.get());
  };
  for (auto& p : partitions_) sink(p.get());
  sink(coordinator_.get());
  for (Actor* s : sessions_) sink(s);
}

Cluster::Cluster(const ClusterConfig& config, const EngineFactory& factory,
                 TxnContinuations* continuations)
    : config_(config), net_(&sim_, config.net), sim_exec_(&sim_, &net_) {
  PARTDB_CHECK(config_.num_partitions >= 1);
  PARTDB_CHECK(config_.num_sessions >= 1);
  PARTDB_CHECK(config_.replication >= 1);
  PARTDB_CHECK(continuations != nullptr);

  // Node layout: coordinator 0, primaries [1, 1+P), backups afterwards,
  // session slots last.
  const NodeId coord_node = 0;
  Topology& topo = topology_;
  topo.coordinator = coord_node;
  for (int p = 0; p < config_.num_partitions; ++p) {
    topo.partition_primary.push_back(coord_node + 1 + p);
  }

  const int num_backups = config_.num_partitions * (config_.replication - 1);
  const NodeId first_session_node = coord_node + 1 + config_.num_partitions + num_backups;
  for (int s = 0; s < config_.num_sessions; ++s) {
    session_nodes_.push_back(first_session_node + s);
  }
  if (config_.mode == RunMode::kParallel) {
    // Thread-per-partition (and per backup); the coordinator gets its own
    // worker; session ingress actors spread round-robin over their own
    // worker pool.
    const int P = config_.num_partitions;
    const int session_workers = config_.session_workers;
    PARTDB_CHECK(session_workers >= 1);
    parallel_ = std::make_unique<ParallelRuntime>(P + num_backups + 1 + session_workers);
    parallel_->set_affinity(config_.worker_affinity);
    const int coord_worker = P + num_backups;
    for (int p = 0; p < P; ++p) parallel_->MapNode(topo.partition_primary[p], p);
    for (int b = 0; b < num_backups; ++b) {
      parallel_->MapNode(coord_node + 1 + P + b, P + b);
    }
    parallel_->MapNode(coord_node, coord_worker);
    for (int s = 0; s < config_.num_sessions; ++s) {
      parallel_->MapNode(session_nodes_[s], coord_worker + 1 + session_worker(s));
    }
    exec_ = parallel_.get();
  } else {
    exec_ = &sim_exec_;
  }

  // Partitions.
  for (int p = 0; p < config_.num_partitions; ++p) {
    auto part = std::make_unique<PartitionActor>(
        "partition-" + std::to_string(p), p, factory(p), config_.cost,
        MetricsFor(topo.partition_primary[p]), config_.lock_timeout);
    SchemeOptions opts;
    opts.local_speculation_only = config_.local_speculation_only;
    opts.force_locks = config_.force_locks;
    part->InstallScheme(CcSchemeRegistry::Global().Make(config_.scheme, part.get(), opts));
    if (config_.log_commits) part->EnableCommitLog();
    part->Bind(exec_, topo.partition_primary[p]);
    partitions_.push_back(std::move(part));
  }

  // Backups.
  NodeId next_node = coord_node + 1 + config_.num_partitions;
  backups_.resize(config_.num_partitions);
  for (int p = 0; p < config_.num_partitions; ++p) {
    std::vector<NodeId> backup_nodes;
    for (int r = 1; r < config_.replication; ++r) {
      auto b = std::make_unique<BackupActor>(
          "backup-" + std::to_string(p) + "." + std::to_string(r), p, factory(p),
          config_.cost, config_.backups_execute);
      b->Bind(exec_, next_node);
      backup_nodes.push_back(next_node);
      ++next_node;
      backups_[p].push_back(std::move(b));
    }
    partitions_[p]->SetBackups(backup_nodes);
  }

  // Coordinator (used by blocking and speculation; locking sessions
  // self-coordinate, so it simply stays idle).
  coordinator_ = std::make_unique<CoordinatorActor>("coordinator", config_.cost,
                                                    MetricsFor(coord_node), continuations,
                                                    topo.partition_primary);
  coordinator_->Bind(exec_, coord_node);
}

Engine& Cluster::backup_engine(PartitionId p, int backup_index) {
  return backups_[p][backup_index]->engine();
}

NodeId Cluster::session_node(int i) const {
  PARTDB_CHECK(i >= 0 && static_cast<size_t>(i) < session_nodes_.size());
  return session_nodes_[i];
}

Metrics* Cluster::BindSession(int i, Actor* actor) {
  PARTDB_CHECK(!parallel_started_);
  const NodeId node = session_node(i);
  Metrics* sink = MetricsFor(node);
  actor->Bind(exec_, node);
  sessions_.push_back(actor);
  return sink;
}

void Cluster::Quiesce() {
  PARTDB_CHECK(config_.mode == RunMode::kSimulated);
  sim_.Run();
  for (auto& p : partitions_) {
    PARTDB_CHECK(p->cc().Idle());
  }
}

void Cluster::StartParallel() {
  PARTDB_CHECK(config_.mode == RunMode::kParallel);
  PARTDB_CHECK(!parallel_started_);
  PARTDB_CHECK(sessions_.size() == static_cast<size_t>(config_.num_sessions));
  parallel_started_ = true;
  parallel_->Start();
}

void Cluster::BeginWindow() {
  PARTDB_CHECK(parallel_started_);
  // Each actor's private metrics reset on its own worker thread, so no
  // cross-thread races on the counters.
  ForEachMeasuredActor([&](Actor* a, Metrics* m) {
    parallel_->RunOnOwner(a->node_id(), [a, m]() {
      m->Reset();
      m->recording = true;
      a->ResetBusy();
    });
  });
  window_start_ = parallel_->Now();
}

Metrics Cluster::EndWindow() {
  PARTDB_CHECK(parallel_started_);
  Metrics merged;
  Duration partition_busy = 0;
  Duration coord_busy = 0;
  ForEachMeasuredActor([&](Actor* a, Metrics* m) {
    // Copies are taken on the owning worker (RunOnOwner blocks until run),
    // so the merge below reads stable snapshots.
    parallel_->RunOnOwner(a->node_id(), [&, a, m]() {
      m->recording = false;
      merged.Merge(*m);
      const Duration busy = a->busy_ns();
      if (a == coordinator_.get()) {
        coord_busy += busy;
      } else {
        for (auto& p : partitions_) {
          if (a == p.get()) {
            partition_busy += busy;
            break;
          }
        }
      }
    });
  });
  window_end_ = parallel_->Now();
  merged.window_ns = window_end_ - window_start_;
  merged.num_partitions = config_.num_partitions;
  merged.partition_busy_ns = partition_busy;
  merged.coord_busy_ns = coord_busy;
  return merged;
}

Metrics Cluster::StopParallel() {
  PARTDB_CHECK(parallel_started_);
  // Drain: session traffic must have ceased before this is called (the db
  // layer waits for its sessions to drain); let in-flight work finish, join.
  const bool drained = parallel_->WaitQuiescent(std::chrono::seconds(30));
  parallel_->Stop();
  PARTDB_CHECK(drained);
  for (auto& p : partitions_) {
    PARTDB_CHECK(p->cc().Idle());
  }

  metrics_.Reset();
  for (auto& [node, m] : actor_metrics_) metrics_.Merge(*m);
  metrics_.window_ns = window_end_ - window_start_;
  metrics_.num_partitions = config_.num_partitions;
  for (auto& p : partitions_) metrics_.partition_busy_ns += p->busy_ns();
  metrics_.coord_busy_ns = coordinator_->busy_ns();
  return metrics_;
}

}  // namespace partdb
