// Cluster: builds and runs one database instance — partitions with a chosen
// concurrency-control scheme, optional backups, the central coordinator, and
// the session ingress slots — and reports measurement-window metrics. The
// same cluster wiring runs on either execution context: the deterministic
// discrete-event simulator or the thread-per-partition parallel runtime on
// real threads and wall-clock time.
//
// This is the *internal* wiring layer with exactly one ingress path: session
// actors bound via BindSession. Applications (and every bench harness) embed
// the database through the `Database`/`Session` façade in src/db/, which
// builds a Cluster underneath and drives the lifecycle below; closed-loop
// load lives in db/closed_loop, open-loop load in db/load_driver.
#ifndef PARTDB_RUNTIME_CLUSTER_H_
#define PARTDB_RUNTIME_CLUSTER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cc/scheme_registry.h"
#include "client/routing.h"
#include "common/affinity.h"
#include "coord/coordinator_actor.h"
#include "engine/partition_actor.h"
#include "engine/replication.h"
#include "runtime/metrics.h"
#include "runtime/parallel_runtime.h"
#include "sim/network.h"
#include "sim/sim_context.h"
#include "sim/simulator.h"

namespace partdb {

/// How a cluster executes: on the virtual clock (deterministic, models the
/// paper's hardware) or on real threads at hardware speed.
enum class RunMode { kSimulated, kParallel };

struct ClusterConfig {
  /// Registered name of the concurrency-control scheme (CcSchemeRegistry);
  /// unknown names fail loudly at construction, listing the registered ones.
  std::string scheme = "speculation";
  RunMode mode = RunMode::kSimulated;
  int num_partitions = 2;
  /// Session ingress slots. Each slot is one externally-owned actor bound via
  /// BindSession before the run starts.
  int num_sessions = 1;
  /// Parallel-mode worker threads shared by the session ingress actors.
  int session_workers = 1;
  /// Total copies of each partition including the primary (k in §2.2).
  int replication = 1;
  /// Backups replay transactions for real (tests) vs. charging cost only.
  bool backups_execute = false;
  NetworkConfig net;
  CostModel cost;
  /// Distributed-deadlock timeout (paper §4.3). Real systems use tens to
  /// hundreds of milliseconds; 20 ms makes each distributed deadlock clearly
  /// expensive (the paper: timeouts "hurt throughput significantly").
  Duration lock_timeout = Micros(20000);
  /// Record per-partition commit logs (serializability tests).
  bool log_commits = false;
  /// Restrict speculation to local speculation (§4.2.1): multi-partition
  /// transactions are never speculated. Used by the fig. 10 "Local Spec"
  /// curves and the speculation ablation.
  bool local_speculation_only = false;
  /// Disable the locking scheme's no-lock fast path (§5.1 remark).
  bool force_locks = false;
  /// Parallel mode: pin worker threads (partitions, backups, coordinator,
  /// session workers — in that MapNode order) round-robin over the CPU list,
  /// or over all online CPUs when the list is empty. Advisory; failed pins
  /// show up in ParallelRuntime::Stats::pinned_workers.
  CpuAffinity worker_affinity;
};

class Cluster {
 public:
  /// `factory` creates the engine for each partition (primary and backups
  /// alike); `continuations` is the coordinator's continuation source for
  /// multi-round transactions (the db layer passes its ProcedureRegistry).
  Cluster(const ClusterConfig& config, const EngineFactory& factory,
          TxnContinuations* continuations);

  // Parallel lifecycle, piecewise (the db layer drives these). All require
  // mode == kParallel.

  /// Launches the worker threads. All BindSession calls must have happened
  /// before this.
  void StartParallel();
  /// Begins a measurement window: every actor's private metrics reset on its
  /// own worker thread, so there are no cross-thread races on the counters.
  void BeginWindow();
  /// Ends the window and returns the merged metrics snapshot, with the
  /// cluster still running (per-actor copies are taken on the owning workers).
  Metrics EndWindow();
  /// Drains in-flight work (session traffic must already have ceased), joins
  /// all workers, and returns the final merged metrics. Checks every
  /// partition's scheme reports Idle().
  Metrics StopParallel();

  /// Runs the simulator's event queue dry and checks every partition's
  /// scheme reports Idle(). Requires mode == kSimulated; session traffic
  /// must already have ceased (sessions resubmitting from completion
  /// callbacks keep the queue alive forever).
  void Quiesce();

  /// Binds `actor` as session ingress slot `i` (node session_node(i)) and
  /// returns the metrics sink the actor should record into. Must be called
  /// before StartParallel()/any simulated traffic.
  Metrics* BindSession(int i, Actor* actor);
  NodeId session_node(int i) const;
  /// Which session worker runs slot `i`: slots on one worker share its
  /// single-writer state (the db layer's per-worker ProcMetrics shard).
  int session_worker(int i) const { return i % config_.session_workers; }

  Simulator& sim() { return sim_; }
  Network& net() { return net_; }
  ExecutionContext& exec() { return *exec_; }
  ParallelRuntime* parallel_runtime() { return parallel_.get(); }
  Metrics& metrics() { return metrics_; }
  const ClusterConfig& config() const { return config_; }

  Engine& engine(PartitionId p) { return partitions_[p]->engine(); }
  PartitionActor& partition(PartitionId p) { return *partitions_[p]; }
  Engine& backup_engine(PartitionId p, int backup_index);
  CoordinatorActor* coordinator() { return coordinator_.get(); }
  const Topology& topology() const { return topology_; }
  const std::vector<CommitRecord>& commit_log(PartitionId p) const {
    return partitions_[p]->commit_log();
  }

 private:
  /// Per-actor metrics sink: the shared instance in simulation, a private
  /// instance per actor in parallel mode (merged after the run, so worker
  /// threads never contend on counters).
  Metrics* MetricsFor(NodeId node);
  /// Applies `fn` to every actor that records metrics, with its sink.
  void ForEachMeasuredActor(const std::function<void(Actor*, Metrics*)>& fn);

  ClusterConfig config_;
  Simulator sim_;
  Network net_;
  SimContext sim_exec_;
  std::unique_ptr<ParallelRuntime> parallel_;
  ExecutionContext* exec_ = nullptr;  // the bound context (sim or parallel)
  Metrics metrics_;
  std::unordered_map<NodeId, std::unique_ptr<Metrics>> actor_metrics_;
  Topology topology_;
  std::unique_ptr<CoordinatorActor> coordinator_;
  std::vector<std::unique_ptr<PartitionActor>> partitions_;
  std::vector<std::vector<std::unique_ptr<BackupActor>>> backups_;  // [partition][replica]
  std::vector<NodeId> session_nodes_;
  std::vector<Actor*> sessions_;  // bound session actors (externally owned)
  Time window_start_ = 0;
  Time window_end_ = 0;
  bool parallel_started_ = false;
};

}  // namespace partdb

#endif  // PARTDB_RUNTIME_CLUSTER_H_
