// ProcedureRegistry: the stored-procedure catalog of one Database instance
// (paper §3.1). Each named procedure bundles the client-library routing logic
// (arguments -> participating partitions / communication rounds) and the
// coordinator-side continuation for multi-round procedures (paper §3.3). The
// fragment logic itself lives in the Engine the DbOptions factory builds for
// each partition; the registry carries everything *around* the engine that
// the old Workload interface used to own — including per-procedure outcome
// metrics (committed/aborted counts, latency histograms) recorded by every
// session and surfaced through Database::ProcMetrics.
#ifndef PARTDB_DB_PROCEDURE_REGISTRY_H_
#define PARTDB_DB_PROCEDURE_REGISTRY_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "client/proc_metrics.h"
#include "client/routing.h"
#include "common/histogram.h"
#include "common/types.h"
#include "coord/txn_continuations.h"
#include "msg/payload.h"
#include "msg/wire.h"

namespace partdb {

/// Decodes one payload from its wire encoding. Returns null (and clears the
/// reader's ok()) on a malformed span.
using PayloadDecoder = std::function<PayloadPtr(WireReader& r)>;

struct ProcedureDescriptor {
  std::string name;

  /// args -> routing. Must be deterministic in the arguments (a retry after a
  /// deadlock abort re-routes identically).
  std::function<TxnRouting(const Payload& args)> route;

  /// Coordinator-side continuation: computes the input of `round` (>= 1)
  /// from the previous round's per-partition results. May be null for
  /// single-round procedures.
  std::function<PayloadPtr(const Payload& args, int round,
                           const std::vector<std::pair<PartitionId, PayloadPtr>>& prev)>
      round_input;

  /// Wire codecs: deserializers for the argument and result payload types
  /// (serialization is Payload::SerializeTo on the instances themselves).
  /// Both may be null for embedded-only procedures; the network tier
  /// CHECK-fails when serving a procedure without them (DbServer needs
  /// decode_args, a remote client needs decode_result).
  PayloadDecoder decode_args;
  PayloadDecoder decode_result;

  /// Decoder for coordinator-computed round inputs (multi-round procedures
  /// only). Command-log recovery replays every round from the logged inputs,
  /// so a multi-round procedure without this codec cannot be recovered.
  PayloadDecoder decode_round_input;

  /// Pooled-decode hooks (both optional, set together). `make_args` builds a
  /// default-constructed instance of the argument payload type;
  /// `decode_args_into` decodes into such an instance, overwriting every
  /// field — instances are recycled across transactions (net/PayloadArena),
  /// so a decoder that leaves stale state behind corrupts a later request.
  /// When unset, the net tier falls back to decode_args (one allocation per
  /// request).
  std::function<std::unique_ptr<Payload>()> make_args;
  std::function<bool(WireReader& r, Payload* into)> decode_args_into;
};

/// One procedure's measurement-window outcomes (Database::ProcMetrics).
struct ProcMetricsSnapshot {
  std::string name;
  uint64_t committed = 0;
  uint64_t user_aborts = 0;
  Histogram latency;  // ns, client observed, commits and user aborts alike
};

/// Name -> descriptor table shared by the coordinator and every session of a
/// Database. Sealed before traffic starts (Database::Open registers
/// DbOptions::procedures); afterwards descriptor lookups are concurrent
/// lock-free reads. Per-procedure outcomes are recorded into shards, each
/// written by one thread (a session worker) without a lock and merged on
/// read.
class ProcedureRegistry : public TxnContinuations {
 public:
  /// Registers `desc` and returns its id. Names must be unique and non-empty;
  /// `desc.route` must be set.
  ProcId Register(ProcedureDescriptor desc);

  /// Id for `name`, or kInvalidProc when not registered.
  ProcId Find(std::string_view name) const;

  const ProcedureDescriptor& Get(ProcId id) const;
  size_t size() const { return procs_.size(); }

  // TxnContinuations (called by the coordinator for rounds >= 1):
  PayloadPtr NextRoundInput(ProcId proc, const Payload& args, int round,
                            const std::vector<std::pair<PartitionId, PayloadPtr>>& prev) override;

  /// Adds an outcome shard covering every registered procedure and returns
  /// it as the sink for the sessions of one worker thread: its
  /// RecordProcOutcome must only ever run on that thread. Call after the
  /// last Register and before traffic starts.
  ProcMetricsSink* AddProcMetricsShard();

  /// Every procedure's window outcomes, merged over the shards, in
  /// registration order. Thread-safe.
  std::vector<ProcMetricsSnapshot> ProcMetrics() const;

  /// Zeroes the per-procedure outcome stats (Database::BeginMeasurement,
  /// while no session is recording).
  void ResetProcMetrics();

 private:
  struct ProcStats {
    std::atomic<uint64_t> committed{0};
    std::atomic<uint64_t> user_aborts{0};
    SingleWriterHistogram latency;
  };
  class Shard : public ProcMetricsSink {
   public:
    explicit Shard(size_t num_procs);
    void RecordProcOutcome(ProcId proc, bool committed, Duration latency_ns) override;
    std::vector<ProcStats> stats;  // indexed by ProcId
  };

  std::vector<ProcedureDescriptor> procs_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<std::string, ProcId> by_name_;
};

}  // namespace partdb

#endif  // PARTDB_DB_PROCEDURE_REGISTRY_H_
