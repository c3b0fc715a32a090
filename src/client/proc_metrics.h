// Per-procedure outcome recording: the client library reports each completed
// transaction's procedure, outcome, and latency to a sink. The db layer's
// ProcedureRegistry hands out the sinks (per-worker shards of per-proc
// committed/aborted counts and latency histograms, merged by
// Database::ProcMetrics); the interface lives in the client layer so
// SessionActor needs no dependency on the registry.
#ifndef PARTDB_CLIENT_PROC_METRICS_H_
#define PARTDB_CLIENT_PROC_METRICS_H_

#include "common/types.h"

namespace partdb {

class ProcMetricsSink {
 public:
  virtual ~ProcMetricsSink() = default;

  /// Called once per completed transaction (commit or user abort) that was
  /// submitted under a registered procedure id, on the recording session's
  /// worker thread (a sink serves the sessions of one worker).
  virtual void RecordProcOutcome(ProcId proc, bool committed, Duration latency_ns) = 0;
};

}  // namespace partdb

#endif  // PARTDB_CLIENT_PROC_METRICS_H_
