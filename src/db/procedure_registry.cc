#include "db/procedure_registry.h"

#include "common/logging.h"

namespace partdb {

ProcId ProcedureRegistry::Register(ProcedureDescriptor desc) {
  PARTDB_CHECK(!desc.name.empty());
  PARTDB_CHECK(desc.route != nullptr);
  const ProcId id = static_cast<ProcId>(procs_.size());
  PARTDB_CHECK(by_name_.emplace(desc.name, id).second);  // unique names
  PARTDB_CHECK(shards_.empty());  // shards are sized to the sealed table
  procs_.push_back(std::move(desc));
  return id;
}

ProcId ProcedureRegistry::Find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kInvalidProc : it->second;
}

const ProcedureDescriptor& ProcedureRegistry::Get(ProcId id) const {
  PARTDB_CHECK(id >= 0 && static_cast<size_t>(id) < procs_.size());
  return procs_[id];
}

PayloadPtr ProcedureRegistry::NextRoundInput(
    ProcId proc, const Payload& args, int round,
    const std::vector<std::pair<PartitionId, PayloadPtr>>& prev) {
  const ProcedureDescriptor& d = Get(proc);
  PARTDB_CHECK(d.round_input != nullptr);  // multi-round proc needs a continuation
  return d.round_input(args, round, prev);
}

ProcedureRegistry::Shard::Shard(size_t num_procs) : stats(num_procs) {}

void ProcedureRegistry::Shard::RecordProcOutcome(ProcId proc, bool committed,
                                                 Duration latency_ns) {
  PARTDB_CHECK(proc >= 0 && static_cast<size_t>(proc) < stats.size());
  ProcStats& s = stats[proc];
  // Single writer: plain load + store, no read-modify-write.
  std::atomic<uint64_t>& n = committed ? s.committed : s.user_aborts;
  n.store(n.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  s.latency.Add(latency_ns);
}

ProcMetricsSink* ProcedureRegistry::AddProcMetricsShard() {
  shards_.push_back(std::make_unique<Shard>(procs_.size()));
  return shards_.back().get();
}

std::vector<ProcMetricsSnapshot> ProcedureRegistry::ProcMetrics() const {
  std::vector<ProcMetricsSnapshot> out(procs_.size());
  for (size_t i = 0; i < procs_.size(); ++i) {
    ProcMetricsSnapshot& snap = out[i];
    snap.name = procs_[i].name;
    for (const auto& shard : shards_) {
      const ProcStats& s = shard->stats[i];
      snap.committed += s.committed.load(std::memory_order_relaxed);
      snap.user_aborts += s.user_aborts.load(std::memory_order_relaxed);
      snap.latency.Merge(s.latency.Snapshot());
    }
  }
  return out;
}

void ProcedureRegistry::ResetProcMetrics() {
  for (auto& shard : shards_) {
    for (ProcStats& s : shard->stats) {
      s.committed.store(0, std::memory_order_relaxed);
      s.user_aborts.store(0, std::memory_order_relaxed);
      s.latency.Clear();
    }
  }
}

}  // namespace partdb
