// Forwarding wrappers of the hooks partdb already takes from its caller.
// They time calls into each layer from outside and record spans (trace.h);
// with tracing off they only forward, plus the client-side bookkeeping the
// end-to-end metrics need (submit-to-callback latency, completions,
// refusals), which is the benchmark acting as the client.
//
//  - TimedDbHandle / TimedSession: the DbHandle + Session pair handed to
//    RunClosedLoop.
//  - TimedEngineFactory: wraps every Engine the database builds.
//  - TimedProcedures: wraps route / round_input / decode_args[_into] /
//    decode_result of each ProcedureDescriptor.
#ifndef PERFBENCH_HOOKS_H_
#define PERFBENCH_HOOKS_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "db/db_handle.h"
#include "db/procedure_registry.h"
#include "engine/engine.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/// Correlation key of a transaction's arguments, identical for the client's
/// copy and the server's decoded copy of the same request (trace.h).
using KeyFn = std::function<uint64_t(const partdb::Payload& args)>;
/// Whether an invocation touches more than one partition.
using MpFn = std::function<bool(partdb::ProcId proc, const partdb::Payload& args)>;

/// What one logical client saw. Written by the client's completion thread
/// (one at a time: a session's callbacks are serialized), except the submit
/// counters, which the first submission writes from the thread that starts
/// the loop; read after RunClosedLoop has drained every session. The client
/// keeps exactly one transaction in flight (RunClosedLoop's contract), so
/// its pending submission needs no per-transaction allocation.
struct ClientRecord {
  std::atomic<uint64_t> submits{0};
  std::atomic<uint64_t> refused{0};
  uint64_t completed = 0;              // whole run
  uint64_t window_extra_attempts = 0;  // sum of (TxnResult::attempts - 1)
  std::vector<Completion> window;      // completions inside the measurement window
};

/// The DbHandle handed to RunClosedLoop. Sessions it creates time every
/// transaction from Submit entry to completion-callback entry. The
/// measurement window is the interval between the Begin/EndMeasurement
/// calls RunClosedLoop makes. `on_begin` runs before the inner
/// BeginMeasurement and `on_end` after the inner EndMeasurement (counter
/// snapshots).
class TimedDbHandle : public partdb::DbHandle {
 public:
  TimedDbHandle(partdb::DbHandle& inner, KeyFn key, MpFn is_mp)
      : inner_(inner), key_(std::move(key)), is_mp_(std::move(is_mp)) {}

  std::unique_ptr<partdb::Session> CreateSession() override;
  partdb::ProcId proc(std::string_view name) const override { return inner_.proc(name); }
  partdb::RunMode mode() const override { return inner_.mode(); }
  void BeginMeasurement() override;
  partdb::Metrics EndMeasurement() override;
  void AdvanceSim(partdb::Duration d) override { inner_.AdvanceSim(d); }

  std::function<void()> on_begin;
  std::function<void()> on_end;

  bool recording() const { return recording_.load(std::memory_order_acquire); }
  int64_t window_begin_ns() const { return window_begin_.load(std::memory_order_relaxed); }
  double window_seconds() const {
    return static_cast<double>(window_end_ - window_begin_ns()) / 1e9;
  }
  const std::deque<ClientRecord>& clients() const { return clients_; }
  const KeyFn& key() const { return key_; }
  const MpFn& is_mp() const { return is_mp_; }

 private:
  partdb::DbHandle& inner_;
  KeyFn key_;
  MpFn is_mp_;
  std::atomic<bool> recording_{false};
  std::atomic<int64_t> window_begin_{0};
  int64_t window_end_ = 0;
  std::mutex mu_;
  std::deque<ClientRecord> clients_;  // stable addresses; outlive the sessions
};

/// Wraps `factory` so every engine it builds is timed (spans kExec,
/// kReplayExec while `replaying` is set, kLockSet).
partdb::EngineFactory TimedEngineFactory(partdb::EngineFactory factory, KeyFn key,
                                         const std::atomic<bool>* replaying);

/// Copies of `procs` whose hooks are timed (kRoute, kRoundInput,
/// kDecodeArgs, and the client's decode_result, which the session wrapper
/// records as kDecodeResult under the transaction's key).
std::vector<partdb::ProcedureDescriptor> TimedProcedures(
    std::vector<partdb::ProcedureDescriptor> procs, KeyFn key);

}  // namespace perfbench

#endif  // PERFBENCH_HOOKS_H_
