// Outside-in spans. The benchmark times its own calls into each layer's
// public functions (Session::Submit, Engine::Execute, the procedure hooks)
// and records one span per call; nothing inside the program is traced.
//
// Recording appends to a buffer owned by the calling thread (no shared
// cache line, no lock after the thread's first span). Buffers live in a
// process-wide registry so they outlive the threads that filled them, and
// are collected once every recording thread has stopped.
//
// A child span is tied to its transaction after the run, by correlation key
// and time: the root span of a transaction (submit to completion) carries a
// key the benchmark computes from the transaction's arguments, and every
// layer span carries the key of the arguments it was called with. The child
// belongs to the root with the same key whose interval contains its start.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kTxn,          // root: Session::Submit entry to completion callback
  kSubmit,       // Session::Submit call (embedded or remote)
  kRoute,        // ProcedureDescriptor::route
  kRoundInput,   // ProcedureDescriptor::round_input
  kExec,         // Engine::Execute while serving
  kLockSet,      // Engine::LockSet
  kDecodeArgs,   // ProcedureDescriptor::decode_args[_into] (server)
  kDecodeResult, // ProcedureDescriptor::decode_result (client)
  kReplayExec,   // Engine::Execute during recovery replay
};

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t key = 0;   // correlation key (see file comment)
  uint64_t txn = 0;   // SubmitResult::txn_id (kSubmit; roots after Attach)
  int32_t parent = -1;  // index of the parent span after Attach; -1 = none
  uint32_t work = 0;    // kRoute: fragments the txn needs (participants x rounds)
  SpanName name = SpanName::kTxn;

  int64_t duration() const { return end_ns - start_ns; }
};

/// Monotonic clock shared by every span (steady_clock, ns).
int64_t NowNs();

/// Process-wide recording switch. Off by default; recording while off is a
/// no-op, so untraced runs pay one relaxed load per hook.
void SetTracing(bool on);
bool Tracing();

/// Appends a span to the calling thread's buffer (when tracing is on).
/// Buffers are bounded; spans past the bound are counted, not stored.
void RecordSpan(SpanName name, uint64_t key, int64_t start_ns, int64_t end_ns,
                uint64_t txn = 0, uint32_t work = 0);

/// Moves every thread's spans out (call only after all recording threads
/// stopped recording) and returns them; `dropped` gets the spans that did
/// not fit.
std::vector<Span> CollectSpans(uint64_t* dropped);

/// Ties every non-root span to its root (see file comment): sets `parent`
/// to the root's index and copies the root's txn id; spans with no matching
/// root keep parent -1. A root takes its txn id from its kSubmit child.
void Attach(std::vector<Span>& spans);

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals. Children may nest,
/// overlap each other, run on other threads, or stick out of the parent
/// (only the overlap counts).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
