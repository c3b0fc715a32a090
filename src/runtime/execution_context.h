// ExecutionContext: the services actors consume — clock, message transport,
// timers, and handler-completion scheduling — decoupled from any concrete
// runtime. Two implementations exist: SimContext (deterministic discrete-event
// simulation on one virtual clock) and ParallelRuntime (thread-per-partition
// workers on wall-clock time). The same actor and CcScheme code runs on both.
#ifndef PARTDB_RUNTIME_EXECUTION_CONTEXT_H_
#define PARTDB_RUNTIME_EXECUTION_CONTEXT_H_

#include "common/types.h"
#include "msg/message.h"

namespace partdb {

class Actor;

/// Routes messages between the nodes of one cluster instance. Delivery must
/// preserve per-(src,dst) FIFO order.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends msg.body from msg.src to msg.dst, departing at `depart`. The
  /// simulated transport models latency/bandwidth; the parallel transport
  /// ignores `depart` and enqueues immediately.
  virtual void Send(Message msg, Time depart) = 0;
};

class ExecutionContext : public Transport {
 public:
  /// Current time in nanoseconds: virtual in simulation, wall-clock (since
  /// runtime start) in parallel execution.
  virtual Time Now() const = 0;

  /// Registers `actor` as the endpoint for node `id`. Must be called before
  /// any traffic to that node (Actor::Bind does this).
  virtual void Register(NodeId node, Actor* actor) = 0;

  /// Delivers `msg` to msg.dst at Now(), bypassing the network (no latency
  /// or bandwidth model) — the ingress hop of a submission made outside the
  /// destination's handlers. Safe to call from any thread before and during
  /// a run; messages posted by one thread arrive in posting order.
  virtual void Post(Message msg) = 0;

  /// Delivers TimerFire `t` to node `self` at absolute time `at`, bypassing
  /// the network. Safe to call from any thread before and during a run.
  virtual void SetTimer(NodeId self, Time at, TimerFire t) = 0;

  /// Called by an actor when one OnMessage handler returns: the handler
  /// started at `start` and charged `charged` ns of CPU. The runtime must
  /// invoke actor->FinishHandler(done) once that CPU time has elapsed —
  /// at virtual time start+charged in simulation, immediately in parallel
  /// execution (where real elapsed time is the cost).
  virtual void HandlerDone(Actor* actor, Time start, Duration charged) = 0;
};

}  // namespace partdb

#endif  // PARTDB_RUNTIME_EXECUTION_CONTEXT_H_
