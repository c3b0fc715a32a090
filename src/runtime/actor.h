// Actor: a single-threaded process with one CPU. The actor processes one
// message at a time, and the CPU time charged by the handler determines when
// the next message starts; messages that arrive before then queue in an
// inbox (simulation only: a parallel worker runs each delivered message
// directly, because its handlers complete before the next delivery).
// Outbound messages depart at the instant they were produced. Actors are
// runtime-agnostic: the bound ExecutionContext decides whether time is
// virtual (discrete-event simulation) or wall-clock (thread-per-partition
// parallel execution).
#ifndef PARTDB_RUNTIME_ACTOR_H_
#define PARTDB_RUNTIME_ACTOR_H_

#include <deque>
#include <string>

#include "common/types.h"
#include "msg/message.h"
#include "runtime/execution_context.h"

namespace partdb {

class Actor;

/// Handler-side services: CPU charging, sending, timers. Valid only for the
/// duration of one OnMessage call.
class ActorContext {
 public:
  ActorContext(Actor* actor, Time start) : actor_(actor), start_(start) {}

  /// Time at which the currently-charged work completes.
  Time now() const { return start_ + charged_; }
  Time start() const { return start_; }

  /// Accrues CPU time; later Sends depart after this work.
  void Charge(Duration d) { charged_ += d; }
  Duration charged() const { return charged_; }

  /// Sends a message departing at now() (start + charged so far).
  void Send(NodeId dst, MessageBody body);

  /// Delivers a TimerFire to this actor `after` ns from now() (no network).
  void SetTimer(Duration after, TimerFire t);

 private:
  Actor* actor_;
  Time start_;
  Duration charged_ = 0;
};

class Actor {
 public:
  explicit Actor(std::string name) : name_(std::move(name)) {}
  virtual ~Actor() = default;
  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  /// Attaches the actor to an execution context. Must be called before any
  /// traffic.
  void Bind(ExecutionContext* exec, NodeId id) {
    exec_ = exec;
    node_ = id;
    exec->Register(id, this);
  }

  NodeId node_id() const { return node_; }
  const std::string& name() const { return name_; }
  ExecutionContext* exec() const { return exec_; }

  /// Runtime entry point: process now if idle, else queue. Must only be
  /// called by the thread that owns this actor (the simulator's event loop,
  /// or the actor's worker thread in parallel execution).
  void Deliver(Message msg);

  /// Runtime callback: the CPU time charged by the last handler has elapsed
  /// (see ExecutionContext::HandlerDone); runs the next queued message, if
  /// any, starting at `done`.
  void FinishHandler(Time done);

  /// Total CPU time consumed (for utilization reporting).
  Duration busy_ns() const { return busy_ns_; }
  void ResetBusy() { busy_ns_ = 0; }
  size_t inbox_depth() const { return inbox_.size(); }

 protected:
  /// Processes one message. Implementations charge CPU and send replies via
  /// `ctx`. Runs exactly once per delivered message, in delivery order.
  virtual void OnMessage(Message& msg, ActorContext& ctx) = 0;

 private:
  friend class ActorContext;
  void Run(Message& msg, Time at);

  std::string name_;
  ExecutionContext* exec_ = nullptr;
  NodeId node_ = kInvalidNode;
  std::deque<Message> inbox_;  // arrivals while busy_ (simulator only)
  bool busy_ = false;
  Duration busy_ns_ = 0;
};

}  // namespace partdb

#endif  // PARTDB_RUNTIME_ACTOR_H_
