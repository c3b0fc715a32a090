#include "runtime/actor.h"

#include "common/logging.h"

namespace partdb {

void ActorContext::Send(NodeId dst, MessageBody body) {
  Message m;
  m.src = actor_->node_id();
  m.dst = dst;
  m.body = std::move(body);
  actor_->exec()->Send(std::move(m), now());
}

void ActorContext::SetTimer(Duration after, TimerFire t) {
  actor_->exec()->SetTimer(actor_->node_id(), now() + after, t);
}

void Actor::Deliver(Message msg) {
  // Only the simulator delivers to a busy actor (its handler's charged CPU
  // time has not elapsed yet); a parallel worker always finds it idle.
  if (busy_) {
    inbox_.push_back(std::move(msg));
    return;
  }
  Run(msg, exec_->Now());
}

void Actor::Run(Message& msg, Time at) {
  busy_ = true;
  ActorContext ctx(this, at);
  OnMessage(msg, ctx);

  const Duration cost = ctx.charged();
  busy_ns_ += cost;
  exec_->HandlerDone(this, at, cost);
}

void Actor::FinishHandler(Time done) {
  busy_ = false;
  if (inbox_.empty()) return;
  Message msg = std::move(inbox_.front());
  inbox_.pop_front();
  Run(msg, done);
}

}  // namespace partdb
