#include "sim/sim_context.h"

#include "runtime/actor.h"

namespace partdb {

void SimContext::Post(Message msg) {
  Actor* a = net_->actor(msg.dst);
  sim_->Schedule(sim_->Now(), [a, m = std::move(msg)]() mutable { a->Deliver(std::move(m)); });
}

void SimContext::SetTimer(NodeId self, Time at, TimerFire t) {
  Actor* a = net_->actor(self);
  sim_->Schedule(at, [a, t]() {
    Message m;
    m.src = a->node_id();
    m.dst = a->node_id();
    m.body = t;
    a->Deliver(std::move(m));
  });
}

void SimContext::HandlerDone(Actor* actor, Time start, Duration charged) {
  const Time done = start + charged;
  sim_->Schedule(done, [actor, done]() { actor->FinishHandler(done); });
}

}  // namespace partdb
