// SimContext: the discrete-event ExecutionContext. Time is the simulator's
// virtual clock, messages travel over the modeled Network, and handler CPU
// charges schedule the actor's next dispatch as a future event. Runs are
// bit-for-bit deterministic for a given seed.
#ifndef PARTDB_SIM_SIM_CONTEXT_H_
#define PARTDB_SIM_SIM_CONTEXT_H_

#include "runtime/execution_context.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace partdb {

class SimContext : public ExecutionContext {
 public:
  SimContext(Simulator* sim, Network* net) : sim_(sim), net_(net) {}

  Time Now() const override { return sim_->Now(); }
  void Send(Message msg, Time depart) override { net_->Send(std::move(msg), depart); }
  void Post(Message msg) override;
  void Register(NodeId node, Actor* actor) override { net_->Register(node, actor); }
  void SetTimer(NodeId self, Time at, TimerFire t) override;
  void HandlerDone(Actor* actor, Time start, Duration charged) override;

 private:
  Simulator* sim_;
  Network* net_;
};

}  // namespace partdb

#endif  // PARTDB_SIM_SIM_CONTEXT_H_
