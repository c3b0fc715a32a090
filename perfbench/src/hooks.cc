#include "hooks.h"

#include <algorithm>
#include <cstdint>
#include <utility>

namespace perfbench {

using partdb::Payload;
using partdb::PayloadPtr;
using partdb::ProcId;
using partdb::SubmitResult;
using partdb::TxnCallback;
using partdb::TxnResult;

namespace {

// decode_result runs on the client's loop thread right before the
// completion callback of the same transaction on that thread; the callback
// wrapper picks the interval up and records it under the txn's key.
thread_local int64_t t_decode_result_start = 0;
thread_local int64_t t_decode_result_end = 0;

/// One logical closed-loop client: exactly one transaction in flight, so
/// the pending submission's state lives in plain members.
class TimedSession : public partdb::Session {
 public:
  TimedSession(std::unique_ptr<partdb::Session> inner, TimedDbHandle* handle,
               ClientRecord* record)
      : handle_(handle), record_(record), inner_(std::move(inner)) {}

  SubmitResult Submit(ProcId proc, PayloadPtr args, TxnCallback cb) override {
    record_->submits.fetch_add(1, std::memory_order_relaxed);
    const bool tracing = Tracing();
    // Locals: once the inner Submit returns, the completion may already have
    // run and resubmitted, overwriting the pending_* members.
    const uint64_t key = tracing ? handle_->key()(*args) : 0;
    pending_key_ = key;
    pending_mp_ = handle_->is_mp()(proc, *args);
    pending_cb_ = std::move(cb);
    const int64_t start = NowNs();
    pending_start_ = start;
    const SubmitResult r =
        inner_->Submit(proc, std::move(args), [this](const TxnResult& res) { OnDone(res); });
    if (tracing) RecordSpan(SpanName::kSubmit, key, start, NowNs(), r.txn_id);
    if (!r.accepted) record_->refused.fetch_add(1, std::memory_order_relaxed);
    return r;
  }
  using Session::Submit;

  TxnResult Execute(ProcId proc, PayloadPtr args) override {
    return inner_->Execute(proc, std::move(args));
  }
  using Session::Execute;
  void Drain() override { inner_->Drain(); }
  uint64_t outstanding() const override { return inner_->outstanding(); }
  ProcId proc(std::string_view name) const override { return inner_->proc(name); }
  partdb::Rng& rng() override { return inner_->rng(); }

 private:
  void OnDone(const TxnResult& res) {
    const int64_t now = NowNs();
    ++record_->completed;
    if (handle_->recording()) {
      record_->window_extra_attempts += res.attempts - 1;
      const int64_t latency = std::min<int64_t>(now - pending_start_, UINT32_MAX);
      const int64_t at_us = std::max<int64_t>(0, now - handle_->window_begin_ns()) / 1000;
      record_->window.push_back(
          {static_cast<uint32_t>(at_us), static_cast<uint32_t>(latency), pending_mp_});
    }
    if (Tracing()) {
      if (t_decode_result_end != 0) {
        RecordSpan(SpanName::kDecodeResult, pending_key_, t_decode_result_start,
                   t_decode_result_end);
        t_decode_result_end = 0;
      }
      RecordSpan(SpanName::kTxn, pending_key_, pending_start_, now);
    }
    // The inner callback resubmits, which overwrites the pending state.
    TxnCallback cb = std::move(pending_cb_);
    if (cb) cb(res);
  }

  TimedDbHandle* handle_;
  ClientRecord* record_;
  TxnCallback pending_cb_;
  int64_t pending_start_ = 0;
  uint64_t pending_key_ = 0;
  bool pending_mp_ = false;
  // Last: its destructor drains, and a final callback reads the fields above.
  std::unique_ptr<partdb::Session> inner_;
};

class TimedEngine : public partdb::Engine {
 public:
  TimedEngine(std::unique_ptr<partdb::Engine> inner, const KeyFn* key,
              const std::atomic<bool>* replaying)
      : inner_(std::move(inner)), key_(key), replaying_(replaying) {}

  partdb::ExecResult Execute(const Payload& args, int round, const Payload* round_input,
                             partdb::UndoBuffer* undo, partdb::WorkMeter* meter) override {
    if (!Tracing()) return inner_->Execute(args, round, round_input, undo, meter);
    const bool replay = replaying_->load(std::memory_order_relaxed);
    const int64_t t0 = NowNs();
    partdb::ExecResult r = inner_->Execute(args, round, round_input, undo, meter);
    RecordSpan(replay ? SpanName::kReplayExec : SpanName::kExec, replay ? 0 : (*key_)(args), t0,
               NowNs());
    return r;
  }

  void LockSet(const Payload& args, int round,
               std::vector<partdb::LockRequest>* out) const override {
    if (!Tracing()) return inner_->LockSet(args, round, out);
    const int64_t t0 = NowNs();
    inner_->LockSet(args, round, out);
    RecordSpan(SpanName::kLockSet, (*key_)(args), t0, NowNs());
  }

  uint64_t StateHash() const override { return inner_->StateHash(); }
  bool SupportsCheckpoint() const override { return inner_->SupportsCheckpoint(); }
  void SerializeState(partdb::WireWriter& w) const override { inner_->SerializeState(w); }
  bool RestoreState(partdb::WireReader& r) override { return inner_->RestoreState(r); }

 private:
  std::unique_ptr<partdb::Engine> inner_;
  const KeyFn* key_;
  const std::atomic<bool>* replaying_;
};

}  // namespace

std::unique_ptr<partdb::Session> TimedDbHandle::CreateSession() {
  ClientRecord* record;
  {
    std::lock_guard<std::mutex> lock(mu_);
    record = &clients_.emplace_back();
  }
  // Room for a 10 s window of one client at ~10k txn/s without a copy on
  // the completion thread; untouched pages cost nothing.
  record->window.reserve(size_t{1} << 17);
  return std::make_unique<TimedSession>(inner_.CreateSession(), this, record);
}

void TimedDbHandle::BeginMeasurement() {
  if (on_begin) on_begin();
  window_begin_.store(NowNs(), std::memory_order_relaxed);
  recording_.store(true, std::memory_order_release);
  inner_.BeginMeasurement();
}

partdb::Metrics TimedDbHandle::EndMeasurement() {
  recording_.store(false, std::memory_order_relaxed);
  window_end_ = NowNs();
  partdb::Metrics m = inner_.EndMeasurement();
  if (on_end) on_end();
  return m;
}

partdb::EngineFactory TimedEngineFactory(partdb::EngineFactory factory, KeyFn key,
                                         const std::atomic<bool>* replaying) {
  auto shared_key = std::make_shared<KeyFn>(std::move(key));
  return [factory = std::move(factory), shared_key, replaying](partdb::PartitionId p) {
    // The engine points into the shared key, which the factory (kept in
    // DbOptions for the database's lifetime) keeps alive.
    return std::unique_ptr<partdb::Engine>(
        std::make_unique<TimedEngine>(factory(p), shared_key.get(), replaying));
  };
}

std::vector<partdb::ProcedureDescriptor> TimedProcedures(
    std::vector<partdb::ProcedureDescriptor> procs, KeyFn key) {
  for (auto& d : procs) {
    if (d.route) {
      d.route = [inner = std::move(d.route), key](const Payload& args) {
        if (!Tracing()) return inner(args);
        const int64_t t0 = NowNs();
        partdb::TxnRouting r = inner(args);
        RecordSpan(SpanName::kRoute, key(args), t0, NowNs(), /*txn=*/0,
                   static_cast<uint32_t>(r.participants.size()) * static_cast<uint32_t>(r.rounds));
        return r;
      };
    }
    if (d.round_input) {
      d.round_input = [inner = std::move(d.round_input), key](
                          const Payload& args, int round,
                          const std::vector<std::pair<partdb::PartitionId, PayloadPtr>>& prev) {
        if (!Tracing()) return inner(args, round, prev);
        const int64_t t0 = NowNs();
        PayloadPtr r = inner(args, round, prev);
        RecordSpan(SpanName::kRoundInput, key(args), t0, NowNs());
        return r;
      };
    }
    if (d.decode_args) {
      d.decode_args = [inner = std::move(d.decode_args), key](partdb::WireReader& r) {
        if (!Tracing()) return inner(r);
        const int64_t t0 = NowNs();
        PayloadPtr p = inner(r);
        const int64_t t1 = NowNs();
        if (p != nullptr) RecordSpan(SpanName::kDecodeArgs, key(*p), t0, t1);
        return p;
      };
    }
    if (d.decode_args_into) {
      d.decode_args_into = [inner = std::move(d.decode_args_into), key](partdb::WireReader& r,
                                                                        Payload* into) {
        if (!Tracing()) return inner(r, into);
        const int64_t t0 = NowNs();
        const bool ok = inner(r, into);
        const int64_t t1 = NowNs();
        if (ok) RecordSpan(SpanName::kDecodeArgs, key(*into), t0, t1);
        return ok;
      };
    }
    if (d.decode_result) {
      d.decode_result = [inner = std::move(d.decode_result)](partdb::WireReader& r) {
        if (!Tracing()) return inner(r);
        t_decode_result_start = NowNs();
        PayloadPtr p = inner(r);
        t_decode_result_end = NowNs();
        return p;
      };
    }
  }
  return procs;
}

}  // namespace perfbench
