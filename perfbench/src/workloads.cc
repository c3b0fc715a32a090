// The four workloads and the metrics computed from their windows. README.md
// says why each workload exists and which layer metric should move which
// end-to-end metric.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "bench.h"
#include "bench/bench_util.h"
#include "common/affinity.h"
#include "db/closed_loop.h"
#include "db/database.h"
#include "hooks.h"
#include "kv/kv_engine.h"
#include "kv/kv_procedures.h"
#include "net/db_server.h"
#include "net/remote_db.h"
#include "stats.h"
#include "tpcc/tpcc_consistency.h"
#include "tpcc/tpcc_engine.h"
#include "tpcc/tpcc_procedures.h"
#include "trace.h"

namespace perfbench {

namespace {

using namespace partdb;

constexpr double kWarmupSeconds = 0.3;
constexpr double kVerifySeconds = 0.2;
// Set-up is timed this many times per run; setup_s is the median.
constexpr int kSetupReps = 7;
// kv_closed: share of the window the headline scheme gets; the other
// schemes split the rest.
constexpr double kHeadlineShare = 0.5;
constexpr int kMaxBusyThreads = 4;
// A window the host stalled for is extended in steps of this length.
constexpr double kExtensionSeconds = 1.0;
// Traced windows are capped: a few seconds give every per-layer figure
// enough samples, and span memory grows with the window.
constexpr double kMaxTracedSeconds = 2.0;

struct Workload {
  bool tpcc = false;
  KvWorkloadOptions kv;
  tpcc::TpccWorkloadConfig tp;
  int clients = 0;
  int partitions = 0;
  std::vector<std::string> schemes = {"speculation"};  // [0] is the headline
  DurabilityMode durability = DurabilityMode::kOff;
  bool remote = false;
};

Workload MakeWorkload(const std::string& name) {
  Workload w;
  if (name == "tpcc_closed") {
    w.tpcc = true;
    w.tp.scale.num_warehouses = 4;
    w.tp.scale.num_partitions = 2;
    w.clients = 16;
    w.partitions = 2;
    return w;
  }
  // KV microbenchmark, paper 5.1 mix: 12 keys per txn, 6+6 when multi-partition.
  w.kv.keys_per_txn = 12;
  if (name == "kv_closed") {
    w.kv.num_partitions = 2;
    w.kv.num_clients = 64;
    w.kv.mp_fraction = 0.1;
    w.kv.read_only_fraction = 0.5;
    w.schemes = {"speculation", "blocking", "locking", "occ", "mvcc"};
  } else if (name == "kv_group_commit") {
    w.kv.num_partitions = 2;
    w.kv.num_clients = 128;
    w.kv.mp_fraction = 0.1;
    w.kv.read_only_fraction = 0.0;
    w.durability = DurabilityMode::kGroupCommit;
  } else if (name == "kv_remote") {
    w.kv.num_partitions = 1;
    w.kv.num_clients = 64;
    w.kv.mp_fraction = 0.0;
    w.kv.read_only_fraction = 0.5;
    w.remote = true;
  }
  w.clients = w.kv.num_clients;
  w.partitions = w.kv.num_partitions;
  return w;
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

// Embedded runs hand the same args object to every layer: its address is
// the key. Over TCP the server decodes a copy, so the key is the content;
// a KV request's first key per partition names its client, and a client
// has one request in flight.
uint64_t AddressKey(const Payload& p) { return reinterpret_cast<uintptr_t>(&p); }
uint64_t KvContentKey(const Payload& p) {
  const auto& a = PayloadCast<KvArgs>(p);
  uint64_t h = Mix(static_cast<uint64_t>(a.read_only) | static_cast<uint64_t>(a.rounds) << 1);
  for (size_t i = 0; i < a.keys.size(); ++i) {
    if (!a.keys[i].empty()) h = Mix(h ^ (a.keys[i].front().Hash() + i));
  }
  return h;
}

MpFn MakeMpFn(const Workload& w) {
  if (w.tpcc) {
    return [scale = w.tp.scale](ProcId, const Payload& args) {
      return tpcc::RouteTpcc(scale, args).participants.size() > 1;
    };
  }
  return [](ProcId, const Payload& args) {
    const auto& a = PayloadCast<KvArgs>(args);
    int parts = 0;
    for (const auto& k : a.keys) parts += k.empty() ? 0 : 1;
    return parts > 1 || a.rounds > 1;
  };
}

DbOptions BuildOptions(const Workload& w, const std::string& scheme, uint64_t seed) {
  DbOptions o = w.tpcc ? tpcc::TpccDbOptions(w.tp.scale, scheme, RunMode::kParallel, w.clients,
                                             seed)
                       : KvDbOptions(w.kv, scheme, RunMode::kParallel, seed);
  o.session_workers = 1;
  o.max_sessions = w.clients;
  o.worker_affinity.pin = true;
  o.durability = w.durability;
  return o;
}

int Cpu(int i) { return i % std::max(1, OnlineCpuCount()); }

struct Deployment {
  std::unique_ptr<Database> db;
  std::unique_ptr<DbServer> server;
  std::unique_ptr<RemoteDatabase> remote;

  DbHandle& handle() { return remote ? static_cast<DbHandle&>(*remote) : *db; }
  /// Stops serving and closes the database; the engines stay readable.
  void Close() {
    remote.reset();
    if (server) server->Stop();
    server.reset();
    if (db) db->Close();
  }
  /// Destroys client, server and database in that order. Use this, not
  /// assignment, to drop a deployment: member-wise assignment would destroy
  /// the database while the server's threads still use it.
  void Reset() {
    remote.reset();
    server.reset();
    db.reset();
  }
};

/// Opens `o` (traced: with timed engines and procedure hooks), and for the
/// remote workload serves it on loopback and connects one multiplexed
/// client. Thread layout: workers pinned round-robin from CPU 0 (partitions,
/// coordinator, session worker); the server loop on the last CPU; the client
/// loop beside the coordinator, which a 1-partition workload leaves idle.
Deployment Deploy(const Workload& w, DbOptions o, bool traced, const KeyFn& key,
                  const std::atomic<bool>* replaying) {
  std::vector<ProcedureDescriptor> client_procs = o.procedures;
  if (traced) {
    o.engine_factory = TimedEngineFactory(o.engine_factory, key, replaying);
    o.procedures = TimedProcedures(std::move(o.procedures), key);
    client_procs = TimedProcedures(std::move(client_procs), key);
  }
  Deployment d;
  d.db = Database::Open(std::move(o));
  if (w.remote) {
    DbServerOptions so;
    so.num_loops = 1;
    so.loop_affinity.cpus = {Cpu(kMaxBusyThreads - 1)};
    d.server = std::make_unique<DbServer>(d.db.get(), so);
    ConnectOptions co;
    co.procedures = std::move(client_procs);
    co.seed = d.db->options().seed;
    co.sessions_per_conn = 0;  // every session on one connection
    co.loop_cpu = Cpu(w.partitions);
    d.remote = Connect("127.0.0.1", d.server->port(), std::move(co));
  }
  return d;
}

/// Host CPU steal per slice of a window: time the hypervisor gave this VM's
/// vCPUs to other guests, read from /proc/stat at every slice boundary by a
/// thread that sleeps in between. On a shared host, steal comes in bursts of
/// seconds that cut throughput by up to 3x.
class StealSampler {
 public:
  StealSampler() : thread_([this] { Loop(); }) {}
  ~StealSampler() { Stop(); }
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Steal during slice i as a share of the host's CPU capacity; -1 when
  /// unknown (no /proc/stat, or the slice ended after Stop).
  std::vector<double> PerSlice() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    const double capacity = 100.0 * kSliceSeconds * std::max(1, OnlineCpuCount());  // jiffies
    for (size_t i = 0; i + 1 < ticks_.size(); ++i) {
      const bool known = ticks_[i] >= 0 && ticks_[i + 1] >= 0;
      out.push_back(known ? static_cast<double>(ticks_[i + 1] - ticks_[i]) / capacity : -1);
    }
    return out;
  }

 private:
  /// Cumulative steal of all CPUs in USER_HZ (1/100 s) ticks; -1 if unreadable.
  static int64_t ReadSteal() {
    std::ifstream f("/proc/stat");
    std::string cpu;
    int64_t v[8] = {};
    if (!(f >> cpu) || cpu != "cpu") return -1;
    for (int64_t& x : v) {
      if (!(f >> x)) return -1;
    }
    return v[7];
  }

  void Loop() {
    const auto start = std::chrono::steady_clock::now();
    const auto slice = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(kSliceSeconds));
    std::unique_lock<std::mutex> lock(mu_);
    for (int k = 1;; ++k) {
      lock.unlock();
      const int64_t steal = ReadSteal();
      lock.lock();
      ticks_.push_back(steal);
      if (cv_.wait_until(lock, start + k * slice, [this] { return stop_; })) return;
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<int64_t> ticks_;
  std::thread thread_;  // last: runs Loop, which uses the members above
};

/// One closed-loop measurement window and everything read around it.
struct Window {
  std::string scheme;
  double seconds = 0;
  uint64_t submits = 0, refused = 0, completed = 0;
  uint64_t window_completed = 0;  // all measured windows
  uint64_t first_completed = 0;   // the first window (the counters' base)
  uint64_t extra_attempts = 0;    // first window
  ClientView view;
  Metrics m;
  Database::DbStats s0, s1;
  DbServerStats v0, v1;
  EventLoopStats c0, c1;
  std::vector<ProcMetricsSnapshot> procs;
  std::vector<Span> spans;
  uint64_t dropped_spans = 0;
  int workers = 0, pinned = 0, busy_threads = 0;
  size_t tcp_conns = 0;

  double tps() const { return view.tps; }
  uint64_t accepted() const { return submits - refused; }
  /// Refused submissions plus accepted ones that never completed.
  uint64_t failed() const { return refused + (accepted() - std::min(accepted(), completed)); }
};

/// Runs the closed loop for `measure_s` and reads everything around it.
/// While fewer than half the window's slices are clean (the host stole CPU
/// for much of it), measures kExtensionSeconds more at a time, up to
/// `extend_s` in all; the counters and spans are those of the first window.
Window RunWindow(const Workload& w, Deployment& d, const std::string& scheme, uint64_t seed,
                 double measure_s, double extend_s, bool traced, const KeyFn& key,
                 const MpFn& is_mp) {
  Window win;
  win.scheme = scheme;
  std::vector<Slice> slices;
  auto run = [&](double seconds, bool first) {
    TimedDbHandle h(d.handle(), key, is_mp);
    std::unique_ptr<StealSampler> steal;
    h.on_begin = [&] {
      steal = std::make_unique<StealSampler>();
      if (!first) return;
      win.s0 = d.db->Stats();
      if (d.server) {
        win.v0 = d.server->Stats();
        win.c0 = d.remote->IoStats();
      }
      SetTracing(traced);
    };
    h.on_end = [&] {
      steal->Stop();
      if (!first) return;
      SetTracing(false);
      win.s1 = d.db->Stats();
      if (d.server) {
        win.v1 = d.server->Stats();
        win.c1 = d.remote->IoStats();
        win.tcp_conns = d.remote->conn_count();
      }
    };
    ClosedLoopOptions loop;
    loop.num_clients = w.clients;
    loop.seed = first ? seed : Mix(seed + slices.size());
    loop.next = w.tpcc ? tpcc::TpccInvocations(w.tp, h) : KvInvocations(w.kv, h);
    loop.warmup = static_cast<Duration>(kWarmupSeconds * 1e9);
    loop.measure = static_cast<Duration>(seconds * 1e9);
    const Metrics m = RunClosedLoop(h, loop);
    std::vector<Completion> samples;
    for (const ClientRecord& c : h.clients()) {
      win.submits += c.submits.load();
      win.refused += c.refused.load();
      win.completed += c.completed;
      win.window_completed += c.window.size();
      win.extra_attempts += first ? c.window_extra_attempts : 0;
      samples.insert(samples.end(), c.window.begin(), c.window.end());
    }
    const std::vector<Slice> more = Slices(samples, h.window_seconds(), steal->PerSlice());
    slices.insert(slices.end(), more.begin(), more.end());
    if (!first) return;
    win.m = m;
    win.procs = d.db->ProcMetrics();
    win.seconds = h.window_seconds();
    win.first_completed = win.window_completed;
  };
  run(measure_s, true);
  const size_t wanted = std::max<size_t>(3, slices.size() / 2);
  for (double extra = kExtensionSeconds; extra <= extend_s + 1e-9; extra += kExtensionSeconds) {
    if (static_cast<size_t>(std::count_if(slices.begin(), slices.end(), Clean)) >= wanted) break;
    run(kExtensionSeconds, false);
  }
  win.view = Summarize(slices);
  if (traced) {
    win.spans = CollectSpans(&win.dropped_spans);
    Attach(win.spans);
  }
  win.workers = win.s1.runtime.num_workers;
  win.pinned = win.s1.runtime.pinned_workers;
  // The coordinator does no work when no transaction needs it (a
  // 1-partition workload, or locking's client-run 2PC).
  const bool coord_idle = win.m.coord_busy_ns == 0;
  const int loops = d.server ? d.server->num_loops() + 1 : 0;  // server + client
  win.busy_threads = win.workers - (coord_idle ? 1 : 0) + loops;
  return win;
}

/// Writes "<phase> <attempted>" for the watchdog, which reports the last
/// phase a killed run reached.
class Progress {
 public:
  explicit Progress(std::string path) : path_(std::move(path)) {}
  void Phase(const std::string& phase, uint64_t attempted) {
    std::printf("phase %s\n", phase.c_str());
    std::fflush(stdout);
    if (path_.empty()) return;
    std::ofstream(path_, std::ios::trunc) << phase << " " << attempted << "\n";
  }

 private:
  std::string path_;
};

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }
double D(uint64_t v) { return static_cast<double>(v); }
double Us(double ns) { return ns / 1000.0; }

/// Runs the logged short pass and the checks that need the commit log.
bool VerifyPass(const Workload& w, const std::string& scheme, uint64_t seed,
                const std::string& log_dir, const KeyFn& key, const MpFn& is_mp,
                RunResult* r) {
  DbOptions o = BuildOptions(w, scheme, seed);
  o.log_commits = true;
  if (w.durability != DurabilityMode::kOff) {
    std::filesystem::remove_all(log_dir);
    o.log_dir = log_dir;
  }
  Deployment d = Deploy(w, std::move(o), false, key, nullptr);
  const Window win =
      RunWindow(w, d, scheme, seed ^ 0x5eedull, kVerifySeconds, 0, false, key, is_mp);
  d.Close();
  // The pass is short: an fsync stall can leave its window empty, so only
  // completions over the whole pass are required.
  bool ok = win.failed() == 0 && win.completed > 0;
  if (!ok) {
    r->problems.push_back("verification run under " + scheme + ": " +
                          std::to_string(win.failed()) + " failed, " +
                          std::to_string(win.completed) + " completed");
  }
  ok = VerifyReplay(d.db->cluster(), d.db->options().engine_factory, scheme.c_str()) && ok;
  if (w.tpcc) {
    std::vector<const tpcc::TpccDb*> dbs;
    for (PartitionId p = 0; p < w.partitions; ++p) {
      dbs.push_back(&static_cast<tpcc::TpccEngine&>(d.db->cluster().engine(p)).db());
    }
    const auto violations = tpcc::CheckConsistency(dbs);
    for (const auto& v : violations) r->problems.push_back("tpcc consistency: " + v);
    ok = ok && violations.empty();
  }
  d.Reset();
  if (w.durability != DurabilityMode::kOff) std::filesystem::remove_all(log_dir);
  if (!ok) r->problems.push_back("verification pass failed under " + scheme);
  return ok;
}

struct Reopen {
  double seconds = 0;
  RecoveryReport report;
  std::vector<Span> spans;
  uint64_t dropped_spans = 0;
};

/// Closes `d` cleanly, reopens its log directory (recovery replays the
/// whole log) and checks the recovered state against the closed one.
Reopen CloseAndReopen(const Workload& w, Deployment& d, const DbOptions& o, bool traced,
                      const KeyFn& key, std::atomic<bool>* replaying, RunResult* r) {
  d.Close();
  std::vector<uint64_t> before;
  for (PartitionId p = 0; p < w.partitions; ++p) {
    before.push_back(d.db->cluster().engine(p).StateHash());
  }
  d.Reset();

  Reopen out;
  replaying->store(true);
  SetTracing(traced);
  const int64_t t0 = NowNs();
  Deployment re = Deploy(w, o, traced, key, replaying);
  out.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  SetTracing(false);
  replaying->store(false);
  if (traced) out.spans = CollectSpans(&out.dropped_spans);
  out.report = re.db->recovery_report();
  re.Close();
  bool ok = out.report.ok && out.report.replay_aborts == 0 && out.report.replayed > 0;
  for (PartitionId p = 0; p < w.partitions; ++p) {
    if (re.db->cluster().engine(p).StateHash() != before[p]) {
      r->problems.push_back("partition " + std::to_string(p) + " state differs after reopen");
      ok = false;
    }
  }
  if (!ok) {
    r->problems.push_back("recovery check failed: ok=" + std::to_string(out.report.ok) +
                          " replay_aborts=" + std::to_string(out.report.replay_aborts) +
                          " replayed=" + std::to_string(out.report.replayed) + " " +
                          out.report.error);
  }
  return out;
}

/// Per-transaction facts gathered from the spans attached to each root.
struct TxnSpans {
  int64_t submit_end = 0;
  int64_t first_exec = 0;
  uint64_t execs = 0;
  uint32_t needed = 0;  // fragments, from the first route call
  bool submitted = false;
};

class SpanReport {
 public:
  explicit SpanReport(const std::vector<Span>& spans) {
    std::vector<int32_t> slot(spans.size(), -1);  // root span -> index in txns
    std::vector<TxnSpans> txns;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != SpanName::kTxn) continue;
      slot[i] = static_cast<int32_t>(txns.size());
      txns.emplace_back();
    }
    for (const Span& s : spans) {
      durations_[s.name].push_back(s.duration());
      busy_ns_[s.name] += static_cast<double>(s.duration());
      if (s.parent < 0) continue;
      TxnSpans& t = txns[slot[s.parent]];
      switch (s.name) {
        case SpanName::kSubmit:
          t.submitted = true;
          t.submit_end = s.end_ns;
          break;
        case SpanName::kExec:
          ++t.execs;
          if (t.first_exec == 0 || s.start_ns < t.first_exec) t.first_exec = s.start_ns;
          break;
        case SpanName::kRoute:
          if (t.needed == 0) t.needed = s.work;
          break;
        default:
          break;
      }
    }
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      if (slot[i] < 0) continue;
      const TxnSpans& t = txns[slot[i]];
      // Only transactions submitted inside the traced window are whole.
      if (!t.submitted) continue;
      unattributed_.push_back(self[i]);
      if (t.first_exec != 0) ingress_wait_.push_back(t.first_exec - t.submit_end);
      if (t.needed != 0) {
        needed_ += t.needed;
        execs_ += t.execs;
      }
    }
  }

  /// Percentile `q` (capped at what the count supports) of the durations.
  double P(SpanName n, double q) {
    std::vector<int64_t>& v = durations_[n];
    return Us(Quantile(v, SupportedPercentile(q, v.size())));
  }
  double BusyNs(SpanName n) const {
    auto it = busy_ns_.find(n);
    return it == busy_ns_.end() ? 0.0 : it->second;
  }
  double unattributed_p50() { return Us(Quantile(unattributed_, 50)); }
  double ingress_wait_p50() { return Us(Quantile(ingress_wait_, 50)); }
  double useful_exec_ratio() const { return Ratio(D(needed_), D(execs_)); }

 private:
  std::map<SpanName, std::vector<int64_t>> durations_;
  std::map<SpanName, double> busy_ns_;
  std::vector<int64_t> unattributed_, ingress_wait_;
  uint64_t needed_ = 0, execs_ = 0;
};

/// End-to-end figures. Metrics a workload does not exercise read 0 (no MP
/// path, no log, a scheme it does not run), so every run reports every name.
void AddE2e(const Window& head, const std::vector<Window>& all, const std::vector<double>& setups,
            double replay_rec_per_s, const std::string& prefix, std::vector<Metric>* out) {
  auto add = [out](std::string name, double value, const char* unit) {
    out->push_back({std::move(name), value, unit});
  };
  add(prefix + "txn_per_s", head.tps(), "1/s");
  add(prefix + "p50_us", head.view.p50_us, "us");
  add(prefix + "p99_us", head.view.p99_us, "us");
  if (!setups.empty()) add("setup_s", Median(setups), "s");
  add(prefix + "mp_p50_us", head.view.mp_p50_us, "us");
  add(prefix + "replay_rec_per_s", replay_rec_per_s, "1/s");
  uint64_t attempted = 0, failed = 0;
  for (const Window& x : all) {
    attempted += x.submits;
    failed += x.failed();
  }
  add(prefix + "failed_frac", Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
          "ratio");
  for (const char* scheme : {"blocking", "locking", "occ", "mvcc"}) {
    const Window* x = nullptr;
    for (const Window& y : all) {
      if (y.scheme == scheme) x = &y;
    }
    add(prefix + "txn_per_s." + scheme, x != nullptr ? x->tps() : 0, "1/s");
    add(prefix + "p99_us." + scheme, x != nullptr ? x->view.p99_us : 0, "us");
  }
}

/// Per-layer figures of a traced run. Spans come from the traced windows;
/// counters are deltas over the untraced windows, which tracing did not
/// slow. The headline scheme's windows give everything except the scheme
/// counters, which come from the window of the scheme they describe.
void AddPerLayer(const Workload& w, const std::vector<Window>& plain,
                 const std::vector<Window>& traced, const Reopen& plain_reopen,
                 const Reopen& traced_reopen, std::vector<Metric>* out) {
  auto add = [out](std::string name, double value, const char* unit) {
    out->push_back({std::move(name), value, unit});
  };
  const Window& head = plain.front();
  const Window& th = traced.front();
  SpanReport sr(th.spans);
  const double txns = D(head.first_completed);
  auto per_txn = [&](uint64_t before, uint64_t after) { return Ratio(D(after - before), txns); };
  const double parts = w.partitions;

  add("host.nproc", OnlineCpuCount(), "count");
  add("host.pinned_workers", head.pinned, "count");
  add("host.busy_threads", head.busy_threads, "count");
  add("host.tcp_conns", D(head.tcp_conns), "count");
  add("host.steal_frac", head.view.steal_frac, "ratio");
  add("host.slices_used_ratio", Ratio(D(head.view.used_slices), D(head.view.slices)), "ratio");

  // On kv_remote the wrapped Submit is RemoteSession's: net.submit_us_p50.
  add("db.submit_us_p50", w.remote ? 0 : sr.P(SpanName::kSubmit, 50), "us");
  add("db.submit_us_p99", w.remote ? 0 : sr.P(SpanName::kSubmit, 99), "us");
  add("db.accepted_ratio", Ratio(D(th.accepted()), D(th.submits)), "ratio");
  add("client.route_us_p50", sr.P(SpanName::kRoute, 50), "us");

  const ParallelRuntime::Stats& rs0 = head.s0.runtime;
  const ParallelRuntime::Stats& rs1 = head.s1.runtime;
  add("runtime.pushes_per_txn", per_txn(rs0.mailbox_pushed, rs1.mailbox_pushed), "1/txn");
  add("runtime.cas_retries_per_txn",
      per_txn(rs0.mailbox_cas_retries, rs1.mailbox_cas_retries), "1/txn");
  add("runtime.wakes_per_txn", per_txn(rs0.mailbox_wakes, rs1.mailbox_wakes), "1/txn");
  add("runtime.parks_per_txn", per_txn(rs0.mailbox_parks, rs1.mailbox_parks), "1/txn");
  const double hits = D(rs1.node_cache_hits - rs0.node_cache_hits);
  const double misses = D(rs1.node_cache_misses - rs0.node_cache_misses);
  add("runtime.node_cache_hit_ratio", Ratio(hits, hits + misses), "ratio");
  add("runtime.ingress_wait_us_p50", sr.ingress_wait_p50(), "us");

  auto window_of = [&](const std::string& scheme) -> const Window* {
    for (const Window& x : plain) {
      if (x.scheme == scheme) return &x;
    }
    return nullptr;
  };
  auto cc = [&](const char* scheme, const char* name, const char* unit,
                const std::function<double(const Window&, const Metrics&)>& f) {
    const Window* x = window_of(scheme);
    add(std::string("cc.") + name, x != nullptr ? f(*x, x->m) : 0.0, unit);
  };
  auto per = [](uint64_t v, const Window& x) { return Ratio(D(v), D(x.first_completed)); };
  cc("speculation", "speculative_execs_per_txn", "1/txn",
     [&](const Window& x, const Metrics& m) { return per(m.speculative_execs, x); });
  cc("speculation", "cascading_reexecs_per_txn", "1/txn",
     [&](const Window& x, const Metrics& m) { return per(m.cascading_reexecs, x); });
  cc("locking", "lock_waits_per_txn", "1/txn",
     [&](const Window& x, const Metrics& m) { return per(m.lock_waits, x); });
  cc("locking", "locked_txn_ratio", "ratio",
     [&](const Window& x, const Metrics& m) { return per(m.locked_txns, x); });
  cc("locking", "retries_per_txn", "1/txn",
     [&](const Window& x, const Metrics& m) { return per(m.txn_retries + x.extra_attempts, x); });
  cc("locking", "deadlocks", "count",
     [](const Window&, const Metrics& m) { return D(m.local_deadlocks); });
  cc("locking", "timeout_aborts", "count",
     [](const Window&, const Metrics& m) { return D(m.timeout_aborts); });
  // Of the speculated transactions an abort reached, the share that survived.
  cc("occ", "occ_survivor_ratio", "ratio", [](const Window&, const Metrics& m) {
    return Ratio(D(m.occ_survivors), D(m.occ_survivors + m.cascading_reexecs));
  });
  cc("mvcc", "mvcc_snapshot_read_ratio", "ratio",
     [&](const Window& x, const Metrics& m) { return per(m.mvcc_snapshot_reads, x); });
  cc("mvcc", "mvcc_conflict_waits_per_txn", "1/txn",
     [&](const Window& x, const Metrics& m) { return per(m.mvcc_conflict_waits, x); });

  add("engine.exec_us_p50", sr.P(SpanName::kExec, 50), "us");
  add("engine.exec_us_p99", sr.P(SpanName::kExec, 99), "us");
  add("engine.busy_frac", Ratio(sr.BusyNs(SpanName::kExec), th.seconds * 1e9 * parts), "ratio");
  add("engine.modelled_busy_frac", head.m.PartitionUtilization(), "ratio");
  add("engine.useful_exec_ratio", sr.useful_exec_ratio(), "ratio");
  double lockset_p50 = 0;
  for (const Window& x : traced) {
    if (x.scheme == "locking") lockset_p50 = SpanReport(x.spans).P(SpanName::kLockSet, 50);
  }
  add("engine.lockset_us_p50", lockset_p50, "us");
  for (const char* proc : {tpcc::kTpccNewOrderProc, tpcc::kTpccPaymentProc,
                           tpcc::kTpccOrderStatusProc, tpcc::kTpccDeliveryProc,
                           tpcc::kTpccStockLevelProc}) {
    double p50 = 0;
    for (const ProcMetricsSnapshot& ps : head.procs) {
      if (ps.name == proc) p50 = Us(ps.latency.Percentile(50));
    }
    add(std::string("proc.") + proc + ".p50_us", p50, "us");
  }

  const bool has_mp = head.view.mp_p50_us > 0;
  add("coord.mp_extra_us", has_mp ? head.view.mp_p50_us - head.view.sp_p50_us : 0, "us");
  add("coord.round_input_us_p50", sr.P(SpanName::kRoundInput, 50), "us");
  add("coord.modelled_busy_frac", head.m.CoordinatorUtilization(), "ratio");

  const DurabilityStats& d0 = head.s0.durability;
  const DurabilityStats& d1 = head.s1.durability;
  add("durability.records_per_txn", per_txn(d0.records, d1.records), "1/txn");
  add("durability.bytes_per_txn", per_txn(d0.bytes_logged, d1.bytes_logged), "B/txn");
  add("durability.batch_records", Ratio(D(d1.records - d0.records), D(d1.batches - d0.batches)),
      "count");
  add("durability.fsyncs_per_s", Ratio(D(d1.fsyncs - d0.fsyncs), head.seconds), "1/s");
  add("durability.deferred_ratio", per_txn(d0.deferred_completions, d1.deferred_completions),
      "ratio");

  SpanReport rr(traced_reopen.spans);
  add("recovery.replay_exec_us_p50", rr.P(SpanName::kReplayExec, 50), "us");
  add("recovery.exec_busy_frac",
      Ratio(rr.BusyNs(SpanName::kReplayExec), traced_reopen.seconds * 1e9 * parts), "ratio");
  add("recovery.segments_read", D(plain_reopen.report.segments_read), "count");
  add("recovery.torn_tails", D(plain_reopen.report.torn_tails), "count");

  // Both ends of the connection: server loop plus client loop.
  const EventLoopStats& sv0 = head.v0.io;
  const EventLoopStats& sv1 = head.v1.io;
  const double frames =
      D(sv1.frames_out - sv0.frames_out + head.c1.frames_out - head.c0.frames_out);
  const double flushes =
      D(sv1.flush_batches - sv0.flush_batches + head.c1.flush_batches - head.c0.flush_batches);
  const double wakeups = D(sv1.wakeups - sv0.wakeups + head.c1.wakeups - head.c0.wakeups);
  add("net.frames_per_flush", Ratio(frames, flushes), "count");
  add("net.bytes_per_txn",
      per_txn(sv0.bytes_in + sv0.bytes_out, sv1.bytes_in + sv1.bytes_out), "B/txn");
  const double pool_hits = D(head.v1.payload_pool_hits - head.v0.payload_pool_hits);
  const double pool_misses = D(head.v1.payload_pool_misses - head.v0.payload_pool_misses);
  add("net.payload_pool_hit_ratio", Ratio(pool_hits, pool_hits + pool_misses), "ratio");
  add("net.submit_us_p50", w.remote ? sr.P(SpanName::kSubmit, 50) : 0, "us");
  add("net.loop_wakeups_per_txn", Ratio(wakeups, txns), "1/txn");
  add("net.protocol_errors", D(head.v1.protocol_errors - head.v0.protocol_errors), "count");
  add("net.rejected_requests", D(head.v1.rejected_requests - head.v0.rejected_requests), "count");

  add("msg.decode_args_us_p50", sr.P(SpanName::kDecodeArgs, 50), "us");
  add("msg.decode_result_us_p50", sr.P(SpanName::kDecodeResult, 50), "us");

  add("trace.overhead_frac", 1.0 - Ratio(th.tps(), head.tps()), "ratio");
  add("trace.unattributed_us_p50", sr.unattributed_p50(), "us");
  // Spans past the per-thread buffer bound (trace.cc) are counted, not kept.
  uint64_t dropped = traced_reopen.dropped_spans;
  for (const Window& x : traced) dropped += x.dropped_spans;
  add("trace.dropped_spans", D(dropped), "count");
}

void Check(bool ok, const std::string& what, RunResult* r) {
  if (!ok) r->problems.push_back(what);
}

void CheckWindow(const Window& win, RunResult* r) {
  r->attempted += win.submits;
  r->failed += win.failed();
  Check(win.failed() == 0, win.scheme + ": " + std::to_string(win.failed()) + " of " +
                               std::to_string(win.submits) + " submissions failed", r);
  Check(win.window_completed > 0, win.scheme + ": nothing completed in the window", r);
  Check(win.busy_threads <= kMaxBusyThreads,
        win.scheme + ": " + std::to_string(win.busy_threads) + " busy threads", r);
  Check(win.tcp_conns <= 1,
        win.scheme + ": " + std::to_string(win.tcp_conns) + " TCP connections", r);
}

}  // namespace

bool KnownWorkload(const std::string& name) {
  return name == "kv_closed" || name == "tpcc_closed" || name == "kv_group_commit" ||
         name == "kv_remote";
}

RunResult RunWorkload(const RunConfig& cfg) {
  const Workload w = MakeWorkload(cfg.workload);
  RunResult r;
  Progress progress(cfg.phase_file);
  const KeyFn key = w.remote ? KeyFn(KvContentKey) : KeyFn(AddressKey);
  const MpFn is_mp = MakeMpFn(w);
  std::atomic<bool> replaying{false};
  const std::string log_dir = cfg.scratch_dir + "/log";
  const std::string verify_dir = cfg.scratch_dir + "/verify_log";
  const size_t n = w.schemes.size();
  auto window_seconds = [&](size_t i) {
    const double total = cfg.trace ? cfg.seconds / 2 : cfg.seconds;  // trace: plain + traced
    if (n == 1) return total;
    if (i == 0) return total * kHeadlineShare;
    return total * (1 - kHeadlineShare) / static_cast<double>(n - 1);
  };
  auto options = [&](const std::string& scheme) {
    DbOptions o = BuildOptions(w, scheme, cfg.seed);
    if (w.durability != DurabilityMode::kOff) o.log_dir = log_dir;
    return o;
  };
  auto fresh_log = [&] {
    if (w.durability != DurabilityMode::kOff) std::filesystem::remove_all(log_dir);
  };

  std::vector<Window> plain, traced;
  std::vector<double> setups;
  double replay_rec_per_s = 0;
  Reopen plain_reopen, traced_reopen;
  for (size_t i = 0; i < n; ++i) {
    const std::string& scheme = w.schemes[i];
    progress.Phase("setup:" + scheme, r.attempted);
    Deployment d;
    const int reps = (i == 0 && !cfg.trace) ? kSetupReps : 1;
    for (int rep = 0; rep < reps; ++rep) {
      d.Reset();
      fresh_log();
      const int64_t t0 = NowNs();
      d = Deploy(w, options(scheme), false, key, &replaying);
      if (i == 0 && !cfg.trace) setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    progress.Phase("measure:" + scheme, r.attempted);
    // Untraced runs may extend a stalled window up to twice its length.
    const double extend = cfg.trace ? 0 : window_seconds(i);
    plain.push_back(
        RunWindow(w, d, scheme, cfg.seed, window_seconds(i), extend, false, key, is_mp));
    CheckWindow(plain.back(), &r);
    if (w.durability != DurabilityMode::kOff) {
      progress.Phase("reopen:" + scheme, r.attempted);
      plain_reopen = CloseAndReopen(w, d, options(scheme), false, key, &replaying, &r);
      replay_rec_per_s = Ratio(D(plain_reopen.report.replayed), plain_reopen.seconds);
    } else {
      d.Close();
    }
    d.Reset();
    fresh_log();

    if (cfg.trace) {
      progress.Phase("traced:" + scheme, r.attempted);
      Deployment t = Deploy(w, options(scheme), true, key, &replaying);
      const double traced_s = std::min(window_seconds(i), kMaxTracedSeconds);
      traced.push_back(RunWindow(w, t, scheme, cfg.seed, traced_s, 0, true, key, is_mp));
      CheckWindow(traced.back(), &r);
      if (w.durability != DurabilityMode::kOff) {
        progress.Phase("traced_reopen:" + scheme, r.attempted);
        traced_reopen = CloseAndReopen(w, t, options(scheme), true, key, &replaying, &r);
      } else {
        t.Close();
      }
      t.Reset();
      fresh_log();
    }

    progress.Phase("verify:" + scheme, r.attempted);
    VerifyPass(w, scheme, cfg.seed, verify_dir, key, is_mp, &r);
  }
  progress.Phase("report", r.attempted);

  const Window& head = plain.front();
  r.fingerprint = {
      {"nproc", std::to_string(OnlineCpuCount())},
      {"pinned_workers", std::to_string(head.pinned) + "/" + std::to_string(head.workers)},
      {"busy_threads", std::to_string(head.busy_threads)},
      {"tcp_conns", std::to_string(head.tcp_conns)},
      {"steal_frac", std::to_string(head.view.steal_frac)},
      {"slices_used",
       std::to_string(head.view.used_slices) + "/" + std::to_string(head.view.slices)},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
  };

  if (!cfg.trace) {
    AddE2e(head, plain, setups, replay_rec_per_s, "", &r.metrics);
  } else {
    // End-to-end figures of this run's untraced windows, under e2e.*.
    AddE2e(head, plain, {}, replay_rec_per_s, "e2e.", &r.metrics);
    AddPerLayer(w, plain, traced, plain_reopen, traced_reopen, &r.metrics);
  }
  r.correct = r.problems.empty() && r.failed == 0;
  return r;
}

}  // namespace perfbench
