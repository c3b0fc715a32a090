#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <utility>

namespace perfbench {

namespace {

// 4M spans x 40 B = 160 MB per thread at most; a traced window of a few
// seconds records well under a tenth of that.
constexpr size_t kMaxSpansPerThread = size_t{4} << 20;

struct ThreadBuffer {
  std::vector<Span> spans;
  uint64_t dropped = 0;
};

std::atomic<bool> g_tracing{false};

std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>>& Registry() {
  static auto* registry = new std::vector<std::unique_ptr<ThreadBuffer>>();
  return *registry;
}

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    auto& reg = Registry();
    reg.push_back(std::make_unique<ThreadBuffer>());
    return reg.back().get();
  }();
  return *buffer;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_release); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

void RecordSpan(SpanName name, uint64_t key, int64_t start_ns, int64_t end_ns, uint64_t txn,
                uint32_t work) {
  if (!Tracing()) return;
  ThreadBuffer& b = LocalBuffer();
  if (b.spans.size() >= kMaxSpansPerThread) {
    ++b.dropped;
    return;
  }
  Span s;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.key = key;
  s.txn = txn;
  s.work = work;
  s.name = name;
  b.spans.push_back(s);
}

std::vector<Span> CollectSpans(uint64_t* dropped) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  std::vector<Span> out;
  *dropped = 0;
  for (auto& b : Registry()) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
    *dropped += b->dropped;
    b->spans.clear();
    b->spans.shrink_to_fit();
    b->dropped = 0;
  }
  return out;
}

void Attach(std::vector<Span>& spans) {
  // Roots ordered by (key, start): a child's root is the last root of its
  // key starting at or before the child, provided it has not ended yet.
  std::vector<int32_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name == SpanName::kTxn) roots.push_back(static_cast<int32_t>(i));
  }
  auto root_less = [&](int32_t a, int32_t b) {
    return std::pair(spans[a].key, spans[a].start_ns) < std::pair(spans[b].key, spans[b].start_ns);
  };
  std::sort(roots.begin(), roots.end(), root_less);
  for (size_t i = 0; i < spans.size(); ++i) {
    Span& s = spans[i];
    if (s.name == SpanName::kTxn) continue;
    s.parent = -1;
    auto it = std::upper_bound(roots.begin(), roots.end(), std::pair(s.key, s.start_ns),
                               [&](const std::pair<uint64_t, int64_t>& v, int32_t r) {
                                 return v < std::pair(spans[r].key, spans[r].start_ns);
                               });
    if (it == roots.begin()) continue;
    const Span& root = spans[*(it - 1)];
    if (root.key != s.key || s.start_ns > root.end_ns) continue;
    s.parent = *(it - 1);
  }
  // Roots take the program's txn id from their Submit call's span.
  for (const Span& s : spans) {
    if (s.name == SpanName::kSubmit && s.parent >= 0) spans[s.parent].txn = s.txn;
  }
  for (Span& s : spans) {
    if (s.name != SpanName::kTxn && s.parent >= 0) s.txn = spans[s.parent].txn;
  }
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  // Children grouped by parent, then per parent: clip to the parent's
  // interval, sort by start, and sum the union.
  std::vector<std::pair<int32_t, int32_t>> by_parent;  // (parent, child)
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) by_parent.emplace_back(spans[i].parent, static_cast<int32_t>(i));
  }
  std::sort(by_parent.begin(), by_parent.end());
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration();

  std::vector<std::pair<int64_t, int64_t>> intervals;
  for (size_t i = 0; i < by_parent.size();) {
    const int32_t parent = by_parent[i].first;
    const Span& p = spans[parent];
    intervals.clear();
    for (; i < by_parent.size() && by_parent[i].first == parent; ++i) {
      const Span& c = spans[by_parent[i].second];
      const int64_t lo = std::max(c.start_ns, p.start_ns);
      const int64_t hi = std::min(c.end_ns, p.end_ns);
      if (lo < hi) intervals.emplace_back(lo, hi);
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : intervals) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[parent] -= covered;
  }
  return self;
}

}  // namespace perfbench
