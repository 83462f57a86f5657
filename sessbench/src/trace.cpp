#include "trace.hpp"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace sessbench {

namespace {

// Stored spans across all buffers; beyond this only counts and busy time
// are kept, so a long traced run holds bounded memory.
constexpr std::uint64_t kMaxStoredSpans = 1u << 18;

struct Span {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint64_t id = 0;
  SpanKind kind = SpanKind::Tick;
};

struct Buffer {
  SpanTotals totals;
  std::vector<Span> spans;
};

// Owns every buffer. A thread leases one on its first span and returns it
// when it exits, so the thread runtime's per-round node threads reuse a
// handful of buffers instead of growing one per thread.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Buffer>> all;  // guarded by mu
  std::vector<Buffer*> idle;                 // guarded by mu
  std::atomic<std::uint64_t> stored{0};

  Buffer* lease() {
    std::lock_guard<std::mutex> lock(mu);
    if (!idle.empty()) {
      Buffer* b = idle.back();
      idle.pop_back();
      return b;
    }
    all.push_back(std::make_unique<Buffer>());
    return all.back().get();
  }
  void give_back(Buffer* b) {
    std::lock_guard<std::mutex> lock(mu);
    idle.push_back(b);
  }
};

Registry& registry() {
  static Registry r;
  return r;
}

struct Lease {
  Buffer* buffer = registry().lease();
  ~Lease() { registry().give_back(buffer); }
};

Buffer& local_buffer() {
  thread_local Lease lease;
  return *lease.buffer;
}

}  // namespace

const char* span_kind_name(SpanKind k) noexcept {
  switch (k) {
    case SpanKind::Tick: return "core.on_tick";
    case SpanKind::Message: return "core.on_message";
    case SpanKind::Submit: return "svc.submit";
    case SpanKind::Poll: return "svc.poll";
    case SpanKind::Release: return "svc.release";
    case SpanKind::Await: return "svc.await_all";
    case SpanKind::Shard: return "load.shard";
    case SpanKind::Fan: return "load.fan";
    case SpanKind::Setup: return "setup";
  }
  return "?";
}

void record_span(SpanKind kind, std::uint64_t t0, std::uint64_t t1,
                 std::uint64_t id) {
  Buffer& b = local_buffer();
  const auto k = static_cast<std::size_t>(kind);
  ++b.totals.count[k];
  b.totals.busy_ns[k] += t1 - t0;
  Registry& r = registry();
  if (r.stored.load(std::memory_order_relaxed) < kMaxStoredSpans) {
    r.stored.fetch_add(1, std::memory_order_relaxed);
    b.spans.push_back({t0, t1, id, kind});
  }
}

SpanTotals collect_spans() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  SpanTotals out;
  for (const auto& b : r.all)
    for (int k = 0; k < kSpanKindCount; ++k) {
      out.count[static_cast<std::size_t>(k)] +=
          b->totals.count[static_cast<std::size_t>(k)];
      out.busy_ns[static_cast<std::size_t>(k)] +=
          b->totals.busy_ns[static_cast<std::size_t>(k)];
    }
  return out;
}

void reset_spans() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.all) {
    b->totals = SpanTotals{};
    b->spans.clear();
  }
  r.stored.store(0);
}

bool write_spans(const std::string& path) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "kind\tbuffer\tstart_ns\tend_ns\tid\n");
  for (std::size_t i = 0; i < r.all.size(); ++i)
    for (const Span& s : r.all[i]->spans)
      std::fprintf(f, "%s\t%zu\t%llu\t%llu\t%llu\n", span_kind_name(s.kind),
                   i, static_cast<unsigned long long>(s.t0),
                   static_cast<unsigned long long>(s.t1),
                   static_cast<unsigned long long>(s.id));
  return std::fclose(f) == 0;
}

}  // namespace sessbench
