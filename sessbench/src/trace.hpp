// trace.hpp — the benchmark-side tracer.
//
// Spans are recorded only in the traced run (--trace 1), from the
// benchmark's own code around calls into the library: TimedHost wraps a
// ServiceHost's on_tick / on_message (the protocol cores' activations),
// and ScopedSpan wraps each svc::Client call, each load shard and fan, and
// each thread-n3 runtime set-up. Every thread records into its own buffer
// (no locking on the hot path); the buffers keep per-kind counts and busy
// time for every span plus the first 2^18 spans themselves, which
// write_spans() dumps at exit.
#ifndef SESSBENCH_TRACE_HPP
#define SESSBENCH_TRACE_HPP

#include <array>
#include <cstdint>
#include <string>

#include "common.hpp"
#include "svc/host.hpp"

namespace sessbench {

enum class SpanKind : std::uint8_t {
  Tick,     // ServiceHost::on_tick (protocol core activation)
  Message,  // ServiceHost::on_message (protocol core activation)
  Submit,   // svc::Client::submit_desc
  Poll,     // svc::Client::state
  Release,  // svc::Client::release
  Await,    // svc::Client::await_all
  Shard,    // load::run_workload_shard
  Fan,      // load::parallel_shards around the shards of one batch
  Setup,    // building a thread-n3 round's runtime
};
inline constexpr int kSpanKindCount = 9;

const char* span_kind_name(SpanKind k) noexcept;

struct SpanTotals {
  std::array<std::uint64_t, kSpanKindCount> count{};
  std::array<std::uint64_t, kSpanKindCount> busy_ns{};

  std::uint64_t n(SpanKind k) const {
    return count[static_cast<std::size_t>(k)];
  }
  std::uint64_t ns(SpanKind k) const {
    return busy_ns[static_cast<std::size_t>(k)];
  }
  double mean_ns(SpanKind k) const {
    return n(k) == 0 ? 0.0 : static_cast<double>(ns(k)) /
                                 static_cast<double>(n(k));
  }
};

// Records one finished span into the calling thread's buffer. `id` ties
// spans of one session or round together (0 when there is none).
void record_span(SpanKind kind, std::uint64_t t0, std::uint64_t t1,
                 std::uint64_t id = 0);

// Sums every buffer. Call only while no thread is recording (live runtimes
// joined or shut down).
SpanTotals collect_spans();
// Clears the counts and stored spans of every buffer (same precondition).
void reset_spans();
// Writes the stored spans as tab-separated lines (kind, buffer, start ns,
// end ns, id) to `path`; returns false if the file cannot be written.
bool write_spans(const std::string& path);

class ScopedSpan {
 public:
  ScopedSpan(bool on, SpanKind kind, std::uint64_t id = 0)
      : on_(on), kind_(kind), id_(id), t0_(on ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (on_) record_span(kind_, t0_, now_ns(), id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool on_;
  SpanKind kind_;
  std::uint64_t id_;
  std::uint64_t t0_;
};

// A ServiceHost whose activations are timed. svc::Client resolves it like
// any host (it is-a ServiceHost), so the workload loops need no change.
class TimedHost final : public snapstab::svc::ServiceHost {
 public:
  using ServiceHost::ServiceHost;

  void on_tick(snapstab::sim::Context& ctx) override {
    const std::uint64_t t0 = now_ns();
    ServiceHost::on_tick(ctx);
    record_span(SpanKind::Tick, t0, now_ns());
  }
  void on_message(snapstab::sim::Context& ctx, int ch,
                  const snapstab::Message& m) override {
    const std::uint64_t t0 = now_ns();
    ServiceHost::on_message(ctx, ch, m);
    record_span(SpanKind::Message, t0, now_ns());
  }
};

}  // namespace sessbench

#endif  // SESSBENCH_TRACE_HPP
