// live_workloads.cpp — thread-n3 and wire-n3-loss10.
//
// Both run the same round script on complete(3): each round submits one
// PifBroadcast (distinct payload) and one Election per node through
// svc::Client, awaits all six with await_all, checks every answer and
// releases the sessions. Latency runs from submit to the completion
// callback, which fires on a node thread.
//
//   thread-n3       a fresh runtime::ThreadRuntime per round (it is
//                   one-shot), so each round pays its set-up.
//   wire-n3-loss10  one long-lived net::SocketRuntime for the whole run,
//                   with 10% of the accepted datagrams discarded.
//
// Traced run: half the time with plain hosts (runtime and net counters,
// the untraced rate), half with TimedHost (core and svc spans, the traced
// rate), then the same round script on a Simulator world as the reference
// backend for the sim figures.
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <vector>

#include "core/specs.hpp"
#include "net/socket_runtime.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "runtime/thread_runtime.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace sessbench {

using namespace snapstab;
using namespace std::chrono_literals;

namespace {

constexpr int kNodes = 3;
constexpr int kRoundSessions = 2 * kNodes;
// setup_s samples: kSetupGroup set-ups every kSetupEveryNs of the untraced
// phase.
constexpr int kSetupGroup = 4;
constexpr std::uint64_t kSetupEveryNs = 100'000'000;
constexpr int kReferenceRounds = 400;   // Simulator reference rounds
constexpr double kWireLoss = 0.10;
// Identities 100, 99, 98: the election's leader is the minimum, 98.
constexpr std::int64_t kLeader = 100 - (kNodes - 1);

svc::HostConfig round_host(int p) {
  svc::HostConfig cfg;
  cfg.id = 100 - p;
  cfg.degree = kNodes - 1;
  cfg.channel_capacity = 1;
  cfg.with_election = true;
  return cfg;
}

std::unique_ptr<sim::Process> make_host(int p, bool traced) {
  if (traced) return std::make_unique<TimedHost>(round_host(p));
  return std::make_unique<svc::ServiceHost>(round_host(p));
}

struct LiveTotals {
  std::uint64_t rounds = 0;
  std::uint64_t sessions = 0;
  std::uint64_t completed = 0;
  std::vector<double> latency_ms;
  std::vector<double> latency_steps;  // Simulator reference only
  std::vector<double> overshoot_ms;
  std::uint64_t wall_ns = 0;   // the measured phase
  std::uint64_t setup_ns = 0;  // runtime set-up paid inside / before it
  std::vector<double> setup_samples_s;  // untraced: repeated set-ups
  std::uint64_t next_setup_ns = 0;
  std::uint64_t await_ns = 0;
  std::uint64_t msgs = 0;      // mailbox pushes | wire deliveries
  std::uint64_t push_attempts = 0;
  std::uint64_t lost_on_full = 0;
  std::uint64_t steps = 0;     // Simulator reference only
  double minimum_msgs = 0.0;
  net::SocketRuntime::WireStats wire;
};

struct RoundSlot {
  svc::Session s;
  std::int64_t payload = 0;
  std::uint64_t submit_ns = 0;
  std::uint64_t submit_step = 0;
  std::atomic<std::uint64_t> done_ns{0};
  std::atomic<std::uint64_t> done_step{0};
};

// One round of the script. `sim` is the Simulator of the reference
// backend (step latencies), nullptr on the live backends.
void run_round(svc::Client& client, std::int64_t round, bool traced,
               const sim::Simulator* sim, LiveTotals& t, Outcome& o) {
  const auto round_id = static_cast<std::uint64_t>(round);
  std::array<RoundSlot, kRoundSessions> slots;
  std::vector<svc::Session> sessions;
  sessions.reserve(kRoundSessions);
  for (int i = 0; i < kRoundSessions; ++i) {
    RoundSlot& slot = slots[static_cast<std::size_t>(i)];
    const int p = i / 2;
    const auto cb = [&slot, sim](const svc::SessionKey&,
                                 const svc::SessionResult&) {
      if (sim != nullptr)
        slot.done_step.store(sim->step_count(), std::memory_order_relaxed);
      slot.done_ns.store(now_ns(), std::memory_order_release);
    };
    slot.submit_step = sim != nullptr ? sim->step_count() : 0;
    slot.submit_ns = now_ns();
    ScopedSpan span(traced, SpanKind::Submit, round_id);
    if (i % 2 == 0) {
      slot.payload = round * kNodes + p + 1;
      slot.s = client.submit(p, svc::PifBroadcast{Value::integer(slot.payload)},
                             cb);
    } else {
      slot.s = client.submit(p, svc::Election{}, cb);
    }
    sessions.push_back(slot.s);
  }

  const std::uint64_t a0 = now_ns();
  svc::AwaitResult ar;
  {
    ScopedSpan span(traced, SpanKind::Await, round_id);
    ar = client.await_all(sessions, {.timeout = 60'000ms});
  }
  const std::uint64_t a1 = now_ns();
  t.await_ns += a1 - a0;
  ++t.rounds;
  t.sessions += kRoundSessions;

  std::uint64_t last_done = 0;
  std::set<int> ranks;
  for (RoundSlot& slot : slots) {
    svc::SessionState st;
    {
      ScopedSpan span(traced, SpanKind::Poll, round_id);
      st = client.state(slot.s);
    }
    const std::uint64_t done_ns = slot.done_ns.load(std::memory_order_acquire);
    if (st != svc::SessionState::Done || done_ns == 0) {
      o.violation("a round session did not complete");
      continue;
    }
    const svc::SessionResult r = client.result(slot.s);
    if (!r.completed) {
      o.violation("a round session failed");
    } else if (slot.s.key.service == svc::ServiceId::PifBroadcast) {
      if (!(r.value == Value::integer(slot.payload)))
        o.violation("a PifBroadcast result did not echo its payload");
    } else {
      if (r.min_id != kLeader)
        o.violation("an Election session disagreed on the leader");
      ranks.insert(r.rank);
    }
    {
      ScopedSpan span(traced, SpanKind::Release, round_id);
      client.release(slot.s);
    }
    ++t.completed;
    last_done = std::max(last_done, done_ns);
    t.latency_ms.push_back(static_cast<double>(done_ns - slot.submit_ns) *
                           1e-6);
    if (sim != nullptr)
      t.latency_steps.push_back(static_cast<double>(
          slot.done_step.load(std::memory_order_relaxed) - slot.submit_step));
  }
  if (ar == svc::AwaitResult::Done && ranks.size() != std::size_t{kNodes})
    o.violation("the Election sessions of a round reported repeated ranks");
  if (ar == svc::AwaitResult::Done && last_done > 0 && a1 > last_done)
    t.overshoot_ms.push_back(static_cast<double>(a1 - last_done) * 1e-6);
}

// Cuts the untraced measured phase into ChunkMedians chunks: one every
// `rounds` rounds, or (rounds == 0, or a run too short for one) the whole
// phase as a single chunk. A trailing partial chunk is dropped.
struct Chunker {
  ChunkMedians* out = nullptr;
  std::uint64_t rounds = 0;
  std::uint64_t first_round = 0;
  std::size_t first_sample = 0;
  std::uint64_t t0 = 0;
  double cpu0 = 0.0;

  void begin(const LiveTotals& t) {
    first_round = t.rounds;
    first_sample = t.latency_ms.size();
    t0 = now_ns();
    cpu0 = cpu_us();
  }
  void after_round(const LiveTotals& t) {
    if (out == nullptr || rounds == 0 || t.rounds - first_round < rounds)
      return;
    close(t);
    begin(t);
  }
  // Leaves time spent outside the workload out of the open chunk.
  void exclude(std::uint64_t ns, double cpu) {
    t0 += ns;
    cpu0 += cpu;
  }
  void finish(const LiveTotals& t) {
    if (out != nullptr && out->count() == 0) close(t);
  }
  void close(const LiveTotals& t) {
    const std::vector<double> ms(
        t.latency_ms.begin() + static_cast<std::ptrdiff_t>(first_sample),
        t.latency_ms.end());
    if (ms.empty()) return;
    out->add(static_cast<double>(ms.size()),
             static_cast<double>(now_ns() - t0), cpu_us() - cpu0,
             smoothed_median(ms), sample_percentile(ms, 99));
  }
};

net::SocketRuntimeOptions wire_options(std::uint64_t seed) {
  net::SocketRuntimeOptions opt;
  opt.seed = seed;
  opt.loss_rate = kWireLoss;
  return opt;
}

// One set-up of the workload's runtime, in seconds: build it and add the
// hosts; on the wire also bind the sockets and start the node threads.
double time_setup(bool wire, std::uint64_t seed) {
  const sim::Topology topo = sim::Topology::complete(kNodes);
  if (wire) {
    const std::uint64_t t0 = now_ns();
    net::SocketRuntime srt(topo, wire_options(seed));
    for (int p = 0; p < kNodes; ++p) srt.add_process(make_host(p, false));
    srt.start();
    const std::uint64_t t1 = now_ns();
    srt.shutdown();
    return static_cast<double>(t1 - t0) * 1e-9;
  }
  const std::uint64_t t0 = now_ns();
  runtime::ThreadRuntimeOptions opt;
  opt.mailbox_capacity = 1;
  opt.seed = seed;
  runtime::ThreadRuntime rt(topo, opt);
  for (int p = 0; p < kNodes; ++p) rt.add_process(make_host(p, false));
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// setup_s on the live workloads: kSetupGroup set-ups of the runtime every
// kSetupEveryNs of the untraced phase, so the samples meet the same host
// conditions as the rounds around them. Their time is left out of the
// chunk they fall in.
void sample_setups(bool wire, std::uint64_t seed, std::uint64_t round,
                   LiveTotals& t, Chunker& chunker) {
  const std::uint64_t now = now_ns();
  if (chunker.out == nullptr || now < t.next_setup_ns) return;
  t.next_setup_ns = now + kSetupEveryNs;
  const double cpu0 = cpu_us();
  for (int i = 0; i < kSetupGroup; ++i)
    t.setup_samples_s.push_back(time_setup(
        wire, derive_seed(seed ^ 0x5E7Dull, round * kSetupGroup + i)));
  chunker.exclude(now_ns() - now, cpu_us() - cpu0);
}

// --- thread-n3 --------------------------------------------------------------

LiveTotals thread_phase(std::uint64_t seed, double seconds, bool traced,
                        std::uint64_t first_round, Chunker chunker,
                        Outcome& o) {
  LiveTotals t;
  chunker.begin(t);
  const std::uint64_t p0 = now_ns();
  const std::uint64_t deadline = p0 + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint64_t r = first_round; t.rounds == 0 || now_ns() < deadline;
       ++r) {
    const std::uint64_t r0 = now_ns();
    runtime::ThreadRuntimeOptions opt;
    opt.mailbox_capacity = 1;
    opt.seed = derive_seed(seed, r);
    runtime::ThreadRuntime rt(sim::Topology::complete(kNodes), opt);
    for (int p = 0; p < kNodes; ++p) rt.add_process(make_host(p, traced));
    const std::uint64_t r1 = now_ns();
    t.setup_ns += r1 - r0;
    if (traced) record_span(SpanKind::Setup, r0, r1, r);
    svc::Client client(rt);
    run_round(client, static_cast<std::int64_t>(r), traced, nullptr, t, o);
    const sim::Topology& topo = rt.topology();
    for (sim::EdgeId e = 0; e < topo.edge_count(); ++e) {
      const runtime::Mailbox::Stats s =
          rt.mailbox(topo.edge_src(e), topo.edge_dst(e)).stats();
      t.msgs += s.pushed;
      t.push_attempts += s.pushed + s.lost_on_full;
      t.lost_on_full += s.lost_on_full;
    }
    if (traced)
      t.minimum_msgs +=
          handshake_minimum_of(rt.observations(), topo, 1);
    chunker.after_round(t);
    sample_setups(false, seed, r, t, chunker);
  }
  t.wall_ns = now_ns() - p0;
  chunker.finish(t);
  return t;
}

// --- wire-n3-loss10 ---------------------------------------------------------

LiveTotals wire_phase(std::uint64_t seed, double seconds, bool traced,
                      std::uint64_t first_round, Chunker chunker,
                      Outcome& o) {
  LiveTotals t;
  const std::uint64_t s0 = now_ns();
  net::SocketRuntime srt(sim::Topology::complete(kNodes),
                         wire_options(derive_seed(seed, first_round)));
  for (int p = 0; p < kNodes; ++p) srt.add_process(make_host(p, traced));
  srt.start();
  const std::uint64_t p0 = now_ns();
  t.setup_ns = p0 - s0;
  svc::Client client(srt);
  chunker.begin(t);
  const std::uint64_t deadline = p0 + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::uint64_t r = first_round; t.rounds == 0 || now_ns() < deadline;
       ++r) {
    run_round(client, static_cast<std::int64_t>(r), traced, nullptr, t, o);
    chunker.after_round(t);
    sample_setups(true, seed, r, t, chunker);
  }
  t.wall_ns = now_ns() - p0;
  chunker.finish(t);
  srt.shutdown();
  if (traced)
    t.minimum_msgs +=
        handshake_minimum_of(srt.observations(), srt.topology(), 1);
  t.wire = srt.wire_stats();
  t.msgs = t.wire.delivered;
  return t;
}

// --- Simulator reference ----------------------------------------------------

LiveTotals sim_reference(std::uint64_t seed, Outcome& o) {
  LiveTotals t;
  sim::Simulator sim(sim::Topology::complete(kNodes), 1, seed);
  for (int p = 0; p < kNodes; ++p) sim.add_process(make_host(p, true));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(seed ^ 0x5C4Eull));
  svc::Client client(sim);
  for (std::int64_t r = 0; r < kReferenceRounds; ++r)
    run_round(client, r, true, &sim, t, o);
  t.steps = sim.step_count();
  const core::SpecReport spec = core::check_pif_spec(sim);
  if (!spec.ok())
    o.violation("check_pif_spec failed on the Simulator reference: " +
                spec.violations.front());
  return t;
}

// --- the runs ---------------------------------------------------------------

LiveTotals phase(bool wire, std::uint64_t seed, double seconds, bool traced,
                 std::uint64_t first_round, Outcome& o,
                 ChunkMedians* chunks = nullptr) {
  // thread-n3 runs ~700 rounds/s: chunks of 200 rounds (1200 sessions).
  // wire-n3-loss10 runs ~6 rounds/s: the whole run is one chunk.
  Chunker chunker;
  chunker.out = chunks;
  chunker.rounds = wire ? 0 : 200;
  return wire ? wire_phase(seed, seconds, traced, first_round, chunker, o)
              : thread_phase(seed, seconds, traced, first_round, chunker, o);
}

double rate(const LiveTotals& t) {
  return static_cast<double>(t.completed) * 1e9 /
         static_cast<double>(t.wall_ns);
}

void untraced(const Options& opt, bool wire, Outcome& o) {
  EndToEnd e;
  ChunkMedians chunks;
  const LiveTotals t = phase(wire, opt.seed, opt.seconds, false, 0, o, &chunks);
  e.setup_s = median(t.setup_samples_s);
  o.attempted = t.sessions;
  e.set_medians(chunks);
  e.peak_rss_mb = peak_rss_mb();
  e.emit(o);
  o.note("chunks", "count", static_cast<double>(chunks.count()));
  o.note("sessions_per_s_whole_run", "1/s", rate(t));
  o.note("rounds", "count", static_cast<double>(t.rounds));
  o.note("latency_samples", "count", static_cast<double>(t.latency_ms.size()));
}

void traced(const Options& opt, bool wire, Outcome& o) {
  Layers l;
  const LiveTotals plain =
      phase(wire, opt.seed, opt.seconds * 0.5, false, 0, o);
  reset_spans();
  const LiveTotals tr =
      phase(wire, opt.seed, opt.seconds * 0.5, true, 1u << 20, o);
  const SpanTotals sp = collect_spans();
  const double done = static_cast<double>(tr.completed);

  l.core_msgs_per_session = static_cast<double>(tr.msgs) / done;
  l.core_handshake_efficiency = tr.minimum_msgs / static_cast<double>(tr.msgs);
  l.core_on_tick_ns = sp.mean_ns(SpanKind::Tick);
  l.core_on_message_ns = sp.mean_ns(SpanKind::Message);
  l.core_activations_per_session =
      static_cast<double>(sp.n(SpanKind::Tick) + sp.n(SpanKind::Message)) /
      done;
  l.svc_submit_ns = sp.mean_ns(SpanKind::Submit);
  l.svc_poll_ns = sp.mean_ns(SpanKind::Poll);
  l.svc_release_ns = sp.mean_ns(SpanKind::Release);
  l.svc_await_overshoot_ms = median(tr.overshoot_ms);
  l.trace_overhead_share = 1.0 - rate(tr) / rate(plain);

  if (wire) {
    const net::SocketRuntime::WireStats& w = plain.wire;
    const double received = static_cast<double>(w.datagrams_received);
    l.runtime_round_setup_share =
        static_cast<double>(plain.setup_ns) /
        static_cast<double>(plain.setup_ns + plain.wall_ns);
    l.net_datagrams_per_session = static_cast<double>(w.datagrams_sent) /
                                  static_cast<double>(plain.completed);
    l.net_received_share =
        received / static_cast<double>(w.datagrams_sent);
    l.net_delivered_share = static_cast<double>(w.delivered) / received;
    l.net_loss_drops_share = static_cast<double>(w.loss_drops) / received;
    l.net_rejected_frames = static_cast<double>(w.rejected_frames);
    if (w.rejected_frames != 0 || tr.wire.rejected_frames != 0)
      o.violation("the wire rejected frames no one corrupted");
  } else {
    l.runtime_round_setup_share = static_cast<double>(plain.setup_ns) /
                                  static_cast<double>(plain.wall_ns);
    l.runtime_mailbox_lost_on_full_share =
        static_cast<double>(plain.lost_on_full) /
        static_cast<double>(plain.push_attempts);
  }

  // The same round script on the Simulator, with TimedHost.
  reset_spans();
  const LiveTotals ref = sim_reference(opt.seed, o);
  const SpanTotals rs = collect_spans();
  l.sim_steps_per_session =
      static_cast<double>(ref.steps) / static_cast<double>(ref.completed);
  l.sim_ns_per_step =
      static_cast<double>(ref.await_ns) / static_cast<double>(ref.steps);
  l.sim_engine_self_ns_per_step =
      (static_cast<double>(ref.await_ns) -
       static_cast<double>(rs.ns(SpanKind::Tick) + rs.ns(SpanKind::Message))) /
      static_cast<double>(ref.steps);
  l.sim_latency_p50_steps = sample_percentile(ref.latency_steps, 50);
  l.sim_latency_p99_steps = sample_percentile(ref.latency_steps, 99);

  const CodecTimings c = time_codec(opt.seed);
  if (c.mismatches != 0) o.violation("a codec or frame round trip differed");
  l.msg_encode_ns = c.encode_ns;
  l.msg_decode_ns = c.decode_ns;
  l.net_encode_frame_ns = c.encode_frame_ns;
  l.net_decode_frame_ns = c.decode_frame_ns;

  o.attempted = plain.sessions + tr.sessions + ref.sessions;
  l.emit(o);
  o.note("sessions_plain", "count", static_cast<double>(plain.completed));
  o.note("sessions_traced", "count", done);
}

}  // namespace

Outcome run_live_workload(const Options& opt, bool wire) {
  Outcome o;
  if (opt.trace)
    traced(opt, wire, o);
  else
    untraced(opt, wire, o);
  return o;
}

}  // namespace sessbench
