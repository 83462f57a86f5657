// sim_workloads.cpp — sim-mixed and sim-storm.
//
// Untraced run: load::run_sharded batches, each seeded from (seed, batch),
// back to back until --seconds have passed. Each batch is one chunk of the
// reported medians (common.hpp ChunkMedians): its completed sessions over
// its fan wall time, its CPU time, and the p50 / p99 of the load generator's
// record_wall histogram. setup_s is the median of the library's own
// set-up of each batch, kSetupsPerBatch times before it runs: run_sharded
// on the batch's spec with nothing to warm up or measure returns as soon as
// every shard has built its world, fault plan, injector and driver. The
// batch-0 report is re-run at the end with another thread count and its
// deterministic_json() must come back byte-identical.
//
// Traced run: half the time runs the same batches through
// load::parallel_shards + run_workload_shard with a span around each shard
// (load, sim and fault figures); the other half drives a replica of one
// shard's world through svc::Client — first with plain hosts, then with
// TimedHost — because load builds its own hosts. The replica gives the
// core and svc figures, checks every result, and runs core::check_pif_spec
// over each epoch's full observation log.
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/specs.hpp"
#include "fault/plan.hpp"
#include "load/shard.hpp"
#include "load/workload.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace sessbench {

using namespace snapstab;
using svc::ServiceId;

namespace {

constexpr int kShards = 4;
constexpr std::uint64_t kConcurrency = 1024;  // aggregate, split over shards
constexpr std::uint64_t kWarmup = 2048;
constexpr int kSetupsPerBatch = 3;
// The replica runs one shard's share of the in-flight population, in
// epochs of a fresh world each, refilling every kPumpSteps engine steps
// like the load generator's pump.
constexpr std::uint64_t kReplicaConcurrency = kConcurrency / kShards;
constexpr std::uint64_t kEpochSessions = 4096;
constexpr std::uint64_t kPumpSteps = 64;

struct Shape {
  int n = 32;
  std::uint64_t measure = 65536;  // measured completions per batch
  bool storm = false;
};

Shape shape_of(bool storm) {
  return storm ? Shape{16, 16384, true} : Shape{32, 65536, false};
}

int worker_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw < kShards ? hw : kShards);
}

// The mixed service mix: pif 4, idl 2, snapshot 1, term-detect 1,
// election 1.
constexpr std::array<std::pair<ServiceId, std::uint32_t>, 5> kMix{{
    {ServiceId::PifBroadcast, 4},
    {ServiceId::Idl, 2},
    {ServiceId::Snapshot, 1},
    {ServiceId::TermDetect, 1},
    {ServiceId::Election, 1},
}};

// The storm: every correlated pattern plus independent crash and loss
// windows. Per shard a batch runs ~115k engine steps, the first ~13k in
// warmup. The windows open from step 15k and, whatever the draws, the last
// one closes by ~76k: independent windows begin before the 75k horizon,
// the rolling partition and the flapping link stay inside [15k, 75k), and
// the crash storm's random walk (gaps of up to twice span / count) and the
// cascade's lags end sooner. So the storm covers most of the measured
// steps and a fault-free tail of ~40k steps follows, in which requests
// must succeed again.
fault::FaultPlanSpec storm_plan(std::uint64_t seed) {
  fault::FaultPlanSpec fs;
  fs.seed = seed;
  fs.horizon = 75'000;
  fs.min_len = 200;
  fs.max_len = 800;
  fs.crash_windows = 4;
  fs.loss_windows = 4;
  const auto add = [&fs](fault::PatternKind k, std::uint64_t span,
                         int count) {
    fault::PatternSpec ps;
    ps.kind = k;
    ps.begin = 15'000;
    ps.span = span;
    ps.count = count;
    ps.len = 500;
    ps.period = 2'000;
    ps.lag_max = 1'000;
    fs.patterns.push_back(ps);
  };
  add(fault::PatternKind::RollingPartition, 60'000, 6);
  add(fault::PatternKind::CrashStorm, 30'000, 8);
  add(fault::PatternKind::FlappingLink, 60'000, 30);
  add(fault::PatternKind::Cascade, 60'000, 4);
  return fs;
}

load::WorkloadSpec batch_spec(const Shape& sh, std::uint64_t seed) {
  load::WorkloadSpec spec;
  spec.topology = "ring";
  spec.n = sh.n;
  spec.channel_capacity = 1;
  spec.seed = seed;
  for (const auto& [s, w] : kMix) spec.set_weight(s, w);
  spec.arrival = load::WorkloadSpec::Arrival::Closed;
  spec.concurrency = kConcurrency;
  spec.warmup = kWarmup;
  spec.measure = sh.measure;
  spec.record_wall = true;
  if (sh.storm) {
    spec.faults = storm_plan(seed ^ 0x5708Eull);
    // Every logical request is retried until it completes: a request may
    // be killed many times while the storm lasts, and the workload asks
    // whether each one is eventually served, not whether 8 tries suffice.
    spec.fault_max_retries = 1000;
  }
  return spec;
}

svc::HostConfig mix_host(sim::ProcessId p) {
  svc::HostConfig cfg;
  cfg.id = p + 1;
  cfg.with_idl = true;
  cfg.with_snapshot = true;
  cfg.with_termdetect = true;
  cfg.with_election = true;
  cfg.local_state = [p] { return Value::integer(p); };
  cfg.app.counters = [] { return core::AppCounters{}; };
  return cfg;
}

// One shard's world with the host type chosen by `traced` (svc's
// service_world builds plain ServiceHosts only).
std::unique_ptr<sim::Simulator> replica_world(int n, std::uint64_t seed,
                                              bool traced) {
  auto sim = std::make_unique<sim::Simulator>(sim::Topology::ring(n), 1, seed);
  for (sim::ProcessId p = 0; p < n; ++p) {
    svc::HostConfig cfg = mix_host(p);
    cfg.degree = sim->topology().degree(p);
    cfg.channel_capacity = 1;
    cfg.self = p;
    if (traced)
      sim->add_process(std::make_unique<TimedHost>(std::move(cfg)));
    else
      sim->add_process(std::make_unique<svc::ServiceHost>(std::move(cfg)));
  }
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(seed ^ 0x5C4Eull));
  return sim;
}

// What an Idl / Election session at `p` must answer: the identities it
// learns are its own and its neighbours' (one PIF wave over its links).
struct Expected {
  std::int64_t min_id = 0;
  int rank = 0;
};

Expected expected_answer(const sim::Topology& t, sim::ProcessId p) {
  const std::int64_t own = p + 1;
  Expected e{own, 0};
  for (int i = 0; i < t.degree(p); ++i) {
    const std::int64_t id = t.peer_of(p, i) + 1;
    if (id < e.min_id) e.min_id = id;
    if (id < own) ++e.rank;
  }
  return e;
}

// --- load batches -----------------------------------------------------------

struct LoadTotals {
  std::uint64_t batches = 0;
  std::uint64_t completed = 0;
  std::uint64_t submitted = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t retries = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused = 0;
  std::uint64_t steps = 0;
  std::uint64_t shard_wall_ns = 0;
  std::uint64_t fan_ns = 0;           // sum of per-batch fan walls
  std::uint64_t fan_overhead_ns = 0;  // fan wall minus slowest shard
  double imbalance_sum = 0.0;         // per-batch max / mean shard wall
  std::uint64_t span_steps = 0;       // steps inside [first_begin, last_end)
  std::uint64_t after_steps = 0;      // steps after last_end
  std::uint64_t completed_during = 0;
  std::uint64_t completed_after = 0;
  std::vector<double> first_ok;  // per shard-batch, steps
  load::LatencyHistogram wall_hist;
  load::LatencyHistogram steps_hist;
  load::LatencyHistogram recovery_hist;

  void add(const std::vector<load::ShardResult>& shards, std::uint64_t fan,
           bool storm, Outcome& o) {
    ++batches;
    fan_ns += fan;
    std::uint64_t slowest = 0;
    std::uint64_t sum_wall = 0;
    for (const load::ShardResult& s : shards) {
      completed += s.counters.completed;
      submitted += s.counters.submitted;
      coalesced += s.counters.coalesced;
      retries += s.counters.retries;
      failed += s.counters.failed;
      refused += s.counters.refused;
      steps += s.steps;
      shard_wall_ns += s.wall_ns;
      sum_wall += s.wall_ns;
      if (s.wall_ns > slowest) slowest = s.wall_ns;
      wall_hist.merge(s.wall_hist);
      steps_hist.merge(s.steps_hist);
      if (s.hit_step_budget || s.stalled)
        o.violation("a shard hit its step budget or stalled");
      if (!storm) continue;
      recovery_hist.merge(s.recovery_hist);
      const std::uint64_t end = s.fault_last_end < s.steps ? s.fault_last_end
                                                           : s.steps;
      if (end > s.fault_first_begin) span_steps += end - s.fault_first_begin;
      after_steps += s.steps - end;
      completed_during += s.completed_during_fault;
      completed_after += s.completed_after_fault;
      if (s.recovered)
        first_ok.push_back(static_cast<double>(s.first_success_after_fault));
      else
        o.violation("a sim-storm shard did not recover after the storm (" +
                    std::to_string(s.steps) + " steps, storm over at " +
                    std::to_string(s.fault_last_end) + ")");
    }
    fan_overhead_ns += fan > slowest ? fan - slowest : 0;
    if (sum_wall > 0)
      imbalance_sum += static_cast<double>(slowest) * shards.size() /
                       static_cast<double>(sum_wall);
  }
};

// --- the replica ------------------------------------------------------------

struct ReplicaTotals {
  std::uint64_t completed = 0;
  std::uint64_t steps = 0;
  std::uint64_t pushes = 0;     // channel pushes
  double minimum_msgs = 0.0;    // handshake minimum of the waves started
  std::uint64_t wall_ns = 0;    // driving time, world construction excluded
  std::uint64_t await_ns = 0;   // inside Client::await_all
  std::vector<double> overshoot_ms;
};

// Drives epochs of kEpochSessions sessions through svc::Client until
// `seconds` have passed (at least one epoch). Every result is checked;
// check_pif_spec runs over each drained epoch.
ReplicaTotals run_replica(const Shape& sh, std::uint64_t seed, double seconds,
                          bool traced, Outcome& o) {
  ReplicaTotals tot;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint32_t weight_total = 0;
  for (const auto& m : kMix) weight_total += m.second;

  for (std::uint64_t epoch = 0; epoch == 0 || now_ns() < deadline; ++epoch) {
    const std::uint64_t eseed = derive_seed(seed ^ 0xE90C4ull, epoch);
    auto sim = replica_world(sh.n, eseed, traced);
    svc::Client client(*sim);
    Rng rng(eseed);

    struct Slot {
      svc::Session s;
      std::int64_t payload = 0;
      std::uint64_t done_ns = 0;
      bool done = false;
      bool live = false;
    };
    std::vector<Slot> slots(kReplicaConcurrency);
    std::vector<std::uint32_t> free_slots;
    for (std::uint32_t i = 0; i < slots.size(); ++i)
      free_slots.push_back(static_cast<std::uint32_t>(slots.size()) - 1 - i);
    std::deque<std::uint32_t> order;      // submission order of live slots
    std::vector<std::uint32_t> finished;  // filled by completion callbacks
    std::uint64_t submitted = 0;
    std::int64_t next_payload = static_cast<std::int64_t>(epoch) << 32;

    const auto submit_one = [&] {
      const std::uint32_t si = free_slots.back();
      free_slots.pop_back();
      auto r = static_cast<std::uint32_t>(rng.below(weight_total));
      ServiceId sid = kMix[0].first;
      for (const auto& [s, w] : kMix) {
        if (r < w) {
          sid = s;
          break;
        }
        r -= w;
      }
      const auto origin = static_cast<sim::ProcessId>(
          rng.below(static_cast<std::uint64_t>(sh.n)));
      svc::Descriptor d;
      d.service = sid;
      Slot& slot = slots[si];
      slot = Slot{};
      slot.live = true;
      if (sid == ServiceId::PifBroadcast) {
        slot.payload = ++next_payload;
        d.payload = Value::integer(slot.payload);
      }
      ScopedSpan span(traced, SpanKind::Submit, si);
      slot.s = client.submit_desc(
          origin, d, [&slots, &finished, si](const svc::SessionKey&,
                                             const svc::SessionResult&) {
            slots[si].done = true;
            slots[si].done_ns = now_ns();
            finished.push_back(si);
          });
      order.push_back(si);
      ++submitted;
    };

    const auto check = [&](const Slot& slot) {
      const svc::SessionResult r = client.result(slot.s);
      const sim::ProcessId p = slot.s.key.origin;
      if (!r.completed) {
        o.violation("a replica session did not complete");
        return;
      }
      switch (slot.s.key.service) {
        case ServiceId::PifBroadcast:
          if (!(r.value == Value::integer(slot.payload)))
            o.violation("a PifBroadcast result did not echo its payload");
          break;
        case ServiceId::Idl:
        case ServiceId::Election: {
          const Expected e = expected_answer(sim->topology(), p);
          if (r.min_id != e.min_id)
            o.violation("an Idl/Election session learned the wrong minimum");
          if (slot.s.key.service == ServiceId::Election && r.rank != e.rank)
            o.violation("an Election session reported the wrong rank");
          break;
        }
        default:
          break;
      }
    };

    const std::uint64_t t0 = now_ns();
    while (submitted < kEpochSessions || !order.empty()) {
      while (submitted < kEpochSessions && !free_slots.empty()) submit_one();
      while (!order.empty() && !slots[order.front()].live) order.pop_front();
      if (order.empty()) continue;
      const Slot& front = slots[order.front()];
      const std::uint64_t a0 = now_ns();
      svc::AwaitResult ar;
      {
        ScopedSpan span(traced, SpanKind::Await, order.front());
        ar = client.await_all({front.s}, {.max_steps = kPumpSteps,
                                          .policy = {kPumpSteps}});
      }
      const std::uint64_t a1 = now_ns();
      tot.await_ns += a1 - a0;
      if (ar == svc::AwaitResult::Done && front.done)
        tot.overshoot_ms.push_back(static_cast<double>(a1 - front.done_ns) *
                                   1e-6);
      if (ar == svc::AwaitResult::RuntimeDown) {
        o.violation("the replica world went quiescent with sessions live");
        break;
      }
      // Coalesced twins share one host record and complete together:
      // read every result before releasing any.
      for (const std::uint32_t si : finished) {
        svc::SessionState st;
        {
          ScopedSpan span(traced, SpanKind::Poll, si);
          st = client.state(slots[si].s);
        }
        if (st != svc::SessionState::Done)
          o.violation("a completed session did not poll as Done");
        check(slots[si]);
      }
      for (const std::uint32_t si : finished) {
        {
          ScopedSpan span(traced, SpanKind::Release, si);
          client.release(slots[si].s);
        }
        slots[si].live = false;
        free_slots.push_back(si);
        ++tot.completed;
      }
      finished.clear();
    }
    tot.wall_ns += now_ns() - t0;
    tot.steps += sim->step_count();
    tot.pushes += sim->network().aggregate_channel_stats().pushed;
    tot.minimum_msgs +=
        handshake_minimum_of(sim->log().events(), sim->topology(), 1);
    const core::SpecReport spec = core::check_pif_spec(*sim);
    if (!spec.ok())
      o.violation("check_pif_spec failed on a replica epoch: " +
                  spec.violations.front());
  }
  return tot;
}

// --- the runs ---------------------------------------------------------------

void untraced(const Options& opt, const Shape& sh, Outcome& o) {
  EndToEnd e;
  const int threads = worker_threads();
  LoadTotals tot;
  ChunkMedians chunks;
  std::vector<double> setups;  // every timed set-up fan, in seconds
  std::string first_json;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::uint64_t b = 0; b == 0 || now_ns() < deadline; ++b) {
    const load::WorkloadSpec spec = batch_spec(sh, derive_seed(opt.seed, b));
    load::WorkloadSpec setup_only = spec;
    setup_only.warmup = 0;
    setup_only.measure = 0;
    for (int i = 0; i < kSetupsPerBatch; ++i)
      setups.push_back(static_cast<double>(
                           load::run_sharded(setup_only, kShards, threads)
                               .harness_wall_ns) *
                       1e-9);
    const double cpu0 = cpu_us();
    const load::LoadReport r = load::run_sharded(spec, kShards, threads);
    const double cpu = cpu_us() - cpu0;
    tot.add(r.shards, r.harness_wall_ns, sh.storm, o);
    if (b == 0) first_json = r.deterministic_json(spec);
    chunks.add(static_cast<double>(r.total.counters.completed),
               static_cast<double>(r.harness_wall_ns), cpu,
               r.total.wall_hist.percentile(50) * 1e-6,
               r.total.wall_hist.percentile(99) * 1e-6);
  }

  // Determinism: batch 0 again, on a different worker count.
  {
    const load::WorkloadSpec spec = batch_spec(sh, derive_seed(opt.seed, 0));
    const int other = threads > 1 ? threads / 2 : 2;
    if (load::run_sharded(spec, kShards, other).deterministic_json(spec) !=
        first_json)
      o.violation("deterministic_json differs between two runs of batch 0");
  }

  o.attempted = tot.completed + tot.failed + tot.refused;
  o.failed += tot.failed + tot.refused;
  e.set_medians(chunks);
  e.setup_s = median(setups);
  e.peak_rss_mb = peak_rss_mb();
  e.emit(o);

  o.note("batches", "count", static_cast<double>(tot.batches));
  o.note("latency_samples", "count",
         static_cast<double>(tot.wall_hist.count()));
  o.note("latency_p99_ms_whole_run", "ms",
         tot.wall_hist.percentile(99) * 1e-6);
  o.note("latency_p50_steps", "steps",
         tot.steps_hist.percentile(50));
  o.note("latency_p99_steps", "steps",
         tot.steps_hist.percentile(99));
  if (sh.storm) {
    o.note("recovery_p99_steps", "steps",
           tot.recovery_hist.percentile(99));
    o.note("recovery_first_ok_steps", "steps", median(tot.first_ok));
    o.note("retries", "count", static_cast<double>(tot.retries));
  }
  // FNV-1a of batch 0's deterministic_json, so runs at one seed can be
  // compared; the top 52 bits, which a double holds exactly.
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : first_json) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  o.note("batch0_json_fnv1a", "hash", static_cast<double>(h >> 12));
}

void traced(const Options& opt, const Shape& sh, Outcome& o) {
  const int threads = worker_threads();
  Layers l;

  // Half the time: load batches with a span per shard and per fan.
  LoadTotals tot;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 0.5 * 1e9);
  for (std::uint64_t b = 0; b == 0 || now_ns() < deadline; ++b) {
    const load::WorkloadSpec spec = batch_spec(sh, derive_seed(opt.seed, b));
    const std::uint64_t f0 = now_ns();
    std::vector<load::ShardResult> shards =
        load::parallel_shards(kShards, threads, [&spec](int i) {
          ScopedSpan span(true, SpanKind::Shard, static_cast<std::uint64_t>(i));
          return load::run_workload_shard(spec, i, kShards);
        });
    const std::uint64_t f1 = now_ns();
    record_span(SpanKind::Fan, f0, f1, b);
    tot.add(shards, f1 - f0, sh.storm, o);
  }
  const double done = static_cast<double>(tot.completed);
  l.sim_steps_per_session = static_cast<double>(tot.steps) / done;
  l.sim_ns_per_step =
      static_cast<double>(tot.shard_wall_ns) / static_cast<double>(tot.steps);
  l.sim_latency_p50_steps = tot.steps_hist.percentile(50);
  l.sim_latency_p99_steps = tot.steps_hist.percentile(99);
  l.svc_coalesced_share = static_cast<double>(tot.coalesced) /
                          static_cast<double>(tot.submitted);
  l.load_fan_overhead_share = static_cast<double>(tot.fan_overhead_ns) /
                              static_cast<double>(tot.fan_ns);
  l.load_shard_imbalance =
      tot.imbalance_sum / static_cast<double>(tot.batches);
  if (sh.storm) {
    l.fault_span_share =
        static_cast<double>(tot.span_steps) / static_cast<double>(tot.steps);
    l.fault_retries_per_ksession =
        1000.0 * static_cast<double>(tot.retries) / done;
    const double during = static_cast<double>(tot.completed_during) /
                          static_cast<double>(tot.span_steps);
    const double after = static_cast<double>(tot.completed_after) /
                         static_cast<double>(tot.after_steps);
    l.fault_goodput_during_over_after = after > 0.0 ? during / after : 0.0;
    l.fault_recovery_p99_steps = tot.recovery_hist.percentile(99);
    l.fault_recovery_first_ok_steps = median(tot.first_ok);
  }

  // The other half: the replica, plain hosts then TimedHost.
  const ReplicaTotals plain =
      run_replica(sh, opt.seed, opt.seconds * 0.25, false, o);
  reset_spans();
  const ReplicaTotals rep =
      run_replica(sh, opt.seed, opt.seconds * 0.25, true, o);
  const SpanTotals sp = collect_spans();
  const double rdone = static_cast<double>(rep.completed);
  const double activation_ns = static_cast<double>(
      sp.ns(SpanKind::Tick) + sp.ns(SpanKind::Message));
  l.sim_engine_self_ns_per_step =
      (static_cast<double>(rep.await_ns) - activation_ns) /
      static_cast<double>(rep.steps);
  l.core_msgs_per_session = static_cast<double>(rep.pushes) / rdone;
  l.core_handshake_efficiency =
      rep.minimum_msgs / static_cast<double>(rep.pushes);
  l.core_on_tick_ns = sp.mean_ns(SpanKind::Tick);
  l.core_on_message_ns = sp.mean_ns(SpanKind::Message);
  l.core_activations_per_session =
      static_cast<double>(sp.n(SpanKind::Tick) + sp.n(SpanKind::Message)) /
      rdone;
  l.svc_submit_ns = sp.mean_ns(SpanKind::Submit);
  l.svc_poll_ns = sp.mean_ns(SpanKind::Poll);
  l.svc_release_ns = sp.mean_ns(SpanKind::Release);
  l.svc_await_overshoot_ms = median(rep.overshoot_ms);
  const double plain_rate = static_cast<double>(plain.completed) /
                            static_cast<double>(plain.wall_ns);
  const double traced_rate = rdone / static_cast<double>(rep.wall_ns);
  l.trace_overhead_share = 1.0 - traced_rate / plain_rate;

  const CodecTimings c = time_codec(opt.seed);
  if (c.mismatches != 0) o.violation("a codec or frame round trip differed");
  l.msg_encode_ns = c.encode_ns;
  l.msg_decode_ns = c.decode_ns;
  l.net_encode_frame_ns = c.encode_frame_ns;
  l.net_decode_frame_ns = c.decode_frame_ns;

  o.attempted = tot.completed + tot.failed + tot.refused + plain.completed +
                rep.completed;
  o.failed += tot.failed + tot.refused;
  l.emit(o);
  o.note("replica_sessions_plain", "count",
         static_cast<double>(plain.completed));
  o.note("replica_sessions_traced", "count", rdone);
}

}  // namespace

Outcome run_sim_workload(const Options& opt, bool storm) {
  Outcome o;
  const Shape sh = shape_of(storm);
  if (opt.trace)
    traced(opt, sh, o);
  else
    untraced(opt, sh, o);
  return o;
}

}  // namespace sessbench
