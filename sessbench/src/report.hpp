// report.hpp — the metric sets every workload reports, in one place.
//
// Each workload fills an EndToEnd (untraced run) or a Layers (traced run)
// and emits it here, so all workloads print the same names in the same
// order. A layer that does no work on a workload reports 0 for its counts
// and shares; layer times are measured on every workload (see the fields).
#ifndef SESSBENCH_REPORT_HPP
#define SESSBENCH_REPORT_HPP

#include "common.hpp"

namespace sessbench {

struct EndToEnd {
  double sessions_per_s = 0.0;
  double latency_p50_ms = 0.0;  // submit -> Done
  double latency_p99_ms = 0.0;
  double cpu_us_per_session = 0.0;
  double peak_rss_mb = 0.0;
  double setup_s = 0.0;  // median of repeated set-ups, see each workload

  void set_medians(const ChunkMedians& c) {
    sessions_per_s = median(c.sessions_per_s);
    cpu_us_per_session = median(c.cpu_us_per_session);
    latency_p50_ms = median(c.p50_ms);
    latency_p99_ms = median(c.p99_ms);
  }

  void emit(Outcome& o) const {
    o.add("sessions_per_s", "1/s", sessions_per_s);
    o.add("latency_p50_ms", "ms", latency_p50_ms);
    o.add("latency_p99_ms", "ms", latency_p99_ms);
    o.add("cpu_us_per_session", "us", cpu_us_per_session);
    o.add("peak_rss_mb", "MB", peak_rss_mb);
    o.add("setup_s", "s", setup_s);
  }
};

struct Layers {
  // sim — the Simulator engine. On the live workloads these are measured
  // on a Simulator world running the same round script (the reference
  // backend for that script).
  double sim_steps_per_session = 0.0;
  double sim_ns_per_step = 0.0;
  double sim_engine_self_ns_per_step = 0.0;
  double sim_latency_p50_steps = 0.0;
  double sim_latency_p99_steps = 0.0;
  // core — the protocol cores, seen through TimedHost.
  double core_msgs_per_session = 0.0;
  double core_handshake_efficiency = 0.0;
  double core_on_tick_ns = 0.0;
  double core_on_message_ns = 0.0;
  double core_activations_per_session = 0.0;
  // svc — the session API, timed around the Client calls.
  double svc_submit_ns = 0.0;
  double svc_poll_ns = 0.0;
  double svc_release_ns = 0.0;
  double svc_coalesced_share = 0.0;
  double svc_await_overshoot_ms = 0.0;
  // load — the shard fan (Simulator workloads only).
  double load_fan_overhead_share = 0.0;
  double load_shard_imbalance = 0.0;
  // fault — the fault engine (sim-storm only).
  double fault_span_share = 0.0;
  double fault_retries_per_ksession = 0.0;
  double fault_goodput_during_over_after = 0.0;
  double fault_recovery_p99_steps = 0.0;
  double fault_recovery_first_ok_steps = 0.0;
  // runtime — the in-process ThreadRuntime (thread-n3; wire reports the
  // SocketRuntime's one-time set-up share).
  double runtime_round_setup_share = 0.0;
  double runtime_mailbox_lost_on_full_share = 0.0;
  // net — the UDP backend (wire only) and the frame codec (all workloads).
  double net_datagrams_per_session = 0.0;
  double net_received_share = 0.0;  // datagrams received / sent
  double net_delivered_share = 0.0;
  double net_loss_drops_share = 0.0;
  double net_rejected_frames = 0.0;
  double net_encode_frame_ns = 0.0;
  double net_decode_frame_ns = 0.0;
  // msg — the message codec (all workloads).
  double msg_encode_ns = 0.0;
  double msg_decode_ns = 0.0;
  // 1 - traced / untraced session rate of the traced run's workload loop.
  double trace_overhead_share = 0.0;

  void emit(Outcome& o) const {
    o.add("sim.steps_per_session", "steps", sim_steps_per_session);
    o.add("sim.ns_per_step", "ns", sim_ns_per_step);
    o.add("sim.engine_self_ns_per_step", "ns", sim_engine_self_ns_per_step);
    o.add("sim.latency_p50_steps", "steps", sim_latency_p50_steps);
    o.add("sim.latency_p99_steps", "steps", sim_latency_p99_steps);
    o.add("core.msgs_per_session", "count", core_msgs_per_session);
    o.add("core.handshake_efficiency", "ratio", core_handshake_efficiency);
    o.add("core.on_tick_ns", "ns", core_on_tick_ns);
    o.add("core.on_message_ns", "ns", core_on_message_ns);
    o.add("core.activations_per_session", "count",
          core_activations_per_session);
    o.add("svc.submit_ns", "ns", svc_submit_ns);
    o.add("svc.poll_ns", "ns", svc_poll_ns);
    o.add("svc.release_ns", "ns", svc_release_ns);
    o.add("svc.coalesced_share", "ratio", svc_coalesced_share);
    o.add("svc.await_overshoot_ms", "ms", svc_await_overshoot_ms);
    o.add("load.fan_overhead_share", "ratio", load_fan_overhead_share);
    o.add("load.shard_imbalance", "ratio", load_shard_imbalance);
    o.add("fault.span_share", "ratio", fault_span_share);
    o.add("fault.retries_per_ksession", "count", fault_retries_per_ksession);
    o.add("fault.goodput_during_over_after", "ratio",
          fault_goodput_during_over_after);
    o.add("fault.recovery_p99_steps", "steps", fault_recovery_p99_steps);
    o.add("fault.recovery_first_ok_steps", "steps",
          fault_recovery_first_ok_steps);
    o.add("runtime.round_setup_share", "ratio", runtime_round_setup_share);
    o.add("runtime.mailbox_lost_on_full_share", "ratio",
          runtime_mailbox_lost_on_full_share);
    o.add("net.datagrams_per_session", "count", net_datagrams_per_session);
    o.add("net.received_share", "ratio", net_received_share);
    o.add("net.delivered_share", "ratio", net_delivered_share);
    o.add("net.loss_drops_share", "ratio", net_loss_drops_share);
    o.add("net.rejected_frames", "count", net_rejected_frames);
    o.add("net.encode_frame_ns", "ns", net_encode_frame_ns);
    o.add("net.decode_frame_ns", "ns", net_decode_frame_ns);
    o.add("msg.encode_ns", "ns", msg_encode_ns);
    o.add("msg.decode_ns", "ns", msg_decode_ns);
    o.add("trace.overhead_share", "ratio", trace_overhead_share);
  }
};

}  // namespace sessbench

#endif  // SESSBENCH_REPORT_HPP
