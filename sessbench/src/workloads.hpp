// workloads.hpp — the four named workloads.
//
//   sim-mixed       load::run_sharded, ring/32, the mixed service mix,
//                   1024 sessions in flight over 4 shards.
//   sim-storm       the same mix over ring/16 under a fault storm (all four
//                   correlated patterns plus crash and loss windows).
//   thread-n3       rounds on a fresh runtime::ThreadRuntime, complete(3).
//   wire-n3-loss10  the same rounds on one net::SocketRuntime, complete(3),
//                   10% injected datagram loss.
//
// Every workload is closed loop: a session is submitted only when an
// earlier one has completed (sim-*: at the load generator's pump; live: per
// round). Each fills the Outcome with its end-to-end metrics (untraced
// run) or its per-layer metrics (traced run).
#ifndef SESSBENCH_WORKLOADS_HPP
#define SESSBENCH_WORKLOADS_HPP

#include <cstdint>

#include "common.hpp"
#include "core/pif.hpp"
#include "sim/topology.hpp"
#include "svc/host.hpp"

namespace sessbench {

Outcome run_sim_workload(const Options& opt, bool storm);
Outcome run_live_workload(const Options& opt, bool wire);

// Seed of batch / round / epoch `i` of a run seeded `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t i);

// The handshake minimum of every PIF wave started in an observation
// sequence: the sum over Start events at process p of F * degree(p), with
// F = core::Pif::flag_bound() for the world's channel capacity.
template <typename Observations>
double handshake_minimum_of(const Observations& obs,
                            const snapstab::sim::Topology& topology,
                            int channel_capacity) {
  const int flag_bound = snapstab::core::Pif(1, channel_capacity).flag_bound();
  double total = 0.0;
  for (const auto& o : obs)
    if (o.layer == snapstab::sim::Layer::Pif &&
        o.kind == snapstab::sim::ObsKind::Start)
      total += handshake_minimum(flag_bound, topology.degree(o.process));
  return total;
}

}  // namespace sessbench

#endif  // SESSBENCH_WORKLOADS_HPP
