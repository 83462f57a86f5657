// forward_world.hpp — simulator-side helpers for the forwarding service.
//
// Split out of forward.hpp, which must stay includable from svc/host.hpp.
// Forwarding worlds are svc::service_world(..., with_forward = true).
#ifndef SNAPSTAB_CORE_FORWARD_WORLD_HPP
#define SNAPSTAB_CORE_FORWARD_WORLD_HPP

#include "core/forward.hpp"
#include "svc/host.hpp"

namespace snapstab::core {

// The number of corrupted entries in `sim`'s *current* configuration that
// can lawfully surface as ghost deliveries: forged FwdData messages in the
// channels plus payloads sitting in per-hop queues. Capture it right after
// fuzzing and pass it as ForwardSpecOptions::max_ghost_deliveries — the
// single definition the tests, exp_forwarding and the svc session tests
// use. Works over any world whose processes are ServiceHosts with the
// forwarding service configured.
std::uint64_t forward_ghost_budget(sim::Simulator& sim);

}  // namespace snapstab::core

#endif  // SNAPSTAB_CORE_FORWARD_WORLD_HPP
