// service.hpp — the unified service/session vocabulary.
//
// The paper's whole external contract is one three-valued variable:
// Request ∈ {Wait, In, Done}. Every layered protocol of the repository
// (PIF, IDL, ME, reset, snapshot, termination detection, election,
// forwarding) exposes exactly that contract — so the client surface is one
// API, not seven: a typed *descriptor* names the service and its inputs, a
// `Session` tracks one requested computation through Wait → In → Done, and
// a uniform `SessionResult` carries whatever the service produced (snapshot
// digest, CS grant, learned minimum, delivery ack, …).
//
// Sessions are keyed by (origin, service, seq): `origin` is the submitting
// process, `seq` a per-host monotonic submission counter. The key is stable
// across backends — the same program submitted in the same order against
// the Simulator and a live runtime produces the same keys.
#ifndef SNAPSTAB_SVC_SERVICE_HPP
#define SNAPSTAB_SVC_SERVICE_HPP

#include <cstdint>

#include "core/forward.hpp"
#include "core/request.hpp"
#include "msg/value.hpp"
#include "sim/observation.hpp"

namespace snapstab::svc {

// One session state space for every service — the paper's Request variable.
using SessionState = core::RequestState;

enum class ServiceId : std::uint8_t {
  PifBroadcast,     // Protocol PIF: broadcast a payload, collect feedbacks
  Idl,              // Protocol IDL: learn every identity / the minimum
  CriticalSection,  // Protocol ME: one critical-section grant
  Reset,            // PIF-based global reset
  Snapshot,         // PIF-based global state reading
  TermDetect,       // PIF-based termination detection
  Election,         // IDL-based leader election + consistent ranking
  ForwardMsg,       // point-to-point payload forwarding
};

inline constexpr int kServiceIdCount = 8;

constexpr const char* service_name(ServiceId s) noexcept {
  static_assert(kServiceIdCount ==
                    static_cast<int>(ServiceId::ForwardMsg) + 1,
                "new ServiceId: update kServiceIdCount and service_name");
  switch (s) {
    case ServiceId::PifBroadcast: return "pif-broadcast";
    case ServiceId::Idl: return "idl";
    case ServiceId::CriticalSection: return "critical-section";
    case ServiceId::Reset: return "reset";
    case ServiceId::Snapshot: return "snapshot";
    case ServiceId::TermDetect: return "term-detect";
    case ServiceId::Election: return "election";
    case ServiceId::ForwardMsg: return "forward-msg";
  }
  return "?";
}

// --- typed request descriptors ---------------------------------------------
// One struct per service; `Descriptor` is the flat tagged form the host
// stores (queued sessions keep their descriptor until started).

struct PifBroadcast {
  Value payload;
};
struct Idl {};
struct CriticalSection {};
struct Reset {};
struct Snapshot {};
struct TermDetect {};
struct Election {};
struct ForwardMsg {
  sim::ProcessId dst = -1;
  Value payload;
};

struct Descriptor {
  ServiceId service = ServiceId::PifBroadcast;
  Value payload;             // PifBroadcast / ForwardMsg payload
  sim::ProcessId dst = -1;   // ForwardMsg destination

  bool operator==(const Descriptor&) const = default;

  static Descriptor of(const PifBroadcast& d) {
    return Descriptor{ServiceId::PifBroadcast, d.payload, -1};
  }
  static Descriptor of(Idl) {
    return Descriptor{ServiceId::Idl, Value::none(), -1};
  }
  static Descriptor of(CriticalSection) {
    return Descriptor{ServiceId::CriticalSection, Value::none(), -1};
  }
  static Descriptor of(Reset) {
    return Descriptor{ServiceId::Reset, Value::none(), -1};
  }
  static Descriptor of(Snapshot) {
    return Descriptor{ServiceId::Snapshot, Value::none(), -1};
  }
  static Descriptor of(TermDetect) {
    return Descriptor{ServiceId::TermDetect, Value::none(), -1};
  }
  static Descriptor of(Election) {
    return Descriptor{ServiceId::Election, Value::none(), -1};
  }
  static Descriptor of(const ForwardMsg& d) {
    return Descriptor{ServiceId::ForwardMsg, d.payload, d.dst};
  }
};

struct SessionKey {
  sim::ProcessId origin = -1;
  ServiceId service = ServiceId::PifBroadcast;
  std::uint32_t seq = 0;  // per-host submission counter, monotonic

  bool operator==(const SessionKey&) const = default;
};

// Admission status of a forwarding submission — core::ForwardSubmit (the
// hop layer owns the enum; see core/forward.hpp). The non-Accepted values
// are refusals: the session is born Done with `completed = false` and the
// application must resubmit.
using core::ForwardSubmit;
using core::forward_submit_name;

// Uniform completion payload. `completed` is true when the session ran to a
// genuine decision; a refused forwarding submission leaves it false with
// the refusal reason in `admission`. The service-specific fields are valid
// for the service that produced them and zero-initialized otherwise.
struct SessionResult {
  bool completed = false;
  ForwardSubmit admission = ForwardSubmit::Accepted;  // ForwardMsg
  Value value;                 // PifBroadcast: payload; Snapshot: digest;
                               // ForwardMsg: the delivered payload (ack)
  std::int64_t min_id = 0;     // Idl / Election: the learned minimum
  int rank = -1;               // Election: position in the sorted members
  bool cs_granted = false;     // CriticalSection: the CS executed
  bool termination_claimed = false;  // TermDetect
  int waves = 0;                     // TermDetect: probe waves used
};

}  // namespace snapstab::svc

#endif  // SNAPSTAB_SVC_SERVICE_HPP
