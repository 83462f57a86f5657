// thread_runtime.hpp — the live runtime over in-process mailboxes.
//
// A live::Runtime (one OS thread per process; see live/runtime.hpp for the
// node loop, the receive filter and the lifecycle) whose transport is one
// capacity-bounded lossy Mailbox per directed edge of the topology. Frames
// are the socket transport's wire frames, so both transports share one
// receive path; only the channel differs. No fd and no thread exists until
// start() (or the first run()).
#ifndef SNAPSTAB_RUNTIME_THREAD_RUNTIME_HPP
#define SNAPSTAB_RUNTIME_THREAD_RUNTIME_HPP

#include <cstdint>

#include "live/runtime.hpp"
#include "runtime/mailbox.hpp"
#include "sim/topology.hpp"

namespace snapstab::runtime {

struct ThreadRuntimeOptions {
  std::size_t mailbox_capacity = 1;
  // Receive-side injected loss: each valid frame is discarded with this
  // probability before dispatch (drawn from the filter RNG).
  double loss_rate = 0.0;
  std::uint64_t seed = 1;  // seeds the per-node protocol and filter RNGs
};

class ThreadRuntime final : public live::Runtime {
 public:
  explicit ThreadRuntime(sim::Topology topology,
                         ThreadRuntimeOptions options = {});
  // The paper's fully-connected network (historic constructor).
  explicit ThreadRuntime(int process_count, ThreadRuntimeOptions options = {});

  const Mailbox& mailbox(int src, int dst) const;
};

}  // namespace snapstab::runtime

#endif  // SNAPSTAB_RUNTIME_THREAD_RUNTIME_HPP
