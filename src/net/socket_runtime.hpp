// socket_runtime.hpp — the live runtime over UDP sockets: the real wire.
//
// A live::Runtime (see live/runtime.hpp for the node loop, the receive
// filter and the lifecycle) whose transport binds one UDP socket per hosted
// node on the loopback interface. Every protocol message crosses the kernel
// as a framed datagram (net/wire.hpp), so the stack faces a channel that
// genuinely loses, duplicates and reorders — the paper's unbounded-capacity
// lossy link, realized by an actual network instead of a simulated
// adversary. Datagrams a busy process leaves unread queue in the kernel
// socket buffer. A node's drain reads its one socket until it is empty or
// the per-channel budget is spent.
//
// Hosting modes:
//   * single process (default): one SocketRuntime hosts every node of the
//     topology on ephemeral loopback ports — the loopback integration and
//     bench configuration;
//   * multi-process: `options.ports` fixes one UDP port per node and
//     `options.local_nodes` names the subset this OS process hosts (the
//     examples' `--node i` shape). Peers find each other through the
//     shared port table; a SIGKILLed process can rebind its port and
//     rejoin, which is what the fault engine's process-kill path tests.
#ifndef SNAPSTAB_NET_SOCKET_RUNTIME_HPP
#define SNAPSTAB_NET_SOCKET_RUNTIME_HPP

#include <cstdint>
#include <vector>

#include "live/runtime.hpp"
#include "sim/topology.hpp"

namespace snapstab::net {

struct SocketRuntimeOptions {
  std::uint64_t seed = 1;  // seeds per-node protocol and filter RNGs
  // Receive-side injected datagram loss (on top of whatever the kernel
  // genuinely drops): each valid frame is discarded with this probability
  // before dispatch. The bench ladder's loss knob.
  double loss_rate = 0.0;
  // One UDP port per node (multi-process mode). Empty: every node binds
  // an ephemeral loopback port, which requires hosting all nodes here.
  std::vector<std::uint16_t> ports;
  // The nodes this OS process hosts. Empty: all of them.
  std::vector<int> local_nodes;
};

class SocketRuntime final : public live::Runtime {
 public:
  using WireStats = live::Stats;

  explicit SocketRuntime(sim::Topology topology,
                         SocketRuntimeOptions options = {});
  // The paper's fully-connected network.
  explicit SocketRuntime(int process_count, SocketRuntimeOptions options = {});

  // The UDP port node `node` is reachable on (actual bound port for
  // hosted nodes, the configured one for remote nodes).
  std::uint16_t port_of(int node) const;

  // Sends raw bytes to `dst_node`'s socket from a side-channel socket:
  // hostile traffic that names no edge of its own. Returns whether the
  // kernel accepted the datagram.
  bool inject_datagram(int dst_node, const void* data, std::size_t size);

  WireStats wire_stats() const { return stats(); }
};

}  // namespace snapstab::net

#endif  // SNAPSTAB_NET_SOCKET_RUNTIME_HPP
