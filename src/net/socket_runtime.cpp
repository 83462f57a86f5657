#include "net/socket_runtime.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <mutex>

#include "common/check.hpp"

namespace snapstab::net {
namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

int bind_udp(std::uint16_t port, std::uint16_t* bound) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  SNAPSTAB_CHECK_MSG(fd >= 0, "socket(AF_INET, SOCK_DGRAM) failed");
  sockaddr_in addr = loopback_addr(port);
  SNAPSTAB_CHECK_MSG(
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0,
      "cannot bind the node's loopback UDP port");
  socklen_t len = sizeof addr;
  SNAPSTAB_CHECK(
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
  *bound = ntohs(addr.sin_port);
  return fd;
}

bool send_to(int fd, std::uint16_t port, const void* data, std::size_t size) {
  const sockaddr_in addr = loopback_addr(port);
  return ::sendto(fd, data, size, 0, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == static_cast<ssize_t>(size);
}

// One socket per hosted node; every channel of a node reads that socket.
class SocketTransport final : public live::Transport {
 public:
  SocketTransport(const live::Runtime& rt, std::vector<std::uint16_t> ports)
      : topology_(rt.topology()),
        pool_(rt.string_pool()),
        ports_(std::move(ports)) {
    const int n = topology_.process_count();
    SNAPSTAB_CHECK_MSG(
        ports_.empty() || ports_.size() == static_cast<std::size_t>(n),
        "ports must name one UDP port per node");
    const bool fixed_ports = !ports_.empty();
    ports_.resize(static_cast<std::size_t>(n), 0);
    fds_.assign(static_cast<std::size_t>(n), -1);
    for (int p = 0; p < n; ++p) {
      if (!rt.hosts(p)) {
        SNAPSTAB_CHECK_MSG(
            fixed_ports,
            "hosting a node subset requires an explicit per-node port table");
        continue;
      }
      auto& port = ports_[static_cast<std::size_t>(p)];
      fds_[static_cast<std::size_t>(p)] = bind_udp(port, &port);
    }
    inject_fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    SNAPSTAB_CHECK_MSG(inject_fd_ >= 0, "cannot open the injection socket");
  }

  ~SocketTransport() override {
    for (const int fd : fds_)
      if (fd >= 0) ::close(fd);
    if (inject_fd_ >= 0) ::close(inject_fd_);
  }

  bool send(sim::EdgeId e, const Message& m) override {
    const std::uint16_t dst_port = port(topology_.edge_dst(e));
    if (dst_port == 0) return false;  // remote node with no known port
    const std::vector<std::uint8_t> frame = encode_frame(e, m, pool_);
    return send_to(fd(topology_.edge_src(e)), dst_port, frame.data(),
                   frame.size());
  }

  std::ptrdiff_t receive(int node, int /*channel*/,
                         std::vector<std::uint8_t>& buf) override {
    if (buf.size() < kMaxDatagramSize) buf.resize(kMaxDatagramSize);
    const ssize_t r = ::recv(fd(node), buf.data(), buf.size(), MSG_DONTWAIT);
    // EAGAIN: nothing pending (or a transient error) — the drain stops.
    return r < 0 ? kDrained : static_cast<std::ptrdiff_t>(r);
  }

  bool inject(sim::EdgeId e, const std::uint8_t* data,
              std::size_t size) override {
    return inject_datagram(topology_.edge_dst(e), data, size);
  }

  bool inject_datagram(int dst, const void* data, std::size_t size) {
    const std::uint16_t dst_port = port(dst);
    if (dst_port == 0) return false;
    std::lock_guard<std::mutex> lock(inject_mu_);
    return send_to(inject_fd_, dst_port, data, size);
  }

  std::uint16_t port(int node) const {
    return ports_[static_cast<std::size_t>(node)];
  }

 private:
  int fd(int node) const { return fds_[static_cast<std::size_t>(node)]; }

  const sim::Topology& topology_;
  const StringPool& pool_;
  std::vector<std::uint16_t> ports_;  // node id -> UDP port (0: unknown)
  std::vector<int> fds_;              // node id -> socket | -1 (remote)
  int inject_fd_ = -1;
  std::mutex inject_mu_;
};

}  // namespace

SocketRuntime::SocketRuntime(sim::Topology topology,
                             SocketRuntimeOptions options)
    : live::Runtime(std::move(topology), options.seed, options.loss_rate,
                    options.local_nodes) {
  attach(std::make_unique<SocketTransport>(*this, std::move(options.ports)));
}

SocketRuntime::SocketRuntime(int process_count, SocketRuntimeOptions options)
    : SocketRuntime(sim::Topology::complete(process_count),
                    std::move(options)) {}

std::uint16_t SocketRuntime::port_of(int node) const {
  SNAPSTAB_CHECK(node >= 0 && node < process_count());
  const std::uint16_t port =
      static_cast<const SocketTransport&>(transport()).port(node);
  SNAPSTAB_CHECK_MSG(port != 0, "no port known for a remote node");
  return port;
}

bool SocketRuntime::inject_datagram(int dst_node, const void* data,
                                    std::size_t size) {
  SNAPSTAB_CHECK(dst_node >= 0 && dst_node < process_count());
  return static_cast<SocketTransport&>(transport())
      .inject_datagram(dst_node, data, size);
}

}  // namespace snapstab::net
