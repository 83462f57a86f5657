#include "runtime/thread_runtime.hpp"

#include <memory>

#include "net/wire.hpp"

namespace snapstab::runtime {
namespace {

// One Mailbox per directed edge; a node's channel k is the mailbox of its
// k-th in-edge.
class MailboxTransport final : public live::Transport {
 public:
  MailboxTransport(const live::Runtime& rt, std::size_t capacity)
      : topology_(rt.topology()), pool_(rt.string_pool()) {
    const int edges = topology_.edge_count();
    boxes_.reserve(static_cast<std::size_t>(edges));
    for (int e = 0; e < edges; ++e)
      boxes_.push_back(std::make_unique<Mailbox>(capacity));
  }

  bool send(sim::EdgeId e, const Message& m) override {
    return box(e).try_push_with(
        [&] { return net::encode_frame(e, m, pool_); });
  }

  std::ptrdiff_t receive(int node, int channel,
                         std::vector<std::uint8_t>& buf) override {
    auto frame = box(topology_.in_edge(node, channel)).try_pop();
    if (!frame.has_value()) return kEmpty;
    buf = std::move(*frame);
    return static_cast<std::ptrdiff_t>(buf.size());
  }

  bool inject(sim::EdgeId e, const std::uint8_t* data,
              std::size_t size) override {
    return box(e).force_push(std::vector<std::uint8_t>(data, data + size));
  }

  Mailbox& box(sim::EdgeId e) const {
    return *boxes_[static_cast<std::size_t>(e)];
  }

 private:
  const sim::Topology& topology_;
  const StringPool& pool_;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
};

}  // namespace

ThreadRuntime::ThreadRuntime(sim::Topology topology,
                             ThreadRuntimeOptions options)
    : live::Runtime(std::move(topology), options.seed, options.loss_rate) {
  attach(std::make_unique<MailboxTransport>(*this, options.mailbox_capacity));
}

ThreadRuntime::ThreadRuntime(int process_count, ThreadRuntimeOptions options)
    : ThreadRuntime(sim::Topology::complete(process_count), options) {}

const Mailbox& ThreadRuntime::mailbox(int src, int dst) const {
  return static_cast<const MailboxTransport&>(transport())
      .box(topology().edge_between(src, dst));
}

}  // namespace snapstab::runtime
