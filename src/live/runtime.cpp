#include "live/runtime.hpp"

#include "common/check.hpp"

namespace snapstab::live {
namespace {

// Pause between consecutive activations of one node thread: keeps a
// runtime from spinning a core per node.
constexpr std::chrono::microseconds kActivationPause{20};

}  // namespace

// Context backend bound to one hosted node. Only ever used by the node's
// own thread while it holds the node mutex; protocol code reaches it
// through sim::Context's generic (one virtual hop) path.
class Runtime::NodeContext final : public sim::ContextBackend {
 public:
  NodeContext(Runtime& rt, Node& node) : rt_(rt), node_(node) {}

  int degree() const override { return rt_.topology_.degree(node_.id); }

  bool send(int channel_index, const Message& m) override {
    return rt_.send(node_, channel_index, m);
  }

  void observe(sim::Layer layer, sim::ObsKind kind, int peer,
               const Value& value) override {
    rt_.observe_external(node_.id, layer, kind, peer, value);
  }

  Rng& rng() override { return node_.rng; }

  std::uint64_t now() const override {
    return rt_.event_counter_.load(std::memory_order_relaxed);
  }

 private:
  Runtime& rt_;
  Node& node_;
};

Runtime::Runtime(sim::Topology topology, std::uint64_t seed,
                 double loss_rate, const std::vector<int>& hosted)
    : topology_(std::move(topology)),
      n_(topology_.process_count()),
      loss_rate_(loss_rate),
      pool_(&current_string_pool()) {
  SNAPSTAB_CHECK_MSG(topology_.connected(),
                     "the model requires a connected network");
  Rng seeder(seed);
  Rng filter_seeder(seed ^ 0x50CE7F17ull);
  nodes_.resize(static_cast<std::size_t>(n_));
  const auto host = [&](int p) {
    SNAPSTAB_CHECK(p >= 0 && p < n_);
    auto& slot = nodes_[static_cast<std::size_t>(p)];
    SNAPSTAB_CHECK_MSG(slot == nullptr, "duplicate hosted node");
    slot = std::make_unique<Node>(
        p, seeder.fork(static_cast<std::uint64_t>(p) + 1),
        filter_seeder.fork(static_cast<std::uint64_t>(p)));
  };
  if (hosted.empty())
    for (int p = 0; p < n_; ++p) host(p);
  for (const int p : hosted) host(p);
  edge_faults_ = std::make_unique<EdgeFault[]>(
      static_cast<std::size_t>(topology_.edge_count()));
}

Runtime::~Runtime() { shutdown(); }

void Runtime::attach(std::unique_ptr<Transport> transport) {
  SNAPSTAB_CHECK(transport != nullptr && transport_ == nullptr);
  transport_ = std::move(transport);
}

Runtime::Node& Runtime::local(int p) {
  SNAPSTAB_CHECK_MSG(hosts(p), "node is not hosted by this process");
  return *nodes_[static_cast<std::size_t>(p)];
}

void Runtime::add_process(std::unique_ptr<sim::Process> p) {
  SNAPSTAB_CHECK(p != nullptr);
  for (auto& node : nodes_) {
    if (node != nullptr && node->process == nullptr) {
      node->process = std::move(p);
      return;
    }
  }
  SNAPSTAB_CHECK_MSG(false, "more processes than hosted nodes");
}

bool Runtime::send(Node& node, int channel, const Message& m) {
  const sim::EdgeId e = topology_.out_edge(node.id, channel);
  if (!transport_->send(e, m)) return false;
  ++node.stats.datagrams_sent;
  return true;
}

Runtime::EdgeFault& Runtime::edge_fault(sim::EdgeId e) {
  SNAPSTAB_CHECK(e >= 0 && e < topology_.edge_count());
  return edge_faults_[static_cast<std::size_t>(e)];
}

void Runtime::deliver(Node& node, sim::Context& ctx,
                      const std::uint8_t* data, std::size_t size) {
  Stats& st = node.stats;
  ++st.datagrams_received;
  const net::DecodedFrame frame = net::decode_frame(data, size, *pool_);
  ++st.by_result[static_cast<std::size_t>(frame.result)];
  if (!frame.ok()) return;  // counted and dropped, never delivered
  if (frame.edge < 0 || frame.edge >= topology_.edge_count() ||
      topology_.edge_dst(frame.edge) != node.id) {
    ++st.bad_edge;
    return;
  }
  const EdgeFault& fault = edge_faults_[static_cast<std::size_t>(frame.edge)];
  if (fault.down.load(std::memory_order_relaxed)) {
    ++st.down_drops;
    return;
  }
  if (loss_rate_ > 0.0 && node.filter_rng.chance(loss_rate_)) {
    ++st.loss_drops;
    return;
  }
  const double drop = fault.drop.load(std::memory_order_relaxed);
  if (drop > 0.0 && node.filter_rng.chance(drop)) {
    ++st.filter_drops;
    return;
  }
  sim::Process& proc = *node.process;
  const int ch = topology_.edge_index_at_dst(frame.edge);
  proc.on_message(ctx, ch, frame.message);
  ++st.delivered;
  const double dup = fault.duplicate.load(std::memory_order_relaxed);
  if (dup > 0.0 && node.filter_rng.chance(dup) && !proc.busy()) {
    proc.on_message(ctx, ch, frame.message);
    ++st.delivered;
    ++st.filter_duplicates;
  }
}

void Runtime::node_main(Node& node) {
  ScopedStringPool pool_scope(*pool_);
  NodeContext backend(*this, node);
  sim::Context ctx(backend);
  std::vector<std::uint8_t> buf;
  const int degree = topology_.degree(node.id);
  while (!stop_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lock(node.mu);
      sim::Process& proc = *node.process;
      // A busy process (in its critical section) receives nothing; the
      // channels hold the backlog.
      for (int ch = 0; ch < degree && !proc.busy(); ++ch) {
        const std::ptrdiff_t r = transport_->receive(node.id, ch, buf);
        if (r == Transport::kDrained) break;
        if (r >= 0) deliver(node, ctx, buf.data(), static_cast<std::size_t>(r));
      }
      if (proc.tick_enabled()) proc.on_tick(ctx);
    }
    std::this_thread::sleep_for(kActivationPause);
  }
}

void Runtime::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) return;
  SNAPSTAB_CHECK(transport_ != nullptr);
  for (const auto& node : nodes_)
    SNAPSTAB_CHECK_MSG(node == nullptr || node->process != nullptr,
                       "install all hosted processes before start()");
  for (auto& node : nodes_) {
    if (node == nullptr) continue;
    Node* raw = node.get();
    node->thread = std::thread([this, raw] { node_main(*raw); });
  }
}

bool Runtime::run(const std::function<bool()>& done,
                  std::chrono::milliseconds timeout) {
  if (stop_.load(std::memory_order_acquire)) return done();  // shut down
  start();
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (done()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

void Runtime::shutdown() {
  stop_.store(true, std::memory_order_release);
  for (auto& node : nodes_)
    if (node != nullptr && node->thread.joinable()) node->thread.join();
}

std::vector<sim::Observation> Runtime::observations() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return log_;
}

void Runtime::observe_external(int process, sim::Layer layer,
                               sim::ObsKind kind, int peer,
                               const Value& value) {
  std::lock_guard<std::mutex> lock(log_mu_);
  // Stamped under the log lock, so steps increase in log order.
  const std::uint64_t step =
      event_counter_.fetch_add(1, std::memory_order_relaxed);
  log_.push_back(sim::Observation{step, process, layer, kind, peer, value});
}

Stats Runtime::stats() const {
  Stats out;
  for (const auto& node : nodes_) {
    if (node == nullptr) continue;
    std::lock_guard<std::mutex> lock(node->mu);
    const Stats& s = node->stats;
    out.datagrams_sent += s.datagrams_sent;
    out.datagrams_received += s.datagrams_received;
    out.delivered += s.delivered;
    for (std::size_t i = 0; i < s.by_result.size(); ++i)
      out.by_result[i] += s.by_result[i];
    out.bad_edge += s.bad_edge;
    out.loss_drops += s.loss_drops;
    out.filter_drops += s.filter_drops;
    out.filter_duplicates += s.filter_duplicates;
    out.down_drops += s.down_drops;
  }
  for (std::size_t i = 0; i < out.by_result.size(); ++i)
    if (i != static_cast<std::size_t>(net::WireFrameResult::Ok))
      out.rejected_frames += out.by_result[i];
  return out;
}

void Runtime::set_edge_drop(sim::EdgeId e, double rate) {
  edge_fault(e).drop.store(rate, std::memory_order_relaxed);
}

void Runtime::set_edge_duplicate(sim::EdgeId e, double rate) {
  edge_fault(e).duplicate.store(rate, std::memory_order_relaxed);
}

void Runtime::set_edge_down(sim::EdgeId e, bool down) {
  edge_fault(e).down.store(down, std::memory_order_relaxed);
}

void Runtime::clear_edge_faults() {
  for (sim::EdgeId e = 0; e < topology_.edge_count(); ++e) {
    set_edge_drop(e, 0.0);
    set_edge_duplicate(e, 0.0);
    set_edge_down(e, false);
  }
}

bool Runtime::inject(sim::EdgeId e, const void* data, std::size_t size) {
  SNAPSTAB_CHECK(e >= 0 && e < topology_.edge_count());
  return transport_->inject(e, static_cast<const std::uint8_t*>(data), size);
}

}  // namespace snapstab::live
