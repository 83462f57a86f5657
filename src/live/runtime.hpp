// runtime.hpp — the live runtime: real threads over a pluggable transport.
//
// The paper closes with "actually implementing them is a future challenge";
// a live Runtime takes the same Process objects that run in the simulator
// and executes them under genuine concurrency, one OS thread per hosted
// node, with every protocol message crossing a Transport as a wire frame
// (net/wire.hpp over msg::codec). Protocol code is shared verbatim with
// the simulator — the Process/Context interfaces are the only coupling,
// and the local-index <-> peer mapping is the same Topology object.
//
// Two transports plug into it, each behind a thin named constructor:
//   * runtime::ThreadRuntime — one bounded lossy in-process Mailbox per
//     directed edge;
//   * net::SocketRuntime — one UDP loopback socket per node, across one
//     or several OS processes.
// Everything else lives here, once:
//
// Node loop, per activation of a node thread: unless the process is busy
// in its critical section, at most one receive per incident channel (a
// transport with one endpoint per node — a socket — stops early once it is
// drained); then on_tick; then a fixed 20 us pause.
//
// Receive path: decode_frame (corrupt/truncated frames are counted and
// dropped, never delivered) -> the frame's edge must end at this node ->
// the filter: per-edge down, options' loss_rate, per-edge drop ->
// Process::on_message -> per-edge duplicate. Filter draws come from each
// node's filter_rng, a stream separate from the protocol rng, so the
// filter never perturbs protocol randomness. The per-edge filter is what
// fault::RuntimeInjector drives: plain atomics flipped from its thread.
//
// Lifecycle: start() spawns the node threads; run() awaits a predicate and
// may be called any number of times — the threads keep serving between
// awaits; shutdown() stops and joins them for good.
//
// Concurrency discipline: a process's state is touched only under its node
// mutex — by its own thread during an activation, or by with_process()
// from any other thread. The observation log has its own mutex; entries
// are stamped, in log order, from a monotonic event counter standing in
// for steps. Every node thread interns into the one StringPool current
// when the runtime was built.
#ifndef SNAPSTAB_LIVE_RUNTIME_HPP
#define SNAPSTAB_LIVE_RUNTIME_HPP

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "msg/strpool.hpp"
#include "net/wire.hpp"
#include "sim/process.hpp"
#include "sim/topology.hpp"

namespace snapstab::live {

// Frame accounting, summed over every hosted node. On the socket
// transport a frame is a datagram.
struct Stats {
  std::uint64_t datagrams_sent = 0;      // frames the transport accepted
  std::uint64_t datagrams_received = 0;  // frames read, valid or not
  std::uint64_t delivered = 0;           // dispatched to on_message
  std::uint64_t rejected_frames = 0;     // sum of the non-Ok results below
  std::array<std::uint64_t, net::kWireFrameResultCount> by_result{};
  std::uint64_t bad_edge = 0;     // frame named an edge not inbound here
  std::uint64_t loss_drops = 0;   // loss_rate discards
  std::uint64_t filter_drops = 0;  // per-edge drop discards
  std::uint64_t filter_duplicates = 0;
  std::uint64_t down_drops = 0;  // per-edge down discards
};

// How frames move between nodes. Called only by the Runtime: send and
// receive from node threads, inject from any thread.
class Transport {
 public:
  virtual ~Transport() = default;

  // Carries `m`, as a wire frame (net::encode_frame in the runtime's
  // StringPool), along directed edge `e` from its source node (hosted
  // here). Returns whether the channel accepted it.
  virtual bool send(sim::EdgeId e, const Message& m) = 0;

  // receive(): no frame pending on this channel (the drain moves on to the
  // next channel) / none pending for the node at all (the drain stops).
  static constexpr std::ptrdiff_t kEmpty = -1;
  static constexpr std::ptrdiff_t kDrained = -2;
  // Reads at most one frame for hosted node `node` from its incident
  // channel `channel` into `buf`, returning the frame's size (the bytes
  // are buf[0, size)) or kEmpty / kDrained. `buf` belongs to the node
  // thread; a transport may resize or replace it.
  virtual std::ptrdiff_t receive(int node, int channel,
                                 std::vector<std::uint8_t>& buf) = 0;

  // Puts raw bytes on edge `e` from outside the protocol (the fault
  // engine's garbage path). Returns whether the channel took them.
  virtual bool inject(sim::EdgeId e, const std::uint8_t* data,
                      std::size_t size) = 0;
};

class Runtime {
 public:
  virtual ~Runtime();  // shuts down

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  int process_count() const noexcept { return n_; }
  const sim::Topology& topology() const noexcept { return topology_; }
  // Whether node `node` runs in this OS process.
  bool hosts(int node) const noexcept {
    return node >= 0 && node < n_ &&
           nodes_[static_cast<std::size_t>(node)] != nullptr;
  }

  // Install exactly one process per hosted node, in ascending node order,
  // before start().
  void add_process(std::unique_ptr<sim::Process> p);

  // Spawns the node threads (idempotent; run() calls it on demand).
  void start();
  // Polls `done()` every millisecond until it holds or `timeout` elapses;
  // returns whether it held. After shutdown() it just polls once.
  bool run(const std::function<bool()>& done,
           std::chrono::milliseconds timeout);
  // Stops and joins the node threads; the runtime makes no further
  // progress. Idempotent.
  void shutdown();
  bool running() const noexcept {
    return started_.load(std::memory_order_acquire) &&
           !stop_.load(std::memory_order_acquire);
  }

  // Executes `f` on hosted node `p` (cast to T) under its node lock. Safe
  // to call from the done-predicate, and before, between and after runs.
  template <typename T, typename F>
  auto with_process(int p, F&& f) {
    Node& node = local(p);
    std::lock_guard<std::mutex> lock(node.mu);
    return f(dynamic_cast<T&>(*node.process));
  }

  // Snapshot of the observation stream so far.
  std::vector<sim::Observation> observations() const;
  // Appends a driver-side event to the observation stream (the svc layer
  // records submissions here, mirroring the simulator's request events).
  void observe_external(int process, sim::Layer layer, sim::ObsKind kind,
                        int peer, const Value& value);

  // The runtime's StringPool: all node threads intern into and resolve
  // against it, so observation values compare correctly with values
  // interned by the supervising thread.
  StringPool& string_pool() const noexcept { return *pool_; }

  Stats stats() const;

  // --- the per-edge fault filter (fault::RuntimeInjector) -----------------
  void set_edge_drop(sim::EdgeId e, double rate);
  void set_edge_duplicate(sim::EdgeId e, double rate);
  void set_edge_down(sim::EdgeId e, bool down);
  void clear_edge_faults();
  // Puts raw bytes on edge `e`: they meet the receive path like any frame.
  bool inject(sim::EdgeId e, const void* data, std::size_t size);

 protected:
  // `hosted` names the nodes this OS process runs (empty: all of them);
  // `loss_rate` is the fraction of valid frames the filter discards.
  Runtime(sim::Topology topology, std::uint64_t seed, double loss_rate,
          const std::vector<int>& hosted = {});
  // Installs the transport; the constructing subclass calls it once.
  void attach(std::unique_ptr<Transport> transport);
  Transport& transport() const noexcept { return *transport_; }

 private:
  struct Node {
    Node(int node_id, Rng protocol_rng, Rng filter)
        : id(node_id), rng(protocol_rng), filter_rng(filter) {}
    const int id;
    std::mutex mu;
    std::unique_ptr<sim::Process> process;
    std::thread thread;
    Rng rng;         // protocol draws (Context::rng)
    Rng filter_rng;  // loss/drop/duplicate filter draws
    Stats stats;     // written and read under mu
  };
  struct EdgeFault {
    std::atomic<double> drop{0.0};
    std::atomic<double> duplicate{0.0};
    std::atomic<bool> down{false};
  };
  class NodeContext;

  Node& local(int p);
  void node_main(Node& node);
  bool send(Node& node, int channel, const Message& m);
  void deliver(Node& node, sim::Context& ctx, const std::uint8_t* data,
               std::size_t size);
  EdgeFault& edge_fault(sim::EdgeId e);

  sim::Topology topology_;
  int n_;
  double loss_rate_;
  StringPool* pool_;
  std::vector<std::unique_ptr<Node>> nodes_;  // by id; null: hosted elsewhere
  std::unique_ptr<EdgeFault[]> edge_faults_;  // one per directed edge
  std::unique_ptr<Transport> transport_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> event_counter_{0};
  mutable std::mutex log_mu_;
  std::vector<sim::Observation> log_;
};

}  // namespace snapstab::live

#endif  // SNAPSTAB_LIVE_RUNTIME_HPP
