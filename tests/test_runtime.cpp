// test_runtime.cpp — the live runtime: the same protocol objects under
// real concurrency, bounded lossy mailboxes carrying wire frames, and the
// fault engine on both transports.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <tuple>

#include "fault/plan.hpp"
#include "fault/runtime_injector.hpp"
#include "net/socket_runtime.hpp"
#include "net/wire.hpp"
#include "runtime/thread_runtime.hpp"
#include "svc/client.hpp"

namespace snapstab::runtime {
namespace {

using namespace std::chrono_literals;

Mailbox::Frame frame_of(int i) {
  return net::encode_frame(0, Message::naive_brd(Value::integer(i)));
}

std::int64_t payload_of(const Mailbox::Frame& frame) {
  const net::DecodedFrame d = net::decode_frame(frame);
  EXPECT_TRUE(d.ok()) << net::wire_frame_result_name(d.result);
  return d.message.b.as_int();
}

TEST(Mailbox, PushPopRoundTripsAWireFrame) {
  Mailbox box(2);
  const Message m = Message::pif(Value::text("payload"), Value::integer(3),
                                 2, 1);
  const Mailbox::Frame frame = net::encode_frame(5, m);
  EXPECT_TRUE(box.try_push(frame));
  const auto out = box.try_pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, frame);
  const net::DecodedFrame d = net::decode_frame(*out);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.edge, 5);
  EXPECT_EQ(d.message, m);
}

TEST(Mailbox, FullMailboxLosesThePushedFrame) {
  Mailbox box(1);
  EXPECT_TRUE(box.try_push(frame_of(1)));
  EXPECT_FALSE(box.try_push(frame_of(2)));
  EXPECT_EQ(payload_of(*box.try_pop()), 1);
  EXPECT_FALSE(box.try_pop().has_value());
  EXPECT_EQ(box.stats().lost_on_full, 1u);
}

TEST(Mailbox, FifoAcrossCapacity) {
  Mailbox box(3);
  for (int round = 0; round < 2; ++round) {  // the second round wraps
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(box.try_push(frame_of(i)));
    for (int i = 0; i < 3; ++i) EXPECT_EQ(payload_of(*box.try_pop()), i);
  }
}

TEST(Mailbox, ForcePushOverwritesTheOldestFrame) {
  Mailbox box(2);
  box.force_push(frame_of(1));
  box.force_push(frame_of(2));
  box.force_push(frame_of(3));
  EXPECT_EQ(payload_of(*box.try_pop()), 2);
  EXPECT_EQ(payload_of(*box.try_pop()), 3);
  EXPECT_FALSE(box.try_pop().has_value());
  EXPECT_EQ(box.stats().overwritten, 1u);
}

TEST(ThreadRuntime, PifCompletesUnderRealConcurrency) {
  const int n = 4;
  ThreadRuntime rt(n, {.seed = 5});
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<svc::ServiceHost>(
        svc::HostConfig{.degree = n - 1}));
  svc::Client client(rt);
  const auto res = client.await_all(
      {client.submit(0, svc::PifBroadcast{Value::text("threaded")})},
      {.timeout = 10s});
  EXPECT_EQ(res, svc::AwaitResult::Done)
      << svc::await_result_name(res)
      << ": PIF did not complete on the thread runtime";

  // Every peer generated the receive-brd event for the payload.
  int brd = 0;
  for (const auto& e : rt.observations())
    if (e.kind == sim::ObsKind::RecvBrd && e.value == Value::text("threaded"))
      ++brd;
  EXPECT_EQ(brd, n - 1);
}

TEST(ThreadRuntime, PifSurvivesInjectedLoss) {
  const int n = 3;
  ThreadRuntime rt(n, {.loss_rate = 0.3, .seed = 7});
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<svc::ServiceHost>(
        svc::HostConfig{.degree = n - 1}));
  svc::Client client(rt);
  const auto res = client.await_all(
      {client.submit(1, svc::PifBroadcast{Value::text("lossy")})},
      {.timeout = 20s});
  EXPECT_EQ(res, svc::AwaitResult::Done) << svc::await_result_name(res);
}

TEST(ThreadRuntime, MutualExclusionHoldsWithAtomicWitness) {
  // The CS body increments an occupancy counter; any overlap of requested
  // critical sections would be visible as occupancy > 1.
  const int n = 3;
  ThreadRuntime rt(n, {.seed = 11});
  std::atomic<int> occupancy{0};
  std::atomic<int> peak{0};
  std::atomic<int> grants{0};
  const auto cs_body = [&occupancy, &peak, &grants] {
    const int now = occupancy.fetch_add(1) + 1;
    int expected = peak.load();
    while (now > expected && !peak.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    occupancy.fetch_sub(1);
    grants.fetch_add(1);
  };
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<svc::ServiceHost>(
        svc::HostConfig{.id = 100 + i,
                        .degree = n - 1,
                        .with_me = true,
                        .me_options = {.cs_length = 3, .cs_body = cs_body}}));
  svc::Client client(rt);
  std::vector<svc::Session> sessions;
  for (int i = 0; i < n; ++i)
    sessions.push_back(client.submit(i, svc::CriticalSection{}));
  const auto res = client.await_all(sessions, {.timeout = 30s});
  EXPECT_EQ(res, svc::AwaitResult::Done)
      << svc::await_result_name(res) << ": not every request was served";
  EXPECT_GE(grants.load(), n);
  EXPECT_EQ(peak.load(), 1) << "two critical sections overlapped";
}

TEST(ThreadRuntime, FuzzedInitialStatesStillServeRequests) {
  const int n = 3;
  ThreadRuntime rt(n, {.seed = 13});
  Rng rng(131);
  for (int i = 0; i < n; ++i) {
    auto proc = std::make_unique<svc::ServiceHost>(
        svc::HostConfig{.id = 10 * (i + 1), .degree = n - 1, .with_me = true});
    proc->randomize(rng);
    proc->me().mutable_state().cs_remaining = 0;  // no ghost CS: finite test
    rt.add_process(std::move(proc));
  }
  // The session queues until the fuzzed ghost request drains.
  svc::Client client(rt);
  const auto res = client.await_all(
      {client.submit(0, svc::CriticalSection{})}, {.timeout = 30s});
  EXPECT_EQ(res, svc::AwaitResult::Done) << svc::await_result_name(res);
}

TEST(ThreadRuntime, ResetServiceRunsOnThreads) {
  // The PIF-based services use the same Process interface, so they run on
  // the thread runtime unchanged.
  const int n = 3;
  ThreadRuntime rt(n, {.seed = 19});
  std::atomic<int> hooks{0};
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .degree = n - 1,
        .with_reset = true,
        .on_reset = [&hooks](sim::Context&) { hooks.fetch_add(1); }}));
  svc::Client client(rt);
  const auto res =
      client.await_all({client.submit(0, svc::Reset{})}, {.timeout = 10s});
  EXPECT_EQ(res, svc::AwaitResult::Done) << svc::await_result_name(res);
  EXPECT_EQ(hooks.load(), n);  // initiator + every peer
}

TEST(ThreadRuntime, ElectionServiceRunsOnThreads) {
  const int n = 4;
  ThreadRuntime rt(n, {.seed = 23});
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
        .id = 100 - i, .degree = n - 1, .with_election = true}));
  svc::Client client(rt);
  std::vector<svc::Session> sessions;
  for (int i = 0; i < n; ++i)
    sessions.push_back(client.submit(i, svc::Election{}));
  const auto res = client.await_all(sessions, {.timeout = 20s});
  ASSERT_EQ(res, svc::AwaitResult::Done) << svc::await_result_name(res);
  for (const svc::Session& s : sessions)
    EXPECT_EQ(client.result(s).min_id, 100 - (n - 1));  // the smallest id
}

// The fault engine on both transports: crash storms, a flapping link,
// garbage, loss and duplicate windows all go through one RuntimeInjector
// path, and once every window has elapsed the snap-stabilization contract
// holds: a fresh request completes.
enum class TransportKind { Mailbox, Socket };
enum class StormPlan { CrashFlap, CrashGarbageLossDup };

std::unique_ptr<live::Runtime> make_runtime(TransportKind t,
                                            const sim::Topology& topo,
                                            std::uint64_t seed) {
  if (t == TransportKind::Mailbox)
    return std::make_unique<ThreadRuntime>(topo,
                                           ThreadRuntimeOptions{.seed = seed});
  return std::make_unique<net::SocketRuntime>(
      topo, net::SocketRuntimeOptions{.seed = seed});
}

fault::FaultPlanSpec storm_spec(StormPlan plan) {
  fault::FaultPlanSpec fs;
  fs.horizon = 400;
  fs.min_len = 20;
  if (plan == StormPlan::CrashFlap) {
    fs.seed = 29;
    fs.max_len = 60;
    fault::PatternSpec crash;
    crash.kind = fault::PatternKind::CrashStorm;
    crash.begin = 20;
    crash.span = 200;
    crash.count = 3;
    crash.len = 40;
    fault::PatternSpec flap;
    flap.kind = fault::PatternKind::FlappingLink;
    flap.begin = 50;
    flap.count = 3;
    flap.len = 30;
    flap.period = 90;
    fs.patterns = {crash, flap};
  } else {
    fs.seed = 47;
    fs.max_len = 80;
    fs.crash_windows = 2;
    fs.garbage_windows = 3;
    fs.loss_windows = 3;
    fs.duplicate_windows = 2;
    fs.rate = 0.4;
  }
  return fs;
}

class RuntimeInjectorStorm
    : public ::testing::TestWithParam<std::tuple<TransportKind, StormPlan>> {
};

TEST_P(RuntimeInjectorStorm, CeasesAndFreshRequestCompletes) {
  const auto [transport, plan_kind] = GetParam();
  const int n = 4;
  const sim::Topology topo = sim::Topology::complete(n);
  const fault::FaultPlanSpec fs = storm_spec(plan_kind);
  const fault::FaultPlan plan = fault::FaultPlan::compile(fs, topo);
  ASSERT_FALSE(plan.empty());

  const std::unique_ptr<live::Runtime> rt =
      make_runtime(transport, topo, fs.seed);
  for (int i = 0; i < n; ++i)
    rt->add_process(std::make_unique<svc::ServiceHost>(
        svc::HostConfig{.degree = n - 1}));

  fault::RuntimeInjectorOptions io;
  io.step_duration = std::chrono::microseconds(200);
  io.poll_interval = std::chrono::milliseconds(1);
  fault::RuntimeInjector inj(plan, *rt, io);
  rt->start();
  inj.start();

  std::atomic<bool> requested{false};
  const bool ok = rt->run(
      [&rt, &inj, &requested] {
        if (!inj.done()) return false;  // the fault still rages
        return rt->with_process<svc::ServiceHost>(
            0, [&requested](svc::ServiceHost& p) {
              if (!requested.load()) {
                if (!p.pif().done()) return false;
                p.pif().request(Value::text("post-storm"));
                requested.store(true);
                return false;
              }
              return p.pif().done();
            });
      },
      30s);
  inj.stop();
  rt->shutdown();
  EXPECT_TRUE(ok) << "post-storm request did not complete; "
                  << plan.repro_line();
  EXPECT_GT(inj.counters().crashes, 0u) << plan.repro_line();
  if (fs.garbage_windows > 0) {
    EXPECT_GT(inj.counters().garbage_bursts, 0u) << plan.repro_line();
    // Every garbage burst carries one raw-noise blob that must die in
    // frame validation, whichever transport carried it.
    EXPECT_GT(rt->stats().rejected_frames, 0u) << plan.repro_line();
  }
}

std::string storm_case_name(
    const ::testing::TestParamInfo<std::tuple<TransportKind, StormPlan>>&
        info) {
  const TransportKind transport = std::get<0>(info.param);
  const StormPlan plan = std::get<1>(info.param);
  return std::string(transport == TransportKind::Mailbox ? "Mailbox"
                                                         : "Socket") +
         (plan == StormPlan::CrashFlap ? "CrashFlap" : "CrashGarbageLossDup");
}

INSTANTIATE_TEST_SUITE_P(
    Transports, RuntimeInjectorStorm,
    ::testing::Combine(::testing::Values(TransportKind::Mailbox,
                                         TransportKind::Socket),
                       ::testing::Values(StormPlan::CrashFlap,
                                         StormPlan::CrashGarbageLossDup)),
    storm_case_name);

TEST(ThreadRuntime, ObservationsAreMonotonic) {
  const int n = 2;
  ThreadRuntime rt(n, {.seed = 17});
  for (int i = 0; i < n; ++i)
    rt.add_process(std::make_unique<svc::ServiceHost>(
        svc::HostConfig{.degree = n - 1}));
  rt.with_process<svc::ServiceHost>(0, [](svc::ServiceHost& p) {
    p.pif().request(Value::integer(1));
    return 0;
  });
  rt.run(
      [&rt] {
        return rt.with_process<svc::ServiceHost>(
            0, [](svc::ServiceHost& p) { return p.pif().done(); });
      },
      10s);
  const auto obs = rt.observations();
  ASSERT_FALSE(obs.empty());
  for (std::size_t i = 1; i < obs.size(); ++i)
    EXPECT_LT(obs[i - 1].step, obs[i].step);
}

}  // namespace
}  // namespace snapstab::runtime
