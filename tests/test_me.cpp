// test_me.cpp — Protocol ME (Algorithm 3): Specification 3 / Theorem 4,
// one test per lemma, plus the mod-(n+1) regression of DESIGN.md §6.
#include <gtest/gtest.h>

#include <memory>

#include "core/specs.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"

namespace snapstab::core {
namespace {

using sim::Simulator;

std::unique_ptr<Simulator> me_world(const std::vector<std::int64_t>& ids,
                                    std::uint64_t seed, MeOptions me = {}) {
  const int n = static_cast<int>(ids.size());
  auto sim = std::make_unique<Simulator>(n, 1, seed);
  for (int i = 0; i < n; ++i)
    sim->add_process(std::make_unique<svc::ServiceHost>(
        svc::HostConfig{.id = ids[static_cast<std::size_t>(i)],
                        .degree = n - 1,
                        .with_me = true,
                        .me_options = me}));
  return sim;
}

Me& me_of(Simulator& sim, int p) {
  return sim.process_as<svc::ServiceHost>(p).me();
}

// Submits a critical-section session at `p` and awaits it.
svc::AwaitResult serve_cs(Simulator& sim, int p, std::uint64_t max_steps) {
  svc::Client client(sim);
  return client.await_all({client.submit(p, svc::CriticalSection{})},
                          {.max_steps = max_steps});
}

TEST(Me, SingleRequestIsServed) {
  // Lemma 12 (Start): a requesting process enters the CS in finite time.
  auto sim = me_world({30, 10, 20}, 1);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(2));
  ASSERT_EQ(serve_cs(*sim, 0, 1'000'000), svc::AwaitResult::Done);
  const auto report = check_me_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Me, LeaderItselfCanRequest) {
  auto sim = me_world({10, 30, 20}, 3);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(4));
  // Process 0 holds the smallest id.
  ASSERT_EQ(serve_cs(*sim, 0, 1'000'000), svc::AwaitResult::Done);
  EXPECT_TRUE(check_me_spec(*sim).ok());
}

TEST(Me, AllProcessesRequestingAreAllServedExclusively) {
  auto sim = me_world({5, 9, 2, 7}, 5);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(6));
  svc::Client client(*sim);
  std::vector<svc::Session> sessions;
  for (int p = 0; p < 4; ++p)
    sessions.push_back(client.submit(p, svc::CriticalSection{}));
  const auto res = client.await_all(sessions, {.max_steps = 4'000'000});
  ASSERT_EQ(res, svc::AwaitResult::Done) << svc::await_result_name(res);
  const auto report = check_me_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
  // Every process entered the CS exactly once (one request each).
  int enters = 0;
  for (const auto& e : sim->log().events())
    if (e.layer == sim::Layer::Me && e.kind == sim::ObsKind::CsEnter &&
        e.value.as_int() == 1)
      ++enters;
  EXPECT_EQ(enters, 4);
}

TEST(Me, RequestWhileInServiceIsRejected) {
  auto sim = me_world({1, 2}, 7);
  ASSERT_TRUE(me_of(*sim, 0).request_cs());
  EXPECT_FALSE(me_of(*sim, 0).request_cs());  // no re-request until Done
}

TEST(Me, FavourRotationVisitsEveryProcess) {
  // Lemma 11: Value_L is incremented (mod n) infinitely often, so the
  // favour token visits every process even when nobody requests.
  auto sim = me_world({100, 200, 300}, 9);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(10));
  std::set<int> favoured;
  for (int probe = 0; probe < 12; ++probe) {
    const int before = me_of(*sim, 0).value();
    sim->run(400'000, [before](Simulator& s) {
      return s.process_as<svc::ServiceHost>(0).me().value() != before;
    });
    favoured.insert(me_of(*sim, 0).value());
  }
  // Domain {0,1,2} fully visited.
  EXPECT_EQ(favoured, (std::set<int>{0, 1, 2}));
}

TEST(Me, ExitForcesEveryoneToPhaseZero) {
  // Lemma 7: before a winner enters the CS, every other process passed
  // through phase 0 (the EXIT broadcast resets them).
  auto sim = me_world({10, 20, 30}, 11);
  // Fuzz the two non-leaders to arbitrary mid-cycle phases.
  me_of(*sim, 1).mutable_state().phase = 3;
  me_of(*sim, 2).mutable_state().phase = 2;
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(12));
  svc::Client(*sim).submit(0, svc::CriticalSection{});
  ASSERT_EQ(sim->run(1'000'000,
                     [](Simulator& s) {
                       return s.process_as<svc::ServiceHost>(0).me().in_cs();
                     }),
            Simulator::StopReason::Predicate);
  // The EXIT broadcast was received by both peers before the CS entry.
  int exits_received = 0;
  for (const auto& e : sim->log().events())
    if (e.kind == sim::ObsKind::RecvBrd && e.value.is_token(Token::Exit))
      ++exits_received;
  EXPECT_GE(exits_received, 2);
}

TEST(Me, GhostWinnerCannotStealTheCs) {
  // A process fuzzed to believe it is the winner (phase 3, privileges set)
  // without any request: it may execute a ghost CS once, but a requesting
  // process is still served exclusively.
  auto sim = me_world({10, 20, 30}, 13);
  auto& ghost = me_of(*sim, 2);
  ghost.mutable_state().phase = 3;
  ghost.mutable_state().request = RequestState::In;  // ghost "request"
  ghost.mutable_state().privileges = {true, true};
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(14));
  ASSERT_EQ(serve_cs(*sim, 1, 2'000'000), svc::AwaitResult::Done);
  const auto report = check_me_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Me, GhostInsideCsDelaysButDoesNotBreakExclusion) {
  // The footnote-1 adversary: a process starts *inside* a ghost CS. The
  // requesting process must wait it out (the ghost ignores messages while
  // busy) and then be served alone.
  auto sim = me_world({10, 20}, 15, {.cs_length = 5});
  auto& ghost = me_of(*sim, 1);
  ghost.mutable_state().cs_remaining = 5;  // mid-CS at time 0
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(16));
  ASSERT_EQ(serve_cs(*sim, 0, 2'000'000), svc::AwaitResult::Done);
  const auto report = check_me_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Me, ServesRepeatedRequestsFairly) {
  // Repeated requests from everyone: each gets the CS again and again.
  auto sim = me_world({3, 1, 2}, 17);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(18));
  std::vector<int> grants(3, 0);
  svc::Client client(*sim);
  std::vector<svc::Session> sessions;
  for (int p = 0; p < 3; ++p)
    sessions.push_back(client.submit(p, svc::CriticalSection{}));
  for (int iteration = 0; iteration < 40; ++iteration) {
    sim->run(300'000, [&](Simulator&) {
      for (const svc::Session& s : sessions)
        if (client.done(s)) return true;
      return false;
    });
    for (int p = 0; p < 3; ++p) {
      auto& s = sessions[static_cast<std::size_t>(p)];
      if (client.done(s)) {
        ++grants[static_cast<std::size_t>(p)];
        s = client.submit(p, svc::CriticalSection{});  // request again
      }
    }
  }
  const auto report = check_me_spec(*sim, {.require_liveness = false});
  EXPECT_TRUE(report.ok()) << report.summary();
  for (int p = 0; p < 3; ++p)
    EXPECT_GE(grants[static_cast<std::size_t>(p)], 2) << "p" << p;
}

TEST(Me, WinnerPredicateMatchesPaperDefinition) {
  Pif pif(2, 1);
  Idl idl(10, 2, pif);
  Me me(10, 2, pif, idl, {});
  // Case 1: leader with Value = 0.
  idl.mutable_state().min_id = 10;
  me.mutable_state().value = 0;
  EXPECT_TRUE(me.winner());
  // Case 2: leader with Value != 0.
  me.mutable_state().value = 1;
  EXPECT_FALSE(me.winner());
  // Case 3: non-leader with a privilege from the leader.
  idl.mutable_state().min_id = 4;
  idl.mutable_state().id_tab = {4, 30};
  me.mutable_state().privileges = {true, false};
  EXPECT_TRUE(me.winner());
  // Case 4: privilege from a non-leader does not count.
  me.mutable_state().privileges = {false, true};
  EXPECT_FALSE(me.winner());
}

TEST(Me, PaperFaithfulIncrementDeadlocks) {
  // DESIGN.md §6.1: with A7's literal `(Value+1) mod (n+1)`, Value_L = n
  // favours nobody and the token never advances again — requests starve.
  auto sim = me_world({10, 20, 30}, 19, {.paper_faithful_increment = true});
  me_of(*sim, 0).mutable_state().value = 3;  // n = 3: the poison value
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(20));
  EXPECT_EQ(serve_cs(*sim, 1, 400'000), svc::AwaitResult::BudgetExhausted);
  EXPECT_EQ(me_of(*sim, 0).value(), 3);  // frozen forever
}

TEST(Me, ModNFixSurvivesTheSamePoisonValue) {
  // With the mod-n fix the domain is {0..n-1}; even if fuzzing plants an
  // out-of-domain Value (possible only with the faithful flag off via
  // direct state surgery), A7 cannot be reached… instead plant n-1 and
  // verify rotation continues through 0.
  auto sim = me_world({10, 20, 30}, 21);
  me_of(*sim, 0).mutable_state().value = 2;  // last in-domain value
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(22));
  EXPECT_EQ(serve_cs(*sim, 1, 2'000'000), svc::AwaitResult::Done);
}

TEST(Me, CsBodyRunsExactlyOncePerGrant) {
  int executions = 0;
  auto sim = me_world({10, 20}, 23,
                      {.cs_body = [&executions] { ++executions; }});
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(24));
  ASSERT_EQ(serve_cs(*sim, 1, 2'000'000), svc::AwaitResult::Done);
  // cs_body runs for the requested CS of p1; p0's (10) non-requesting wins
  // skip the CS entirely, so only ghost CS could add counts — none here
  // (clean start).
  EXPECT_EQ(executions, 1);
}

TEST(Me, BusyProcessBlocksDeliveries) {
  auto sim = me_world({10, 20}, 25, {.cs_length = 50});
  auto& stack = sim->process_as<svc::ServiceHost>(0);
  stack.me().mutable_state().cs_remaining = 50;
  EXPECT_TRUE(stack.busy());
  sim->network().channel(1, 0).push(Message::pif(
      Value::token(Token::Ask), Value::none(), 3, 0));
  // The random scheduler must not pick the delivery; run a while and check
  // the message is still pending.
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(26));
  sim->run(40);
  EXPECT_EQ(sim->network().channel(1, 0).size(), 1u);
}

class MeProperty
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, double>> {
};

TEST_P(MeProperty, Specification3FromArbitraryConfigurations) {
  const auto [n, seed, loss] = GetParam();
  std::vector<std::int64_t> ids;
  for (int i = 0; i < n; ++i) ids.push_back((i * 37) % 101 + 1);

  auto sim = me_world(ids, seed);
  Rng rng(seed ^ 0xCAFE);
  sim::fuzz(*sim, rng);
  sim->set_scheduler(std::make_unique<sim::RandomScheduler>(
      seed + 1, sim::LossOptions{.rate = loss, .max_consecutive = 5}));

  // Ghost computations may hold the Request variable initially; each
  // session queues until its process's ghost request has drained.
  svc::Client client(*sim);
  std::vector<svc::Session> sessions;
  for (int p = 0; p < n; ++p)
    sessions.push_back(client.submit(p, svc::CriticalSection{}));
  const auto res = client.await_all(sessions, {.max_steps = 6'000'000});
  ASSERT_EQ(res, svc::AwaitResult::Done) << svc::await_result_name(res);

  const auto report = check_me_spec(*sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MeProperty,
    ::testing::Combine(::testing::Values(2, 3, 5),
                       ::testing::Values(101ull, 102ull, 103ull),
                       ::testing::Values(0.0, 0.15)));

}  // namespace
}  // namespace snapstab::core
