// test_smoke.cpp — end-to-end smoke: every protocol completes one requested
// computation from a clean configuration and from a fuzzed one.
#include <gtest/gtest.h>

#include "core/specs.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "svc/client.hpp"

namespace snapstab {
namespace {

using sim::Simulator;

TEST(Smoke, PifCompletesFromCleanState) {
  Simulator sim(4, /*capacity=*/1, /*seed=*/7);
  for (int i = 0; i < 4; ++i)
    sim.add_process(std::make_unique<svc::ServiceHost>(
        svc::HostConfig{.degree = 3}));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(11));

  svc::Client client(sim);
  const auto res = client.await_all(
      {client.submit(0, svc::PifBroadcast{Value::text("hello")})},
      {.max_steps = 200'000});
  EXPECT_EQ(res, svc::AwaitResult::Done) << svc::await_result_name(res);

  const auto report = core::check_pif_spec(sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Smoke, PifCompletesFromFuzzedState) {
  Simulator sim(3, 1, 21);
  for (int i = 0; i < 3; ++i)
    sim.add_process(std::make_unique<svc::ServiceHost>(
        svc::HostConfig{.degree = 2}));
  Rng rng(99);
  sim::fuzz(sim, rng);
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(13));

  svc::Client client(sim);
  const auto res = client.await_all(
      {client.submit(1, svc::PifBroadcast{Value::text("after-fault")})},
      {.max_steps = 200'000});
  EXPECT_EQ(res, svc::AwaitResult::Done) << svc::await_result_name(res);
}

TEST(Smoke, MeServesARequest) {
  Simulator sim(3, 1, 5);
  for (int i = 0; i < 3; ++i)
    sim.add_process(std::make_unique<svc::ServiceHost>(
        svc::HostConfig{.id = 100 + i, .degree = 2, .with_me = true}));
  sim.set_scheduler(std::make_unique<sim::RandomScheduler>(17));

  svc::Client client(sim);
  const auto res = client.await_all(
      {client.submit(2, svc::CriticalSection{})}, {.max_steps = 500'000});
  EXPECT_EQ(res, svc::AwaitResult::Done) << svc::await_result_name(res);

  const auto report = core::check_me_spec(sim);
  EXPECT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace snapstab
