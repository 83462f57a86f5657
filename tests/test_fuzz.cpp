// test_fuzz.cpp — arbitrary initial configurations respect the model.
#include <gtest/gtest.h>

#include "svc/host.hpp"
#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace snapstab::sim {
namespace {

TEST(Fuzz, BoundedChannelsNeverOverfilled) {
  for (std::size_t cap : {1u, 2u, 4u}) {
    Simulator sim(4, cap, 1);
    for (int i = 0; i < 4; ++i)
      sim.add_process(std::make_unique<ProbeProcess>());
    Rng rng(17);
    FuzzOptions opts;
    opts.channel_fill = 1.0;
    fuzz(sim, rng, opts);
    for (int s = 0; s < 4; ++s)
      for (int d = 0; d < 4; ++d)
        if (s != d) {
          EXPECT_LE(sim.network().channel(s, d).size(), cap);
        }
  }
}

TEST(Fuzz, UnboundedChannelsGetSeveralMessages) {
  Simulator sim(2, Channel::kUnbounded, 1);
  sim.add_process(std::make_unique<ProbeProcess>());
  sim.add_process(std::make_unique<ProbeProcess>());
  Rng rng(23);
  FuzzOptions opts;
  opts.channel_fill = 1.0;
  opts.unbounded_messages = 6;
  fuzz(sim, rng, opts);
  EXPECT_GE(sim.network().channel(0, 1).size(), 1u);
  EXPECT_LE(sim.network().channel(0, 1).size(), 6u);
}

TEST(Fuzz, FlagLimitRespected) {
  Simulator sim(3, 1, 1);
  for (int i = 0; i < 3; ++i) sim.add_process(std::make_unique<ProbeProcess>());
  Rng rng(29);
  FuzzOptions opts;
  opts.channel_fill = 1.0;
  opts.flag_limit = 6;  // capacity-2 protocol: flags 0..6
  fuzz(sim, rng, opts);
  for (int s = 0; s < 3; ++s)
    for (int d = 0; d < 3; ++d) {
      if (s == d) continue;
      for (const auto& m : sim.network().channel(s, d).contents()) {
        EXPECT_GE(m.state, 0);
        EXPECT_LE(m.state, 6);
      }
    }
}

TEST(Fuzz, ProcessStatesAreRandomized) {
  // Two different fuzz seeds must produce different protocol states
  // somewhere (sanity that randomize() reaches the variables).
  auto snapshot = [](std::uint64_t seed) {
    Simulator sim(3, 1, 1);
    for (int i = 0; i < 3; ++i)
      sim.add_process(std::make_unique<svc::ServiceHost>(
          svc::HostConfig{.id = i + 1, .degree = 2, .with_me = true}));
    Rng rng(seed);
    fuzz(sim, rng, FuzzOptions{.channels = false});
    std::vector<int> state;
    for (int p = 0; p < 3; ++p) {
      auto& stack = sim.process_as<svc::ServiceHost>(p);
      state.push_back(static_cast<int>(stack.pif().state().request));
      state.push_back(stack.me().phase());
      state.push_back(stack.me().value());
      for (int ch = 0; ch < 2; ++ch) state.push_back(stack.pif().state().state[static_cast<std::size_t>(ch)]);
    }
    return state;
  };
  EXPECT_NE(snapshot(1), snapshot(2));
  EXPECT_EQ(snapshot(3), snapshot(3));  // and deterministic per seed
}

TEST(Fuzz, DomainsRespectedForProtocolStacks) {
  Simulator sim(4, 1, 1);
  for (int i = 0; i < 4; ++i)
    sim.add_process(std::make_unique<svc::ServiceHost>(
        svc::HostConfig{.id = i * 10, .degree = 3, .with_me = true}));
  Rng rng(31);
  fuzz(sim, rng);
  for (int p = 0; p < 4; ++p) {
    auto& stack = sim.process_as<svc::ServiceHost>(p);
    const auto& pst = stack.pif().state();
    for (int ch = 0; ch < 3; ++ch) {
      EXPECT_GE(pst.state[static_cast<std::size_t>(ch)], 0);
      EXPECT_LE(pst.state[static_cast<std::size_t>(ch)], stack.pif().flag_bound());
      EXPECT_GE(pst.neig_state[static_cast<std::size_t>(ch)], 0);
      EXPECT_LE(pst.neig_state[static_cast<std::size_t>(ch)],
                stack.pif().flag_bound());
    }
    EXPECT_GE(stack.me().phase(), 0);
    EXPECT_LE(stack.me().phase(), 4);
    EXPECT_GE(stack.me().value(), 0);
    EXPECT_LE(stack.me().value(), 3);  // mod-n domain {0..n-1}, n = 4
  }
}

TEST(Fuzz, ChannelOnlyAndProcessOnlyModes) {
  Simulator sim(2, 1, 1);
  sim.add_process(std::make_unique<ProbeProcess>());
  sim.add_process(std::make_unique<ProbeProcess>());
  Rng rng(37);
  fuzz(sim, rng, FuzzOptions{.processes = false, .channel_fill = 1.0});
  EXPECT_GE(sim.network().total_messages_in_flight(), 1u);

  fuzz(sim, rng, FuzzOptions{.channels = false});
  // channels untouched by the second call
  EXPECT_GE(sim.network().total_messages_in_flight(), 1u);
}

}  // namespace
}  // namespace snapstab::sim
