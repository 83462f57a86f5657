// test_specs.cpp — the checkers themselves are load-bearing test
// infrastructure; verify they detect every violation class on synthetic
// observation streams (a checker that never fires proves nothing).
#include <gtest/gtest.h>

#include <memory>

#include "core/specs.hpp"
#include "test_util.hpp"

namespace snapstab::core {
namespace {

using sim::Layer;
using sim::Observation;
using sim::ObsKind;
using sim::Simulator;

// A 3-process world whose log the tests write by hand.
std::unique_ptr<Simulator> blank_world(int n = 3) {
  auto sim = std::make_unique<Simulator>(n, 1, 1);
  for (int i = 0; i < n; ++i)
    sim->add_process(std::make_unique<sim::ProbeProcess>());
  return sim;
}

void emit(Simulator& sim, std::uint64_t step, int p, Layer layer, ObsKind k,
          int peer = -1, Value v = Value::none()) {
  sim.log().emit(Observation{step, p, layer, k, peer, std::move(v)});
}

TEST(PifSpecChecker, AcceptsACompleteComputation) {
  auto sim = blank_world();
  const Value m = Value::text("m");
  emit(*sim, 1, 0, Layer::Pif, ObsKind::RequestWait);
  emit(*sim, 2, 0, Layer::Pif, ObsKind::Start, -1, m);
  // p1 and p2 receive the broadcast; p0 gets one feedback per channel.
  emit(*sim, 3, 1, Layer::Pif, ObsKind::RecvBrd, 1, m);  // p0 is ch 1 at p1
  emit(*sim, 4, 2, Layer::Pif, ObsKind::RecvBrd, 0, m);  // p0 is ch 0 at p2
  emit(*sim, 5, 0, Layer::Pif, ObsKind::RecvFck, 0);
  emit(*sim, 6, 0, Layer::Pif, ObsKind::RecvFck, 1);
  emit(*sim, 7, 0, Layer::Pif, ObsKind::Decide, -1, m);
  EXPECT_TRUE(check_pif_spec(*sim).ok());
}

TEST(PifSpecChecker, FlagsMissingStart) {
  auto sim = blank_world();
  emit(*sim, 1, 0, Layer::Pif, ObsKind::RequestWait);
  const auto report = check_pif_spec(*sim);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("never started"), std::string::npos);
}

TEST(PifSpecChecker, FlagsMissingTermination) {
  auto sim = blank_world();
  emit(*sim, 1, 0, Layer::Pif, ObsKind::Start, -1, Value::text("m"));
  const auto report = check_pif_spec(*sim);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].find("never decided"), std::string::npos);
  // …and the relaxed mode tolerates it (budget-bounded runs).
  EXPECT_TRUE(check_pif_spec(*sim, {.require_termination = false,
                                    .require_start = false})
                  .ok());
}

TEST(PifSpecChecker, FlagsMissingBroadcastReceipt) {
  auto sim = blank_world();
  const Value m = Value::text("m");
  emit(*sim, 1, 0, Layer::Pif, ObsKind::Start, -1, m);
  emit(*sim, 2, 1, Layer::Pif, ObsKind::RecvBrd, 1, m);
  // p2 never receives m.
  emit(*sim, 3, 0, Layer::Pif, ObsKind::RecvFck, 0);
  emit(*sim, 4, 0, Layer::Pif, ObsKind::RecvFck, 1);
  emit(*sim, 5, 0, Layer::Pif, ObsKind::Decide, -1, m);
  const auto report = check_pif_spec(*sim);
  ASSERT_FALSE(report.ok());
  bool found = false;
  for (const auto& v : report.violations)
    if (v.find("never received by p2") != std::string::npos) found = true;
  EXPECT_TRUE(found) << report.summary();
}

TEST(PifSpecChecker, FlagsWrongPayloadReceipt) {
  auto sim = blank_world(2);
  emit(*sim, 1, 0, Layer::Pif, ObsKind::Start, -1, Value::text("m"));
  emit(*sim, 2, 1, Layer::Pif, ObsKind::RecvBrd, 0, Value::text("other"));
  emit(*sim, 3, 0, Layer::Pif, ObsKind::RecvFck, 0);
  emit(*sim, 4, 0, Layer::Pif, ObsKind::Decide);
  EXPECT_FALSE(check_pif_spec(*sim).ok());
}

TEST(PifSpecChecker, FlagsDuplicateFeedback) {
  auto sim = blank_world(2);
  const Value m = Value::text("m");
  emit(*sim, 1, 0, Layer::Pif, ObsKind::Start, -1, m);
  emit(*sim, 2, 1, Layer::Pif, ObsKind::RecvBrd, 0, m);
  emit(*sim, 3, 0, Layer::Pif, ObsKind::RecvFck, 0);
  emit(*sim, 4, 0, Layer::Pif, ObsKind::RecvFck, 0);  // duplicate
  emit(*sim, 5, 0, Layer::Pif, ObsKind::Decide, -1, m);
  const auto report = check_pif_spec(*sim);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("expected exactly 1"), std::string::npos);
}

TEST(PifSpecChecker, IgnoresOtherLayers) {
  auto sim = blank_world(2);
  emit(*sim, 1, 0, Layer::Baseline, ObsKind::Start, -1, Value::text("m"));
  // No Pif-layer events at all: nothing to check.
  EXPECT_TRUE(check_pif_spec(*sim).ok());
  // But the Baseline checker sees the unterminated start.
  EXPECT_FALSE(check_pif_spec(*sim, {.layer = Layer::Baseline}).ok());
}

TEST(MeSpecChecker, AcceptsDisjointIntervals) {
  auto sim = blank_world(2);
  emit(*sim, 1, 0, Layer::Me, ObsKind::RequestWait);
  emit(*sim, 2, 0, Layer::Me, ObsKind::CsEnter, -1, Value::integer(1));
  emit(*sim, 5, 0, Layer::Me, ObsKind::CsExit, -1, Value::integer(1));
  emit(*sim, 7, 1, Layer::Me, ObsKind::CsEnter, -1, Value::integer(0));
  emit(*sim, 9, 1, Layer::Me, ObsKind::CsExit, -1, Value::integer(0));
  EXPECT_TRUE(check_me_spec(*sim).ok());
}

TEST(MeSpecChecker, FlagsOverlapWithRequestedInterval) {
  auto sim = blank_world(2);
  emit(*sim, 1, 0, Layer::Me, ObsKind::CsEnter, -1, Value::integer(1));
  emit(*sim, 3, 1, Layer::Me, ObsKind::CsEnter, -1, Value::integer(0));
  emit(*sim, 5, 0, Layer::Me, ObsKind::CsExit, -1, Value::integer(1));
  emit(*sim, 7, 1, Layer::Me, ObsKind::CsExit, -1, Value::integer(0));
  const auto report = check_me_spec(*sim, {.require_liveness = false});
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("mutual exclusion violated"),
            std::string::npos);
}

TEST(MeSpecChecker, AllowsGhostGhostOverlap) {
  // Footnote 1: non-requesting processes may be in the CS concurrently.
  auto sim = blank_world(2);
  emit(*sim, 1, 0, Layer::Me, ObsKind::CsEnter, -1, Value::integer(0));
  emit(*sim, 2, 1, Layer::Me, ObsKind::CsEnter, -1, Value::integer(0));
  emit(*sim, 5, 0, Layer::Me, ObsKind::CsExit, -1, Value::integer(0));
  emit(*sim, 6, 1, Layer::Me, ObsKind::CsExit, -1, Value::integer(0));
  EXPECT_TRUE(check_me_spec(*sim, {.require_liveness = false}).ok());
}

TEST(MeSpecChecker, GhostExitWithoutEnterIsAnInitialInterval) {
  // A CsExit with no CsEnter means the process started inside the CS: the
  // interval [0, exit] must still exclude requested intervals.
  auto sim = blank_world(2);
  emit(*sim, 4, 1, Layer::Me, ObsKind::CsExit, -1, Value::integer(0));
  emit(*sim, 2, 0, Layer::Me, ObsKind::CsEnter, -1, Value::integer(1));
  emit(*sim, 6, 0, Layer::Me, ObsKind::CsExit, -1, Value::integer(1));
  const auto report = check_me_spec(*sim, {.require_liveness = false});
  EXPECT_FALSE(report.ok()) << "requested interval overlapped [0,4] ghost";
}

TEST(MeSpecChecker, FlagsStarvedRequest) {
  auto sim = blank_world(2);
  emit(*sim, 1, 0, Layer::Me, ObsKind::RequestWait);
  const auto strict = check_me_spec(*sim);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.summary().find("never served"), std::string::npos);
  EXPECT_TRUE(check_me_spec(*sim, {.require_liveness = false}).ok());
}

TEST(MeSpecChecker, UnclosedRequestedIntervalStillChecksOverlap) {
  auto sim = blank_world(2);
  emit(*sim, 1, 0, Layer::Me, ObsKind::CsEnter, -1, Value::integer(1));
  // never exits (run truncated); another process enters meanwhile
  emit(*sim, 3, 1, Layer::Me, ObsKind::CsEnter, -1, Value::integer(0));
  const auto report = check_me_spec(*sim, {.require_liveness = false});
  EXPECT_FALSE(report.ok());
}

TEST(IdlSpecChecker, DetectsWrongTable) {
  auto sim = blank_world(2);
  // Fabricate a started-and-decided IDL computation at p0.
  emit(*sim, 1, 0, Layer::Idl, ObsKind::Start, -1, Value::integer(5));
  emit(*sim, 2, 0, Layer::Idl, ObsKind::Decide, -1, Value::integer(5));
  Idl::State good{RequestState::Done, 5, {9}};
  Idl::State bad{RequestState::Done, 7, {9}};
  Pif pif(1, 1);
  Idl idl_good(5, 1, pif);
  idl_good.mutable_state() = good;
  Idl idl_bad(5, 1, pif);
  idl_bad.mutable_state() = bad;

  const std::vector<std::int64_t> ids = {5, 9};
  EXPECT_TRUE(check_idl_spec(
                  *sim, [&](sim::ProcessId) -> const Idl& { return idl_good; },
                  ids)
                  .ok());
  const auto report = check_idl_spec(
      *sim, [&](sim::ProcessId) -> const Idl& { return idl_bad; }, ids);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.summary().find("minID"), std::string::npos);
}

TEST(SpecReport, SummaryFormats) {
  SpecReport report;
  EXPECT_EQ(report.summary(), "OK");
  report.add("first problem");
  report.add("second problem");
  const std::string s = report.summary();
  EXPECT_NE(s.find("2 violation(s)"), std::string::npos);
  EXPECT_NE(s.find("first problem"), std::string::npos);
}

}  // namespace
}  // namespace snapstab::core
