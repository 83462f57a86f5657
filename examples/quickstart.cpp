// quickstart — the paper's own running example (Section 4.1).
//
// Process p wants to know the age of process q. It performs a PIF of the
// message "How old are you?"; q answers its age in the feedback. We start
// from a deliberately corrupted configuration — garbage in both channels,
// scrambled protocol variables — and the request is still served correctly:
// that is snap-stabilization.
//
// The request goes through the unified service API: submit a typed
// descriptor, get a Session mirroring the paper's Request variable
// (Wait -> In -> Done), await it with await_all.
//
// Build & run:  ./examples/quickstart
#include <cstdio>
#include <memory>

#include "sim/fuzz.hpp"
#include "sim/simulator.hpp"
#include "sim/timeline.hpp"
#include "svc/client.hpp"

using namespace snapstab;

int main() {
  std::printf("Snap-stabilizing PIF quickstart: 'How old are you?'\n\n");

  const std::int64_t age_of_q = 33;

  // Two processes; q's application-level feedback hook answers its age
  // whenever it sees the age question.
  sim::Simulator world(2, /*channel capacity=*/1, /*seed=*/2024);
  world.add_process(
      std::make_unique<svc::ServiceHost>(svc::HostConfig{.degree = 1}));  // p
  world.add_process(std::make_unique<svc::ServiceHost>(svc::HostConfig{
      .degree = 1,
      .app_brd = [age_of_q](sim::Context&, int,
                            const Value& question) -> Value {
        if (question.as_text() == "How old are you?")
          return Value::integer(age_of_q);
        return Value::token(Token::Ok);
      }}));  // q
  world.set_scheduler(std::make_unique<sim::RandomScheduler>(99));

  // Transient fault: scramble every variable and stuff garbage into the
  // channels — the arbitrary initial configuration of the paper.
  Rng chaos(7);
  sim::fuzz(world, chaos);
  std::printf("initial configuration: corrupted (fuzzed states, %zu stale "
              "messages in flight)\n",
              world.network().total_messages_in_flight());

  // The request: one session of the PifBroadcast service at p. Submitting
  // sets PIF.Request_p := Wait, exactly as the paper prescribes.
  svc::Client client(world);
  const svc::Session ask =
      client.submit(0, svc::PifBroadcast{Value::text("How old are you?")});
  if (client.await_all({ask}, {.max_steps = 100'000}) !=
      svc::AwaitResult::Done) {
    std::printf("ERROR: the computation did not terminate\n");
    return 1;
  }

  // The full protocol-event timeline of the execution.
  std::printf("%s\n", sim::render_timeline(world.log()).c_str());
  std::printf("\nsession (origin=%d, service=%s, seq=%u) is %s after "
              "%llu steps, %llu messages sent\n",
              ask.key.origin, svc::service_name(ask.key.service), ask.key.seq,
              client.done(ask) ? "Done" : "not Done",
              static_cast<unsigned long long>(world.step_count()),
              static_cast<unsigned long long>(world.metrics().sends));
  std::printf("q is %lld years old. Despite the corrupted start.\n",
              static_cast<long long>(age_of_q));
  return 0;
}
