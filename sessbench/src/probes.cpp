// probes.cpp — codec and frame timings, measured from outside.
//
// msg/codec.hpp encode/decode and net/wire.hpp encode_frame/decode_frame
// are timed over a fixed seeded set of the messages the workloads send:
// PIF broadcasts and feedbacks whose values are integers or text. Every
// decode is compared with the message that was encoded.
#include "probes.hpp"

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "msg/codec.hpp"
#include "msg/message.hpp"
#include "msg/strpool.hpp"
#include "net/wire.hpp"

namespace sessbench {

using namespace snapstab;

namespace {

constexpr int kSetSize = 256;
constexpr int kPasses = 200;  // kSetSize * kPasses operations per timing
constexpr int kRepeats = 7;   // the reported figure is their median

std::vector<Message> message_set(std::uint64_t seed) {
  Rng rng(seed ^ 0xC0DEC);
  std::vector<Message> set;
  set.reserve(kSetSize);
  for (int i = 0; i < kSetSize; ++i) {
    const auto state = static_cast<std::int32_t>(rng.below(5));
    const auto neig = static_cast<std::int32_t>(rng.below(5));
    const auto x = static_cast<std::int64_t>(rng.below(1u << 20));
    const Value v = rng.below(2) == 0
                        ? Value::integer(x)
                        : Value::text("payload-" + std::to_string(x));
    // Broadcast (value in B-Mes) or feedback (value in F-Mes).
    set.push_back(rng.below(2) == 0
                      ? Message::pif(v, Value::none(), state, neig)
                      : Message::pif(Value::none(), v, state, neig));
  }
  return set;
}

template <typename Fn>
double time_per_op(Fn&& fn) {
  std::vector<double> reps;
  for (int r = 0; r < kRepeats; ++r) {
    const std::uint64_t t0 = now_ns();
    for (int p = 0; p < kPasses; ++p)
      for (int i = 0; i < kSetSize; ++i) fn(i);
    reps.push_back(static_cast<double>(now_ns() - t0) /
                   (static_cast<double>(kPasses) * kSetSize));
  }
  return median(reps);
}

}  // namespace

CodecTimings time_codec(std::uint64_t seed) {
  StringPool pool;
  ScopedStringPool scope(pool);
  const std::vector<Message> set = message_set(seed);
  CodecTimings out;

  std::vector<std::vector<std::uint8_t>> bytes(kSetSize);
  std::vector<std::vector<std::uint8_t>> frames(kSetSize);
  for (int i = 0; i < kSetSize; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    bytes[idx] = encode(set[idx], pool);
    frames[idx] =
        net::encode_frame(static_cast<sim::EdgeId>(i % 6), set[idx], pool);
  }
  for (int i = 0; i < kSetSize; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const auto m = decode(bytes[idx], pool);
    if (!m || !(*m == set[idx])) ++out.mismatches;
    const net::DecodedFrame f = net::decode_frame(frames[idx].data(),
                                                  frames[idx].size(), pool);
    if (f.result != net::WireFrameResult::Ok || !(f.message == set[idx]) ||
        f.edge != static_cast<sim::EdgeId>(i % 6))
      ++out.mismatches;
  }

  std::uint64_t sink = 0;
  out.encode_ns = time_per_op([&](int i) {
    sink += encode(set[static_cast<std::size_t>(i)], pool).size();
  });
  out.decode_ns = time_per_op([&](int i) {
    const auto& b = bytes[static_cast<std::size_t>(i)];
    sink += decode(b.data(), b.size(), pool).has_value() ? 1 : 0;
  });
  out.encode_frame_ns = time_per_op([&](int i) {
    sink += net::encode_frame(static_cast<sim::EdgeId>(i % 6),
                              set[static_cast<std::size_t>(i)], pool)
                .size();
  });
  out.decode_frame_ns = time_per_op([&](int i) {
    const auto& b = frames[static_cast<std::size_t>(i)];
    sink += static_cast<std::uint64_t>(
        net::decode_frame(b.data(), b.size(), pool).result);
  });
  // Keeps the timed calls observable to the optimizer.
  if (sink == 0) std::fprintf(stderr, "codec probe: empty output\n");
  return out;
}

}  // namespace sessbench
