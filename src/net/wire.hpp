// wire.hpp — the frame every live-runtime message travels in.
//
// The live runtime moves every protocol message as one frame — a UDP
// datagram on the socket transport, a mailbox entry in-process: the
// msg::codec payload (already total against arbitrary bytes) wrapped
// in a fixed header that lets a receiver route and validate a datagram
// before any protocol code sees it:
//
//   u32 magic    0x534E4150 ("SNAP" LE)  — rejects foreign traffic
//   u8  version  kWireVersion            — rejects incompatible peers
//   u32 edge     directed EdgeId         — the topology channel this
//                                          datagram travels (the receiver
//                                          checks it terminates at itself)
//   u32 payload_len                      — exact codec payload size
//   u64 checksum FNV-1a over version|edge|payload_len|payload
//   ... payload  msg::codec bytes
//
// decode_frame() is total, like the codec underneath it: any byte
// sequence yields either a validated (edge, Message) pair or a
// WireFrameResult naming the first failed check — corrupt or truncated
// datagrams are counted and dropped by the runtime, never delivered and
// never a crash. The three validation decisions (version gate, length
// guard, checksum check) carry MUTATION_POINTs so the kill ladder proves
// the rejections are load-bearing (see tests/mutate_scenarios.hpp,
// "spec.net.frame").
#ifndef SNAPSTAB_NET_WIRE_HPP
#define SNAPSTAB_NET_WIRE_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "msg/codec.hpp"
#include "msg/message.hpp"
#include "msg/strpool.hpp"
#include "sim/topology.hpp"

namespace snapstab::net {

inline constexpr std::uint32_t kWireMagic = 0x534E4150u;  // "SNAP"
inline constexpr std::uint8_t kWireVersion = 1;
// magic(4) + version(1) + edge(4) + payload_len(4) + checksum(8).
inline constexpr std::size_t kWireHeaderSize = 21;
// Generous ceiling for one framed message (codec payloads are tens of
// bytes; text is capped at kMaxTextLength upstream). Receive buffers and
// the garbage injector size against this.
inline constexpr std::size_t kMaxDatagramSize = 65536 + 64;

// Every way a datagram can fail validation, in check order; Ok last-but
// listed first so a zeroed counter array reads naturally.
enum class WireFrameResult : std::uint8_t {
  Ok,
  TooShort,     // smaller than the fixed header
  BadMagic,     // not our traffic
  BadVersion,   // incompatible frame version
  BadLength,    // payload_len disagrees with the datagram size
  BadChecksum,  // FNV mismatch: bytes corrupted in flight
  BadMessage,   // frame intact but the codec payload does not parse
};

inline constexpr int kWireFrameResultCount = 7;

constexpr const char* wire_frame_result_name(WireFrameResult r) noexcept {
  static_assert(kWireFrameResultCount ==
                    static_cast<int>(WireFrameResult::BadMessage) + 1,
                "new WireFrameResult: update kWireFrameResultCount and "
                "every switch");
  switch (r) {
    case WireFrameResult::Ok: return "ok";
    case WireFrameResult::TooShort: return "too-short";
    case WireFrameResult::BadMagic: return "bad-magic";
    case WireFrameResult::BadVersion: return "bad-version";
    case WireFrameResult::BadLength: return "bad-length";
    case WireFrameResult::BadChecksum: return "bad-checksum";
    case WireFrameResult::BadMessage: return "bad-message";
  }
  return "?";
}

// FNV-1a (the repo's standing digest primitive — fault-plan digests and
// the mutation Fold use the same constants).
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h = 0xcbf29ce484222325ull) noexcept;

// The checksum a well-formed frame of `size` bytes must carry: FNV-1a
// over the version/edge/payload_len fields and the declared payload.
// Requires size >= kWireHeaderSize; reads the payload length from the
// frame itself (clamped to the bytes present, so it is total too).
std::uint64_t frame_checksum(const std::uint8_t* frame,
                             std::size_t size) noexcept;
// Recomputes and stores the checksum of a hand-edited frame (tests and
// the kill configs forge frames with this).
void patch_checksum(std::vector<std::uint8_t>& frame) noexcept;

// Encodes `m` through the codec and wraps it for directed edge `edge`.
std::vector<std::uint8_t> encode_frame(sim::EdgeId edge, const Message& m,
                                       const StringPool& pool);
inline std::vector<std::uint8_t> encode_frame(sim::EdgeId edge,
                                              const Message& m) {
  return encode_frame(edge, m, current_string_pool());
}

struct DecodedFrame {
  WireFrameResult result = WireFrameResult::TooShort;
  sim::EdgeId edge = -1;  // valid only when result == Ok
  Message message;        // valid only when result == Ok

  bool ok() const noexcept { return result == WireFrameResult::Ok; }
};

// Total: never throws, never reads out of bounds, never crashes — the
// receiver's first line of defense against a network that delivers
// arbitrary bytes.
DecodedFrame decode_frame(const std::uint8_t* data, std::size_t size,
                          StringPool& pool);
inline DecodedFrame decode_frame(const std::uint8_t* data, std::size_t size) {
  return decode_frame(data, size, current_string_pool());
}
inline DecodedFrame decode_frame(const std::vector<std::uint8_t>& bytes) {
  return decode_frame(bytes.data(), bytes.size());
}

}  // namespace snapstab::net

#endif  // SNAPSTAB_NET_WIRE_HPP
