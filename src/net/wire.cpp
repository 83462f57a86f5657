#include "net/wire.hpp"

#include <cstring>

#include "common/check.hpp"
#include "mutate/mutate.hpp"

namespace snapstab::net {
namespace {

// Checksummed region: everything after the magic except the checksum
// field itself — version(1) + edge(4) + payload_len(4) at offset 4.
constexpr std::size_t kSumFieldsOff = 4;
constexpr std::size_t kSumFieldsLen = 9;
constexpr std::size_t kPayloadLenOff = 9;
constexpr std::size_t kChecksumOff = 13;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t h) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t frame_checksum(const std::uint8_t* frame,
                             std::size_t size) noexcept {
  SNAPSTAB_CHECK(size >= kWireHeaderSize);
  const std::size_t avail = size - kWireHeaderSize;
  std::size_t payload_len = get_u32(frame + kPayloadLenOff);
  if (payload_len > avail) payload_len = avail;  // stay total
  std::uint64_t h = fnv1a(frame + kSumFieldsOff, kSumFieldsLen);
  return fnv1a(frame + kWireHeaderSize, payload_len, h);
}

void patch_checksum(std::vector<std::uint8_t>& frame) noexcept {
  SNAPSTAB_CHECK(frame.size() >= kWireHeaderSize);
  const std::uint64_t sum = frame_checksum(frame.data(), frame.size());
  for (int i = 0; i < 8; ++i)
    frame[kChecksumOff + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(sum >> (8 * i));
}

std::vector<std::uint8_t> encode_frame(sim::EdgeId edge, const Message& m,
                                       const StringPool& pool) {
  SNAPSTAB_CHECK(edge >= 0);
  std::vector<std::uint8_t> out;
  out.reserve(kWireHeaderSize + 32);
  put_u32(out, kWireMagic);
  out.push_back(kWireVersion);
  put_u32(out, static_cast<std::uint32_t>(edge));
  put_u32(out, 0);  // payload_len placeholder
  put_u64(out, 0);  // checksum placeholder
  encode_to(out, m, pool);
  const auto payload_len =
      static_cast<std::uint32_t>(out.size() - kWireHeaderSize);
  for (int i = 0; i < 4; ++i)
    out[kPayloadLenOff + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(payload_len >> (8 * i));
  patch_checksum(out);
  return out;
}

DecodedFrame decode_frame(const std::uint8_t* data, std::size_t size,
                          StringPool& pool) {
  DecodedFrame out;
  if (data == nullptr || size < kWireHeaderSize) {
    out.result = WireFrameResult::TooShort;
    return out;
  }
  if (get_u32(data) != kWireMagic) {
    out.result = WireFrameResult::BadMagic;
    return out;
  }
  const std::uint8_t version = data[4];
  if (!MUTATION_POINT("net.frame.any_version", (version == kWireVersion),
                      true)) {
    out.result = WireFrameResult::BadVersion;
    return out;
  }
  const std::size_t avail = size - kWireHeaderSize;
  const std::size_t payload_len = get_u32(data + kPayloadLenOff);
  // The mutant tolerates trailing garbage (payload_len <= avail) but can
  // never read past the datagram, so an armed run stays memory-safe.
  if (!MUTATION_POINT("net.frame.loose_length", (payload_len == avail),
                      (payload_len <= avail))) {
    out.result = WireFrameResult::BadLength;
    return out;
  }
  const std::uint64_t declared = get_u64(data + kChecksumOff);
  const std::uint64_t computed = frame_checksum(data, size);
  if (!MUTATION_POINT("net.frame.skip_checksum", (declared == computed),
                      true)) {
    out.result = WireFrameResult::BadChecksum;
    return out;
  }
  const std::optional<Message> m =
      decode(data + kWireHeaderSize, payload_len, pool);
  if (!m.has_value()) {
    out.result = WireFrameResult::BadMessage;
    return out;
  }
  out.result = WireFrameResult::Ok;
  out.edge = static_cast<sim::EdgeId>(get_u32(data + 5));
  out.message = *m;
  return out;
}

}  // namespace snapstab::net
