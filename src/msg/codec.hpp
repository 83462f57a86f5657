// codec.hpp — binary wire format for Message.
//
// The live runtime serializes every message through this codec so the
// protocols are exercised against a real byte-level wire format, not just
// in-memory structs. decode() is total: any byte sequence either yields a
// well-formed Message or nullopt — a corrupted datagram can never crash a
// process (the paper's arbitrary-initial-configuration assumption extends
// to arbitrary bytes on the wire).
//
// The codec is the StrId ↔ bytes boundary: encode() resolves interned text
// through a StringPool, decode() interns incoming bytes. In-memory, text
// only ever travels as a 4-byte id; actual characters exist on the wire and
// in the pool, nowhere else. The overloads without a pool argument use the
// calling thread's current pool (see msg/strpool.hpp).
//
// Layout (little-endian):
//   u8  kind | i32 state | i32 neig_state | value b | value f
// value:
//   u8 tag (0 none, 1 int, 2 token, 3 text) |
//   int:   i64
//   token: u8
//   text:  u32 length, bytes
#ifndef SNAPSTAB_MSG_CODEC_HPP
#define SNAPSTAB_MSG_CODEC_HPP

#include <cstdint>
#include <optional>
#include <vector>

#include "msg/message.hpp"
#include "msg/strpool.hpp"

namespace snapstab {

std::vector<std::uint8_t> encode(const Message& m, const StringPool& pool);
// Appends the encoding of `m` to `out` (encode() into an existing buffer).
void encode_to(std::vector<std::uint8_t>& out, const Message& m,
               const StringPool& pool);
std::optional<Message> decode(const std::uint8_t* data, std::size_t size,
                              StringPool& pool);

inline std::vector<std::uint8_t> encode(const Message& m) {
  return encode(m, current_string_pool());
}
inline std::optional<Message> decode(const std::uint8_t* data,
                                     std::size_t size) {
  return decode(data, size, current_string_pool());
}
inline std::optional<Message> decode(const std::vector<std::uint8_t>& bytes) {
  return decode(bytes.data(), bytes.size());
}
inline std::optional<Message> decode(const std::vector<std::uint8_t>& bytes,
                                     StringPool& pool) {
  return decode(bytes.data(), bytes.size(), pool);
}

}  // namespace snapstab

#endif  // SNAPSTAB_MSG_CODEC_HPP
