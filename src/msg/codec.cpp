#include "msg/codec.hpp"

#include <cstring>
#include <string_view>

namespace snapstab {

namespace {

constexpr std::uint32_t kMaxTextLength = 1 << 16;

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) {
  out.push_back(v);
}

void put_i32(std::vector<std::uint8_t>& out, std::int32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(static_cast<std::uint32_t>(v) >>
                                            (8 * i)));
}

void put_i64(std::vector<std::uint8_t>& out, std::int64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(static_cast<std::uint64_t>(v) >>
                                            (8 * i)));
}

void put_value(std::vector<std::uint8_t>& out, const Value& v,
               const StringPool& pool) {
  if (v.is_none()) {
    put_u8(out, 0);
  } else if (v.is_int()) {
    put_u8(out, 1);
    put_i64(out, v.as_int());
  } else if (v.is_token()) {
    put_u8(out, 2);
    put_u8(out, static_cast<std::uint8_t>(v.as_token()));
  } else {
    // The only place interned text leaves the pool: id -> bytes. A StrId
    // minted by a *different* pool must not be applied to `pool` (same id,
    // unrelated string — silent aliasing); resolve it against its minting
    // pool, or to the empty string when that pool no longer exists.
    put_u8(out, 3);
    const StringPool* source = &pool;
    if (v.text_pool_tag() != pool.tag())
      source = StringPool::find_by_tag(v.text_pool_tag());
    const std::string& s =
        source != nullptr ? source->str(v.text_id()) : kEmptyText;
    put_i32(out, static_cast<std::int32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
  }
}

// Cursor over the input buffer; every read checks bounds.
struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  StringPool& pool;
  std::size_t pos = 0;

  bool u8(std::uint8_t& out) {
    if (pos + 1 > size) return false;
    out = data[pos++];
    return true;
  }
  bool i32(std::int32_t& out) {
    if (pos + 4 > size) return false;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
    pos += 4;
    out = static_cast<std::int32_t>(v);
    return true;
  }
  bool i64(std::int64_t& out) {
    if (pos + 8 > size) return false;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
    pos += 8;
    out = static_cast<std::int64_t>(v);
    return true;
  }
  bool value(Value& out) {
    std::uint8_t tag = 0;
    if (!u8(tag)) return false;
    switch (tag) {
      case 0:
        out = Value::none();
        return true;
      case 1: {
        std::int64_t v = 0;
        if (!i64(v)) return false;
        out = Value::integer(v);
        return true;
      }
      case 2: {
        std::uint8_t t = 0;
        if (!u8(t)) return false;
        if (t > kMaxTokenValue) return false;
        out = Value::token(static_cast<Token>(t));
        return true;
      }
      case 3: {
        std::int32_t len = 0;
        if (!i32(len)) return false;
        if (len < 0 || static_cast<std::uint32_t>(len) > kMaxTextLength)
          return false;
        if (pos + static_cast<std::size_t>(len) > size) return false;
        // The only place wire text enters the pool: bytes -> id. The id is
        // tagged with the pool it was re-interned into, not the calling
        // thread's current pool.
        const std::string_view s(reinterpret_cast<const char*>(data + pos),
                                 static_cast<std::size_t>(len));
        pos += static_cast<std::size_t>(len);
        out = Value::text_id(pool.intern(s), pool);
        return true;
      }
      default:
        return false;
    }
  }
};

}  // namespace

void encode_to(std::vector<std::uint8_t>& out, const Message& m,
               const StringPool& pool) {
  put_u8(out, static_cast<std::uint8_t>(m.kind));
  put_i32(out, m.state);
  put_i32(out, m.neig_state);
  put_value(out, m.b, pool);
  put_value(out, m.f, pool);
}

std::vector<std::uint8_t> encode(const Message& m, const StringPool& pool) {
  std::vector<std::uint8_t> out;
  out.reserve(32);
  encode_to(out, m, pool);
  return out;
}

std::optional<Message> decode(const std::uint8_t* data, std::size_t size,
                              StringPool& pool) {
  Reader r{data, size, pool};
  std::uint8_t kind = 0;
  Message m;
  if (!r.u8(kind)) return std::nullopt;
  if (kind > static_cast<std::uint8_t>(MsgKind::FwdEcho)) return std::nullopt;
  m.kind = static_cast<MsgKind>(kind);
  if (!r.i32(m.state)) return std::nullopt;
  if (!r.i32(m.neig_state)) return std::nullopt;
  if (!r.value(m.b)) return std::nullopt;
  if (!r.value(m.f)) return std::nullopt;
  if (r.pos != size) return std::nullopt;  // trailing garbage is rejected
  return m;
}

}  // namespace snapstab
