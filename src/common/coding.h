#ifndef STREAMLAKE_COMMON_CODING_H_
#define STREAMLAKE_COMMON_CODING_H_

#include <charconv>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>

#include "common/bytes.h"
#include "common/result.h"

namespace streamlake {

// Little-endian fixed-width and varint primitives shared by the KV WAL,
// PLog records, LakeFile pages, and commit/snapshot serialization.

inline void PutFixed32(Bytes* dst, uint32_t v) {
  uint8_t buf[4];
  std::memcpy(buf, &v, 4);
  dst->insert(dst->end(), buf, buf + 4);
}

inline void PutFixed64(Bytes* dst, uint64_t v) {
  uint8_t buf[8];
  std::memcpy(buf, &v, 8);
  dst->insert(dst->end(), buf, buf + 8);
}

inline uint32_t DecodeFixed32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t DecodeFixed64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline void PutVarint64(Bytes* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  dst->push_back(static_cast<uint8_t>(v));
}

/// Decodes a varint64 at `*p` (bounded by `limit`). Returns false on
/// truncated/overlong input. Advances *p past the varint on success.
inline bool GetVarint64(const uint8_t** p, const uint8_t* limit,
                        uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && *p < limit; shift += 7) {
    uint8_t byte = **p;
    ++*p;
    if (byte & 0x80) {
      result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    } else {
      result |= static_cast<uint64_t>(byte) << shift;
      *value = result;
      return true;
    }
  }
  return false;
}

inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline void PutVarint64Signed(Bytes* dst, int64_t v) {
  PutVarint64(dst, ZigZagEncode(v));
}

inline void PutLengthPrefixed(Bytes* dst, ByteView v) {
  PutVarint64(dst, v.size());
  AppendBytes(dst, v);
}

inline void PutLengthPrefixed(Bytes* dst, std::string_view v) {
  PutLengthPrefixed(dst, ByteView(v));
}

/// Reads a length-prefixed byte range. The returned view aliases the input.
inline bool GetLengthPrefixed(const uint8_t** p, const uint8_t* limit,
                              ByteView* out) {
  uint64_t len;
  if (!GetVarint64(p, limit, &len)) return false;
  if (static_cast<uint64_t>(limit - *p) < len) return false;
  *out = ByteView(*p, static_cast<size_t>(len));
  *p += len;
  return true;
}

/// The whole of `text` as a decimal integer of type `T`. Durable counters,
/// ids and offsets are stored as decimal strings and parse only through
/// here: empty text, a sign `T` cannot hold, stray bytes or a value out of
/// `T`'s range is Corruption naming `key`, never an exception.
template <typename T>
Result<T> ParseDecimal(std::string_view text, std::string_view key) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return Status::Corruption(std::string(key) + ": bad decimal \"" +
                              std::string(text) + "\"");
  }
  return value;
}

/// Cursor that reads the primitives above with bounds checking; every
/// deserializer uses this so corrupt input yields an error, never UB.
class Decoder {
 public:
  explicit Decoder(ByteView data)
      : p_(data.data()), limit_(data.data() + data.size()) {}

  bool GetFixed32(uint32_t* v) {
    if (Remaining() < 4) return false;
    *v = DecodeFixed32(p_);
    p_ += 4;
    return true;
  }
  bool GetFixed64(uint64_t* v) {
    if (Remaining() < 8) return false;
    *v = DecodeFixed64(p_);
    p_ += 8;
    return true;
  }
  bool GetVarint(uint64_t* v) { return GetVarint64(&p_, limit_, v); }
  bool GetVarintSigned(int64_t* v) {
    uint64_t u;
    if (!GetVarint64(&p_, limit_, &u)) return false;
    *v = ZigZagDecode(u);
    return true;
  }
  bool GetBytes(ByteView* out) { return GetLengthPrefixed(&p_, limit_, out); }
  bool GetString(std::string* out) {
    ByteView v;
    if (!GetBytes(&v)) return false;
    *out = v.ToString();
    return true;
  }
  bool Skip(size_t n) {
    if (Remaining() < n) return false;
    p_ += n;
    return true;
  }

  size_t Remaining() const { return static_cast<size_t>(limit_ - p_); }
  const uint8_t* position() const { return p_; }

 private:
  const uint8_t* p_;
  const uint8_t* limit_;
};

}  // namespace streamlake

#endif  // STREAMLAKE_COMMON_CODING_H_
