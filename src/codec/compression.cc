#include "codec/compression.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "common/coding.h"

namespace streamlake::codec {

namespace {

// LZ77 with greedy hash-table matching. Token stream:
//   [literal_len varint][literals][match_len varint][match_dist varint]
// repeated; match_len == 0 terminates a token pair (trailing literals only).
// Minimum profitable match is 4 bytes, maximum 64 KiB; window is 64 KiB.
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 1 << 16;
constexpr size_t kWindow = 1 << 16;
constexpr size_t kHashBits = 15;

// A maximal match costs at least 5 token bytes (1-byte literal length,
// 3-byte match length, 1-byte distance), so no token stream decodes to more
// than this many bytes per input byte.
constexpr size_t kMaxExpansion = kMaxMatch / 5 + 1;

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint32_t HashFour(const uint8_t* p) {
  return (Load32(p) * 2654435761u) >> (32 - kHashBits);
}

// Length of the common prefix of `a` and `b`, at most `limit`; the caller
// has already matched the first kMinMatch bytes. Compares 8 bytes at a time
// and locates the first differing byte from the XOR of the two words.
inline size_t MatchLength(const uint8_t* a, const uint8_t* b, size_t limit) {
  size_t len = kMinMatch;
  while (len + 8 <= limit) {
    const uint64_t diff = Load64(a + len) ^ Load64(b + len);
    if (diff != 0) {
      if constexpr (std::endian::native == std::endian::little) {
        return len + std::countr_zero(diff) / 8;
      } else {
        return len + std::countl_zero(diff) / 8;
      }
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

// Head-table entries are positions biased by at least kBias, with 0 for
// an empty slot, so one unsigned compare of the distance rejects both an
// empty slot and a candidate outside the window.
constexpr size_t kBias = kWindow + 1;

// The greedy parse over `head`, whose entries this call writes as
// `pos + bias`. Every entry already in the table must be at most
// `bias - kBias`: it is then at least one window away from every position
// of this call and is rejected exactly like an empty slot, so the token
// stream never depends on what the table held before. `Pos` is the entry
// type: uint32_t halves the table for every input shorter than 4 GiB,
// uint64_t covers the rest. Both produce the same token stream.
template <typename Pos>
Bytes LzCompressWith(ByteView input, Pos* head, size_t bias) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  const uint8_t* base = input.data();
  const size_t n = input.size();

  size_t pos = 0;
  size_t literal_start = 0;
  while (pos + kMinMatch <= n) {
    const uint32_t h = HashFour(base + pos);
    const size_t dist = pos + bias - head[h];
    head[h] = static_cast<Pos>(pos + bias);

    // Reject the candidate without branching on whether it is in the
    // window (on incompressible text that is a coin flip the predictor
    // loses): an out-of-window candidate is replaced by `pos` itself and
    // vetoed by `far`, leaving one rarely-taken branch on the 4-byte
    // compare.
    const size_t far = dist > kWindow;
    const size_t candidate = pos - (dist & (far - 1));
    if (((Load32(base + candidate) ^ Load32(base + pos)) | far) != 0) {
      ++pos;
      continue;
    }
    const size_t match_len = MatchLength(base + candidate, base + pos,
                                         std::min(n - pos, kMaxMatch));
    // Emit pending literals, then the match.
    PutVarint64(&out, pos - literal_start);
    out.insert(out.end(), base + literal_start, base + pos);
    PutVarint64(&out, match_len);
    PutVarint64(&out, dist);
    // Index a few positions inside the match so later data can refer to it.
    const size_t end = pos + match_len;
    for (size_t i = pos + 1; i + kMinMatch <= end && i < pos + 8; ++i) {
      head[HashFour(base + i)] = static_cast<Pos>(i + bias);
    }
    pos = end;
    literal_start = pos;
  }
  // Trailing literals with a zero-length match terminator.
  PutVarint64(&out, n - literal_start);
  out.insert(out.end(), base + literal_start, base + n);
  PutVarint64(&out, 0);
  return out;
}

// One thread's head table, kept across calls instead of cleared per call
// (as LZ4's currentOffset does): each call biases its positions past every
// entry an earlier call wrote, and only when the biased positions would
// overflow a uint32_t is the table zeroed and the bias restarted.
struct LzHeadTable {
  std::vector<uint32_t> head = std::vector<uint32_t>(size_t{1} << kHashBits);
  size_t bias = kBias;  // the next call's bias
};

Bytes LzCompress(ByteView input) {
  const size_t n = input.size();
  constexpr size_t kMaxEntry = std::numeric_limits<uint32_t>::max();
  if (n > kMaxEntry - kBias) {
    std::vector<uint64_t> head(size_t{1} << kHashBits, 0);
    return LzCompressWith<uint64_t>(input, head.data(), kBias);
  }
  thread_local LzHeadTable table;
  if (table.bias > kMaxEntry - n) {
    std::fill(table.head.begin(), table.head.end(), 0);
    table.bias = kBias;
  }
  Bytes out = LzCompressWith<uint32_t>(input, table.head.data(), table.bias);
  // This call wrote entries up to bias + n - 1; the next starts a window
  // past them.
  table.bias += n + kBias;
  return out;
}

Result<Bytes> LzDecompress(ByteView input, size_t uncompressed_size) {
  // Every literal and match is bounded by the bytes still expected, and the
  // reservation by what the input can expand to, so a forged size or token
  // is rejected rather than allocated.
  Bytes out;
  const size_t expandable = input.size() > SIZE_MAX / kMaxExpansion
                                ? SIZE_MAX
                                : input.size() * kMaxExpansion;
  out.reserve(std::min(uncompressed_size, expandable));
  const uint8_t* p = input.data();
  const uint8_t* limit = p + input.size();
  while (true) {
    uint64_t literal_len;
    if (!GetVarint64(&p, limit, &literal_len)) {
      return Status::Corruption("lz: truncated literal length");
    }
    if (static_cast<uint64_t>(limit - p) < literal_len) {
      return Status::Corruption("lz: truncated literals");
    }
    if (literal_len > uncompressed_size - out.size()) {
      return Status::Corruption("lz: literals overrun expected size");
    }
    out.insert(out.end(), p, p + literal_len);
    p += literal_len;

    uint64_t match_len;
    if (!GetVarint64(&p, limit, &match_len)) {
      return Status::Corruption("lz: truncated match length");
    }
    if (match_len == 0) break;
    if (match_len > kMaxMatch ||
        match_len > uncompressed_size - out.size()) {
      return Status::Corruption("lz: match overruns expected size");
    }
    uint64_t dist;
    if (!GetVarint64(&p, limit, &dist)) {
      return Status::Corruption("lz: truncated match distance");
    }
    if (dist == 0 || dist > out.size()) {
      return Status::Corruption("lz: bad match distance");
    }
    const size_t dst = out.size();
    const size_t src = dst - static_cast<size_t>(dist);
    out.resize(dst + match_len);
    uint8_t* o = out.data();
    if (dist >= match_len) {
      std::memcpy(o + dst, o + src, match_len);
    } else {
      // Overlapping match (dist < len): the byte copy re-reads bytes it
      // just wrote, which implements run-length behaviour.
      for (size_t i = 0; i < match_len; ++i) o[dst + i] = o[src + i];
    }
  }
  if (out.size() != uncompressed_size) {
    return Status::Corruption("lz: size mismatch after decompression");
  }
  return out;
}

}  // namespace

Bytes Compress(Compression codec, ByteView input) {
  switch (codec) {
    case Compression::kNone:
      return input.ToBytes();
    case Compression::kLz:
      return LzCompress(input);
  }
  return input.ToBytes();
}

Result<Bytes> Decompress(Compression codec, ByteView input,
                         size_t uncompressed_size) {
  switch (codec) {
    case Compression::kNone:
      if (input.size() != uncompressed_size) {
        return Status::Corruption("none: size mismatch");
      }
      return input.ToBytes();
    case Compression::kLz:
      return LzDecompress(input, uncompressed_size);
  }
  return Status::NotSupported("unknown compression codec");
}

}  // namespace streamlake::codec
