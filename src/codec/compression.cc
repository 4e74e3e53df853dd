#include "codec/compression.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

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
constexpr uint32_t kHashMultiplier = 2654435761u;

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
  return (Load32(p) * kHashMultiplier) >> (32 - kHashBits);
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

// Emits the literals pending since `literal_start` and the match at `pos`
// whose candidate lies `dist` bytes back, then indexes a few positions
// inside the match so later data can refer to it. Returns the match's end.
template <typename Pos>
inline size_t EmitMatch(const uint8_t* base, size_t n, size_t literal_start,
                        size_t pos, size_t dist, Pos* head, size_t bias,
                        Bytes* out) {
  const size_t match_len = MatchLength(base + pos - dist, base + pos,
                                       std::min(n - pos, kMaxMatch));
  PutVarint64(out, pos - literal_start);
  out->insert(out->end(), base + literal_start, base + pos);
  PutVarint64(out, match_len);
  PutVarint64(out, dist);
  const size_t end = pos + match_len;
  for (size_t i = pos + 1; i + kMinMatch <= end && i < pos + 8; ++i) {
    head[HashFour(base + i)] = static_cast<Pos>(i + bias);
  }
  return end;
}

// One step of the greedy parse at `pos`, with literals pending since
// `literal_start`: indexes `pos` in `head` as `pos + bias`, then emits the
// match there and moves both to its end, or moves to the next position.
// Returns whether it emitted a match. Every entry already in the table
// must be at most `bias - kBias`: it is then at least one window away from
// every position of this call and is rejected exactly like an empty slot,
// so the token stream never depends on what the table held before. `Pos`
// is the entry type: uint32_t halves the table for every input shorter
// than 4 GiB, uint64_t covers the rest. Both produce the same token stream.
template <typename Pos>
inline bool LzStep(const uint8_t* base, size_t n, size_t& pos,
                   size_t& literal_start, Pos* head, size_t bias, Bytes* out) {
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
    return false;
  }
  pos = EmitMatch(base, n, literal_start, pos, dist, head, bias, out);
  literal_start = pos;
  return true;
}

// The greedy parse one position per step from `pos` to the end of the
// input, then the trailing literals with a zero-length match terminator.
template <typename Pos>
void LzParse(const uint8_t* base, size_t n, size_t pos, size_t literal_start,
             Pos* head, size_t bias, Bytes* out) {
  while (pos + kMinMatch <= n) {
    LzStep(base, n, pos, literal_start, head, bias, out);
  }
  PutVarint64(out, n - literal_start);
  out->insert(out->end(), base + literal_start, base + n);
  PutVarint64(out, 0);
}

template <typename Pos>
Bytes LzCompressWith(ByteView input, Pos* head, size_t bias) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  LzParse(input.data(), input.size(), 0, 0, head, bias, &out);
  return out;
}

#if defined(__x86_64__)
// The same parse eight positions per step, up to the last 16 bytes, which
// (like every match) LzParse and EmitMatch handle. A step computes what the
// one-position loop would at positions pos..pos+7 until its first match:
//   * lane i hashes bytes i..i+3 of one 16-byte load;
//   * lane i reads the slot the loop would read: the entry of the latest
//     earlier lane of the step with the same hash (vpconflictd, vplzcnt),
//     else the table's (one gather);
//   * lanes whose candidate is in the window compare it with a gather of
//     the input's words;
//   * lanes up to and including the first match write their slots with
//     one scatter, which orders lanes with the same hash low to high, as
//     the loop writes them; lanes past the match are dropped, as the loop
//     never reaches them.
// The entries, the match and so the token stream are the loop's. After a
// match the parse goes one position per step (LzStep) until kQuietRun
// positions pass without one: a step that stops at its first lanes costs
// more than the loop, which made TPC-H columns that compress 2-3x slower.
constexpr size_t kQuietRun = 16;

__attribute__((target("avx512f,avx512vl,avx512cd,avx512bw,avx512vbmi")))
Bytes LzCompressAvx512(ByteView input, uint32_t* head, size_t bias) {
  Bytes out;
  out.reserve(input.size() / 2 + 16);
  const uint8_t* base = input.data();
  const size_t n = input.size();
  const __m256i word_bytes = _mm256_setr_epi8(
      0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6,  //
      4, 5, 6, 7, 5, 6, 7, 8, 6, 7, 8, 9, 7, 8, 9, 10);
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i multiplier = _mm256_set1_epi32(static_cast<int>(kHashMultiplier));
  const __m256i window = _mm256_set1_epi32(static_cast<int>(kWindow));
  const __m256i thirty_one = _mm256_set1_epi32(31);

  size_t pos = 0;
  size_t literal_start = 0;
  while (pos + 16 <= n) {
    const __m128i bytes =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + pos));
    const __m256i words = _mm256_maskz_permutexvar_epi8(
        ~__mmask32{0}, word_bytes, _mm256_zextsi128_si256(bytes));
    const __m256i hashes = _mm256_srli_epi32(
        _mm256_mullo_epi32(words, multiplier), 32 - kHashBits);
    const __m256i entries = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(pos + bias)), lanes);
    const __m256i slots = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(head), hashes, 4);
    // A table slot lies `entry - slot` back; the latest earlier lane j with
    // the same hash is bit j = 31 - lzcnt of the lane's conflict mask, and
    // lies i - j back.
    const __m256i conflicts = _mm256_conflict_epi32(hashes);
    const __mmask8 repeated = _mm256_test_epi32_mask(conflicts, conflicts);
    const __m256i dist = _mm256_mask_sub_epi32(
        _mm256_sub_epi32(entries, slots), repeated,
        _mm256_add_epi32(lanes, _mm256_lzcnt_epi32(conflicts)), thirty_one);
    const __mmask8 near = _mm256_cmple_epu32_mask(dist, window);
    const __m256i candidates = _mm256_mmask_i32gather_epi32(
        _mm256_setzero_si256(), near, _mm256_sub_epi32(lanes, dist),
        base + pos, 1);
    const unsigned hits =
        _mm256_mask_cmpeq_epi32_mask(near, candidates, words);
    const unsigned written = hits == 0 ? 0xFF : hits ^ (hits - 1);
    _mm256_mask_i32scatter_epi32(head, static_cast<__mmask8>(written), hashes,
                                 entries, 4);
    if (hits == 0) {
      pos += 8;
      continue;
    }
    const unsigned first = std::countr_zero(hits);
    alignas(32) uint32_t dists[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(dists), dist);
    pos = EmitMatch(base, n, literal_start, pos + first, dists[first], head,
                    bias, &out);
    literal_start = pos;
    size_t quiet_end = pos + kQuietRun;
    while (pos + 16 <= n && pos < quiet_end) {
      if (LzStep(base, n, pos, literal_start, head, bias, &out)) {
        quiet_end = pos + kQuietRun;
      }
    }
  }
  LzParse(base, n, pos, literal_start, head, bias, &out);
  return out;
}

bool CpuHasLzAvx512() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512vl") &&
         __builtin_cpu_supports("avx512cd") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vbmi");
}
#endif

// One thread's head table, kept across calls instead of cleared per call
// (as LZ4's currentOffset does): each call biases its positions past every
// entry an earlier call wrote, and only when the biased positions would
// overflow a uint32_t is the table zeroed and the bias restarted.
struct LzHeadTable {
  std::vector<uint32_t> head = std::vector<uint32_t>(size_t{1} << kHashBits);
  size_t bias = kBias;  // the next call's bias
};

// `vector` picks the eight-position parse for the uint32_t table; both
// parses share the thread's table and emit the same bytes.
Bytes LzCompress(ByteView input, [[maybe_unused]] bool vector) {
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
#if defined(__x86_64__)
  Bytes out = vector
                  ? LzCompressAvx512(input, table.head.data(), table.bias)
                  : LzCompressWith<uint32_t>(input, table.head.data(),
                                             table.bias);
#else
  Bytes out = LzCompressWith<uint32_t>(input, table.head.data(), table.bias);
#endif
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

namespace internal {

Bytes LzCompressPortable(ByteView input) { return LzCompress(input, false); }

}  // namespace internal

Bytes Compress(Compression codec, ByteView input) {
  switch (codec) {
    case Compression::kNone:
      return input.ToBytes();
    case Compression::kLz: {
#if defined(__x86_64__)
      static const bool kAvx512 = CpuHasLzAvx512();
      if (kAvx512) return LzCompress(input, true);
#endif
      return internal::LzCompressPortable(input);
    }
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
