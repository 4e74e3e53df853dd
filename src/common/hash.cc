#include "common/hash.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace streamlake {

uint64_t Hash64(ByteView data, uint64_t seed) {
  // FNV-1a with a seed mixed into the offset basis, then a final avalanche
  // (splitmix64 finalizer) so that short keys still spread well over shards.
  uint64_t h = 14695981039346656037ULL ^ (seed * 0x9E3779B97F4A7C15ULL);
  for (size_t i = 0; i < data.size(); ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

namespace {

std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  constexpr uint32_t kPoly = 0x82F63B78;  // reversed Castagnoli polynomial
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

#if defined(__x86_64__)
// Three interleaved crc32 streams, one per third of a block, hide the
// instruction's 3-cycle latency (Mark Adler's crc32c.c). A CRC register is
// linear in its state, so crc(s, A‖B) = shift_|B|(crc(s, A)) ^ crc(0, B):
// the thirds are joined by shifting the running CRC over the zeros of one
// third, twice.
constexpr size_t kLongBlock = 8192;
constexpr size_t kShortBlock = 256;

// Shifts a CRC register over `len` zero bytes (a multiple of 8), one table
// lookup per register byte: zeros[k][b] is the shift of b << 8k.
class Crc32cShift {
 public:
  __attribute__((target("sse4.2"))) explicit Crc32cShift(size_t len) {
    // Column c is the register 1 << c after len zero bytes.
    uint64_t column[32];
    for (int c = 0; c < 32; ++c) column[c] = uint64_t{1} << c;
    for (size_t i = 0; i < len; i += 8) {
      for (uint64_t& crc : column) crc = _mm_crc32_u64(crc, 0);
    }
    for (int k = 0; k < 4; ++k) {
      for (uint32_t b = 0; b < 256; ++b) {
        uint32_t v = 0;
        for (int bit = 0; bit < 8; ++bit) {
          if ((b >> bit) & 1) v ^= static_cast<uint32_t>(column[8 * k + bit]);
        }
        zeros_[k][b] = v;
      }
    }
  }

  uint32_t operator()(uint32_t crc) const {
    return zeros_[0][crc & 0xFF] ^ zeros_[1][(crc >> 8) & 0xFF] ^
           zeros_[2][(crc >> 16) & 0xFF] ^ zeros_[3][crc >> 24];
  }

 private:
  uint32_t zeros_[4][256];
};

inline uint64_t Load64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);  // unaligned load
  return word;
}

// Runs the three streams over every whole 3 * kBlock bytes of [p, p + n)
// and advances p and n past them.
template <size_t kBlock>
__attribute__((target("sse4.2"))) uint64_t Crc32cBlocks(
    uint64_t crc, const uint8_t*& p, size_t& n, const Crc32cShift& shift) {
  for (; n >= 3 * kBlock; p += 3 * kBlock, n -= 3 * kBlock) {
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (size_t i = 0; i < kBlock; i += 8) {
      crc = _mm_crc32_u64(crc, Load64(p + i));
      crc1 = _mm_crc32_u64(crc1, Load64(p + kBlock + i));
      crc2 = _mm_crc32_u64(crc2, Load64(p + 2 * kBlock + i));
    }
    crc = shift(static_cast<uint32_t>(crc)) ^ crc1;
    crc = shift(static_cast<uint32_t>(crc)) ^ crc2;
  }
  return crc;
}

__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(ByteView data,
                                                        uint32_t seed) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t crc = ~seed;
  if (n >= 3 * kShortBlock) {
    static const Crc32cShift kLongShift(kLongBlock);
    static const Crc32cShift kShortShift(kShortBlock);
    crc = Crc32cBlocks<kLongBlock>(crc, p, n, kLongShift);
    crc = Crc32cBlocks<kShortBlock>(crc, p, n, kShortShift);
  }
  for (; n >= 8; p += 8, n -= 8) crc = _mm_crc32_u64(crc, Load64(p));
  auto crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++p, --n) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

bool CpuHasSse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#endif

}  // namespace

namespace internal {

uint32_t Crc32cPortable(ByteView data, uint32_t seed) {
  static const std::array<uint32_t, 256> kTable = MakeCrc32cTable();
  uint32_t crc = ~seed;
  for (size_t i = 0; i < data.size(); ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace internal

uint32_t Crc32c(ByteView data, uint32_t seed) {
#if defined(__x86_64__)
  static const bool kSse42 = CpuHasSse42();
  if (kSse42) return Crc32cSse42(data, seed);
#endif
  return internal::Crc32cPortable(data, seed);
}

}  // namespace streamlake
