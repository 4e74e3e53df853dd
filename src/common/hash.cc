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
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(ByteView data,
                                                        uint32_t seed) {
  const uint8_t* p = data.data();
  size_t n = data.size();
  uint64_t crc = ~seed;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);  // unaligned load
    crc = _mm_crc32_u64(crc, word);
  }
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
