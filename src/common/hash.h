#ifndef STREAMLAKE_COMMON_HASH_H_
#define STREAMLAKE_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

#include "common/bytes.h"

namespace streamlake {

/// 64-bit FNV-1a hash; used by the distributed hash table that spreads
/// stream-object slices across the 4096 logical shards (Fig. 4-d).
uint64_t Hash64(ByteView data, uint64_t seed = 0);

/// CRC-32C (Castagnoli); guards every PLog record and LakeFile block.
/// Chains: Crc32c(b, Crc32c(a)) == Crc32c(a‖b). On a CPU that reports
/// SSE4.2 it runs the crc32 instruction over 8-byte words; elsewhere it
/// runs internal::Crc32cPortable. Both return the same value.
uint32_t Crc32c(ByteView data, uint32_t seed = 0);

namespace internal {

/// Table-driven CRC-32C, one byte per step: the fallback of Crc32c and the
/// reference the tests hold it to.
uint32_t Crc32cPortable(ByteView data, uint32_t seed = 0);

}  // namespace internal

}  // namespace streamlake

#endif  // STREAMLAKE_COMMON_HASH_H_
