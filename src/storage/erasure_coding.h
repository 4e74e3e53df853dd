#ifndef STREAMLAKE_STORAGE_ERASURE_CODING_H_
#define STREAMLAKE_STORAGE_ERASURE_CODING_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace streamlake::storage {

/// \brief Systematic Reed–Solomon erasure code over GF(2^8).
///
/// Splits a payload into `k` equal data shards and computes `m` parity
/// shards (Vandermonde-style Cauchy-free construction). Any `k` of the
/// `k + m` shards reconstruct the payload, so a PLog spread over k+m disks
/// tolerates `m` simultaneous disk/node failures at a storage overhead of
/// (k+m)/k — the paper's "91% disk utilization vs 33% for 3x replication"
/// (k=10, m=1: 10/11 ≈ 91%; HDFS 3x: 1/3 ≈ 33%).
class ReedSolomon {
 public:
  /// k data shards, m parity shards. Requires 1 <= k, 0 <= m, k + m <= 255.
  ReedSolomon(int k, int m);

  int k() const { return k_; }
  int m() const { return m_; }

  /// Split + encode. Returns k+m shards, each of equal size
  /// (ceil(payload/k) + the original size is carried by the caller).
  std::vector<Bytes> Encode(ByteView payload) const;

  /// Reconstruct the payload from any >= k shards. `shards[i]` is nullopt
  /// for lost shards; present shards must be intact and of equal size.
  /// `payload_size` trims the zero padding added by Encode.
  Result<Bytes> Decode(const std::vector<std::optional<Bytes>>& shards,
                       size_t payload_size) const;

 private:
  int k_;
  int m_;
  /// (k+m) x k systematic generator matrix: Vandermonde normalized so the
  /// top k rows are the identity. Any k rows are invertible (MDS).
  std::vector<std::vector<uint8_t>> generator_;
};

namespace internal {

/// GF(2^8) region multiply-add, dst[i] ^= coeff * src[i] for i < n: the
/// inner loop of Encode and Decode. On a CPU that reports AVX2 it looks up
/// split-nibble product tables 32 bytes at a time; elsewhere it runs
/// MulAddPortable. Both produce the same bytes.
void MulAdd(uint8_t coeff, const uint8_t* src, uint8_t* dst, size_t n);

/// One lookup in a 256-entry product table per byte: the fallback of
/// MulAdd and the reference the tests hold it to.
void MulAddPortable(uint8_t coeff, const uint8_t* src, uint8_t* dst,
                    size_t n);

}  // namespace internal

/// Gauss–Jordan inversion over GF(2^8); exposed for tests.
/// Returns an error for singular matrices.
Result<std::vector<std::vector<uint8_t>>> InvertMatrix(
    std::vector<std::vector<uint8_t>> a);

}  // namespace streamlake::storage

#endif  // STREAMLAKE_STORAGE_ERASURE_CODING_H_
