#include "storage/erasure_coding.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/logging.h"
#include "storage/gf256.h"

namespace streamlake::storage {

namespace {

using Matrix = std::vector<std::vector<uint8_t>>;

Matrix MultiplyMatrix(const Matrix& a, const Matrix& b) {
  size_t rows = a.size();
  size_t inner = b.size();
  size_t cols = b[0].size();
  Matrix out(rows, std::vector<uint8_t>(cols, 0));
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      uint8_t acc = 0;
      for (size_t x = 0; x < inner; ++x) {
        acc = Gf256::Add(acc, Gf256::Mul(a[i][x], b[x][j]));
      }
      out[i][j] = acc;
    }
  }
  return out;
}

#if defined(__x86_64__)
// Split-nibble multiply: coeff * x == coeff * (x & 0x0F) ^ coeff * (x & 0xF0),
// so two 16-entry tables, looked up 32 bytes at a time with vpshufb, cover
// every byte value.
__attribute__((target("avx2"))) void MulAddAvx2(uint8_t coeff,
                                                const uint8_t* src,
                                                uint8_t* dst, size_t n) {
  alignas(16) uint8_t lo[16];
  alignas(16) uint8_t hi[16];
  for (int v = 0; v < 16; ++v) {
    lo[v] = Gf256::Mul(coeff, static_cast<uint8_t>(v));
    hi[v] = Gf256::Mul(coeff, static_cast<uint8_t>(v << 4));
  }
  const __m256i lo_table = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(lo)));
  const __m256i hi_table = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(hi)));
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i product = _mm256_xor_si256(
        _mm256_shuffle_epi8(lo_table, _mm256_and_si256(x, nibble)),
        _mm256_shuffle_epi8(
            hi_table, _mm256_and_si256(_mm256_srli_epi64(x, 4), nibble)));
    auto* out = reinterpret_cast<__m256i*>(dst + i);
    _mm256_storeu_si256(out,
                        _mm256_xor_si256(_mm256_loadu_si256(out), product));
  }
  for (; i < n; ++i) dst[i] ^= lo[src[i] & 0x0F] ^ hi[src[i] >> 4];
}

bool CpuHasAvx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#endif

}  // namespace

namespace internal {

void MulAddPortable(uint8_t coeff, const uint8_t* src, uint8_t* dst,
                    size_t n) {
  // A per-coefficient 256-entry product table turns the loop into one
  // lookup + XOR per byte.
  uint8_t mul_table[256];
  for (int v = 0; v < 256; ++v) {
    mul_table[v] = Gf256::Mul(coeff, static_cast<uint8_t>(v));
  }
  for (size_t b = 0; b < n; ++b) dst[b] ^= mul_table[src[b]];
}

void MulAdd(uint8_t coeff, const uint8_t* src, uint8_t* dst, size_t n) {
  if (coeff == 0) return;
#if defined(__x86_64__)
  static const bool kAvx2 = CpuHasAvx2();
  if (kAvx2) {
    MulAddAvx2(coeff, src, dst, n);
    return;
  }
#endif
  MulAddPortable(coeff, src, dst, n);
}

}  // namespace internal

Result<Matrix> InvertMatrix(Matrix a) {
  const size_t n = a.size();
  Matrix inv(n, std::vector<uint8_t>(n, 0));
  for (size_t i = 0; i < n; ++i) inv[i][i] = 1;

  for (size_t col = 0; col < n; ++col) {
    // Find a pivot row.
    size_t pivot = col;
    while (pivot < n && a[pivot][col] == 0) ++pivot;
    if (pivot == n) return Status::InvalidArgument("singular matrix");
    std::swap(a[pivot], a[col]);
    std::swap(inv[pivot], inv[col]);
    // Scale pivot row to 1.
    uint8_t scale = Gf256::Inv(a[col][col]);
    for (size_t j = 0; j < n; ++j) {
      a[col][j] = Gf256::Mul(a[col][j], scale);
      inv[col][j] = Gf256::Mul(inv[col][j], scale);
    }
    // Eliminate the column from all other rows.
    for (size_t row = 0; row < n; ++row) {
      if (row == col || a[row][col] == 0) continue;
      uint8_t factor = a[row][col];
      for (size_t j = 0; j < n; ++j) {
        a[row][j] = Gf256::Sub(a[row][j], Gf256::Mul(factor, a[col][j]));
        inv[row][j] = Gf256::Sub(inv[row][j], Gf256::Mul(factor, inv[col][j]));
      }
    }
  }
  return inv;
}

ReedSolomon::ReedSolomon(int k, int m) : k_(k), m_(m) {
  SL_CHECK(k >= 1 && m >= 0 && k + m <= 255);
  // Vandermonde V[i][j] = i^j over distinct points 0..k+m-1; any k rows of
  // V are invertible. Normalize by V_top^{-1} to make the code systematic
  // while preserving the any-k-rows property.
  Matrix vandermonde(k + m, std::vector<uint8_t>(k, 0));
  for (int i = 0; i < k + m; ++i) {
    for (int j = 0; j < k; ++j) {
      vandermonde[i][j] = Gf256::Pow(static_cast<uint8_t>(i), j);
    }
  }
  Matrix top(vandermonde.begin(), vandermonde.begin() + k);
  auto top_inv = InvertMatrix(std::move(top));
  SL_CHECK(top_inv.ok());
  generator_ = MultiplyMatrix(vandermonde, *top_inv);
}

std::vector<Bytes> ReedSolomon::Encode(ByteView payload) const {
  const size_t shard_size = (payload.size() + k_ - 1) / k_;
  std::vector<Bytes> shards(k_ + m_);
  // Data shards: zero-padded split (systematic rows are the identity).
  for (int i = 0; i < k_; ++i) {
    shards[i].assign(shard_size, 0);
    size_t begin = i * shard_size;
    if (begin < payload.size()) {
      size_t len = std::min(shard_size, payload.size() - begin);
      std::memcpy(shards[i].data(), payload.data() + begin, len);
    }
  }
  // Parity shards: parity[p] = sum over d of generator[k+p][d] * data[d].
  for (int p = 0; p < m_; ++p) {
    const std::vector<uint8_t>& row = generator_[k_ + p];
    Bytes& parity = shards[k_ + p];
    parity.assign(shard_size, 0);
    for (int d = 0; d < k_; ++d) {
      internal::MulAdd(row[d], shards[d].data(), parity.data(), shard_size);
    }
  }
  return shards;
}

Result<Bytes> ReedSolomon::Decode(
    const std::vector<std::optional<Bytes>>& shards,
    size_t payload_size) const {
  if (shards.size() != static_cast<size_t>(k_ + m_)) {
    return Status::InvalidArgument("wrong shard count");
  }
  // Collect the first k available shards.
  std::vector<int> present;
  size_t shard_size = 0;
  for (int i = 0; i < k_ + m_ && static_cast<int>(present.size()) < k_; ++i) {
    if (shards[i].has_value()) {
      if (present.empty()) {
        shard_size = shards[i]->size();
      } else if (shards[i]->size() != shard_size) {
        return Status::InvalidArgument("shard size mismatch");
      }
      present.push_back(i);
    }
  }
  if (static_cast<int>(present.size()) < k_) {
    return Status::Corruption("too many shards lost to reconstruct");
  }
  if (shard_size * k_ < payload_size) {
    return Status::InvalidArgument("payload size too large for shards");
  }

  // Fast path: all data shards survive.
  bool all_data = true;
  for (int i = 0; i < k_; ++i) {
    if (!shards[i].has_value()) {
      all_data = false;
      break;
    }
  }
  std::vector<Bytes> data(k_);
  if (all_data) {
    for (int i = 0; i < k_; ++i) data[i] = *shards[i];
  } else {
    // Solve: [generator rows of present shards] * data = present shards.
    Matrix sub(k_, std::vector<uint8_t>(k_));
    for (int r = 0; r < k_; ++r) sub[r] = generator_[present[r]];
    SL_ASSIGN_OR_RETURN(Matrix inv, InvertMatrix(std::move(sub)));
    for (int d = 0; d < k_; ++d) {
      data[d].assign(shard_size, 0);
      for (int r = 0; r < k_; ++r) {
        internal::MulAdd(inv[d][r], shards[present[r]]->data(),
                         data[d].data(), shard_size);
      }
    }
  }

  Bytes payload;
  payload.reserve(payload_size);
  for (int i = 0; i < k_ && payload.size() < payload_size; ++i) {
    size_t take = std::min(shard_size, payload_size - payload.size());
    payload.insert(payload.end(), data[i].begin(), data[i].begin() + take);
  }
  return payload;
}

}  // namespace streamlake::storage
