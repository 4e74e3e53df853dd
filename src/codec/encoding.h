#ifndef STREAMLAKE_CODEC_ENCODING_H_
#define STREAMLAKE_CODEC_ENCODING_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace streamlake::codec {

/// Light-weight column encodings applied inside LakeFile column chunks
/// before block compression. Chosen adaptively per chunk.
enum class Encoding : uint8_t {
  kPlain = 0,    // zigzag varints / fixed64 / length-prefixed strings
  kRle = 1,      // (value, run_length) pairs
  kDelta = 2,    // zigzag varint deltas; wins on sorted/monotonic ints
  kDict = 3,     // dictionary + varint codes; wins on low cardinality
  kBitPack = 4,  // 1 bit per bool
};

/// Dictionary chunks split into their compressed parts: the distinct values
/// in first-appearance order plus one code per row. Scans evaluate equality
/// predicates on the codes without ever materializing row values.
struct Int64DictParts {
  std::vector<int64_t> dict;
  std::vector<uint32_t> codes;
};
struct StringDictParts {
  std::vector<std::string> dict;
  std::vector<uint32_t> codes;
};

// ---- int64 columns ----
/// kDict numbers the values with codec::KeyIds, then calls EncodeInt64Dict.
void EncodeInt64s(std::span<const int64_t> values, Encoding encoding,
                  Bytes* dst);
/// A kDict value stream from its parts: `dict` holds the distinct values in
/// first-appearance order, `codes` each row's index into it.
void EncodeInt64Dict(std::span<const int64_t> dict,
                     std::span<const uint32_t> codes, Bytes* dst);
Result<std::vector<int64_t>> DecodeInt64s(ByteView data, Encoding encoding,
                                          size_t count);
/// Decodes a kDict chunk without materializing per-row values.
Result<Int64DictParts> DecodeInt64DictParts(ByteView data, size_t count);
/// Picks RLE for runs, DICT for low cardinality (when the caller knows the
/// distinct count), DELTA for near-sorted data, PLAIN otherwise. `ndv == 0`
/// means "unknown" and disables the dictionary choice.
Encoding ChooseInt64Encoding(std::span<const int64_t> values,
                             uint64_t ndv = 0);

// ---- double columns ----
void EncodeDoubles(std::span<const double> values, Bytes* dst);
Result<std::vector<double>> DecodeDoubles(ByteView data, size_t count);

// ---- string columns ----
/// kDict numbers the values with codec::KeyIds, then calls EncodeStringDict.
void EncodeStrings(std::span<const std::string> values, Encoding encoding,
                   Bytes* dst);
/// A kDict value stream from its parts, as EncodeInt64Dict.
void EncodeStringDict(std::span<const std::string_view> dict,
                      std::span<const uint32_t> codes, Bytes* dst);
Result<std::vector<std::string>> DecodeStrings(ByteView data,
                                               Encoding encoding,
                                               size_t count);
/// Decodes a kDict chunk without materializing per-row values.
Result<StringDictParts> DecodeStringDictParts(ByteView data, size_t count);
/// Picks DICT when distinct values are few (provinces, urls), else PLAIN.
/// `ndv != 0` (a precomputed distinct count) skips counting them.
Encoding ChooseStringEncoding(std::span<const std::string> values,
                              uint64_t ndv = 0);

// ---- bool columns ----
void EncodeBools(std::span<const uint8_t> values, Bytes* dst);
Result<std::vector<uint8_t>> DecodeBools(ByteView data, size_t count);

}  // namespace streamlake::codec

#endif  // STREAMLAKE_CODEC_ENCODING_H_
