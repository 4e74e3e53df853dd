#include "codec/encoding.h"

#include "codec/key_ids.h"
#include "common/coding.h"

namespace streamlake::codec {

namespace {

void EncodeInt64Plain(std::span<const int64_t> values, Bytes* dst) {
  for (int64_t v : values) PutVarint64Signed(dst, v);
}

void EncodeInt64Delta(std::span<const int64_t> values, Bytes* dst) {
  int64_t prev = 0;
  for (int64_t v : values) {
    PutVarint64Signed(dst, v - prev);
    prev = v;
  }
}

void EncodeInt64Rle(std::span<const int64_t> values, Bytes* dst) {
  size_t i = 0;
  while (i < values.size()) {
    size_t j = i;
    while (j < values.size() && values[j] == values[i]) ++j;
    PutVarint64Signed(dst, values[i]);
    PutVarint64(dst, j - i);
    i = j;
  }
}

void EncodeStringsPlain(std::span<const std::string> values, Bytes* dst) {
  for (const std::string& s : values) {
    PutLengthPrefixed(dst, std::string_view(s));
  }
}

/// Each value's id in `ids`, which numbers them in first-appearance order.
template <typename Key, typename T>
std::vector<uint32_t> DictCodes(std::span<const T> values, KeyIds<Key>* ids) {
  std::vector<uint32_t> codes;
  codes.reserve(values.size());
  for (const T& v : values) codes.push_back(ids->Insert(Key(v)));
  return codes;
}

/// Shared header parse for both dict decode paths: reads the code stream into
/// `codes` after `read_entry` has consumed each dictionary entry.
template <typename ReadEntry>
Status DecodeDictCodes(Decoder* dec, size_t count, const ReadEntry& read_entry,
                       uint64_t* dict_size_out, std::vector<uint32_t>* codes) {
  uint64_t dict_size;
  if (!dec->GetVarint(&dict_size)) return Status::Corruption("dict size");
  if (dict_size > dec->Remaining()) {
    return Status::Corruption("dict size bogus");
  }
  for (uint64_t i = 0; i < dict_size; ++i) {
    if (!read_entry()) return Status::Corruption("dict entry");
  }
  codes->reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t code;
    if (!dec->GetVarint(&code) || code >= dict_size) {
      return Status::Corruption("dict code");
    }
    codes->push_back(static_cast<uint32_t>(code));
  }
  *dict_size_out = dict_size;
  return Status::OK();
}

}  // namespace

void EncodeInt64Dict(std::span<const int64_t> dict,
                     std::span<const uint32_t> codes, Bytes* dst) {
  PutVarint64(dst, dict.size());
  for (int64_t v : dict) PutVarint64Signed(dst, v);
  for (uint32_t code : codes) PutVarint64(dst, code);
}

void EncodeInt64s(std::span<const int64_t> values, Encoding encoding,
                  Bytes* dst) {
  switch (encoding) {
    case Encoding::kPlain:
      EncodeInt64Plain(values, dst);
      return;
    case Encoding::kDelta:
      EncodeInt64Delta(values, dst);
      return;
    case Encoding::kRle:
      EncodeInt64Rle(values, dst);
      return;
    case Encoding::kDict: {
      KeyIds<int64_t> ids;
      const std::vector<uint32_t> codes = DictCodes(values, &ids);
      EncodeInt64Dict(ids.keys(), codes, dst);
      return;
    }
    default:
      EncodeInt64Plain(values, dst);
      return;
  }
}

Result<std::vector<int64_t>> DecodeInt64s(ByteView data, Encoding encoding,
                                          size_t count) {
  // RLE aside, each value costs >= 1 byte; cap the allocation against
  // corrupt counts. (RLE validates run lengths against `count` itself.)
  if (encoding != Encoding::kRle && count > data.size()) {
    return Status::Corruption("int64 count exceeds payload");
  }
  std::vector<int64_t> out;
  out.reserve(std::min<size_t>(count, data.size() + 1));
  Decoder dec(data);
  switch (encoding) {
    case Encoding::kPlain: {
      for (size_t i = 0; i < count; ++i) {
        int64_t v;
        if (!dec.GetVarintSigned(&v)) return Status::Corruption("int64 plain");
        out.push_back(v);
      }
      return out;
    }
    case Encoding::kDelta: {
      int64_t prev = 0;
      for (size_t i = 0; i < count; ++i) {
        int64_t d;
        if (!dec.GetVarintSigned(&d)) return Status::Corruption("int64 delta");
        prev += d;
        out.push_back(prev);
      }
      return out;
    }
    case Encoding::kRle: {
      // RLE legitimately expands, but a corrupt count must not drive an
      // unbounded allocation: cap the accepted expansion factor.
      if (count / 65536 > data.size()) {
        return Status::Corruption("int64 rle: implausible count");
      }
      while (out.size() < count) {
        int64_t v;
        uint64_t run;
        if (!dec.GetVarintSigned(&v) || !dec.GetVarint(&run)) {
          return Status::Corruption("int64 rle");
        }
        if (run == 0 || out.size() + run > count) {
          return Status::Corruption("int64 rle: bad run length");
        }
        out.insert(out.end(), run, v);
      }
      return out;
    }
    case Encoding::kDict: {
      auto parts = DecodeInt64DictParts(data, count);
      if (!parts.ok()) return parts.status();
      for (uint32_t code : parts->codes) out.push_back(parts->dict[code]);
      return out;
    }
    default:
      return Status::NotSupported("int64 encoding");
  }
}

Result<Int64DictParts> DecodeInt64DictParts(ByteView data, size_t count) {
  if (count > data.size()) {
    return Status::Corruption("int64 dict count exceeds payload");
  }
  Int64DictParts parts;
  Decoder dec(data);
  uint64_t dict_size = 0;
  Status s = DecodeDictCodes(
      &dec, count,
      [&] {
        int64_t v;
        if (!dec.GetVarintSigned(&v)) return false;
        parts.dict.push_back(v);
        return true;
      },
      &dict_size, &parts.codes);
  if (!s.ok()) return Status::Corruption("int64 " + s.message());
  return parts;
}

Encoding ChooseInt64Encoding(std::span<const int64_t> values, uint64_t ndv) {
  if (values.size() < 8) return Encoding::kPlain;
  size_t runs = 1;
  size_t sorted_pairs = 0;
  for (size_t i = 1; i < values.size(); ++i) {
    if (values[i] != values[i - 1]) ++runs;
    if (values[i] >= values[i - 1]) ++sorted_pairs;
  }
  if (runs * 4 <= values.size()) return Encoding::kRle;
  if (ndv != 0 && values.size() >= 16 && ndv * 4 <= values.size()) {
    return Encoding::kDict;
  }
  if (sorted_pairs * 10 >= (values.size() - 1) * 9) return Encoding::kDelta;
  return Encoding::kPlain;
}

void EncodeDoubles(std::span<const double> values, Bytes* dst) {
  for (double d : values) {
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    PutFixed64(dst, bits);
  }
}

Result<std::vector<double>> DecodeDoubles(ByteView data, size_t count) {
  if (count > data.size() / 8) return Status::Corruption("double plain");
  std::vector<double> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    uint64_t bits = DecodeFixed64(data.data() + i * 8);
    double d;
    std::memcpy(&d, &bits, 8);
    out.push_back(d);
  }
  return out;
}

void EncodeStringDict(std::span<const std::string_view> dict,
                      std::span<const uint32_t> codes, Bytes* dst) {
  PutVarint64(dst, dict.size());
  for (std::string_view s : dict) PutLengthPrefixed(dst, s);
  for (uint32_t code : codes) PutVarint64(dst, code);
}

void EncodeStrings(std::span<const std::string> values, Encoding encoding,
                   Bytes* dst) {
  switch (encoding) {
    case Encoding::kDict: {
      KeyIds<std::string_view> ids;
      const std::vector<uint32_t> codes = DictCodes(values, &ids);
      EncodeStringDict(ids.keys(), codes, dst);
      return;
    }
    default:
      EncodeStringsPlain(values, dst);
      return;
  }
}

Result<std::vector<std::string>> DecodeStrings(ByteView data,
                                               Encoding encoding,
                                               size_t count) {
  if (count > data.size()) {
    return Status::Corruption("string count exceeds payload");
  }
  std::vector<std::string> out;
  out.reserve(count);
  Decoder dec(data);
  switch (encoding) {
    case Encoding::kPlain: {
      for (size_t i = 0; i < count; ++i) {
        std::string s;
        if (!dec.GetString(&s)) return Status::Corruption("string plain");
        out.push_back(std::move(s));
      }
      return out;
    }
    case Encoding::kDict: {
      auto parts = DecodeStringDictParts(data, count);
      if (!parts.ok()) return parts.status();
      for (uint32_t code : parts->codes) out.push_back(parts->dict[code]);
      return out;
    }
    default:
      return Status::NotSupported("string encoding");
  }
}

Result<StringDictParts> DecodeStringDictParts(ByteView data, size_t count) {
  if (count > data.size()) {
    return Status::Corruption("string dict count exceeds payload");
  }
  StringDictParts parts;
  Decoder dec(data);
  uint64_t dict_size = 0;
  Status s = DecodeDictCodes(
      &dec, count,
      [&] {
        std::string v;
        if (!dec.GetString(&v)) return false;
        parts.dict.push_back(std::move(v));
        return true;
      },
      &dict_size, &parts.codes);
  if (!s.ok()) return Status::Corruption("string " + s.message());
  return parts;
}

Encoding ChooseStringEncoding(std::span<const std::string> values,
                              uint64_t ndv) {
  if (values.size() < 16) return Encoding::kPlain;
  // Dictionary pays off below ~1/4 distinct ratio. A precomputed distinct
  // count (footer stats) answers that directly; otherwise count them.
  if (ndv == 0) {
    KeyIds<std::string_view> distinct;
    for (const std::string& s : values) distinct.Insert(s);
    ndv = distinct.size();
  }
  return ndv * 4 <= values.size() ? Encoding::kDict : Encoding::kPlain;
}

void EncodeBools(std::span<const uint8_t> values, Bytes* dst) {
  uint8_t acc = 0;
  int bit = 0;
  for (uint8_t v : values) {
    if (v) acc |= static_cast<uint8_t>(1 << bit);
    if (++bit == 8) {
      dst->push_back(acc);
      acc = 0;
      bit = 0;
    }
  }
  if (bit > 0) dst->push_back(acc);
}

Result<std::vector<uint8_t>> DecodeBools(ByteView data, size_t count) {
  if (data.size() * 8 < count) return Status::Corruption("bool bitpack");
  std::vector<uint8_t> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    out.push_back((data[i / 8] >> (i % 8)) & 1);
  }
  return out;
}

}  // namespace streamlake::codec
