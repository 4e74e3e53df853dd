#include "format/types.h"

#include "common/logging.h"

namespace streamlake::format {

const char* DataTypeName(DataType type) {
  switch (type) {
    case DataType::kBool:
      return "bool";
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kString:
      return "string";
    case DataType::kNull:
      return "null";
  }
  return "?";
}

DataType TypeOf(const Value& v) {
  return static_cast<DataType>(v.index());
}

namespace {

/// CompareValues, or with `keys` CompareKeys: they differ only on doubles.
int Compare(const Value& a, const Value& b, bool keys) {
  if (IsNull(a) || IsNull(b)) {
    if (IsNull(a) && IsNull(b)) return 0;
    return IsNull(a) ? -1 : 1;
  }
  SL_CHECK(a.index() == b.index());
  switch (TypeOf(a)) {
    case DataType::kBool: {
      int x = std::get<bool>(a), y = std::get<bool>(b);
      return x - y;
    }
    case DataType::kInt64: {
      int64_t x = std::get<int64_t>(a), y = std::get<int64_t>(b);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kDouble: {
      double x = std::get<double>(a), y = std::get<double>(b);
      if (keys) return CompareDoubleKeys(x, y);
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    case DataType::kString: {
      return std::get<std::string>(a).compare(std::get<std::string>(b));
    }
    case DataType::kNull:
      return 0;  // unreachable: handled above
  }
  return 0;
}

}  // namespace

int CompareValues(const Value& a, const Value& b) {
  return Compare(a, b, /*keys=*/false);
}

int CompareKeys(const Value& a, const Value& b) {
  return Compare(a, b, /*keys=*/true);
}

std::string ValueToString(const Value& v) {
  switch (TypeOf(v)) {
    case DataType::kBool:
      return std::get<bool>(v) ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(std::get<int64_t>(v));
    case DataType::kDouble:
      return std::to_string(std::get<double>(v));
    case DataType::kString:
      return std::get<std::string>(v);
    case DataType::kNull:
      return "NULL";
  }
  return "";
}

void EncodeValue(Bytes* dst, const Value& v) {
  dst->push_back(static_cast<uint8_t>(TypeOf(v)));
  switch (TypeOf(v)) {
    case DataType::kBool:
      dst->push_back(std::get<bool>(v) ? 1 : 0);
      break;
    case DataType::kInt64:
      PutVarint64Signed(dst, std::get<int64_t>(v));
      break;
    case DataType::kDouble: {
      uint64_t bits;
      double d = std::get<double>(v);
      std::memcpy(&bits, &d, 8);
      PutFixed64(dst, bits);
      break;
    }
    case DataType::kString:
      PutLengthPrefixed(dst, std::string_view(std::get<std::string>(v)));
      break;
    case DataType::kNull:
      break;  // tag only, no payload
  }
}

Result<Value> DecodeValue(Decoder* dec) {
  if (dec->Remaining() < 1) return Status::Corruption("value: missing tag");
  uint8_t tag = *dec->position();
  dec->Skip(1);
  switch (static_cast<DataType>(tag)) {
    case DataType::kBool: {
      if (dec->Remaining() < 1) return Status::Corruption("value: bool");
      bool b = *dec->position() != 0;
      dec->Skip(1);
      return Value(b);
    }
    case DataType::kInt64: {
      int64_t v;
      if (!dec->GetVarintSigned(&v)) return Status::Corruption("value: int64");
      return Value(v);
    }
    case DataType::kDouble: {
      uint64_t bits;
      if (!dec->GetFixed64(&bits)) return Status::Corruption("value: double");
      double d;
      std::memcpy(&d, &bits, 8);
      return Value(d);
    }
    case DataType::kString: {
      std::string s;
      if (!dec->GetString(&s)) return Status::Corruption("value: string");
      return Value(std::move(s));
    }
    case DataType::kNull:
      return Value(std::monostate{});
  }
  return Status::Corruption("value: unknown type tag");
}

}  // namespace streamlake::format
