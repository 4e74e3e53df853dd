#include "format/row_codec.h"

#include <cstring>

#include "common/logging.h"

namespace streamlake::format {

void EncodeRow(const Schema& schema, const Row& row, Bytes* dst) {
  SL_CHECK(row.fields.size() == schema.num_fields());
  for (size_t i = 0; i < row.fields.size(); ++i) {
    const Value& v = row.fields[i];
    SL_CHECK(TypeOf(v) == schema.field(i).type);
    switch (schema.field(i).type) {
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
        break;  // a NULL field takes no bytes
    }
  }
}

Result<Row> DecodeRow(const Schema& schema, Decoder* dec) {
  Row row;
  row.fields.reserve(schema.num_fields());
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    switch (schema.field(i).type) {
      case DataType::kBool: {
        if (dec->Remaining() < 1) return Status::Corruption("row: bool");
        row.fields.emplace_back(*dec->position() != 0);
        dec->Skip(1);
        break;
      }
      case DataType::kInt64: {
        int64_t v;
        if (!dec->GetVarintSigned(&v)) return Status::Corruption("row: int64");
        row.fields.emplace_back(v);
        break;
      }
      case DataType::kDouble: {
        uint64_t bits;
        if (!dec->GetFixed64(&bits)) return Status::Corruption("row: double");
        double d;
        std::memcpy(&d, &bits, 8);
        row.fields.emplace_back(d);
        break;
      }
      case DataType::kString: {
        std::string s;
        if (!dec->GetString(&s)) return Status::Corruption("row: string");
        row.fields.emplace_back(std::move(s));
        break;
      }
      case DataType::kNull:
        row.fields.emplace_back(std::monostate{});
        break;
    }
  }
  return row;
}

Result<Row> DecodeRow(const Schema& schema, ByteView data) {
  Decoder dec(data);
  return DecodeRow(schema, &dec);
}

}  // namespace streamlake::format
