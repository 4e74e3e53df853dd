#include "format/schema.h"

namespace streamlake::format {

int Schema::FieldIndex(std::string_view name) const {
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Schema::ValidateRow(const Row& row) const {
  if (row.fields.size() != fields_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.fields.size()) + " fields, schema " +
        std::to_string(fields_.size()));
  }
  for (size_t i = 0; i < fields_.size(); ++i) {
    // NULL is a valid cell for any field type.
    if (IsNull(row.fields[i])) continue;
    if (TypeOf(row.fields[i]) != fields_[i].type) {
      return Status::InvalidArgument("field '" + fields_[i].name +
                                     "' type mismatch");
    }
  }
  return Status::OK();
}

void Schema::EncodeTo(Bytes* dst) const {
  PutVarint64(dst, fields_.size());
  for (const Field& f : fields_) {
    PutLengthPrefixed(dst, std::string_view(f.name));
    dst->push_back(static_cast<uint8_t>(f.type));
  }
}

Result<Schema> Schema::DecodeFrom(Decoder* dec) {
  uint64_t count;
  if (!dec->GetVarint(&count)) return Status::Corruption("schema: count");
  if (count > dec->Remaining()) {
    return Status::Corruption("schema: count bogus");
  }
  std::vector<Field> fields;
  fields.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    Field f;
    if (!dec->GetString(&f.name)) return Status::Corruption("schema: name");
    if (dec->Remaining() < 1) return Status::Corruption("schema: type");
    f.type = static_cast<DataType>(*dec->position());
    dec->Skip(1);
    if (f.type > DataType::kNull) {
      return Status::Corruption("schema: bad type tag");
    }
    fields.push_back(std::move(f));
  }
  return Schema(std::move(fields));
}

}  // namespace streamlake::format
