#include "stream/stream_record.h"

namespace streamlake::stream {

void EncodeStreamRecord(Bytes* dst, const StreamRecord& record) {
  PutLengthPrefixed(dst, std::string_view(record.key));
  PutLengthPrefixed(dst, ByteView(record.value));
  PutVarint64Signed(dst, record.timestamp);
  PutVarint64(dst, record.producer_id);
  PutVarint64(dst, record.producer_seq);
}

Result<StreamRecord> DecodeStreamRecord(Decoder* dec) {
  StreamRecord record;
  ByteView value;
  if (!dec->GetString(&record.key) || !dec->GetBytes(&value) ||
      !dec->GetVarintSigned(&record.timestamp) ||
      !dec->GetVarint(&record.producer_id) ||
      !dec->GetVarint(&record.producer_seq)) {
    return Status::Corruption("stream record");
  }
  record.value = value.ToBytes();
  return record;
}

void EncodeSlice(Bytes* dst, std::span<const StreamRecord> records) {
  PutVarint64(dst, records.size());
  for (const StreamRecord& record : records) {
    EncodeStreamRecord(dst, record);
  }
}

Result<std::vector<StreamRecord>> DecodeSlice(ByteView data) {
  Decoder dec(data);
  uint64_t count;
  if (!dec.GetVarint(&count)) return Status::Corruption("slice count");
  // Each record needs several bytes; a count beyond the payload is bogus
  // (and must not drive a huge allocation).
  if (count > dec.Remaining()) return Status::Corruption("slice count bogus");
  std::vector<StreamRecord> records;
  records.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SL_ASSIGN_OR_RETURN(StreamRecord record, DecodeStreamRecord(&dec));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace streamlake::stream
