#ifndef STREAMLAKE_STREAM_STREAM_RECORD_H_
#define STREAMLAKE_STREAM_STREAM_RECORD_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/coding.h"
#include "common/result.h"

namespace streamlake::stream {

/// One key-value message inside a stream object. `producer_id`/
/// `producer_seq` implement idempotent writes: a retried duplicate carries
/// the same pair and is dropped by the stream object.
struct StreamRecord {
  std::string key;
  Bytes value;
  int64_t timestamp = 0;       // event time (seconds)
  uint64_t producer_id = 0;    // 0 = no idempotence tracking
  uint64_t producer_seq = 0;

  size_t ByteSize() const { return key.size() + value.size() + 24; }

  bool operator==(const StreamRecord& other) const {
    return key == other.key && value == other.value &&
           timestamp == other.timestamp &&
           producer_id == other.producer_id &&
           producer_seq == other.producer_seq;
  }
};

void EncodeStreamRecord(Bytes* dst, const StreamRecord& record);
Result<StreamRecord> DecodeStreamRecord(Decoder* dec);

/// Serialize a whole slice of records (the persistence unit of Fig. 4).
void EncodeSlice(Bytes* dst, std::span<const StreamRecord> records);
Result<std::vector<StreamRecord>> DecodeSlice(ByteView data);

}  // namespace streamlake::stream

#endif  // STREAMLAKE_STREAM_STREAM_RECORD_H_
