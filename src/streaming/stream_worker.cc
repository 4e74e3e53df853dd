#include "streaming/stream_worker.h"

namespace streamlake::streaming {

void StreamWorker::AssignStream(uint64_t stream_object_id) {
  MutexLock lock(&mu_);
  streams_.insert(stream_object_id);
}

void StreamWorker::UnassignStream(uint64_t stream_object_id) {
  MutexLock lock(&mu_);
  streams_.erase(stream_object_id);
}

size_t StreamWorker::num_streams() const {
  MutexLock lock(&mu_);
  return streams_.size();
}

namespace {

// Wrap client messages in the stream object data format ("redirect them
// to the corresponding stream objects via RDMA"); returns the wire bytes
// charged to the data bus.
uint64_t WrapMessages(const std::vector<Message>& messages,
                      uint64_t producer_id, uint64_t first_seq,
                      std::vector<stream::StreamRecord>* records) {
  records->reserve(messages.size());
  uint64_t bytes = 0;
  for (size_t i = 0; i < messages.size(); ++i) {
    stream::StreamRecord record;
    record.key = messages[i].key;
    record.value = ToBytes(messages[i].value);
    record.timestamp = messages[i].timestamp;
    record.producer_id = producer_id;
    record.producer_seq = first_seq + i;
    bytes += record.ByteSize();
    records->push_back(std::move(record));
  }
  return bytes;
}

}  // namespace

Result<stream::StreamObject*> StreamWorker::ObjectFor(
    uint64_t stream_object_id) const {
  stream::StreamObject* object = objects_->GetObject(stream_object_id);
  if (object == nullptr) return Status::NotFound("stream object gone");
  return object;
}

Result<uint64_t> StreamWorker::Produce(uint64_t stream_object_id,
                                       const std::vector<Message>& messages,
                                       uint64_t producer_id,
                                       uint64_t first_seq, bool flush) {
  auto found = ObjectFor(stream_object_id);
  if (!found.ok()) return found.status();
  stream::StreamObject* object = *found;
  std::vector<stream::StreamRecord> records;
  bus_->ChargeTransfer(
      WrapMessages(messages, producer_id, first_seq, &records));
  return object->Append(std::move(records), flush);
}

Result<uint64_t> StreamWorker::FindOffsetByTimestamp(uint64_t stream_object_id,
                                                     int64_t timestamp) {
  auto found = ObjectFor(stream_object_id);
  if (!found.ok()) return found.status();
  stream::StreamObject* object = *found;
  return object->FindOffsetByTimestamp(timestamp);
}

Result<std::vector<stream::StreamRecord>> StreamWorker::Fetch(
    uint64_t stream_object_id, uint64_t offset, size_t max_records) {
  auto found = ObjectFor(stream_object_id);
  if (!found.ok()) return found.status();
  stream::StreamObject* object = *found;
  SL_ASSIGN_OR_RETURN(auto records, object->Read(offset, max_records));
  uint64_t bytes = 0;
  for (const auto& record : records) bytes += record.ByteSize();
  bus_->ChargeTransfer(bytes);
  return records;
}

}  // namespace streamlake::streaming
