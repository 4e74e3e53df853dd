#include "baselines/mini_kafka.h"

#include "common/coding.h"
#include "common/hash.h"

namespace streamlake::baselines {

namespace {

// Record format mirrors Kafka's: every record carries a CRC-32C.
void EncodeMessage(Bytes* dst, const streaming::Message& message) {
  Bytes body;
  PutLengthPrefixed(&body, std::string_view(message.key));
  PutLengthPrefixed(&body, std::string_view(message.value));
  PutVarint64Signed(&body, message.timestamp);
  PutFixed32(dst, Crc32c(ByteView(body)));
  PutVarint64(dst, body.size());
  AppendBytes(dst, ByteView(body));
}

Result<streaming::Message> DecodeMessage(Decoder* dec) {
  uint32_t expected_crc;
  uint64_t body_len;
  if (!dec->GetFixed32(&expected_crc) || !dec->GetVarint(&body_len) ||
      dec->Remaining() < body_len) {
    return Status::Corruption("kafka record frame");
  }
  if (Crc32c(ByteView(dec->position(), body_len)) != expected_crc) {
    return Status::Corruption("kafka record crc");
  }
  streaming::Message message;
  if (!dec->GetString(&message.key) || !dec->GetString(&message.value) ||
      !dec->GetVarintSigned(&message.timestamp)) {
    return Status::Corruption("kafka message");
  }
  return message;
}

}  // namespace

MiniKafka::MiniKafka(storage::StoragePool* pool)
    : MiniKafka(pool, Options()) {}

MiniKafka::MiniKafka(storage::StoragePool* pool, Options options)
    : pool_(pool), options_(options) {}

Status MiniKafka::CreateTopic(const std::string& topic, uint32_t partitions) {
  MutexLock lock(&mu_);
  if (topics_.count(topic)) return Status::AlreadyExists(topic);
  if (partitions == 0) return Status::InvalidArgument("need >= 1 partition");
  Topic t;
  t.partitions.resize(partitions);
  topics_[topic] = std::move(t);
  return Status::OK();
}

Status MiniKafka::DeleteTopic(const std::string& topic) {
  MutexLock lock(&mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound(topic);
  for (Partition& partition : it->second.partitions) {
    for (const auto& segment : partition.segments) {
      pool_->FreeExtents(segment->replicas);
    }
  }
  topics_.erase(it);
  return Status::OK();
}

Result<MiniKafka::Segment*> MiniKafka::ActiveSegment(Partition* partition) {
  if (!partition->segments.empty() && !partition->segments.back()->sealed) {
    return partition->segments.back().get();
  }
  auto segment = std::make_unique<Segment>();
  segment->base_offset = partition->next_offset;
  SL_ASSIGN_OR_RETURN(segment->replicas,
                      pool_->AllocateSpread(options_.replication,
                                            options_.segment_bytes));
  partition->segments.push_back(std::move(segment));
  return partition->segments.back().get();
}

Status MiniKafka::Writeback(Segment* segment) {
  // Flush the dirty page-cache tail to every replica's log file.
  uint64_t dirty = segment->page_cache.size() - segment->flushed_bytes;
  if (dirty == 0) return Status::OK();
  SL_RETURN_NOT_OK(storage::WriteReplicas(
      segment->replicas, segment->flushed_bytes,
      ByteView(segment->page_cache.data() + segment->flushed_bytes, dirty)));
  segment->flushed_bytes = segment->page_cache.size();
  return Status::OK();
}

Result<MiniKafka::ProduceResult> MiniKafka::Produce(
    const std::string& topic, const streaming::Message& message) {
  MutexLock lock(&mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound(topic);
  Topic& t = it->second;
  uint32_t p;
  if (message.key.empty()) {
    p = static_cast<uint32_t>(t.rr_cursor++ % t.partitions.size());
  } else {
    p = static_cast<uint32_t>(Hash64(ByteView(message.key)) %
                              t.partitions.size());
  }
  Partition& partition = t.partitions[p];

  Bytes record;
  EncodeMessage(&record, message);
  SL_ASSIGN_OR_RETURN(Segment * segment, ActiveSegment(&partition));
  if (segment->bytes + record.size() > options_.segment_bytes) {
    SL_RETURN_NOT_OK(Writeback(segment));
    segment->sealed = true;
    segment->page_cache.clear();  // evicted once the segment rolls
    segment->page_cache.shrink_to_fit();
    SL_ASSIGN_OR_RETURN(segment, ActiveSegment(&partition));
    if (record.size() > options_.segment_bytes) {
      return Status::InvalidArgument("message larger than segment");
    }
  }
  segment->message_offsets.push_back(segment->bytes);
  AppendBytes(&segment->page_cache, ByteView(record));
  segment->bytes += record.size();
  segment->messages += 1;
  if (segment->page_cache.size() - segment->flushed_bytes >=
      options_.writeback_bytes) {
    SL_RETURN_NOT_OK(Writeback(segment));
  }

  ProduceResult result;
  result.partition = p;
  result.offset = partition.next_offset++;
  return result;
}

Result<std::vector<streaming::Message>> MiniKafka::Fetch(
    const std::string& topic, uint32_t partition_index, uint64_t offset,
    size_t max_messages) const {
  MutexLock lock(&mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound(topic);
  const Topic& t = it->second;
  if (partition_index >= t.partitions.size()) {
    return Status::InvalidArgument("partition out of range");
  }
  const Partition& partition = t.partitions[partition_index];
  std::vector<streaming::Message> out;
  for (const auto& segment : partition.segments) {
    if (out.size() >= max_messages) break;
    if (segment->base_offset + segment->messages <= offset) continue;
    uint64_t from =
        offset > segment->base_offset ? offset - segment->base_offset : 0;
    // Page-cache model: the active segment serves from memory; sealed
    // segments hit the disks.
    Bytes data;
    if (!segment->sealed && !segment->page_cache.empty()) {
      data = segment->page_cache;
    } else {
      SL_ASSIGN_OR_RETURN(
          data, storage::ReadReplica(segment->replicas, 0, segment->bytes));
    }
    for (uint64_t m = from;
         m < segment->messages && out.size() < max_messages; ++m) {
      uint64_t byte_offset = segment->message_offsets[m];
      Decoder dec(ByteView(data.data() + byte_offset,
                           data.size() - byte_offset));
      SL_ASSIGN_OR_RETURN(streaming::Message message, DecodeMessage(&dec));
      out.push_back(std::move(message));
    }
  }
  return out;
}

Result<uint64_t> MiniKafka::EndOffset(const std::string& topic,
                                      uint32_t partition) const {
  MutexLock lock(&mu_);
  auto it = topics_.find(topic);
  if (it == topics_.end()) return Status::NotFound(topic);
  if (partition >= it->second.partitions.size()) {
    return Status::InvalidArgument("partition out of range");
  }
  return it->second.partitions[partition].next_offset;
}

Status MiniKafka::Flush() {
  MutexLock lock(&mu_);
  for (auto& [name, topic] : topics_) {
    for (Partition& partition : topic.partitions) {
      for (auto& segment : partition.segments) {
        if (!segment->sealed) SL_RETURN_NOT_OK(Writeback(segment.get()));
      }
    }
  }
  return Status::OK();
}

uint64_t MiniKafka::TotalLogicalBytes() const {
  MutexLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& [name, topic] : topics_) {
    for (const Partition& partition : topic.partitions) {
      for (const auto& segment : partition.segments) {
        total += segment->bytes;
      }
    }
  }
  return total;
}

uint64_t MiniKafka::TotalPhysicalBytes() const {
  return TotalLogicalBytes() * options_.replication;
}

}  // namespace streamlake::baselines
