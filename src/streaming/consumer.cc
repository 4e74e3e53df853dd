#include "streaming/consumer.h"

#include "common/coding.h"
#include "common/metrics.h"

namespace streamlake::streaming {

std::string Consumer::OffsetKey(const std::string& topic,
                                uint32_t stream) const {
  return "offsets/" + group_ + "/" + topic + "/" + std::to_string(stream);
}

Status Consumer::Subscribe(const std::string& topic) {
  SL_ASSIGN_OR_RETURN(uint32_t streams, dispatcher_->NumStreams(topic));
  std::vector<uint64_t> positions(streams, 0);
  for (uint32_t s = 0; s < streams; ++s) {
    const std::string key = OffsetKey(topic, s);
    auto committed = offsets_->Get(key);
    if (committed.ok()) {
      SL_ASSIGN_OR_RETURN(positions[s],
                          ParseDecimal<uint64_t>(*committed, key));
    }
  }
  positions_[topic] = std::move(positions);
  return Status::OK();
}

Result<std::vector<ConsumedMessage>> Consumer::Poll(size_t max_messages) {
  std::vector<ConsumedMessage> out;
  for (auto& [topic, positions] : positions_) {
    // The topic may have gained streams since Subscribe (partition scaling).
    SL_ASSIGN_OR_RETURN(uint32_t streams, dispatcher_->NumStreams(topic));
    if (streams > positions.size()) positions.resize(streams, 0);
    for (uint32_t s = 0; s < streams && out.size() < max_messages; ++s) {
      SL_ASSIGN_OR_RETURN(auto route, dispatcher_->RouteFetch(topic, s));
      auto records = route.worker->Fetch(route.stream_object_id, positions[s],
                                         max_messages - out.size());
      if (!records.ok()) return records.status();
      for (const stream::StreamRecord& record : *records) {
        ConsumedMessage consumed;
        consumed.message.key = record.key;
        consumed.message.value = BytesToString(record.value);
        consumed.message.timestamp = record.timestamp;
        consumed.stream_index = s;
        consumed.offset = positions[s];
        out.push_back(std::move(consumed));
        ++positions[s];
      }
    }
  }
  static Counter* polls =
      MetricsRegistry::Global().GetCounter("streaming.consumer.polls");
  static Counter* messages =
      MetricsRegistry::Global().GetCounter("streaming.consumer.messages");
  polls->Increment();
  messages->Increment(out.size());
  return out;
}

Status Consumer::CommitOffsets() {
  kv::WriteBatch batch;
  for (const auto& [topic, positions] : positions_) {
    for (uint32_t s = 0; s < positions.size(); ++s) {
      batch.Put(OffsetKey(topic, s), std::to_string(positions[s]));
    }
  }
  return offsets_->Write(batch);
}

Status Consumer::SeekToTimestamp(const std::string& topic,
                                 int64_t timestamp) {
  auto it = positions_.find(topic);
  if (it == positions_.end()) {
    return Status::InvalidArgument("not subscribed to " + topic);
  }
  for (uint32_t s = 0; s < it->second.size(); ++s) {
    SL_ASSIGN_OR_RETURN(auto route, dispatcher_->RouteFetch(topic, s));
    SL_ASSIGN_OR_RETURN(
        it->second[s],
        route.worker->FindOffsetByTimestamp(route.stream_object_id,
                                            timestamp));
  }
  return Status::OK();
}

}  // namespace streamlake::streaming
