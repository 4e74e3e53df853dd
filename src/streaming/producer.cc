#include "streaming/producer.h"

#include "common/metrics.h"

namespace streamlake::streaming {

Status Producer::Gate(uint64_t ops, uint64_t bytes) {
  if (admission_ == nullptr) return Status::OK();
  auto ticket = admission_blocking_
                    ? admission_->AdmitBlocking(tenant_, AdmitOp::kProduce,
                                                ops, bytes)
                    : admission_->Admit(tenant_, AdmitOp::kProduce, ops,
                                        bytes);
  return ticket.status();
}

Result<uint64_t> Producer::Deliver(const std::string& topic,
                                   StreamDispatcher::Route route,
                                   const std::vector<Message>& messages,
                                   uint64_t first_seq, bool flush) {
  auto produce = [&] {
    return route.worker->Produce(route.stream_object_id, messages,
                                 producer_id_, first_seq, flush);
  };
  auto offset = produce();
  for (int reroutes = 0; reroutes < kMaxReroutes && !offset.ok() &&
                         offset.status().IsNotFound();
       ++reroutes) {
    auto fresh = dispatcher_->RouteFetch(topic, route.stream_index);
    if (!fresh.ok()) break;  // report the refusal, not the lookup
    route = *fresh;
    offset = produce();
  }
  return offset;
}

Result<uint64_t> Producer::Send(const std::string& topic,
                                const Message& message) {
  static Counter* sends =
      MetricsRegistry::Global().GetCounter("streaming.producer.messages");
  SL_RETURN_NOT_OK(Gate(1, message.ByteSize()));
  sends->Increment();
  SL_ASSIGN_OR_RETURN(auto route,
                      dispatcher_->RouteProduce(topic, message.key));
  uint64_t& next = next_seq_[route.stream_object_id];
  uint64_t seq = ++next;
  auto offset = Deliver(topic, route, {message}, seq, /*flush=*/false);
  if (offset.ok()) {
    last_ = LastSend{topic, message, seq};
    has_last_ = true;
  }
  return offset;
}

Status Producer::SendBatch(const std::string& topic,
                           const std::vector<Message>& messages) {
  static Counter* sends =
      MetricsRegistry::Global().GetCounter("streaming.producer.messages");
  // One admission pass covers the whole batch: `ops` tokens equal to the
  // batch size plus its total payload bytes, so batching neither dodges
  // nor double-pays the quota.
  uint64_t batch_bytes = 0;
  for (const Message& message : messages) batch_bytes += message.ByteSize();
  SL_RETURN_NOT_OK(Gate(messages.size(), batch_bytes));
  // Group by the stream object each key routes to (preserving per-object
  // message order), reserve a contiguous producer-sequence block per
  // group, and publish every group as one flushed append per stream object
  // instead of one storage round trip per message.
  struct Group {
    StreamDispatcher::Route route;
    std::vector<Message> messages;
  };
  std::map<uint64_t, Group> groups;
  for (const Message& message : messages) {
    SL_ASSIGN_OR_RETURN(auto route,
                        dispatcher_->RouteProduce(topic, message.key));
    auto [it, inserted] = groups.try_emplace(route.stream_object_id);
    if (inserted) it->second.route = route;
    it->second.messages.push_back(message);
  }
  for (auto& [object_id, group] : groups) {
    uint64_t& next = next_seq_[object_id];
    uint64_t first_seq = next + 1;
    next += group.messages.size();
    SL_ASSIGN_OR_RETURN(
        [[maybe_unused]] uint64_t offset,
        Deliver(topic, group.route, group.messages, first_seq,
                /*flush=*/true));
    sends->Increment(group.messages.size());
  }
  return Status::OK();
}

Result<uint64_t> Producer::ResendLast() {
  if (!has_last_) return Status::InvalidArgument("nothing to resend");
  SL_ASSIGN_OR_RETURN(auto route,
                      dispatcher_->RouteProduce(last_.topic, last_.message.key));
  // Same (producer_id, seq): the stream object identifies the duplicate.
  return Deliver(last_.topic, route, {last_.message}, last_.seq,
                 /*flush=*/false);
}

}  // namespace streamlake::streaming
