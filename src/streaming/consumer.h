#ifndef STREAMLAKE_STREAMING_CONSUMER_H_
#define STREAMLAKE_STREAMING_CONSUMER_H_

#include <map>
#include <string>
#include <vector>

#include "streaming/dispatcher.h"
#include "streaming/message.h"

namespace streamlake::streaming {

/// \brief Kafka-compatible consumer (Fig. 7): subscribes to topics and
/// polls for new messages, tracking per-stream offsets.
///
/// Offsets commit to the dispatcher's KV store under the consumer group,
/// so a restarted consumer resumes where the group left off.
class Consumer {
 public:
  Consumer(StreamDispatcher* dispatcher, kv::KvStore* offsets,
           std::string group)
      : dispatcher_(dispatcher), offsets_(offsets), group_(std::move(group)) {}

  /// Subscribe and position at the group's committed offsets (or 0).
  Status Subscribe(const std::string& topic);

  /// Fetch up to `max_messages` new messages across all subscribed
  /// topics/streams. An empty result means "poll again later".
  Result<std::vector<ConsumedMessage>> Poll(size_t max_messages = 1024);

  /// Persist current positions for the group.
  Status CommitOffsets();

  /// Reposition every stream of `topic` at the first message with event
  /// time >= `timestamp` (Kafka's offsetsForTimes + seek).
  Status SeekToTimestamp(const std::string& topic, int64_t timestamp);

 private:
  std::string OffsetKey(const std::string& topic, uint32_t stream) const;

  StreamDispatcher* dispatcher_;
  kv::KvStore* offsets_;
  std::string group_;
  // topic -> per-stream next offset to read.
  std::map<std::string, std::vector<uint64_t>> positions_;
};

}  // namespace streamlake::streaming

#endif  // STREAMLAKE_STREAMING_CONSUMER_H_
