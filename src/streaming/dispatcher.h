#ifndef STREAMLAKE_STREAMING_DISPATCHER_H_
#define STREAMLAKE_STREAMING_DISPATCHER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "kv/kv_store.h"
#include "sim/clock.h"
#include "sim/network_model.h"
#include "streaming/stream_worker.h"
#include "streaming/topic_config.h"

namespace streamlake::streaming {

/// \brief The stream dispatcher (Section V-A): owns the messaging-service
/// metadata and routes producer/consumer requests to stream workers.
///
/// "The relationships among topics, streams, stream workers, and stream
/// objects are stored as key-value pairs in a fault-tolerant key-value
/// store within the stream dispatcher." Worker/stream reassignment touches
/// only this metadata, which is why scaling needs no data migration.
class StreamDispatcher {
 public:
  StreamDispatcher(stream::StreamObjectManager* objects, kv::KvStore* meta,
                   sim::NetworkModel* bus, sim::SimClock* clock,
                   uint32_t initial_workers = 3);

  /// Declare a topic: creates `config.stream_num` streams, one stream
  /// object each, assigned to workers round-robin.
  Status CreateTopic(const std::string& topic, const TopicConfig& config);

  Status DeleteTopic(const std::string& topic);

  bool HasTopic(const std::string& topic) const;
  Result<TopicConfig> GetTopicConfig(const std::string& topic) const;
  Result<uint32_t> NumStreams(const std::string& topic) const;

  /// Stream object id of stream `index` of `topic`.
  Result<uint64_t> StreamObjectId(const std::string& topic,
                                  uint32_t index) const;

  /// Pick the stream for a message key (hash routing; empty keys spread
  /// round-robin) and resolve its worker.
  struct Route {
    uint32_t stream_index = 0;
    uint64_t stream_object_id = 0;
    StreamWorker* worker = nullptr;
  };
  Result<Route> RouteProduce(const std::string& topic, const std::string& key);
  Result<Route> RouteFetch(const std::string& topic, uint32_t stream_index);

  /// Grow/shrink the worker fleet and rebalance stream assignments.
  /// Metadata-only: returns after the KV topology updates.
  Status ResizeWorkers(uint32_t count);

  /// Health tracking: stream object clients "actively monitor the health
  /// of the stream objects ... and regularly exchange critical service
  /// data with the dispatcher" (Section V-A). Workers heartbeat; a sweep
  /// reassigns the streams of workers silent past the timeout.
  void Heartbeat(uint32_t worker_index);
  struct HealthSweepStats {
    uint32_t dead_workers = 0;
    uint32_t streams_reassigned = 0;
  };
  Result<HealthSweepStats> SweepDeadWorkers(uint64_t timeout_ns);

  /// Add streams (partitions) to a topic — the Fig. 14(c) scaling path.
  Status AddStreams(const std::string& topic, uint32_t additional);

  uint32_t num_workers() const;
  StreamWorker* worker(uint32_t index);

  /// Allocate a unique producer id (idempotence tracking).
  uint64_t NextProducerId();

  /// Crash recovery: rebuild every topic and stream assignment from the
  /// fault-tolerant KV store. The stream object manager must have been
  /// recovered first (RecoverAll). A topic exists iff its config key does:
  /// CreateTopic writes it last and DeleteTopic deletes it first. Returns
  /// the number of topics restored.
  Result<size_t> Recover();

 private:
  struct TopicState {
    TopicConfig config;
    std::vector<uint64_t> stream_object_ids;
    uint64_t next_rr = 0;  // round-robin cursor for empty keys
  };

  Status AssignStreamLocked(uint64_t stream_object_id, uint32_t worker_index)
      REQUIRES(mu_);
  /// Drop a stream's in-memory assignment, if it has one.
  void UnassignLocked(uint64_t stream_object_id) REQUIRES(mu_);
  Status RebalanceLocked(uint32_t worker_count) REQUIRES(mu_);
  /// Append `n` streams to `topic`: create their objects, assign them
  /// round-robin, write their keys, then the count, then — for a new
  /// topic — the config key. On failure retracts what it wrote and leaves
  /// `state` unchanged.
  Status GrowTopicLocked(const std::string& topic, TopicState& state,
                         uint32_t n) REQUIRES(mu_);
  /// Stream `index` of `state` and the worker it is assigned to.
  Route RouteLocked(const TopicState& state, uint32_t index) const
      REQUIRES(mu_);

  stream::StreamObjectManager* objects_;
  kv::KvStore* meta_;
  sim::NetworkModel* bus_;
  sim::SimClock* clock_;

  mutable Mutex mu_{LockRank::kStreamDispatcher, "streaming.dispatcher"};
  std::vector<std::unique_ptr<StreamWorker>> workers_ GUARDED_BY(mu_);
  // Workers removed by a shrink. Kept alive for the dispatcher's lifetime:
  // RouteProduce/RouteFetch hand out raw StreamWorker pointers that callers
  // use after mu_ is released, so destroying a shrunk-away worker would be
  // a use-after-free under concurrent produce.
  std::vector<std::unique_ptr<StreamWorker>> retired_workers_ GUARDED_BY(mu_);
  std::vector<uint64_t> last_heartbeat_ns_ GUARDED_BY(mu_);
  std::map<std::string, TopicState> topics_ GUARDED_BY(mu_);
  std::map<uint64_t, uint32_t> stream_to_worker_ GUARDED_BY(mu_);
  uint64_t next_producer_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace streamlake::streaming

#endif  // STREAMLAKE_STREAMING_DISPATCHER_H_
