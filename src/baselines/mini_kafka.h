#ifndef STREAMLAKE_BASELINES_MINI_KAFKA_H_
#define STREAMLAKE_BASELINES_MINI_KAFKA_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "storage/storage_pool.h"
#include "streaming/message.h"

namespace streamlake::baselines {

/// \brief Faithful mini-reimplementation of Kafka's storage model, the
/// streaming baseline of Section VII: per-partition append-only segment
/// files on the (local) file system, replication factor 3, and a page
/// cache in front of the active segment.
///
/// The contrast with StreamLake's stream objects: Kafka stores messages
/// *via files* with replication (3x space), is coupled to its brokers'
/// local disks (scaling moves data), and needs an external system (HDFS)
/// for batch access.
class MiniKafka {
 public:
  struct Options {
    uint64_t segment_bytes = 64ULL << 20;
    int replication = 3;
    /// Page-cache writeback granularity: appends buffer in the OS page
    /// cache and flush to the log files in batches (Kafka relies on
    /// "unreliable components like file systems and page caches" —
    /// Section V-A — which is also why it is fast).
    uint64_t writeback_bytes = 64ULL << 10;
  };

  explicit MiniKafka(storage::StoragePool* pool);
  MiniKafka(storage::StoragePool* pool, Options options);

  Status CreateTopic(const std::string& topic, uint32_t partitions);
  Status DeleteTopic(const std::string& topic);

  /// Append one message; returns (partition, offset). Keyed messages hash
  /// to a partition; empty keys round-robin.
  struct ProduceResult {
    uint32_t partition = 0;
    uint64_t offset = 0;
  };
  Result<ProduceResult> Produce(const std::string& topic,
                                const streaming::Message& message);

  /// Fetch up to `max_messages` from `offset`.
  Result<std::vector<streaming::Message>> Fetch(const std::string& topic,
                                                uint32_t partition,
                                                uint64_t offset,
                                                size_t max_messages) const;

  Result<uint64_t> EndOffset(const std::string& topic,
                             uint32_t partition) const;

  /// Force page-cache writeback of every active segment (fsync).
  Status Flush();

  /// Logical message bytes stored (before replication).
  uint64_t TotalLogicalBytes() const;
  /// Physical bytes including replication.
  uint64_t TotalPhysicalBytes() const;

 private:
  struct Segment {
    std::vector<storage::Extent> replicas;  // one extent per replica
    uint64_t base_offset = 0;               // first message offset
    uint64_t bytes = 0;                     // bytes written so far
    uint64_t messages = 0;
    std::vector<uint64_t> message_offsets;  // byte offset of each message
    Bytes page_cache;  // active-segment contents cached in memory
    uint64_t flushed_bytes = 0;  // page-cache writeback frontier
    bool sealed = false;
  };
  struct Partition {
    std::vector<std::unique_ptr<Segment>> segments;
    uint64_t next_offset = 0;
  };
  struct Topic {
    std::vector<Partition> partitions;
    uint64_t rr_cursor = 0;
  };

  Result<Segment*> ActiveSegment(Partition* partition) REQUIRES(mu_);
  /// Write the segment's dirty page-cache tail to every replica.
  Status Writeback(Segment* segment) REQUIRES(mu_);

  storage::StoragePool* pool_;
  Options options_;
  mutable Mutex mu_{LockRank::kMiniKafka, "baselines.mini_kafka"};
  std::map<std::string, Topic> topics_ GUARDED_BY(mu_);
};

}  // namespace streamlake::baselines

#endif  // STREAMLAKE_BASELINES_MINI_KAFKA_H_
