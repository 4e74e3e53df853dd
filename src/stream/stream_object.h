#ifndef STREAMLAKE_STREAM_STREAM_OBJECT_H_
#define STREAMLAKE_STREAM_STREAM_OBJECT_H_

#include <list>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>

#include "common/mutex.h"
#include "common/threadpool.h"
#include "kv/kv_store.h"
#include "sim/clock.h"
#include "sim/device_model.h"
#include "storage/object_store.h"
#include "storage/plog_store.h"
#include "stream/stream_record.h"

namespace streamlake::stream {

/// Creation options of a stream object (CREATE_OPTIONS_S, Fig. 3): data
/// redundancy method and I/O quota.
struct StreamObjectOptions {
  storage::RedundancyConfig redundancy =
      storage::RedundancyConfig::Replication(3);
  /// Max appended records/second measured on the sim clock; 0 = unlimited.
  uint64_t io_quota_records_per_sec = 0;
  /// Aggregate appends into 256-record slices before hitting storage
  /// ("an I/O aggregation mechanism is used to aggregate small I/O
  /// requests ... can be disabled for latency-sensitive scenarios").
  bool io_aggregation = true;
  /// Records per slice ("each slice contains up to 256 records", Fig. 4).
  size_t records_per_slice = 256;
  /// Serve reads through the manager's SCM slice cache when available
  /// (the scm_cache topic flag of Fig. 8).
  bool use_scm_cache = true;
};

/// LRU cache of decoded slices on storage-class memory (the scm_cache
/// topic option / hardware Set-2 of Section VII-C). Shared by the stream
/// objects of one manager.
class ScmSliceCache {
 public:
  ScmSliceCache(sim::DeviceModel* pmem, size_t capacity_slices)
      : pmem_(pmem), capacity_(capacity_slices) {}

  /// A cached slice. Shared, so an eviction by another object's Put never
  /// frees records a reader still holds.
  using SlicePtr = std::shared_ptr<const std::vector<StreamRecord>>;

  /// Returns the cached slice or nullptr; charges a PMEM read on hit.
  SlicePtr Get(uint64_t object_id, uint64_t slice_seq);
  /// Insert a slice; charges a PMEM write and evicts LRU entries.
  void Put(uint64_t object_id, uint64_t slice_seq, SlicePtr records);

  uint64_t hits() const {
    MutexLock lock(&mu_);
    return hits_;
  }
  uint64_t misses() const {
    MutexLock lock(&mu_);
    return misses_;
  }

 private:
  using Key = std::pair<uint64_t, uint64_t>;
  struct Entry {
    Key key;
    SlicePtr records;
    size_t bytes = 0;
  };

  sim::DeviceModel* pmem_;
  size_t capacity_;
  mutable Mutex mu_{LockRank::kScmSliceCache, "stream.scm_cache"};
  std::list<Entry> lru_ GUARDED_BY(mu_);  // front = most recent
  std::map<Key, std::list<Entry>::iterator> index_ GUARDED_BY(mu_);
  uint64_t hits_ GUARDED_BY(mu_) = 0;
  uint64_t misses_ GUARDED_BY(mu_) = 0;
};

/// \brief A stream object: the store-layer abstraction for one partition
/// of a key-value message stream (Section IV-A).
///
/// Records are strictly ordered by their append offset; slices of up to
/// 256 records are the persistence unit, hashed over the PLog shards
/// (Fig. 4). Writes are idempotent per producer. Thread-safe.
class StreamObject {
 public:
  StreamObject(uint64_t id, storage::PlogStore* plogs, kv::KvStore* index,
               sim::SimClock* clock, StreamObjectOptions options,
               ScmSliceCache* cache, ThreadPool* io_pool = nullptr);

  uint64_t id() const { return id_; }

  /// Append records; returns the offset of the first appended record
  /// (AppendServerStreamObject). Duplicates from producer retries are
  /// skipped; quota overruns return QuotaExceeded. Every full slice of the
  /// unpersisted tail persists before this returns, and with `flush` the
  /// partial final slice does too (the group append of SendBatch); with
  /// io_aggregation off every record is its own slice. Slice PLog appends
  /// fan out over the shared I/O pool (inline when no pool was supplied)
  /// with the stream lock released: readers proceed, mutating calls queue
  /// behind the in-flight append. Index entries then commit in slice order;
  /// a failed persist rolls back the uncommitted PLog appends and leaves
  /// their records buffered and readable, for the next Append or Flush to
  /// re-persist. Takes the batch by value so callers on the hot path can
  /// move it in.
  Result<uint64_t> Append(std::vector<StreamRecord> records,
                          bool flush = false);

  /// Read up to `max_records` records starting at `offset`
  /// (ReadServerStreamObject). Reading at the frontier returns an empty
  /// vector (the message service polls).
  Result<std::vector<StreamRecord>> Read(uint64_t offset,
                                         size_t max_records) const;

  /// Next offset to be assigned (== record count including buffered tail).
  uint64_t frontier() const;

  /// Smallest offset whose record timestamp is >= `timestamp` (consumers
  /// seeking by event time, like Kafka's offsetsForTimes). Returns the
  /// frontier when every record is older. Assumes timestamps are
  /// non-decreasing, which time-ordered log ingestion provides.
  Result<uint64_t> FindOffsetByTimestamp(int64_t timestamp) const;

  /// Number of records already persisted to PLogs.
  uint64_t persisted() const;

  /// Force the buffered tail slice out to storage: Append({}, true).
  Status Flush();

  /// Mark all persisted slices as garbage (DestroyServerStreamObject).
  Status Destroy();

  /// Drop records below `offset` (storage reclaimed slice-by-slice). Used
  /// by stream-to-table conversion with delete_msg: once converted, the
  /// stream copy is released so only one copy remains. Reads below the
  /// trim point fail.
  Status TrimTo(uint64_t offset);

  /// Crash recovery: rebuild the slice directory from the durable KV
  /// index (Fig. 4: "we use key-value databases to serve as indexes for
  /// PLogs"). The unpersisted tail buffer is lost — producers re-send it
  /// and idempotence drops any duplicates. Requires a fresh object.
  Status RecoverFromIndex();

  /// First offset still readable (0 until trimmed).
  uint64_t trimmed_until() const;

 private:
  struct SliceMeta {
    uint64_t seq = 0;  // index/cache key; survives trims and recovery
    uint64_t start_offset = 0;
    uint32_t count = 0;
    storage::PlogAddress address;
    uint64_t payload_bytes = 0;
  };

  /// One slice of an Append: encoded and appended to the PLog store with
  /// no stream lock held (possibly on an I/O pool thread), then committed
  /// to the slice index under mu_. `records` views active_, which nothing
  /// mutates while the append is in flight.
  struct SliceJob {
    uint64_t seq = 0;
    std::span<const StreamRecord> records;
    storage::PlogAddress address;
    uint64_t payload_bytes = 0;
    Status status = Status::OK();
  };

  Status CheckQuotaLocked(size_t incoming) REQUIRES(mu_);
  /// Blocks until no Append persist phase is in flight. Every mutating
  /// entry point calls this right after taking mu_; read paths need not
  /// (the in-flight state is always readable: active_ keeps the
  /// unpersisted tail until the append commits).
  void WaitAppendIdleLocked() REQUIRES(mu_);
  /// Encode + PLog-append one slice. Takes no locks on the stream object;
  /// called with mu_ released.
  void RunSliceJob(SliceJob* job);
  std::string IndexKey(uint64_t slice_seq) const;

  const uint64_t id_;
  storage::PlogStore* plogs_;
  kv::KvStore* index_;
  sim::SimClock* clock_;
  StreamObjectOptions options_;
  ScmSliceCache* cache_;    // may be nullptr
  ThreadPool* io_pool_;     // may be nullptr (slices persist inline)

  mutable Mutex mu_{LockRank::kStreamObject, "stream.object"};
  /// True while an Append holds slices in flight with mu_ released;
  /// paired with append_cv_. Mutators wait; readers do not.
  bool append_inflight_ GUARDED_BY(mu_) = false;
  CondVar append_cv_;
  std::vector<SliceMeta> slices_ GUARDED_BY(mu_);
  std::vector<StreamRecord> active_ GUARDED_BY(mu_);  // buffered tail
  uint64_t frontier_ GUARDED_BY(mu_) = 0;
  uint64_t persisted_ GUARDED_BY(mu_) = 0;
  std::unordered_map<uint64_t, uint64_t> producer_last_seq_
      GUARDED_BY(mu_);
  uint64_t trimmed_until_ GUARDED_BY(mu_) = 0;
  size_t first_live_slice_ GUARDED_BY(mu_) = 0;
  uint64_t next_slice_seq_ GUARDED_BY(mu_) = 0;
  // Quota token accounting.
  uint64_t quota_epoch_ns_ GUARDED_BY(mu_) = 0;
  uint64_t quota_consumed_ GUARDED_BY(mu_) = 0;
  bool destroyed_ GUARDED_BY(mu_) = false;
};

/// Creates, resolves, and destroys stream objects; owns the SCM cache.
/// This is the "stream object client" surface workers talk to.
class StreamObjectManager {
 public:
  /// `io_pool` (optional) is handed to every stream object as the shared
  /// slice persist pool of Append; the caller owns it and must keep it alive
  /// for the manager's lifetime.
  StreamObjectManager(storage::PlogStore* plogs, kv::KvStore* index,
                      sim::SimClock* clock,
                      sim::DeviceModel* pmem = nullptr,
                      size_t cache_capacity_slices = 1024,
                      ThreadPool* io_pool = nullptr);

  /// CreateServerStreamObject: allocate an object id. The options persist
  /// in the KV index so a restarted manager can recover the object.
  Result<uint64_t> CreateObject(const StreamObjectOptions& options);

  /// Crash recovery: recreate every stream object recorded in the KV
  /// index (options + slice directories). The manager must be empty.
  /// Returns the number of objects recovered.
  Result<size_t> RecoverAll();

  /// Resolve an object id; nullptr when unknown or destroyed.
  StreamObject* GetObject(uint64_t object_id);

  /// DestroyServerStreamObject.
  Status DestroyObject(uint64_t object_id);

  ScmSliceCache* cache() { return cache_.get(); }
  size_t num_objects() const;

 private:
  storage::PlogStore* plogs_;
  kv::KvStore* index_;
  sim::SimClock* clock_;
  ThreadPool* io_pool_;
  std::unique_ptr<ScmSliceCache> cache_;
  mutable Mutex mu_{LockRank::kStreamObjectManager,
                    "stream.object_manager"};
  std::map<uint64_t, std::unique_ptr<StreamObject>> objects_
      GUARDED_BY(mu_);
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace streamlake::stream

#endif  // STREAMLAKE_STREAM_STREAM_OBJECT_H_
