#ifndef STREAMLAKE_KV_KV_STORE_H_
#define STREAMLAKE_KV_KV_STORE_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "kv/write_batch.h"
#include "sim/device_model.h"

namespace streamlake::kv {

struct KvOptions {
  /// Simulated device the write-ahead log is persisted to; nullptr keeps
  /// the store purely in memory (no durability cost charged).
  sim::DeviceModel* wal_device = nullptr;
  /// Device charged on point reads; models the SCM/RDMA-resident catalog
  /// engine of Section IV-B. nullptr charges nothing.
  sim::DeviceModel* read_device = nullptr;
};

/// \brief Embedded, ordered key-value store holding the latest value of
/// each key.
///
/// This is the "fault-tolerant key-value store" used throughout StreamLake:
/// the PLog record index (Fig. 4), the stream dispatcher topology, consumer
/// offsets, and the metadata-acceleration catalog cache. It offers:
///  * atomic WriteBatch commits with a monotonic sequence number,
///  * ordered prefix scans that never show part of a batch,
///  * a CRC-protected WAL encoding for crash recovery.
///
/// Thread-safe. A delete erases its key; no older value is kept.
class KvStore {
 public:
  /// Lock stripes the keyspace is hashed over. Point ops touch one stripe;
  /// batch commits lock only the stripes they touch, in ascending index
  /// order; Scan holds every stripe's reader lock.
  static constexpr size_t kStripes = 16;

  explicit KvStore(KvOptions options = KvOptions());

  KvStore(const KvStore&) = delete;
  KvStore& operator=(const KvStore&) = delete;

  /// Apply `batch` atomically; all ops become visible at one new sequence.
  Status Write(const WriteBatch& batch);

  Status Put(std::string_view key, std::string_view value);
  Status Delete(std::string_view key);

  /// Read the latest value of `key`.
  Result<std::string> Get(std::string_view key) const;

  bool Contains(std::string_view key) const { return Get(key).ok(); }

  /// The first `limit` keys that start with `prefix`, in key order, with
  /// their values. An empty prefix scans every key.
  std::vector<std::pair<std::string, std::string>> Scan(
      std::string_view prefix, size_t limit = SIZE_MAX) const;

  /// Number of keys that hold a value.
  size_t LiveKeyCount() const;

  /// Sequence of the last committed batch; 0 if none was ever committed.
  uint64_t LatestSequence() const;

  /// Serialized WAL of every batch committed so far, in commit order.
  /// Replay with Recover() to reconstruct the store after a crash.
  Bytes WalContents() const;

  /// Rebuild state by replaying a WAL byte stream. The store must never
  /// have committed a batch (replaying on top would fork the sequence).
  /// Stops at the first corrupt record (torn tail) and reports how many
  /// batches were applied.
  Result<size_t> Recover(ByteView wal);

 private:
  /// One lock-striped sub-store. Keys hash to a stripe (StripeOf); each
  /// stripe owns an ordered sub-map and a WAL segment of (sequence,
  /// encoded batch) pairs. All stripe mutexes share LockRank::kKvStore and
  /// carry their array index as the stripe sub-rank, so the runtime
  /// checker enforces that multi-stripe locking acquires in ascending
  /// stripe-index order.
  ///
  /// Whole-batch invariant: Write applies every op while holding each
  /// touched stripe's writer lock, and Scan collects while holding every
  /// stripe's reader lock, so a scan sees a batch entirely or not at all.
  struct Stripe {
    explicit Stripe(uint32_t index)
        : mu(LockRank::kKvStore, "kv.store.stripe", index) {}
    mutable SharedMutex mu{LockRank::kKvStore, "kv.store.stripe"};
    std::map<std::string, std::string, std::less<>> table GUARDED_BY(mu);
    std::vector<std::pair<uint64_t, Bytes>> wal GUARDED_BY(mu);
  };

  size_t StripeOf(std::string_view key) const;

  KvOptions options_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  /// Global commit sequence, assigned while the batch's stripes are
  /// writer-held so WAL segments merge back into commit order.
  std::atomic<uint64_t> sequence_{0};
};

}  // namespace streamlake::kv

#endif  // STREAMLAKE_KV_KV_STORE_H_
