#ifndef STREAMLAKE_STORAGE_PLOG_STORE_H_
#define STREAMLAKE_STORAGE_PLOG_STORE_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "sim/clock.h"
#include "storage/plog.h"

namespace streamlake::storage {

/// Durable address of one record: which shard, which PLog in the shard's
/// chain, and the logical offset inside that PLog.
struct PlogAddress {
  uint32_t shard = 0;
  uint32_t plog_index = 0;
  uint64_t offset = 0;

  bool operator==(const PlogAddress& other) const {
    return shard == other.shard && plog_index == other.plog_index &&
           offset == other.offset;
  }
};

struct PlogStoreConfig {
  /// Logical shards of the distributed hash table (Fig. 4-d). The paper
  /// uses 4096; tests shrink this.
  uint32_t num_shards = 4096;
  /// Lock stripes the shards are spread over (shard s lives in stripe
  /// s % num_stripes). Appends/reads on shards in different stripes never
  /// contend; store-wide operations visit stripes one at a time instead of
  /// stopping the world. Clamped to [1, num_shards].
  uint32_t num_stripes = 64;
  PlogConfig plog;
  /// Test/bench hook invoked inside Append while the stripe lock is held,
  /// right after the record lands on the device. Stands in for device
  /// dwell time: lets tests prove that stalling one stripe's I/O does not
  /// block appends on other stripes, and lets bench_shard_scaling model a
  /// real per-append device latency. Null (default) = no-op.
  std::function<void(uint32_t shard)> io_delay_hook;
  /// Read-side twin of io_delay_hook: invoked inside Read while the
  /// stripe lock is held, right after the record comes off the device.
  /// Lets bench_scan_scaling model per-read device latency to prove scan
  /// fan-out overlaps I/O across files. Null (default) = no-op.
  std::function<void(uint32_t shard)> io_read_delay_hook;
};

/// \brief The store-layer write path of Fig. 4: records hash to one of
/// `num_shards` logical shards; each shard's space is managed by a chain
/// of PLogs (the active one takes appends; full ones are sealed and become
/// candidates for tiering and GC).
class PlogStore {
 public:
  PlogStore(StoragePool* pool, PlogStoreConfig config, sim::SimClock* clock);

  /// Hash a key to its shard ("a distributed hash table is leveraged to
  /// ensure even data distribution").
  uint32_t ShardOf(ByteView key) const;

  /// Append to an explicit shard; rolls the active PLog when full.
  Result<PlogAddress> Append(uint32_t shard, ByteView record);

  /// Append routed by key hash.
  Result<PlogAddress> AppendKeyed(ByteView key, ByteView record) {
    return Append(ShardOf(key), record);
  }

  Result<Bytes> Read(const PlogAddress& address) const;

  /// Mark a record's payload dead; when a sealed PLog's live bytes hit
  /// zero its extents are reclaimed ("garbage collection" of the pools).
  Status MarkGarbage(const PlogAddress& address, uint64_t payload_bytes);

  /// Flush every active PLog (EC stripe tails).
  Status FlushAll();

  /// Visit every PLog (tiering service, stats).
  void ForEachPlog(const std::function<void(uint32_t shard, uint32_t index,
                                            Plog*)>& fn) const;

  /// Migrate one sealed PLog to `target` (tiering primitive). Addresses
  /// remain valid.
  Status MigratePlog(uint32_t shard, uint32_t index, StoragePool* target);

  uint32_t num_shards() const { return config_.num_shards; }
  uint32_t num_stripes() const {
    return static_cast<uint32_t>(stripes_.size());
  }
  uint64_t TotalLogicalBytes() const;
  uint64_t TotalPlogs() const;
  /// Live payload bytes (logical minus garbage) across all PLogs.
  uint64_t TotalLiveBytes() const;
  /// Physical footprint of live data: live bytes x redundancy
  /// amplification (the "storage usage" of Table I).
  uint64_t TotalLivePhysicalBytes() const;

 private:
  struct Shard {
    std::vector<std::unique_ptr<Plog>> chain;
  };

  /// One lock stripe: shard s lives in stripe s % num_stripes at local
  /// index s / num_stripes. All stripe mutexes share LockRank::kPlogStore
  /// and carry their array index as the stripe sub-rank, so the runtime
  /// checker permits multi-stripe operations only in ascending stripe
  /// order (FlushAll, ForEachPlog, Total*) and still aborts on any ABBA
  /// pattern between stripes.
  struct Stripe {
    Stripe(uint32_t index, size_t shard_count)
        : mu(LockRank::kPlogStore, "storage.plog_store.stripe", index),
          shards(shard_count) {}
    mutable Mutex mu{LockRank::kPlogStore, "storage.plog_store.stripe"};
    std::vector<Shard> shards GUARDED_BY(mu);
  };

  Stripe& StripeFor(uint32_t shard) const {
    return *stripes_[shard % stripes_.size()];
  }
  uint32_t LocalIndex(uint32_t shard) const {
    return shard / static_cast<uint32_t>(stripes_.size());
  }
  /// PLog `index` of `shard`'s chain, validating both. The caller holds
  /// `stripe` = StripeFor(shard); StripeFor is total, so the shard check
  /// can follow the lock. Callers keep their own lock scope, so slint sees
  /// the I/O each one does under it.
  Result<Plog*> FindLocked(const Stripe& stripe, uint32_t shard,
                           uint32_t index) const REQUIRES(stripe.mu);
  /// Sums `fn(plog)` over every PLog, one stripe lock at a time in
  /// ascending stripe order.
  template <typename Fn>
  uint64_t SumPlogs(Fn&& fn) const;

  StoragePool* pool_;
  PlogStoreConfig config_;
  sim::SimClock* clock_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

}  // namespace streamlake::storage

#endif  // STREAMLAKE_STORAGE_PLOG_STORE_H_
