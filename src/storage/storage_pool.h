#ifndef STREAMLAKE_STORAGE_STORAGE_POOL_H_
#define STREAMLAKE_STORAGE_STORAGE_POOL_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "storage/block_device.h"

namespace streamlake::storage {

/// A contiguous extent allocated on one disk.
struct Extent {
  BlockDevice* device = nullptr;
  uint64_t offset = 0;
  uint64_t size = 0;
};

/// The replica rules every replicated user of a pool shares: Plog's
/// replication scheme, the block service's volumes and the HDFS and Kafka
/// baselines. Each replica holds the same bytes at the same in-extent
/// offset.
///
/// Reads `length` bytes at `offset` from the first replica whose device
/// serves them, in replica order; fails with the last replica's error.
/// Replica i is passed over when bit i of `skip` is set (it is known not
/// to hold the bytes).
Result<Bytes> ReadReplica(std::span<const Extent> replicas, uint64_t offset,
                          uint64_t length, uint64_t skip = 0);
/// Writes `data` at `offset` to every replica in order, stopping at the
/// first failure.
Status WriteReplicas(std::span<const Extent> replicas, uint64_t offset,
                     ByteView data);

/// \brief One media tier of the store layer (the SSD pool or the HDD pool,
/// Section III). Owns disks across cluster nodes and hands out extents.
///
/// "The physical storage space on the disks in the storage cluster is
/// divided into slices, which are then organized as logical units across
/// disks in various servers to ensure data redundancy and load balancing."
class StoragePool {
 public:
  StoragePool(std::string name, sim::MediaType media, sim::SimClock* clock);

  /// Add one disk on `node_id`. Returns the device id.
  uint32_t AddDevice(uint32_t node_id, uint64_t capacity_bytes);

  /// Convenience: `nodes` nodes x `disks_per_node` disks.
  void AddCluster(uint32_t nodes, uint32_t disks_per_node,
                  uint64_t capacity_per_disk);

  /// Allocate `count` extents of `size` bytes each. When `distinct_nodes`
  /// is set, no two extents share a node (so redundancy survives node
  /// loss); otherwise they avoid sharing a disk. Allocation rotates across
  /// devices for load balance.
  Result<std::vector<Extent>> AllocateExtents(int count, uint64_t size,
                                              bool distinct_nodes);

  /// The placement rule of every redundancy group: `count` extents on
  /// distinct nodes, falling back to distinct disks when no distinct-node
  /// placement fits. Each attempt steps the round-robin cursor once.
  Result<std::vector<Extent>> AllocateSpread(int count, uint64_t size);

  /// Return an extent's space to the pool.
  void FreeExtent(const Extent& extent);
  /// Return every extent's space to the pool.
  void FreeExtents(std::span<const Extent> extents);

  const std::string& name() const { return name_; }
  sim::MediaType media() const { return media_; }
  size_t num_devices() const { return devices_.size(); }
  BlockDevice* device(size_t i) { return devices_[i].get(); }

  uint64_t TotalCapacity() const;
  uint64_t AllocatedBytes() const;

  /// Fail / recover every disk on one node (fault injection).
  void SetNodeFailed(uint32_t node_id, bool failed);

  /// Aggregate device I/O counters across the pool.
  sim::DeviceStats AggregateStats() const;

 private:
  struct DeviceState {
    uint64_t next_offset = 0;               // bump allocator frontier
    std::vector<std::pair<uint64_t, uint64_t>> free_list;  // (offset, size)
  };

  /// Try to carve `size` bytes from device `idx`; returns false when full.
  bool TryAllocate(size_t idx, uint64_t size, Extent* out) REQUIRES(mu_);

  std::string name_;
  sim::MediaType media_;
  sim::SimClock* clock_;
  // Per-tier registry metrics (`storage.pool.<name>.*`); pools sharing a
  // name (e.g. every test's "ssd") aggregate into the same counters.
  Counter* alloc_ops_;
  Counter* alloc_bytes_;
  Counter* freed_bytes_;
  Gauge* allocated_gauge_;
  Gauge* tier_read_bytes_;
  Gauge* tier_write_bytes_;
  std::vector<std::unique_ptr<BlockDevice>> devices_;
  std::vector<DeviceState> states_ GUARDED_BY(mu_);
  mutable Mutex mu_{LockRank::kStoragePool, "storage.pool"};
  size_t rr_cursor_ GUARDED_BY(mu_) = 0;  // round-robin start
  uint64_t allocated_bytes_ GUARDED_BY(mu_) = 0;
};

}  // namespace streamlake::storage

#endif  // STREAMLAKE_STORAGE_STORAGE_POOL_H_
